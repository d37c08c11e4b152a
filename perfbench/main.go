// Command perfbench is ccdem's campaign benchmark: it runs one named
// workload for a fixed wall time, checks the program's outputs, and
// prints its metrics as one JSON object on the last line of stdout,
// after a line with the run's metadata (seed, sizes, GOMAXPROCS, nproc,
// Go version, commit, per-repetition rates).
//
//	bash perfbench/run.sh --workload mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// adds a traced pass that times the benchmark's calls into each layer,
// reports the per-layer metrics and writes the spans to the work
// directory. The workloads and the metric map are described in
// workloads.go. The benchmark's own tests run with
// "cd perfbench && go test ./...".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ccdem/internal/svc"
)

// shardWorkerFlag re-enters the binary as a campaign-service shard worker.
const shardWorkerFlag = "-shard-worker"

func main() {
	if code, ok := childMode(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMode runs the shard-worker mode the service's ProcRunner starts.
func childMode(args []string) (int, bool) {
	if len(args) != 2 || args[0] != shardWorkerFlag {
		return 0, false
	}
	if err := svc.RunWorker(context.Background(), args[1], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1, true
	}
	return 0, true
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	tiny     bool
	probe    bool
	commit   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (mix, idler, svc-sharded)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in wall seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for span files and service state")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.BoolVar(&o.probe, "setup-probe", false, "time one setup, print it and exit")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the measured program, recorded in the run metadata")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = traceFlag == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(w, o)
	if o.probe {
		s, err := b.setupOnly()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", strconv.FormatFloat(s, 'g', -1, 64))
		return 0
	}
	res, err := b.execute()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	meta, _ := json.Marshal(map[string]any{"run": b.meta})
	fmt.Fprintf(stdout, "%s\n", meta)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// goSample is the Go runtime's allocation and CPU accounting at one
// instant; goDelta is the difference across the timed phase.
type goSample struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

type goDelta struct {
	allocsPerDevice, bytesPerDevice, gcCPUFrac float64
}

func readGo() goSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

func (s goSample) since(from goSample, devices int) goDelta {
	return goDelta{
		allocsPerDevice: ratio(float64(s.mallocs-from.mallocs), float64(devices)),
		bytesPerDevice:  ratio(float64(s.bytes-from.bytes), float64(devices)),
		gcCPUFrac:       ratio(s.gcCPU-from.gcCPU, s.cpu-from.cpu),
	}
}

// resetPeakRSS collects garbage, returns the freed pages to the OS and
// restarts the kernel's peak-RSS counter, so that peakRSSMB reads the
// high-water mark of what runs next rather than of the warm-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Without clear_refs the counter keeps the whole process's peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set since resetPeakRSS, or,
// with children, the larger of it and the largest waited-for child's
// (the service's shard workers).
func peakRSSMB(children bool) (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb int64
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
		}
	}
	if children {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
			return 0, err
		}
		kb = max(kb, ru.Maxrss) // Linux reports kilobytes
	}
	return float64(kb) / 1024, nil
}
