package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccdem/internal/perfgate"
)

// benchOutput renders go test -bench output for one benchmark run three
// times at the given ns/op and allocs/op.
func benchOutput(ns, allocs int) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: ccdem/internal/framebuffer\n")
	for range 3 {
		fmt.Fprintf(&b, "BenchmarkFillVideoBands-2   \t   30000\t%10d ns/op\t       0 B/op\t%8d allocs/op\n", ns, allocs)
	}
	b.WriteString("PASS\nok  \tccdem/internal/framebuffer\t1.000s\n")
	return b.String()
}

// gateFixture writes a baseline pinning BenchmarkFillVideoBands at
// 35 µs and 0 allocs/op, plus a bench output file, into a temp dir.
func gateFixture(t *testing.T, ns, allocs int) (baseline, input string) {
	t.Helper()
	dir := t.TempDir()
	baseline = filepath.Join(dir, "baseline.json")
	base := &perfgate.Baseline{Benchmarks: map[string]perfgate.Result{
		"BenchmarkFillVideoBands": {Name: "BenchmarkFillVideoBands", NsPerOp: 35000, Runs: 3},
	}}
	if err := base.Save(baseline); err != nil {
		t.Fatal(err)
	}
	input = filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(input, []byte(benchOutput(ns, allocs)), 0o644); err != nil {
		t.Fatal(err)
	}
	return baseline, input
}

func TestRunPassesWithinBaseline(t *testing.T) {
	baseline, input := gateFixture(t, 36000, 0)
	report := filepath.Join(t.TempDir(), "report.txt")
	if err := run(baseline, input, false, 0.10, false, report, 0, ""); err != nil {
		t.Fatalf("gate failed on a run within the baseline: %v", err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkFillVideoBands") {
		t.Errorf("report does not name the gated benchmark:\n%s", data)
	}
}

func TestRunFailsOnAllocGrowth(t *testing.T) {
	// Faster, but allocating: alloc growth fails even with -warn-time.
	baseline, input := gateFixture(t, 20000, 2)
	err := run(baseline, input, false, 0.10, true, "", 0, "")
	if err == nil || !strings.Contains(err.Error(), "gate failed") {
		t.Fatalf("allocs/op 0 -> 2 passed the gate (err %v)", err)
	}
}

func TestRunUpdateRewritesBaseline(t *testing.T) {
	baseline, input := gateFixture(t, 50000, 1)
	if err := run(baseline, input, true, 0.10, false, "", 5, "300ms"); err != nil {
		t.Fatal(err)
	}
	base, err := perfgate.LoadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	got := base.Benchmarks["BenchmarkFillVideoBands"]
	if got.NsPerOp != 50000 || got.AllocsPerOp != 1 || got.Runs != 3 {
		t.Errorf("updated baseline holds %+v, want 50000 ns/op, 1 allocs/op over 3 runs", got)
	}
	if !strings.Contains(base.Note, "-count 5 -benchtime 300ms") {
		t.Errorf("updated baseline note %q does not record the run settings", base.Note)
	}
	// The rewritten baseline now gates the same output as a pass.
	if err := run(baseline, input, false, 0.10, false, "", 0, ""); err != nil {
		t.Fatalf("gate failed against the baseline it just wrote: %v", err)
	}
}
