package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// service starts shard workers and when setup probes re-execute it.
func TestMain(m *testing.M) {
	if code, ok := childMode(os.Args[1:]); ok {
		os.Exit(code)
	}
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(doc))
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredWorkloads(t *testing.T) {
	d := readDeclared(t)
	var got, want []string
	for _, w := range d.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", got, want)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line carries exactly the metrics BENCHMARK.json
// declares, with the declared units.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := make(map[string]string)
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.01", "-trace", trace, "-tiny", "-work-dir", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatal(err)
				}
				var names []string
				for k := range keys {
					names = append(names, k)
				}
				sort.Strings(names)
				if got := strings.Join(names, ","); got != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %s", got)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := units(d.EndToEnd)
				if trace == "1" {
					want = units(d.PerLayer)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s not declared", name)
					}
				}
			})
		}
	}
}
