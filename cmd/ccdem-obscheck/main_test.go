package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccdem/internal/obs"
)

// artifacts writes a Prometheus exposition from a real registry and a
// two-process span trace, as the daemon's telemetry surfaces produce them.
func artifacts(t *testing.T) (prom, trace string) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	reg.Counter("frames_total").Add(42)
	reg.Histogram("device_power_mw", obs.PowerBucketsMW).Observe(812)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom = filepath.Join(dir, "metrics.prom")
	if err := os.WriteFile(prom, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	tr.AddSpans(1, "daemon", []obs.Span{{Name: "dispatch", End: time.Millisecond}})
	tr.AddSpans(2, "worker", []obs.Span{{Name: "run", End: 2 * time.Millisecond}})
	buf.Reset()
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trace = filepath.Join(dir, "trace.json")
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return prom, trace
}

func TestValidArtifactsPass(t *testing.T) {
	prom, trace := artifacts(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-prom", prom, "-require", "frames_total,device_power_mw",
		"-trace", trace, "-min-pids", "2", "-spans", "dispatch,run",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"prom ok", "trace ok"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q: %s", want, stdout.String())
		}
	}
}

func TestMalformedInputFails(t *testing.T) {
	prom, trace := artifacts(t)
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"prom syntax", []string{"-prom", write("bad.prom", "frames_total{ 1\n")}, 1},
		{"prom histogram buckets decrease", []string{"-prom", write("nobucket.prom",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n")}, 1},
		{"prom missing family", []string{"-prom", prom, "-require", "no_such_family"}, 1},
		{"trace not JSON", []string{"-trace", write("bad.json", "{not json")}, 1},
		{"trace too few processes", []string{"-trace", trace, "-min-pids", "3"}, 1},
		{"trace missing span", []string{"-trace", trace, "-spans", "merge"}, 1},
		{"missing file", []string{"-prom", filepath.Join(dir, "absent.prom")}, 1},
		{"nothing to check", nil, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
		})
	}
}
