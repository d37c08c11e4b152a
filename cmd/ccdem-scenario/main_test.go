package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccdem/internal/app"
	"ccdem/internal/scenario"
	"ccdem/internal/sim"
)

// tinyScenario writes a two-phase, two-second scenario file.
func tinyScenario(t *testing.T) string {
	t.Helper()
	kakao, _ := app.ByName("KakaoTalk")
	video, _ := app.ByName("MX Player")
	sc := scenario.Scenario{
		Name: "tiny",
		Phases: []scenario.Phase{
			{App: kakao, Duration: sim.Second, Seed: 1},
			{App: video, Duration: sim.Second},
		},
	}
	path := filepath.Join(t.TempDir(), "tiny.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTinyScenarioRuns(t *testing.T) {
	path := tinyScenario(t)
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-file", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"Baseline:", "Managed (section + touch boosting):", "KakaoTalk", "MX Player", "display quality under management"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("paired output lacks %q:\n%s", want, stdout.String())
		}
	}

	stdout.Reset()
	if code := realMain([]string{"-file", path, "-mode", "section"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-mode section: exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "Baseline:") || !strings.Contains(stdout.String(), "MX Player") {
		t.Errorf("single-mode output is not one configuration's report:\n%s", stdout.String())
	}
}

func TestExampleRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-example"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	sc, err := scenario.ReadScenario(&stdout)
	if err != nil {
		t.Fatalf("-example output does not parse: %v", err)
	}
	if len(sc.Phases) == 0 {
		t.Error("-example scenario has no phases")
	}
}

func TestUsageErrors(t *testing.T) {
	path := tinyScenario(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"no file", nil, 2},
		{"unknown mode", []string{"-file", path, "-mode", "warp"}, 1},
		{"missing file", []string{"-file", filepath.Join(t.TempDir(), "absent.json")}, 1},
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
