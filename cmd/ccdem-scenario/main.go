// Command ccdem-scenario runs a multi-phase usage scenario from a JSON
// file under one or more governor configurations and reports per-phase
// power, battery impact and display quality.
//
// Usage:
//
//	ccdem-scenario -file day.json                 # baseline vs full system
//	ccdem-scenario -file day.json -mode section   # one configuration
//	ccdem-scenario -example > day.json            # print a starter file
//
// The scenario format is defined by internal/scenario: phases reference
// catalog apps by name or embed custom workloads (see app.WriteParams).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/battery"
	"ccdem/internal/buildinfo"
	"ccdem/internal/scenario"
	"ccdem/internal/sim"
)

var modes = map[string]ccdem.GovernorMode{
	"baseline":      ccdem.GovernorOff,
	"section":       ccdem.GovernorSection,
	"section+boost": ccdem.GovernorSectionBoost,
	"naive":         ccdem.GovernorNaive,
	"e3":            ccdem.GovernorE3,
	"idle-timeout":  ccdem.GovernorIdleTimeout,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status: 0 on success,
// 1 when the scenario fails, 2 on a usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccdem-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "scenario JSON file")
	mode := fs.String("mode", "", "run a single configuration instead of the baseline-vs-managed pair")
	example := fs.Bool("example", false, "print a starter scenario to stdout and exit")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "ccdem-scenario")
		return 0
	}

	var err error
	switch {
	case *example:
		err = printExample(stdout)
	case *file == "":
		fmt.Fprintln(stderr, "ccdem-scenario: -file is required (or -example)")
		return 2
	default:
		err = run(stdout, *file, *mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ccdem-scenario: %v\n", err)
		return 1
	}
	return 0
}

func printExample(w io.Writer) error {
	get := func(name string) app.Params {
		p, ok := app.ByName(name)
		if !ok {
			panic("catalog changed: " + name)
		}
		return p
	}
	sc := scenario.Scenario{
		Name: "example evening",
		Phases: []scenario.Phase{
			{App: get("KakaoTalk"), Duration: 60 * sim.Second, Seed: 1},
			{App: get("Jelly Splash"), Duration: 60 * sim.Second, Seed: 2},
			{App: get("MX Player"), Duration: 60 * sim.Second},
		},
	}
	return sc.WriteJSON(w)
}

func run(w io.Writer, path, modeName string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sc, err := scenario.ReadScenario(f)
	f.Close()
	if err != nil {
		return err
	}

	if modeName != "" {
		mode, ok := modes[modeName]
		if !ok {
			return fmt.Errorf("unknown mode %q", modeName)
		}
		res, err := scenario.Run(ccdem.Config{Governor: mode}, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
		return nil
	}

	// Paired: baseline vs full system, plus battery impact.
	base, err := scenario.Run(ccdem.Config{Governor: ccdem.GovernorOff}, sc)
	if err != nil {
		return err
	}
	managed, err := scenario.Run(ccdem.Config{Governor: ccdem.GovernorSectionBoost}, sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Baseline:")
	fmt.Fprint(w, base)
	fmt.Fprintln(w, "\nManaged (section + touch boosting):")
	fmt.Fprint(w, managed)

	var slices []battery.UsageSlice
	for i := range base.Phases {
		slices = append(slices, battery.UsageSlice{
			Name:       fmt.Sprintf("%d:%s", i+1, base.Phases[i].App),
			Weight:     base.Phases[i].Duration.Seconds(),
			BaselineMW: base.Phases[i].MeanPowerMW,
			ManagedMW:  managed.Phases[i].MeanPowerMW,
		})
	}
	est, err := battery.GalaxyS3Pack.Estimate(battery.Mix{Slices: slices})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, est)
	fmt.Fprintf(w, "\n  display quality under management: %.1f%%\n", 100*managed.Total.DisplayQuality)
	return nil
}
