// Power-only baselines (Config.PowerOnly): a GovernorOff run that skips
// the meter and the paints the state memo does not admit must report
// bit-identical power to the full run it stands in for, on every pixel
// pipeline and after any lane Reset history.
package ccdem_test

import (
	"reflect"
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/fault"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/power"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
)

// pixelPipelines are the three pixel pipelines a device can run on.
var pixelPipelines = []struct {
	name string
	set  func(*ccdem.Config)
}{
	{"palette", func(*ccdem.Config) {}},
	{"no-palette", func(c *ccdem.Config) { c.NoPalette = true }},
	{"naive-pixels", func(c *ccdem.Config) { c.NaivePixels = true }},
}

// baselinePower is everything a power-only baseline must reproduce
// bit-for-bit: the power figures a campaign reads, the refresh statistics,
// the render and frame counts the power model is driven by, the summed
// dirty pixels of every latched frame, and the number of paints that went
// through the state memo (hits plus misses: which of the two depends on
// what earlier runs stored, but a power-only run must take every memo
// paint a full run does).
type baselinePower struct {
	MeanPowerMW, PowerStdMW, EnergyMJ float64
	Breakdown                         map[power.Component]float64
	MeanRefreshHz                     float64
	RefreshSwitches                   uint64
	IntendedRate, DisplayedRate       float64
	TrueQuality                       float64
	Renders, Frames, DirtyPx          uint64
	MemoPaints                        uint64
}

// monkeyScript is the cohort's segment script: the default Monkey with
// its idle gaps scaled by the touch intensity.
func monkeyScript(t testing.TB, seed int64, dur sim.Time, intensity float64) input.Script {
	t.Helper()
	cfg := input.DefaultMonkeyConfig()
	if intensity > 0 && intensity != 1 {
		cfg.MeanIdle = sim.Time(float64(cfg.MeanIdle) / intensity)
		if cfg.MeanIdle < 2*cfg.MinIdle {
			cfg.MinIdle = cfg.MeanIdle / 2
		}
	}
	mk, err := input.NewMonkey(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mk.Script(dur, 720, 1280)
}

// runBaseline runs p for dur on dev (NewDevice'd when nil, Reset
// otherwise) as a GovernorOff baseline under cfg and returns the device.
func runBaseline(t testing.TB, dev *ccdem.Device, cfg ccdem.Config, p app.Params, sc input.Script, dur sim.Time) (*ccdem.Device, baselinePower) {
	t.Helper()
	cfg.Governor = ccdem.GovernorOff
	var err error
	if dev == nil {
		dev, err = ccdem.NewDevice(cfg)
	} else {
		err = dev.Reset(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var dirty uint64
	dev.SurfaceManager().OnFrame(func(fi surface.FrameInfo) { dirty += uint64(fi.DirtyPixels) })
	m, err := dev.InstallApp(p)
	if err != nil {
		t.Fatal(err)
	}
	dev.PlayScript(sc)
	dev.Run(dur)
	dev.FinishObs()
	s := dev.Stats()
	hits, misses := m.MemoStats()
	return dev, baselinePower{
		MeanPowerMW: s.MeanPowerMW, PowerStdMW: s.PowerStdMW, EnergyMJ: s.EnergyMJ,
		Breakdown:     s.Breakdown,
		MeanRefreshHz: s.MeanRefreshHz, RefreshSwitches: s.RefreshSwitches,
		IntendedRate: s.IntendedRate, DisplayedRate: s.DisplayedRate,
		TrueQuality: s.TrueQuality,
		Renders:     m.Surface().Renders(), Frames: dev.SurfaceManager().Frames(),
		DirtyPx: dirty, MemoPaints: hits + misses,
	}
}

// TestPowerOnlyBaselineMatchesFull runs every catalog app on every pixel
// pipeline twice, full and power-only, on fresh devices.
func TestPowerOnlyBaselineMatchesFull(t *testing.T) {
	dur := 4 * sim.Second
	if testing.Short() {
		dur = 2 * sim.Second
	}
	for _, pl := range pixelPipelines {
		t.Run(pl.name, func(t *testing.T) {
			for i, p := range app.Catalog() {
				sc := monkeyScript(t, int64(1000+i), dur, 1)
				var cfg ccdem.Config
				pl.set(&cfg)
				_, full := runBaseline(t, nil, cfg, p, sc, dur)
				cfg.PowerOnly = true
				_, lean := runBaseline(t, nil, cfg, p, sc, dur)
				if !reflect.DeepEqual(lean, full) {
					t.Errorf("%s: power-only baseline diverged:\nfull:       %+v\npower-only: %+v", p.Name, full, lean)
				}
				if full.Renders == 0 {
					t.Fatalf("%s: no frames rendered", p.Name)
				}
			}
		})
	}
}

// FuzzPowerOnlyBaseline draws an app, a session, a touch intensity, a
// script seed and a pixel pipeline, plus a lane history: the power-only
// device is Reset from a prior full managed run or a prior power-only run
// of another app (or built fresh). Its power must match a full baseline
// on a fresh device bit-for-bit.
func FuzzPowerOnlyBaseline(f *testing.F) {
	f.Add(uint8(6), uint16(3000), uint8(10), int64(1), uint8(0), uint8(0), uint8(0))   // Facebook, fresh
	f.Add(uint8(24), uint16(2500), uint8(20), int64(7), uint8(1), uint8(1), uint8(8))  // Jelly Splash after MX Player
	f.Add(uint8(8), uint16(2000), uint8(5), int64(3), uint8(2), uint8(2), uint8(2))    // MX Player after CGV, naive
	f.Add(uint8(2), uint16(6000), uint8(40), int64(11), uint8(0), uint8(2), uint8(24)) // CGV past the memo window
	f.Add(uint8(14), uint16(1500), uint8(0), int64(-4), uint8(1), uint8(1), uint8(14)) // Weather after itself
	catalog := app.Catalog()
	f.Fuzz(func(t *testing.T, appIdx uint8, durMs uint16, touch uint8, seed int64, pipeline, history, prevIdx uint8) {
		p := catalog[int(appIdx)%len(catalog)]
		dur := sim.Time(500+int(durMs)%7500) * sim.Millisecond
		intensity := float64(touch%41) / 10 // 0 (default pace) … 4×
		var cfg ccdem.Config
		pixelPipelines[int(pipeline)%len(pixelPipelines)].set(&cfg)
		sc := monkeyScript(t, seed, dur, intensity)

		_, full := runBaseline(t, nil, cfg, p, sc, dur)

		var lane *ccdem.Device
		if h := history % 3; h > 0 {
			prev := catalog[int(prevIdx)%len(catalog)]
			prevSc := monkeyScript(t, seed^0x5eed, sim.Second, 1)
			prevCfg := cfg
			if h == 1 {
				// A full managed segment, as the campaign's next one.
				prevCfg.Governor = ccdem.GovernorSectionBoost
				prevCfg.Recorder = obs.NewRecorder(0)
				prevCfg.Metrics = obs.NewRegistry()
				var err error
				if lane, err = ccdem.NewDevice(prevCfg); err != nil {
					t.Fatal(err)
				}
				if _, err := lane.InstallApp(prev); err != nil {
					t.Fatal(err)
				}
				lane.PlayScript(prevSc)
				lane.Run(sim.Second)
				lane.FinishObs()
			} else {
				prevCfg.PowerOnly = true
				lane, _ = runBaseline(t, nil, prevCfg, prev, prevSc, sim.Second)
			}
		}
		cfg.PowerOnly = true
		_, lean := runBaseline(t, lane, cfg, p, sc, dur)
		if !reflect.DeepEqual(lean, full) {
			t.Errorf("%s, %v, history %d: power-only baseline diverged:\nfull:       %+v\npower-only: %+v",
				p.Name, dur, history%3, full, lean)
		}
	})
}

// TestPowerOnlyRejectsReaders: every configuration that would read pixels
// or meter verdicts is refused by NewDevice and by Reset.
func TestPowerOnlyRejectsReaders(t *testing.T) {
	oled := power.DefaultParams()
	oled.Panel = power.OLEDPanel{BaseMW: 50, PerHzMW: 3, MaxEmissionMW: 700}
	cases := []struct {
		name string
		cfg  ccdem.Config
	}{
		{"section", ccdem.Config{Governor: ccdem.GovernorSection}},
		{"section+boost", ccdem.Config{Governor: ccdem.GovernorSectionBoost}},
		{"naive", ccdem.Config{Governor: ccdem.GovernorNaive}},
		{"e3", ccdem.Config{Governor: ccdem.GovernorE3}},
		{"idle-timeout", ccdem.Config{Governor: ccdem.GovernorIdleTimeout}},
		{"oled", ccdem.Config{PowerParams: &oled}},
		{"recorder", ccdem.Config{Recorder: obs.NewRecorder(0)}},
		{"metrics", ccdem.Config{Metrics: obs.NewRegistry()}},
		{"faults", ccdem.Config{Faults: fault.New(1, fault.Plan{})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if _, err := ccdem.NewDevice(cfg); err != nil {
				t.Fatalf("full run rejected: %v", err)
			}
			cfg.PowerOnly = true
			if _, err := ccdem.NewDevice(cfg); err == nil {
				t.Error("NewDevice accepted PowerOnly")
			}
			dev, err := ccdem.NewDevice(ccdem.Config{PowerOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.Reset(cfg); err == nil {
				t.Error("Reset accepted PowerOnly")
			}
		})
	}
}

// TestPowerOnlyRecordFramesPanics: a frame log holds meter verdicts, which
// a power-only device does not produce.
func TestPowerOnlyRecordFramesPanics(t *testing.T) {
	dev, err := ccdem.NewDevice(ccdem.Config{PowerOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	dev.RecordFrames(false) // turning it off is harmless
	defer func() {
		if recover() == nil {
			t.Error("RecordFrames(true) on a PowerOnly device did not panic")
		}
	}()
	dev.RecordFrames(true)
}

// TestPowerOnlyBaselineZeroAlloc: the power-only frame path stays
// allocation-free, like the full one (BenchmarkDeviceBaselinePowerOnly).
func TestPowerOnlyBaselineZeroAlloc(t *testing.T) {
	for _, name := range []string{"MX Player", "Facebook", "Jelly Splash", "Weather"} {
		t.Run(name, func(t *testing.T) {
			p, _ := app.ByName(name)
			dev, err := ccdem.NewDevice(ccdem.Config{
				PowerOnly:           true,
				TraceInterval:       -1,
				PowerSampleInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.InstallApp(p); err != nil {
				t.Fatal(err)
			}
			dev.Run(3 * sim.Second)
			if allocs := testing.AllocsPerRun(5, func() { dev.Run(sim.Second) }); allocs != 0 {
				t.Errorf("power-only baseline allocates %.1f per virtual second, want 0", allocs)
			}
		})
	}
}
