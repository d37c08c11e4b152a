// Whole-device allocation contract: the steady-state frame pipeline —
// app render, V-Sync composition, grid metering, governor control, power
// integration — runs allocation-free once warmed up. This is the hard
// gate behind BenchmarkDeviceSteadyState's 0 allocs/op; perfgate keeps it
// from regressing on CI, this test keeps it from regressing anywhere.
package ccdem_test

import (
	"testing"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/sim"
)

func TestDeviceSteadyStateZeroAlloc(t *testing.T) {
	// One catalog app per paint style: each style paints through its own
	// framebuffer kernels (video band op lists, feed scrolls and row
	// fills, sprite fills, the pulse widget).
	for _, name := range []string{"MX Player", "Facebook", "Jelly Splash", "Weather"} {
		t.Run(name, func(t *testing.T) {
			p, ok := app.ByName(name)
			if !ok {
				t.Fatalf("%s not in catalog", name)
			}
			newDevice := func() *ccdem.Device {
				dev, err := ccdem.NewDevice(ccdem.Config{
					Governor:            ccdem.GovernorSectionBoost,
					TraceInterval:       -1, // trace and power recorders append to
					PowerSampleInterval: -1, // series; lean mode disables both
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dev.InstallApp(p); err != nil {
					t.Fatal(err)
				}
				return dev
			}
			// Warm the process-wide screen memo, as the earlier devices
			// of a campaign do: a feed app's first content states are
			// snapshotted once per process by the first device to paint
			// them, and each snapshot's lattice cache is built by the
			// first device metered against it. Two identical twins
			// running ahead take those one-off fills.
			for range 2 {
				newDevice().Run(10 * sim.Second)
			}
			dev := newDevice()
			// Warm-up: grow the event free list, rate-counter rings and
			// scratch buffers to their steady-state sizes.
			dev.Run(3 * sim.Second)
			if allocs := testing.AllocsPerRun(5, func() { dev.Run(sim.Second) }); allocs != 0 {
				t.Errorf("steady-state device run allocates %.1f per virtual second, want 0", allocs)
			}
			if frames, _ := dev.Meter().Totals(); frames == 0 {
				t.Fatal("device simulated no frames")
			}
		})
	}
}

// TestLeanModeStatsFallback: with the power sampler disabled, Stats must
// still report a meaningful mean power via the model's lifetime average,
// and Traces must degrade gracefully (empty, not nil panics).
func TestLeanModeStatsFallback(t *testing.T) {
	p, _ := app.ByName("Facebook")
	dev, err := ccdem.NewDevice(ccdem.Config{
		Governor:            ccdem.GovernorSectionBoost,
		TraceInterval:       -1,
		PowerSampleInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.InstallApp(p); err != nil {
		t.Fatal(err)
	}
	dev.Run(5 * sim.Second)
	s := dev.Stats()
	if s.MeanPowerMW <= 0 {
		t.Errorf("lean-mode MeanPowerMW = %v, want > 0 (model fallback)", s.MeanPowerMW)
	}
	tr := dev.Traces()
	if tr.Power != nil {
		t.Errorf("lean mode recorded %d power samples, want none", len(tr.Power))
	}
	if tr.Content.Len() != 0 {
		t.Errorf("lean mode recorded %d trace points, want none", tr.Content.Len())
	}
}
