package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/battery"
	"ccdem/internal/core"
	"ccdem/internal/fleet"
	"ccdem/internal/framebuffer"
	"ccdem/internal/input"
	"ccdem/internal/power"
	"ccdem/internal/sim"
	"ccdem/internal/surface"
)

// The replica drives a cohort's devices through the public ccdem API the
// way fleet.Cohort does internally (profile draw, session jitter, one
// Monkey script per app segment, a paired baseline and managed run on a
// recycled device, the battery estimate), so the benchmark can time each
// call into the program from outside. Its per-device rows must fold to
// the aggregate fleet.Cohort.Run computes for the same cohort; that
// comparison is part of the correctness check.

const screenW, screenH = 720, 1280

// counts are the work counters the replica reads from the program's
// public accessors, summed over segments.
type counts struct {
	segments      int
	simS          float64 // simulated seconds, baseline and managed
	frames        uint64  // surface.Manager.Frames
	renders       uint64  // surface.Surface.Renders of the app
	renderedPx    uint64  // sum of FrameInfo.RenderedPx
	dirtyPx       uint64  // sum of FrameInfo.DirtyPixels
	memoHits      uint64
	memoMisses    uint64
	paletteTiles  uint64 // palette tiles held at segment end
	palettePromos uint64
	meterFrames   uint64
	meterContent  uint64
	decisions     uint64
	boosts        uint64
	refreshes     uint64
	switches      uint64
}

func (c *counts) add(o counts) {
	c.segments += o.segments
	c.simS += o.simS
	c.frames += o.frames
	c.renders += o.renders
	c.renderedPx += o.renderedPx
	c.dirtyPx += o.dirtyPx
	c.memoHits += o.memoHits
	c.memoMisses += o.memoMisses
	c.paletteTiles += o.paletteTiles
	c.palettePromos += o.palettePromos
	c.meterFrames += o.meterFrames
	c.meterContent += o.meterContent
	c.decisions += o.decisions
	c.boosts += o.boosts
	c.refreshes += o.refreshes
	c.switches += o.switches
}

// replicaLane is one benchmark worker: a recycled device, a replica meter
// fed from the device's frame hook, and the lane's span recorder.
type replicaLane struct {
	dev   *ccdem.Device
	meter *core.Meter
	cnt   counts
	tr    *lane

	// Per-segment frame-hook sums.
	renderedPx, dirtyPx uint64
}

func meterConfig(samples int) core.MeterConfig {
	return core.MeterConfig{
		Grid:   framebuffer.GridForSamples(screenW, screenH, samples),
		Window: sim.Second,
		Cost:   power.DefaultCompareCost(),
		Tiles:  true,
	}
}

// runReplica simulates devices [0, c.Devices) on workers lanes and
// returns their rows in device order with the summed counters. c must
// have every field the cohort would default set explicitly.
func runReplica(c fleet.Cohort, workers int, tr *tracer) ([]fleet.DeviceResult, counts, error) {
	rows := make([]fleet.DeviceResult, c.Devices)
	lanes := make([]*replicaLane, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		meter, err := core.NewMeter(meterConfig(c.MeterSamples))
		if err != nil {
			return nil, counts{}, err
		}
		lanes[w] = &replicaLane{meter: meter, tr: tr.lane(w)}
		wg.Add(1)
		go func(ln *replicaLane, w int) {
			defer wg.Done()
			ln.tr.begin("lane")
			defer ln.tr.end()
			for {
				i := int(next.Add(1) - 1)
				if i >= c.Devices {
					return
				}
				r, err := ln.device(c, i)
				if err != nil {
					errs[w] = fmt.Errorf("replica device %d: %w", i, err)
					return
				}
				rows[i] = r
			}
		}(lanes[w], w)
	}
	wg.Wait()
	var total counts
	for w, ln := range lanes {
		if errs[w] != nil {
			return nil, counts{}, errs[w]
		}
		total.add(ln.cnt)
	}
	return rows, total, nil
}

// pickProfile draws a profile weighted by Profile.Weight, as the cohort
// does.
func pickProfile(profiles []fleet.Profile, rng *rand.Rand) fleet.Profile {
	total := 0.0
	for _, p := range profiles {
		total += p.Weight
	}
	r := rng.Float64() * total
	for _, p := range profiles {
		r -= p.Weight
		if r < 0 {
			return p
		}
	}
	return profiles[len(profiles)-1]
}

// device runs device i's full session and returns its row.
func (ln *replicaLane) device(c fleet.Cohort, i int) (fleet.DeviceResult, error) {
	// Trace ids: i*64 for the device's own spans, then one per segment
	// run (baseline and managed of each app segment).
	ln.tr.setTrace(int32(i * 64))
	ln.tr.begin("fleet.device")
	defer ln.tr.end()
	rng := rand.New(rand.NewSource(fleet.DeviceSeed(c.Seed, i)))
	prof := pickProfile(c.Profiles, rng)
	session := c.Session
	if prof.SessionJitter > 0 {
		session = sim.Time(float64(session) * (1 + prof.SessionJitter*(2*rng.Float64()-1)))
	}
	var (
		slices         []battery.UsageSlice
		totalW         float64
		totalDur       sim.Time
		quality, trueQ float64
		r              fleet.DeviceResult
	)
	for _, a := range prof.Apps {
		totalW += a.Weight
	}
	for seg, a := range prof.Apps {
		dur := sim.Time(float64(session) * a.Weight / totalW)
		if dur < sim.Second {
			dur = sim.Second
		}
		ln.tr.begin("input.script")
		script, err := segmentScript(prof, rng.Int63(), dur)
		ln.tr.end()
		if err != nil {
			return r, err
		}
		params, ok := app.ByName(a.Name)
		if !ok {
			return r, fmt.Errorf("app %q not in catalog", a.Name)
		}
		id := int32(i*64 + 1 + seg*2)
		ln.tr.setTrace(id)
		base, err := ln.segment(c, params, ccdem.GovernorOff, dur, script)
		if err != nil {
			return r, err
		}
		ln.tr.setTrace(id + 1)
		managed, err := ln.segment(c, params, c.Governor, dur, script)
		if err != nil {
			return r, err
		}
		slices = append(slices, battery.UsageSlice{
			Name: a.Name, Weight: dur.Seconds(),
			BaselineMW: base.MeanPowerMW, ManagedMW: managed.MeanPowerMW,
		})
		totalDur += dur
		quality += managed.DisplayQuality * dur.Seconds()
		trueQ += managed.TrueQuality * dur.Seconds()
		r.Faults += managed.FaultsInjected
		r.FailSafes += managed.FailSafeEnters
	}
	est, err := c.Pack.Estimate(battery.Mix{Slices: slices})
	if err != nil {
		return r, err
	}
	r.Device = i
	r.Profile = prof.Name
	r.SessionS = totalDur.Seconds()
	r.BaselineMW = est.BaselineMW
	r.ManagedMW = est.ManagedMW
	r.SavedMW = est.BaselineMW - est.ManagedMW
	r.QualityPct = 100 * quality / totalDur.Seconds()
	r.TrueQualityPct = 100 * trueQ / totalDur.Seconds()
	r.BaselineHours = est.BaselineHours
	r.ManagedHours = est.ManagedHours
	r.ExtraHours = est.ExtraHours
	if est.BaselineMW > 0 {
		r.SavedPct = 100 * r.SavedMW / est.BaselineMW
	}
	return r, nil
}

// segmentScript generates the Monkey script one app segment replays under
// both configurations, paced by the profile's touch intensity.
func segmentScript(prof fleet.Profile, seed int64, dur sim.Time) (input.Script, error) {
	cfg := input.DefaultMonkeyConfig()
	if ti := prof.TouchIntensity; ti > 0 && ti != 1 {
		cfg.MeanIdle = sim.Time(float64(cfg.MeanIdle) / ti)
		if cfg.MeanIdle < 2*cfg.MinIdle {
			cfg.MinIdle = cfg.MeanIdle / 2
		}
	}
	mk, err := input.NewMonkey(seed, cfg)
	if err != nil {
		return input.Script{}, err
	}
	return mk.Script(dur, screenW, screenH), nil
}

// segment measures one app segment under one governor mode on the lane's
// recycled device. A frame hook feeds the replica meter, whose totals
// must equal the device meter's.
func (ln *replicaLane) segment(c fleet.Cohort, p app.Params, mode ccdem.GovernorMode, dur sim.Time, script input.Script) (ccdem.Stats, error) {
	cfg := ccdem.Config{
		Width: screenW, Height: screenH,
		Governor:     mode,
		MeterSamples: c.MeterSamples,
		NaivePixels:  c.NaivePixels,
		NoPalette:    c.NoPalette,
	}
	if ln.dev == nil {
		ln.tr.begin("ccdem.new")
		dev, err := ccdem.NewDevice(cfg)
		ln.tr.end()
		if err != nil {
			return ccdem.Stats{}, err
		}
		ln.dev = dev
	} else {
		ln.tr.begin("ccdem.reset")
		err := ln.dev.Reset(cfg)
		ln.tr.end()
		if err != nil {
			ln.dev = nil
			return ccdem.Stats{}, err
		}
	}
	dev := ln.dev
	ln.tr.begin("ccdem.install")
	model, err := dev.InstallApp(p)
	ln.tr.end()
	if err != nil {
		return ccdem.Stats{}, err
	}
	dev.PlayScript(script)
	if err := ln.meter.Reset(meterConfig(c.MeterSamples)); err != nil {
		return ccdem.Stats{}, err
	}
	ln.renderedPx, ln.dirtyPx = 0, 0
	mgr := dev.SurfaceManager()
	mgr.OnFrame(ln.onFrame(mgr))
	ln.tr.begin("ccdem.run")
	dev.Run(dur)
	ln.tr.end()
	dev.FinishObs()
	ln.tr.begin("ccdem.stats")
	st := dev.Stats()
	ln.tr.end()

	frames, content := dev.Meter().Totals()
	rf, rc := ln.meter.Totals()
	if rf != frames || rc != content {
		return st, fmt.Errorf("replica meter totals %d/%d frames/content, device meter %d/%d", rf, rc, frames, content)
	}
	hits, misses := model.MemoStats()
	tiles, promos := mgr.PaletteStats()
	k := counts{
		segments:      1,
		simS:          dur.Seconds(),
		frames:        mgr.Frames(),
		renders:       model.Surface().Renders(),
		renderedPx:    ln.renderedPx,
		dirtyPx:       ln.dirtyPx,
		memoHits:      hits,
		memoMisses:    misses,
		paletteTiles:  uint64(tiles),
		palettePromos: promos,
		meterFrames:   frames,
		meterContent:  content,
		refreshes:     dev.Panel().Refreshes(),
		switches:      dev.Panel().Switches(),
	}
	if gov := dev.Governor(); gov != nil {
		k.decisions = gov.Decisions()
		k.boosts = gov.BoostTransitions()
	}
	ln.cnt.add(k)
	return st, nil
}

// onFrame returns the frame hook: it times the replica meter's compare
// of the framebuffer the device meter just compared, and sums the frame's
// pixel counts.
func (ln *replicaLane) onFrame(mgr *surface.Manager) func(surface.FrameInfo) {
	return func(fi surface.FrameInfo) {
		ln.tr.begin("core.meter")
		ln.meter.ObserveFrame(fi.T, mgr.Framebuffer())
		ln.tr.end()
		ln.renderedPx += uint64(fi.RenderedPx)
		ln.dirtyPx += uint64(fi.DirtyPixels)
	}
}

// aggregateJSON is the canonical byte form aggregates are compared in.
func aggregateJSON(a fleet.Aggregate) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(err) // Aggregate holds only numbers, strings and slices of them
	}
	return b
}
