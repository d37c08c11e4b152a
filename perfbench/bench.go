package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"ccdem/internal/fleet"
	"ccdem/internal/svc"
)

// bench is one run of one workload.
type bench struct {
	w       workload
	sc      scale
	o       options
	workers int

	problems  []string
	metrics   map[string]metric
	meta      map[string]any
	attempted int
	failed    int

	// Timed phase.
	rates   []float64
	first   campaignRun // first repetition
	jobs    []jobRun
	goStats goDelta

	// Traced pass.
	tr          *tracer
	cnt         counts
	replicaAggs [][]byte
	tracedRate  float64
	shardBytes  int
	probeJobs   []jobRun
	probeSpec   svc.JobSpec
}

func newBench(w workload, o options) *bench {
	sc := w.full
	if o.tiny {
		sc = w.tiny
	}
	b := &bench{w: w, sc: sc, o: o, workers: runtime.GOMAXPROCS(0), metrics: make(map[string]metric)}
	b.meta = map[string]any{
		"workload":       w.name,
		"seed":           o.seed,
		"devices":        sc.devices,
		"session_s":      sc.session.Seconds(),
		"warmup_devices": sc.warmup,
		"verify_devices": sc.verify,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go_version":     runtime.Version(),
		"commit":         o.commit,
		"trace":          o.trace,
		"seconds":        o.seconds,
	}
	return b
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// env is what setup builds: the timed campaign's strata and how they run.
type env struct {
	strata []fleet.Cohort
	pool   fleet.Pool
	d      *daemon
	specs  []svc.JobSpec // one job per stratum on the service workload
}

func (e *env) devices() int {
	n := 0
	for _, c := range e.strata {
		n += c.Devices
	}
	return n
}

func (e *env) close() error {
	if e.d != nil {
		return e.d.stop()
	}
	return nil
}

// setup builds the timed campaign. In-process workloads warm the
// process-wide app memo; the service workload starts the daemon and runs
// one small job so the worker path is warm.
func (b *bench) setup() (*env, error) {
	e := &env{
		strata: b.w.strata(b.sc, b.o.seed, b.sc.devices),
		pool:   fleet.Pool{Workers: b.workers, Batch: b.w.batch},
	}
	if !b.w.service {
		// A campaign under a derived seed stands in for the campaigns a
		// long-lived process has already run; one untimed pass of the
		// timed campaign then completes the memo for it, since which
		// feed states a device paints is a random tail no warm-up of
		// other devices covers for certain.
		warm := b.w.strata(b.sc, warmSeed(b.o.seed), b.sc.warmup)
		for _, c := range append(warm, e.strata...) {
			if _, err := c.Run(context.Background(), e.pool); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return e, nil
	}
	d, err := startDaemon(b.o.workDir)
	if err != nil {
		return nil, err
	}
	e.d = d
	for _, c := range e.strata {
		spec, err := jobSpec(c, min(b.workers, c.Devices))
		if err != nil {
			e.close()
			return nil, err
		}
		e.specs = append(e.specs, spec)
	}
	// One device per worker, each with a session long enough to paint
	// every feed state of its apps, so the warm-up's memo fills, and
	// with them setup_s, do not depend on the seed.
	warm := b.w.strata(b.sc, warmSeed(b.o.seed), 4*b.workers)[0]
	warm.Devices = b.workers
	spec, err := jobSpec(warm, b.workers)
	if err == nil {
		_, err = d.runJob(spec, nil)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("service warm-up: %w", err)
	}
	return e, nil
}

// setupOnly times one setup in this process.
func (b *bench) setupOnly() (float64, error) {
	t0 := time.Now()
	e, err := b.setup()
	if err != nil {
		return 0, err
	}
	s := time.Since(t0).Seconds()
	return s, e.close()
}

// setupProbes times the workload's further setups, each in a fresh
// process of this binary: the app memo is process-wide and cannot be
// emptied, so only a new process sets up cold again.
func (b *bench) setupProbes() ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 1; i < b.w.setups; i++ {
		args := []string{"-setup-probe", "-workload", b.w.name, "-seed", strconv.FormatInt(b.o.seed, 10), "-work-dir", b.o.workDir}
		if b.o.tiny {
			args = append(args, "-tiny")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		doc, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		s, err := strconv.ParseFloat(string(bytes.TrimSpace(doc)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

func (b *bench) execute() (result, error) {
	t0 := time.Now()
	e, err := b.setup()
	if err != nil {
		return result{}, err
	}
	setupS := time.Since(t0).Seconds()
	err = b.phases(e, setupS)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

func (b *bench) phases(e *env, setupS float64) error {
	if b.o.trace {
		// The traced pass runs before the timed phase, on the same
		// campaign, so its memo misses are the ones the timed phase would
		// see: zero when the warm-up really is warm.
		if err := b.tracedPass(e); err != nil {
			return err
		}
	}
	if err := b.timed(e); err != nil {
		return err
	}
	rss, err := peakRSSMB(b.w.service)
	if err != nil {
		return err
	}
	if err := b.verify(e); err != nil {
		return err
	}
	b.meta["reps"] = len(b.rates)
	b.meta["devices_per_s_reps"] = b.rates
	if b.o.trace {
		return b.layerMetrics()
	}
	setups := []float64{setupS}
	more, err := b.setupProbes()
	if err != nil {
		return err
	}
	setups = append(setups, more...)
	b.meta["setup_s_samples"] = setups
	b.set("devices_per_s", "1/s", median(b.rates))
	b.set("setup_s", "s", median(setups))
	b.set("peak_rss_mb", "MB", rss)
	b.set("completed_pct", "%", 100*float64(b.attempted-b.failed)/float64(b.attempted))
	b.set("saved_mw", "mW", b.first.savedMW)
	b.set("quality_pct", "%", b.first.qualityPct)
	return nil
}

// campaignRun is one run of every stratum of the campaign.
type campaignRun struct {
	wall                time.Duration
	docs                [][]byte // per stratum: aggregate (in-process) or result document (service)
	aggs                [][]byte // per stratum: canonical aggregate bytes
	failed              int
	savedMW, qualityPct float64 // device-weighted means over the strata
	jobs                []jobRun
}

// runCampaign runs the strata one after another: in-process through
// Cohort.Run, or as one service job each. Service spans go to l.
func (b *bench) runCampaign(e *env, l *lane) (campaignRun, error) {
	var cr campaignRun
	var devices int
	t0 := time.Now()
	for k, c := range e.strata {
		var agg fleet.Aggregate
		if b.w.service {
			jr, err := e.d.runJob(e.specs[k], l)
			if err != nil {
				return cr, fmt.Errorf("job: %w", err)
			}
			var res fleet.Result
			if err := json.Unmarshal(jr.result, &res); err != nil {
				return cr, fmt.Errorf("job result: %w", err)
			}
			cr.jobs = append(cr.jobs, jr)
			cr.docs = append(cr.docs, jr.result)
			cr.failed += len(res.Failed)
			agg = res.Aggregate
		} else {
			res, err := c.Run(context.Background(), e.pool)
			if err != nil {
				return cr, fmt.Errorf("campaign: %w", err)
			}
			cr.docs = append(cr.docs, aggregateJSON(res.Aggregate))
			cr.failed += len(res.Failed)
			agg = res.Aggregate
		}
		cr.aggs = append(cr.aggs, aggregateJSON(agg))
		cr.savedMW += agg.MeanSavedMW * float64(agg.Devices)
		cr.qualityPct += agg.QualityPctMean * float64(agg.Devices)
		devices += agg.Devices
	}
	cr.wall = time.Since(t0)
	cr.savedMW /= float64(devices)
	cr.qualityPct /= float64(devices)
	return cr, nil
}

// timed repeats the campaign until the timed phase has lasted the
// requested seconds and at least minReps repetitions ran. Every
// repetition must produce the same bytes.
func (b *bench) timed(e *env) error {
	resetPeakRSS()
	g0 := readGo()
	start := time.Now()
	n := e.devices()
	for rep := 0; rep < b.sc.minReps || time.Since(start).Seconds() < b.o.seconds; rep++ {
		cr, err := b.runCampaign(e, nil)
		if err != nil {
			return fmt.Errorf("timed %w", err)
		}
		b.rates = append(b.rates, float64(n)/cr.wall.Seconds())
		b.attempted += n
		b.failed += cr.failed
		b.jobs = append(b.jobs, cr.jobs...)
		if rep == 0 {
			b.first = cr
		} else if !slices.EqualFunc(cr.docs, b.first.docs, bytes.Equal) {
			b.problem("timed repetition %d: results differ from the first repetition", rep)
		}
	}
	b.goStats = readGo().since(g0, n*len(b.rates))
	return nil
}

// verify runs the untimed correctness checks on a slice of each stratum:
// the NaivePixels oracle and the replica must reproduce its aggregate,
// and service results must equal the direct in-process runs.
func (b *bench) verify(e *env) error {
	ctx := context.Background()
	pool := fleet.Pool{Workers: b.workers}
	for k, c := range e.strata {
		slice := c
		slice.Devices = min(b.sc.verify, c.Devices)
		def, err := slice.Run(ctx, pool)
		if err != nil {
			return fmt.Errorf("verification slice: %w", err)
		}
		naive := slice
		naive.NaivePixels = true
		ores, err := naive.Run(ctx, pool)
		if err != nil {
			return fmt.Errorf("NaivePixels oracle: %w", err)
		}
		if !bytes.Equal(aggregateJSON(def.Aggregate), aggregateJSON(ores.Aggregate)) {
			b.problem("stratum %d: NaivePixels oracle aggregate differs on the first %d devices", k, slice.Devices)
		}
		if got, err := replicaAggregate(slice, b.workers); err != nil {
			b.problem("stratum %d: replica: %v", k, err)
		} else if !bytes.Equal(got, aggregateJSON(def.Aggregate)) {
			b.problem("stratum %d: replica aggregate differs from Cohort.Run on the first %d devices", k, slice.Devices)
		}
		if b.replicaAggs != nil && !bytes.Equal(b.replicaAggs[k], b.first.aggs[k]) {
			b.problem("stratum %d: traced replica aggregate differs from the timed campaign's", k)
		}
		if b.w.service {
			direct, err := directResult(e.specs[k], b.workers)
			if err != nil {
				return fmt.Errorf("direct run: %w", err)
			}
			if !bytes.Equal(direct, b.first.docs[k]) {
				b.problem("stratum %d: service result differs from the direct in-process run", k)
			}
		}
	}
	for _, jr := range b.probeJobs {
		direct, err := directResult(b.probeSpec, b.workers)
		if err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		if !bytes.Equal(direct, jr.result) {
			b.problem("service probe: result differs from the direct in-process run")
		}
	}
	return nil
}

// replicaAggregate runs the replica over c and folds its rows.
func replicaAggregate(c fleet.Cohort, workers int) ([]byte, error) {
	rows, _, err := runReplica(c, workers, nil)
	if err != nil {
		return nil, err
	}
	return foldRows(rows, c), nil
}

func foldRows(rows []fleet.DeviceResult, c fleet.Cohort) []byte {
	acc := fleet.NewAccumulator()
	for _, r := range rows {
		acc.Add(r)
	}
	return aggregateJSON(acc.Aggregate(c.Profiles))
}

// tracedPass runs the replica over the timed campaign with spans on and
// replays its rows through the fleet layer, then drives the service
// layer: one traced repetition of the campaign itself on the service
// workload, one job of a verification slice on the others.
func (b *bench) tracedPass(e *env) error {
	b.tr = newTracer(b.workers + 1)
	l := b.tr.lane(b.workers)
	var wall time.Duration
	for _, c := range e.strata {
		t := time.Now()
		rows, cnt, err := runReplica(c, b.workers, b.tr)
		if err != nil {
			b.problem("traced replica: %v", err)
			return nil
		}
		wall += time.Since(t)
		b.cnt.add(cnt)
		agg := foldRows(rows, c)
		b.replicaAggs = append(b.replicaAggs, agg)
		l.begin("fleet.replay")
		n, err := replayFleet(rows, c, b.workers, l, agg)
		l.end()
		if err != nil {
			b.problem("fleet replay: %v", err)
		}
		b.shardBytes += n
	}
	if b.w.service {
		cr, err := b.runCampaign(e, l)
		if err != nil {
			return fmt.Errorf("traced %w", err)
		}
		b.tracedRate = float64(e.devices()) / cr.wall.Seconds()
		return nil
	}
	b.tracedRate = float64(e.devices()) / wall.Seconds()
	probe := e.strata[0]
	probe.Devices = min(b.sc.verify, probe.Devices)
	spec, err := jobSpec(probe, min(b.workers, probe.Devices))
	if err != nil {
		return err
	}
	d, err := startDaemon(b.o.workDir)
	if err != nil {
		return err
	}
	l.setTrace(0)
	jr, err := d.runJob(spec, l)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	b.probeJobs = []jobRun{jr}
	b.probeSpec = spec
	return nil
}

// layerMetrics turns the traced pass's spans and counters into the
// per-layer metrics and writes the spans out.
func (b *bench) layerMetrics() error {
	st := b.tr.selfTimes()
	get := func(name string) *layerTime {
		if lt := st[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	perCallUS := func(name string) float64 {
		lt := get(name)
		return ratio(float64(lt.total)/1e3, float64(lt.calls))
	}
	c := b.cnt
	run := get("ccdem.run")
	meter := get("core.meter")
	b.set("ccdem.reset_us", "us", perCallUS("ccdem.reset"))
	b.set("ccdem.install_us", "us", perCallUS("ccdem.install"))
	b.set("ccdem.run_self_ms_per_sim_s", "ms/sim_s", ratio(float64(run.own)/1e6, c.simS))
	b.set("core.meter_us_per_frame", "us", perCallUS("core.meter"))
	b.set("core.meter_share", "frac", ratio(float64(meter.total), float64(run.own)))
	b.set("app.frames_rendered", "1/sim_s", ratio(float64(c.renders), c.simS))
	b.set("app.rendered_px", "px/sim_s", ratio(float64(c.renderedPx), c.simS))
	b.set("surface.frames", "1/sim_s", ratio(float64(c.frames), c.simS))
	b.set("surface.dirty_px", "px/sim_s", ratio(float64(c.dirtyPx), c.simS))
	b.set("app.memo_hit_ratio", "frac", ratio(float64(c.memoHits), float64(c.memoHits+c.memoMisses)))
	b.set("app.memo_misses", "count", float64(c.memoMisses))
	b.set("surface.palette_tiles", "tiles", ratio(float64(c.paletteTiles), float64(c.segments)))
	b.set("surface.palette_promotions", "1/sim_s", ratio(float64(c.palettePromos), c.simS))
	b.set("core.meter_content_ratio", "frac", ratio(float64(c.meterContent), float64(c.meterFrames)))
	b.set("core.governor_decisions", "1/sim_s", ratio(float64(c.decisions), c.simS))
	b.set("core.boosts", "1/sim_s", ratio(float64(c.boosts), c.simS))
	b.set("display.refreshes", "1/sim_s", ratio(float64(c.refreshes), c.simS))
	b.set("display.switches", "1/sim_s", ratio(float64(c.switches), c.simS))
	b.set("input.script_us", "us", perCallUS("input.script"))
	b.set("fleet.accumulate_us", "us", perCallUS("fleet.accumulate"))
	b.set("fleet.merge_us", "us", perCallUS("fleet.merge"))
	b.set("fleet.shard_encode_us", "us", perCallUS("fleet.shard_encode"))
	b.set("fleet.shard_decode_us", "us", perCallUS("fleet.shard_decode"))
	b.set("fleet.shard_bytes", "B", float64(b.shardBytes))
	b.set("fleet.merge_shards_us", "us", perCallUS("fleet.merge_shards"))
	b.set("fleet.checkpoint_encode_us", "us", perCallUS("fleet.checkpoint_encode"))

	jobs := b.jobs
	if !b.w.service {
		jobs = b.probeJobs
	}
	var submit, runS, mergeS, over, util []float64
	retries := 0
	for _, j := range jobs {
		r, m := j.final.StageS[svc.StageRun], j.final.StageS[svc.StageMerge]
		submit = append(submit, float64(j.submit)/1e6)
		runS = append(runS, r)
		mergeS = append(mergeS, m)
		over = append(over, j.wall.Seconds()-r-m)
		util = append(util, ratio(j.final.CPUS, r*float64(j.final.Shards)))
		retries += j.final.Retries
	}
	b.set("svc.submit_ms", "ms", median(submit))
	b.set("svc.run_s", "s", median(runS))
	b.set("svc.merge_s", "s", median(mergeS))
	b.set("svc.overhead_s", "s", median(over))
	b.set("svc.worker_cpu_util", "frac", median(util))
	b.set("svc.retries", "count", float64(retries))

	b.set("go.allocs_per_device", "count", b.goStats.allocsPerDevice)
	b.set("go.bytes_per_device", "B", b.goStats.bytesPerDevice)
	b.set("go.gc_cpu_frac", "frac", b.goStats.gcCPUFrac)

	lanes := get("lane")
	b.set("trace.devices_per_s", "1/s", b.tracedRate)
	b.set("trace.overhead_frac", "frac", 1-ratio(b.tracedRate, median(b.rates)))
	b.set("trace.unattributed_frac", "frac", ratio(float64(lanes.own), float64(lanes.total)))
	b.set("trace.spans", "count", float64(b.tr.count()))

	meta, err := json.Marshal(b.meta)
	if err != nil {
		return err
	}
	return b.tr.writeFile(filepath.Join(b.o.workDir, "spans-"+b.w.name+".txt"), string(meta))
}
