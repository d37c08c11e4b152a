package core

import (
	"math/rand"
	"sync"
	"testing"

	"ccdem/internal/framebuffer"
	"ccdem/internal/power"
	"ccdem/internal/sim"
)

// snapColors is the small color set snapshot screens are painted from,
// so every tile fits a palette.
var snapColors = []framebuffer.Color{
	framebuffer.White, framebuffer.Black,
	framebuffer.RGB(200, 30, 30), framebuffer.RGB(30, 200, 30),
	framebuffer.RGB(30, 30, 200), framebuffer.RGB(90, 90, 90),
}

// snapshotPool builds n palette snapshots of a w × h screen: each state
// repaints a few random rects of the previous one, and the last repeats
// the first one's content in a distinct snapshot.
func snapshotPool(t testing.TB, rng *rand.Rand, w, h, n int) []*framebuffer.Buffer {
	canvas := framebuffer.New(w, h)
	canvas.EnablePalettes()
	canvas.FillAll(snapColors[0])
	pool := make([]*framebuffer.Buffer, 0, n)
	for len(pool) < n {
		if len(pool) > 0 && len(pool) == n-1 {
			canvas.CopyFrom(pool[0])
		} else {
			for k := rng.Intn(3); k >= 0; k-- {
				canvas.Fill(fuzzMeterRect(rng, w, h), snapColors[rng.Intn(len(snapColors))])
			}
		}
		s := framebuffer.NewPaletteSnapshot(canvas)
		if s == nil {
			t.Fatal("snapshot does not fit the palette")
		}
		pool = append(pool, s)
	}
	return pool
}

// diffBounds returns the bounding rect of the pixels at which a and b
// differ (empty when they are equal): the tightest damage a transition
// from a to b may report.
func diffBounds(a, b *framebuffer.Buffer) framebuffer.Rect {
	var r framebuffer.Rect
	for y := 0; y < a.Height(); y++ {
		for x := 0; x < a.Width(); x++ {
			if a.At(x, y) != b.At(x, y) {
				r = r.Union(framebuffer.Rect{X0: x, Y0: y, X1: x + 1, Y1: y + 1})
			}
		}
	}
	return r
}

// FuzzMeterSnapshotViews is the lockstep differential fuzzer for
// snapshot-pair verdicts: a tile-delta meter and a naive full-lattice
// meter observe the same screens while the history moves views between
// shared palette snapshots (ShareFrom, and ShareFromDamage with damage
// covering every differing pixel), re-shares a view's own snapshot,
// writes to views (the copy-on-write exit), switches the observed
// buffer, resets the meters, and shares a raw snapshot the pair verdict
// declines. A prelude walks one hub snapshot from more predecessors than
// its memo holds, so some of its verdicts are recomputed every time.
// Every verdict, the accumulated modeled compare time and the lifetime
// totals must match.
func FuzzMeterSnapshotViews(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 2, 0, 3, 0, 4, 0, 5, 0, 2, 0}, uint8(64), uint8(64), uint16(256), false)
	f.Add(int64(2), []byte{2, 0, 6, 2, 0, 6, 0, 7, 0, 15, 0, 2, 0}, uint8(33), uint8(47), uint16(100), true)
	f.Add(int64(3), []byte{2, 2, 0, 5, 0, 2, 0, 15, 2, 0, 4, 4, 0, 3, 1}, uint8(96), uint8(130), uint16(512), true)
	f.Add(int64(4), []byte{7, 0, 2, 0, 15, 0, 7, 2, 1}, uint8(80), uint8(60), uint16(64), false)

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8, samples16 uint16, earlyExit bool) {
		w := int(w8%100) + 16
		h := int(h8%120) + 16
		samples := int(samples16%2048) + 4
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cfg := func(tiles bool) MeterConfig {
			return MeterConfig{
				Grid:      framebuffer.GridForSamples(w, h, samples),
				Window:    sim.Second,
				Cost:      power.DefaultCompareCost(),
				EarlyExit: earlyExit,
				Tiles:     tiles,
			}
		}
		tiled, err := NewMeter(cfg(true))
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewMeter(cfg(false))
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		pool := snapshotPool(t, rng, w, h, 7)
		hub := pool[0]
		raw := framebuffer.New(w, h)
		raw.EnableTiles()
		raw.CopyFrom(pool[1])
		raw.Set(rng.Intn(w), rng.Intn(h), framebuffer.Color(rng.Uint32()&0x00ffffff))
		aux := framebuffer.New(w, h)
		for i, pix := 0, aux.Pix(); i < len(pix); i++ {
			pix[i] = framebuffer.Color(rng.Uint32() & 0x00ffffff)
		}
		aux.EnableTiles()
		// Two observed screens, one palette-enabled and one tiles-only.
		bufs := [2]*framebuffer.Buffer{framebuffer.New(w, h), framebuffer.New(w, h)}
		bufs[0].EnablePalettes()
		bufs[1].EnableTiles()
		cur := 0

		var now sim.Time
		step := 0
		observe := func() {
			step++
			now += sim.Millisecond
			got := tiled.ObserveFrame(now, bufs[cur])
			want := naive.ObserveFrame(now, bufs[cur])
			if got != want {
				t.Fatalf("step %d (%dx%d, %d samples): tiled verdict %v, naive %v", step, w, h, samples, got, want)
			}
			if gotT, wantT := tiled.CompareTime(), naive.CompareTime(); gotT != wantT {
				t.Fatalf("step %d: compare time %v (tiled) vs %v (naive) — comparedPx diverged", step, gotT, wantT)
			}
		}
		shareDamage := func(src *framebuffer.Buffer) {
			b := bufs[cur]
			damage := b.Bounds()
			if rng.Intn(3) > 0 {
				damage = diffBounds(b, src)
			}
			b.ShareFromDamage(src, []framebuffer.Rect{damage})
		}

		for _, p := range pool[1:] {
			shareDamage(p)
			observe()
			shareDamage(hub)
			observe()
		}
		for _, op := range ops {
			switch op % 8 {
			case 0, 1:
				observe()
			case 2:
				shareDamage(pool[rng.Intn(len(pool))])
			case 3:
				bufs[cur].ShareFrom(pool[rng.Intn(len(pool))])
			case 4: // re-share the view's own snapshot
				if src := bufs[cur].ViewSource(); src != nil {
					bufs[cur].ShareFromDamage(src, nil)
				} else {
					shareDamage(pool[rng.Intn(len(pool))])
				}
			case 5: // write to the screen; a view copies its snapshot first
				if rng.Intn(2) == 0 {
					bufs[cur].Fill(fuzzMeterRect(rng, w, h), snapColors[rng.Intn(len(snapColors))])
				} else {
					fuzzMutate(rng, bufs[cur], aux)
				}
			case 6:
				cur = 1 - cur
			default:
				if op&8 != 0 {
					if err := tiled.Reset(cfg(true)); err != nil {
						t.Fatal(err)
					}
					if err := naive.Reset(cfg(false)); err != nil {
						t.Fatal(err)
					}
				} else {
					shareDamage(raw)
				}
			}
		}
		observe()

		tf, tc := tiled.Totals()
		nf, nc := naive.Totals()
		if tf != nf || tc != nc {
			t.Fatalf("totals: tiled %d/%d, naive %d/%d", tf, tc, nf, nc)
		}
	})
}

// TestMeterSnapshotViewsConcurrent: eight goroutines, each with its own
// tile-delta meter and view, walk one chain of shared snapshots at once —
// racing to build and publish the snapshots' lattice caches and pair
// memos — and every verdict and compare time must match a serial naive
// meter's walk, and a serial tile-delta walk over the warmed memos.
func TestMeterSnapshotViewsConcurrent(t *testing.T) {
	const w, h, samples = 160, 224, 900
	rng := rand.New(rand.NewSource(11))
	pool := snapshotPool(t, rng, w, h, 6)
	walk := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		walk = append(walk, rng.Intn(len(pool)))
	}
	damage := make([]framebuffer.Rect, len(walk))
	for i := 1; i < len(walk); i++ {
		damage[i] = diffBounds(pool[walk[i-1]], pool[walk[i]])
	}
	type result struct {
		verdicts []bool
		cost     sim.Time
	}
	run := func(tiles bool) result {
		m, err := NewMeter(MeterConfig{
			Grid:      framebuffer.GridForSamples(w, h, samples),
			Window:    sim.Second,
			Cost:      power.DefaultCompareCost(),
			EarlyExit: true,
			Tiles:     tiles,
		})
		if err != nil {
			t.Error(err)
			return result{}
		}
		view := framebuffer.New(w, h)
		view.EnablePalettes()
		view.ShareFrom(pool[walk[0]])
		var r result
		for i, s := range walk {
			if i > 0 {
				view.ShareFromDamage(pool[s], []framebuffer.Rect{damage[i]})
			}
			r.verdicts = append(r.verdicts, m.ObserveFrame(sim.Time(i+1)*sim.Millisecond, view))
		}
		r.cost = m.CompareTime()
		return r
	}
	want := run(false)
	check := func(name string, got result) {
		if got.cost != want.cost {
			t.Errorf("%s: compare time %v, serial naive %v", name, got.cost, want.cost)
		}
		for i := range want.verdicts {
			if got.verdicts[i] != want.verdicts[i] {
				t.Errorf("%s: frame %d verdict %v, serial naive %v", name, i, got.verdicts[i], want.verdicts[i])
				return
			}
		}
	}

	const meters = 8
	got := make([]result, meters)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[g] = run(true)
		}()
	}
	start.Done()
	done.Wait()
	for g, r := range got {
		check("concurrent meter "+string(rune('0'+g)), r)
	}
	check("serial tiled", run(true))
}

// TestMeterSnapshotWrittenAfterShare: a snapshot written after the view
// left it (outside the memo contract) no longer describes the previous
// frame. A meter whose committed lattice is current forgets it and
// compares as the naive meter does; a meter still pending on it has
// lost the previous frame and panics instead of guessing.
func TestMeterSnapshotWrittenAfterShare(t *testing.T) {
	const w, h, samples = 96, 64, 300
	newMeter := func(tiles bool) *Meter {
		m, err := NewMeter(MeterConfig{
			Grid:   framebuffer.GridForSamples(w, h, samples),
			Window: sim.Second,
			Cost:   power.DefaultCompareCost(),
			Tiles:  tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tiled, naive := newMeter(true), newMeter(false)
	src := framebuffer.New(w, h)
	src.EnableTiles()
	view := framebuffer.New(w, h)
	view.EnableTiles()
	view.ShareFrom(src)
	tiled.ObserveFrame(sim.Millisecond, view)
	naive.ObserveFrame(sim.Millisecond, view)
	view.Fill(view.Bounds(), framebuffer.White) // the view leaves src
	src.FillAll(framebuffer.RGB(10, 20, 30))
	view.ShareFrom(src)
	if got, want := tiled.ObserveFrame(2*sim.Millisecond, view), naive.ObserveFrame(2*sim.Millisecond, view); got != want {
		t.Fatalf("re-shared written snapshot: tiled verdict %v, naive %v", got, want)
	}

	canvas := framebuffer.New(w, h)
	canvas.EnablePalettes()
	canvas.FillAll(framebuffer.White)
	a := framebuffer.NewPaletteSnapshot(canvas)
	canvas.FillAll(framebuffer.Black)
	b := framebuffer.NewPaletteSnapshot(canvas)
	pending := newMeter(true)
	view = framebuffer.New(w, h)
	view.EnablePalettes()
	view.ShareFrom(a)
	pending.ObserveFrame(sim.Millisecond, view)
	view.ShareFromDamage(b, []framebuffer.Rect{view.Bounds()})
	if !pending.ObserveFrame(2*sim.Millisecond, view) {
		t.Fatal("distinct snapshots compared equal")
	}
	view.Fill(view.Bounds(), framebuffer.White)
	b.FillAll(framebuffer.White)
	defer func() {
		if recover() == nil {
			t.Fatal("a pending meter observed past a written snapshot without panicking")
		}
	}()
	pending.ObserveFrame(3*sim.Millisecond, view)
}
