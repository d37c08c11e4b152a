package framebuffer

import (
	"sync"
	"testing"
)

// bandColor is the color of the band starting at x in frame: fresh
// every frame, so the bands that straddle a tile boundary bring two new
// colors into that tile per frame.
func bandColor(x, bw, frame int) Color {
	return RGB(uint8(frame*7+x), uint8(frame*13), uint8(x/bw*29))
}

// paintBands paints r with vertical bands of width bw (at most 32 of
// them) in colors derived from frame, as one FillRects op list: the
// shape of the video app's per-frame repaint.
func paintBands(b *Buffer, r Rect, bw, frame int) {
	var rs [32]Rect
	var cs [32]Color
	n := 0
	for x := r.X0; x < r.X1; x += bw {
		rs[n] = Rect{x, r.Y0, min(x+bw, r.X1), r.Y1}
		cs[n] = bandColor(x, bw, frame)
		n++
	}
	b.FillRects(rs[:n], cs[:n])
}

// fillBands paints the bands of paintBands with one Fill call each.
func fillBands(b *Buffer, r Rect, bw, frame int) {
	for x := r.X0; x < r.X1; x += bw {
		b.Fill(Rect{x, r.Y0, min(x+bw, r.X1), r.Y1}, bandColor(x, bw, frame))
	}
}

// TestPaletteRepackKeepsBandsPalettized: partial fills that cycle fresh
// colors through straddled tiles repack their full palettes instead of
// promoting them to raw, and the content stays identical to the raw-tile
// twin throughout.
func TestPaletteRepackKeepsBandsPalettized(t *testing.T) {
	pb := New(200, 128)
	pb.EnablePalettes()
	rb := New(200, 128)
	rb.EnableTiles()
	pb.Recycle() // every tile solid, as a pooled session starts
	rb.Recycle()
	r := Rect{0, 32, 200, 96}
	for frame := 0; frame < 40; frame++ {
		fillBands(pb, r, 60, frame)
		fillBands(rb, r, 60, frame)
		checkPlaneInvariants(t, frame, pb)
		if !pb.Equal(rb) {
			t.Fatalf("frame %d: palette buffer diverges from the raw twin", frame)
		}
	}
	if p := pb.PalettePromotions(); p != 0 {
		t.Errorf("band repaint promoted %d tiles, want 0", p)
	}
	if pb.PaletteRepacks() == 0 {
		t.Error("band repaint never repacked a palette")
	}
	if n, all := pb.PaletteTiles(), pb.Tiles(); n != all {
		t.Errorf("%d of %d tiles palettized, want all", n, all)
	}
	pb.Recycle()
	if pb.PaletteRepacks() != 0 {
		t.Error("Recycle kept the repack counter")
	}
}

// TestPaletteFillRectsKeepsBandsPalettized: the same band repaint as one
// FillRects op list per frame composes each straddled tile's palette
// from its visible colors, so palettes never fill with dead entries:
// no promotion and no repack, with content and tile generations
// identical to the raw-tile twin filling the bands one by one.
func TestPaletteFillRectsKeepsBandsPalettized(t *testing.T) {
	pb := New(200, 128)
	pb.EnablePalettes()
	rb := New(200, 128)
	rb.EnableTiles()
	pb.Recycle()
	rb.Recycle()
	r := Rect{0, 32, 200, 96}
	for frame := 0; frame < 40; frame++ {
		paintBands(pb, r, 60, frame)
		fillBands(rb, r, 60, frame)
		checkPlaneInvariants(t, frame, pb)
		if !pb.Equal(rb) {
			t.Fatalf("frame %d: palette buffer diverges from the raw twin", frame)
		}
		for i := 0; i < pb.Tiles(); i++ {
			if pg, rg := pb.TileGen(i), rb.TileGen(i); pg != rg {
				t.Fatalf("frame %d: tile %d generation %d, raw twin %d", frame, i, pg, rg)
			}
		}
	}
	if p, rp := pb.PalettePromotions(), pb.PaletteRepacks(); p != 0 || rp != 0 {
		t.Errorf("band op lists promoted %d tiles and repacked %d, want 0 and 0", p, rp)
	}
	if n, all := pb.PaletteTiles(), pb.Tiles(); n != all {
		t.Errorf("%d of %d tiles palettized, want all", n, all)
	}
}

// TestPalettePromotesWhenAllEntriesLive: a repack that would free nothing
// (all 16 entries still referenced) leaves the promotion path intact.
func TestPalettePromotesWhenAllEntriesLive(t *testing.T) {
	pb := New(32, 32)
	pb.EnablePalettes()
	rb := New(32, 32)
	rb.EnableTiles()
	pb.Recycle() // one solid black tile
	rb.Recycle()
	for k := 0; k < PaletteCap; k++ { // black plus 15 colors fill the palette; the 16th overflows
		r, c := Rect{k, 0, k + 1, 2}, RGB(uint8(k), 1, 2)
		pb.Fill(r, c)
		rb.Fill(r, c)
	}
	if got := pb.PalettePromotions(); got != 1 {
		t.Errorf("all entries live: %d promotions, want 1", got)
	}
	if got := pb.PaletteRepacks(); got != 0 {
		t.Errorf("all entries live: %d repacks, want 0", got)
	}
	if !pb.Equal(rb) {
		t.Fatal("palette buffer diverges from the raw twin")
	}
}

// TestPaletteLatticeCacheConcurrentViews meters views of one shared
// snapshot from many goroutines at once, as fleet workers meter devices
// sharing a memo screen: the lattice cache is built and published
// concurrently, and every view must report the full-scan first diff and
// leave the full-scan lattice. Run it under -race.
func TestPaletteLatticeCacheConcurrentViews(t *testing.T) {
	const w, h = 160, 224
	grid := GridForSamples(w, h, 900)
	paint := func(frame int) *Buffer {
		b := New(w, h)
		b.EnablePalettes()
		b.Recycle()
		paintBands(b, Rect{0, 0, w, h}, 24, frame)
		paintBands(b, Rect{0, 40, w, 120}, 60, frame+1)
		b.Fill(Rect{0, 0, w, 20}, RGB(9, 9, 9)) // a solid header row of tiles
		// Per-pixel detail: odd and even nibbles of a plane byte differ.
		for y := 120; y < 200; y++ {
			for x := 0; x < w; x++ {
				b.Set(x, y, RGB(uint8(x%3*80), uint8(y%2*90), uint8(frame)))
			}
		}
		return b
	}
	prev, next := NewPaletteSnapshot(paint(0)), NewPaletteSnapshot(paint(1))
	if prev == nil || next == nil {
		t.Fatal("snapshot does not fit the palette")
	}
	base := make([]Color, grid.Samples())
	want := make([]Color, grid.Samples())
	grid.Sample(prev, base)
	grid.Sample(next, want)
	wantIdx := SamplesFirstDiff(want, base)

	const views = 8
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan string, views)
	for g := 0; g < views; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			tl := NewTileLattice(grid)
			view := New(w, h)
			view.EnablePalettes()
			view.ShareFrom(prev)
			committed := make([]Color, grid.Samples())
			tl.Prime(view, committed)
			since := view.Gen()
			start.Wait()
			view.ShareFromDamage(next, []Rect{view.Bounds()})
			if got := tl.DeltaCompare(view, committed, since); got != wantIdx {
				errs <- "first diff mismatch"
				return
			}
			if SamplesFirstDiff(committed, want) >= 0 {
				errs <- "committed lattice mismatch"
			}
		}()
	}
	start.Done()
	done.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if next.lat.Load() == nil {
		t.Error("no lattice cache was published on the shared snapshot")
	}
}

// TestPaletteLatticeCacheTracksSourceGeneration: a published lattice
// cache is keyed by its source's tile generation, so a source mutated
// after publication (outside the memo contract) is compared from its
// index planes, never from stale cached indices. Re-encoding, which
// renumbers indices without a generation bump, drops the cache.
func TestPaletteLatticeCacheTracksSourceGeneration(t *testing.T) {
	const w, h = 96, 64
	grid := GridForSamples(w, h, 400)
	tl := NewTileLattice(grid)
	newSource := func() *Buffer {
		src := New(w, h)
		src.EnablePalettes()
		src.Recycle()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				src.Set(x, y, RGB(uint8(x%2*200), 50, uint8(y%3*70)))
			}
		}
		return src
	}
	// meter compares a fresh view of src against the lattice want and
	// returns the first diff; the first call on a source publishes its
	// cache.
	committed := make([]Color, grid.Samples())
	meter := func(src *Buffer, want []Color) int {
		view := New(w, h)
		view.EnablePalettes()
		copy(committed, want)
		since := view.Gen()
		view.ShareFrom(src)
		return tl.DeltaCompare(view, committed, since)
	}
	before := make([]Color, grid.Samples())

	src := newSource()
	grid.Sample(src, before)
	meter(src, make([]Color, grid.Samples()))
	if src.lat.Load() == nil {
		t.Fatal("no lattice cache was published")
	}
	// Recolor one lattice point to another entry of its tile's palette.
	li := grid.Samples() / 2
	x, y := grid.xs[li%grid.cols], grid.ys[li/grid.cols]
	ti := grid.tileOf[li]
	c := src.tiles.tilePal(int(ti))[0]
	if c == src.At(x, y) {
		c = src.tiles.tilePal(int(ti))[1]
	}
	src.Set(x, y, c)
	if got := meter(src, before); got != li || committed[li] != c {
		t.Fatalf("after a source mutation: first diff %d (want %d), committed %08x (want %08x)",
			got, li, committed[li], c)
	}

	src = newSource()
	meter(src, make([]Color, grid.Samples()))
	src.Pix() // realizes every tile
	src.EncodeAll()
	if got := meter(src, before); got != -1 {
		t.Fatalf("after re-encoding unchanged content: first diff %d, want -1", got)
	}
}
