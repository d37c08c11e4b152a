package framebuffer

import (
	"math/rand"
	"testing"
)

// snapshotChain builds n palette snapshots of a w × h screen painted
// from a few colors: each state repaints some random rects of the
// previous one, and the last state repeats the first one's content in a
// distinct snapshot, so some pairs differ only locally and one pair has
// equal lattices.
func snapshotChain(t *testing.T, rng *rand.Rand, w, h, n int) []*Buffer {
	t.Helper()
	colors := []Color{White, Black, RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(90, 90, 90)}
	canvas := New(w, h)
	canvas.EnablePalettes()
	canvas.FillAll(colors[0])
	var first *Buffer
	snaps := make([]*Buffer, 0, n)
	for len(snaps) < n {
		if first != nil && len(snaps) == n-1 {
			canvas.CopyFrom(first)
		} else {
			for k := rng.Intn(4); k >= 0; k-- {
				x, y := rng.Intn(w), rng.Intn(h)
				canvas.Fill(R(x, y, x+1+rng.Intn(w/2), y+1+rng.Intn(h/2)), colors[rng.Intn(len(colors))])
			}
		}
		s := NewPaletteSnapshot(canvas)
		if s == nil {
			t.Fatal("snapshot does not fit the palette")
		}
		if first == nil {
			first = s
		}
		snaps = append(snaps, s)
	}
	return snaps
}

// bruteSnapshotDiff is SnapshotDiff's oracle: sample both screens'
// full lattices and take the first differing index.
func bruteSnapshotDiff(g Grid, a, b *Buffer) int {
	sa, sb := make([]Color, g.Samples()), make([]Color, g.Samples())
	g.Sample(a, sa)
	g.Sample(b, sb)
	return SamplesFirstDiff(sb, sa)
}

// TestSnapshotDiffMatchesSampledLattices checks every ordered pair of a
// snapshot chain, on several grid shapes (including edge tiles of a
// screen that is not a multiple of 32), against a brute-force
// Grid.Sample + SamplesFirstDiff of the two snapshots — on the computing
// call and again on the memo hit.
func TestSnapshotDiffMatchesSampledLattices(t *testing.T) {
	const w, h = 150, 100
	for _, samples := range []int{12, 400, 2000} {
		rng := rand.New(rand.NewSource(int64(samples)))
		snaps := snapshotChain(t, rng, w, h, 5)
		g := GridForSamples(w, h, samples)
		tl := NewTileLattice(g)
		equalPair := false
		for pass := 0; pass < 2; pass++ {
			for _, a := range snaps {
				for _, b := range snaps {
					got, ok := tl.SnapshotDiff(a, b)
					want := bruteSnapshotDiff(g, a, b)
					if !ok || got != want {
						t.Fatalf("%d samples, pass %d: SnapshotDiff = %d, %v; want %d, true", samples, pass, got, ok, want)
					}
					equalPair = equalPair || (a != b && want < 0)
				}
			}
		}
		if !equalPair {
			t.Fatalf("%d samples: chain has no distinct snapshots with equal lattices", samples)
		}
	}
}

// TestSnapshotDiffMemoCap: a snapshot reached from more predecessors
// than the memo holds keeps at most snapshotPairCap entries and still
// answers every pair exactly (past the cap it recomputes).
func TestSnapshotDiffMemoCap(t *testing.T) {
	const w, h = 96, 64
	rng := rand.New(rand.NewSource(7))
	snaps := snapshotChain(t, rng, w, h, snapshotPairCap+3)
	hub := snaps[0]
	g := GridForSamples(w, h, 300)
	tl := NewTileLattice(g)
	for pass := 0; pass < 2; pass++ {
		for _, a := range snaps[1:] {
			got, ok := tl.SnapshotDiff(a, hub)
			if want := bruteSnapshotDiff(g, a, hub); !ok || got != want {
				t.Fatalf("pass %d: SnapshotDiff = %d, %v; want %d, true", pass, got, ok, want)
			}
			if n := len(*hub.pairs.Load()); n > snapshotPairCap {
				t.Fatalf("memo holds %d entries, cap %d", n, snapshotPairCap)
			}
		}
	}
	if n := len(*hub.pairs.Load()); n != snapshotPairCap {
		t.Fatalf("memo holds %d entries after %d predecessors, want %d", n, len(snaps)-1, snapshotPairCap)
	}
}

// TestSnapshotDiffMemoKey: a memo entry answers only its own pair,
// generations and grid shape; a key differing in any field misses.
func TestSnapshotDiffMemoKey(t *testing.T) {
	const w, h = 96, 64
	rng := rand.New(rand.NewSource(3))
	snaps := snapshotChain(t, rng, w, h, 3)
	a, b := snaps[0], snaps[1]
	g := GridForSamples(w, h, 300)
	tl := NewTileLattice(g)
	want, ok := tl.SnapshotDiff(a, b)
	if !ok {
		t.Fatal("palette snapshots were not answered")
	}
	key := pairKey{prev: a, prevGen: a.tiles.gen, gen: b.tiles.gen, cols: g.cols, rows: g.rows}
	if got, hit := findPair(b.pairs.Load(), key); !hit || got != want {
		t.Fatalf("stored key: %d, %v; want %d, true", got, hit, want)
	}
	for name, k := range map[string]pairKey{
		"prev":    {prev: snaps[2], prevGen: key.prevGen, gen: key.gen, cols: key.cols, rows: key.rows},
		"prevGen": {prev: a, prevGen: key.prevGen + 1, gen: key.gen, cols: key.cols, rows: key.rows},
		"gen":     {prev: a, prevGen: key.prevGen, gen: key.gen + 1, cols: key.cols, rows: key.rows},
		"cols":    {prev: a, prevGen: key.prevGen, gen: key.gen, cols: key.cols + 1, rows: key.rows},
		"rows":    {prev: a, prevGen: key.prevGen, gen: key.gen, cols: key.cols, rows: key.rows + 1},
	} {
		if _, hit := findPair(b.pairs.Load(), k); hit {
			t.Errorf("key with another %s hit the memo", name)
		}
	}
	// Another grid shape over the same screens misses the memo; its
	// answer, if any, is exact.
	g2 := GridForSamples(w, h, 50)
	if got, ok := NewTileLattice(g2).SnapshotDiff(a, b); ok && got != bruteSnapshotDiff(g2, a, b) {
		t.Fatalf("other grid shape: SnapshotDiff = %d, want %d", got, bruteSnapshotDiff(g2, a, b))
	}
	// A snapshot written after its verdict was stored (outside the memo
	// contract) is never answered from the stale entry. Recolor lattice
	// points to other entries of their tiles' palettes (a compacted
	// snapshot has no pixel array to promote into) until the verdict
	// moves.
	for li := 0; li < g.Samples() && bruteSnapshotDiff(g, a, b) == want; li++ {
		x, y := g.xs[li%g.cols], g.ys[li/g.cols]
		ti := int(g.tileOf[li])
		if b.tiles.palN[ti] < 2 {
			continue
		}
		c := b.tiles.tilePal(ti)[0]
		if c == b.At(x, y) {
			c = b.tiles.tilePal(ti)[1]
		}
		b.Set(x, y, c)
	}
	moved := bruteSnapshotDiff(g, a, b)
	if moved == want {
		t.Fatal("no recoloring moved the verdict")
	}
	if got, ok := tl.SnapshotDiff(a, b); ok && got != moved {
		t.Fatalf("after writing the snapshot: SnapshotDiff = %d, want %d", got, moved)
	}
}

// TestSnapshotDiffDeclines: a raw (not palettized) snapshot or a view
// on either side is not answered, so the meter compares pixels.
func TestSnapshotDiffDeclines(t *testing.T) {
	const w, h = 96, 64
	rng := rand.New(rand.NewSource(5))
	snap := snapshotChain(t, rng, w, h, 1)[0]
	raw := New(w, h)
	raw.EnableTiles()
	view := New(w, h)
	view.EnablePalettes()
	view.ShareFrom(snap)
	tl := NewTileLattice(GridForSamples(w, h, 300))
	for name, pair := range map[string][2]*Buffer{
		"raw prev": {raw, snap}, "raw next": {snap, raw}, "view prev": {view, snap}, "view next": {snap, view},
	} {
		if _, ok := tl.SnapshotDiff(pair[0], pair[1]); ok {
			t.Errorf("%s: SnapshotDiff answered", name)
		}
	}
}
