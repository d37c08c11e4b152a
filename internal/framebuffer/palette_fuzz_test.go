package framebuffer

import (
	"math/rand"
	"testing"
)

// FuzzPaletteCompare differentially tests the palette-compressed tile
// representation against the raw tile pipeline: the same mutation stream
// — fills from a narrow palette, wide-color fills that force promotion,
// single stores, scrolls, blits, partial fills cycling more than
// PaletteCap colors through one tile (repack and promotion) — drives a
// palette buffer and a raw-tile buffer in lockstep, and after every
// operation the two must agree on every read path: At, Equal,
// DiffPixels, per-tile signatures, grid sampling and mean luminance, and
// the palette buffer must keep its plane invariants. Snapshot/share
// round-trips (EncodeAll, Compact, NewPaletteSnapshot, ShareFromDamage)
// are interleaved as content-preserving no-ops; each share also meters a
// long-lived view of the snapshot with DeltaCompare (palette domain,
// lattice cache) against the raw twin's DeltaCompare, which must report
// the same first-diff index and leave the same committed lattice. Any
// divergence means a nibble kernel, promotion or repack edge, lattice
// cache or copy-on-write path changed visible bytes.
func FuzzPaletteCompare(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 2, 3, 8}, uint8(64), uint8(64))
	f.Add(int64(2), []byte{2, 2, 2, 2, 2, 2, 8, 6}, uint8(33), uint8(47)) // wide fills: promotion pressure
	f.Add(int64(3), []byte{0, 4, 5, 0, 8, 6, 7, 0, 8}, uint8(96), uint8(40))
	f.Add(int64(4), []byte{3, 3, 3, 3, 8, 0, 6, 8}, uint8(31), uint8(32)) // single stores walk a palette to 16 then over
	f.Add(int64(5), []byte{0, 5, 5, 2, 8, 7, 0, 8, 6}, uint8(80), uint8(130))
	f.Add(int64(6), []byte{9, 7, 9, 9, 7, 0, 9, 7, 3, 9, 7}, uint8(90), uint8(70)) // color cycling: repack, then metered views

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, w8, h8 uint8) {
		w := int(w8%100) + 8 // 8..107: partial edge tiles in both axes
		h := int(h8%120) + 8
		if len(ops) > 128 {
			ops = ops[:128]
		}
		rng := rand.New(rand.NewSource(seed))

		pb := New(w, h)
		pb.EnableTiles()
		pb.EnablePalettes()
		rb := New(w, h)
		rb.EnableTiles()

		// Blit source with raw random content.
		aux := New(w, h)
		for i := range aux.Pix() {
			aux.Pix()[i] = Color(rng.Uint32() & 0x00ffffff)
		}
		// A narrow color set keeps tiles palettized; wide colors overflow
		// PaletteCap and exercise promotion.
		narrow := [5]Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(30, 30, 200), RGB(240, 240, 240)}
		randRect := func() Rect {
			return Rect{
				X0: rng.Intn(w+16) - 8, Y0: rng.Intn(h+16) - 8,
				X1: rng.Intn(w+16) - 8, Y1: rng.Intn(h+16) - 8,
			}
		}

		grid := GridForSamples(w, h, 64)
		sp := make([]Color, grid.Samples())
		sr := make([]Color, grid.Samples())

		// A long-lived view re-shared onto each snapshot with the damage
		// accumulated since the previous share, metered against the raw
		// twin: both start black, like pb and rb.
		tl := NewTileLattice(grid)
		view := New(w, h)
		view.EnableTiles()
		view.EnablePalettes()
		cv := make([]Color, grid.Samples())
		cr := make([]Color, grid.Samples())
		tl.Prime(view, cv)
		tl.Prime(rb, cr)
		gv, gr := view.Gen(), rb.Gen()
		var damage []Rect

		check := func(step int) {
			t.Helper()
			checkPlaneInvariants(t, step, pb)
			if !pb.Equal(rb) || !rb.Equal(pb) {
				t.Fatalf("step %d (%dx%d): Equal reports divergence (palTiles=%d promos=%d)",
					step, w, h, pb.PaletteTiles(), pb.PalettePromotions())
			}
			if n := pb.DiffPixels(rb); n != 0 {
				t.Fatalf("step %d: DiffPixels = %d, want 0", step, n)
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if pb.At(x, y) != rb.At(x, y) {
						t.Fatalf("step %d: At(%d,%d) palette=%08x raw=%08x", step, x, y, pb.At(x, y), rb.At(x, y))
					}
				}
			}
			for i := 0; i < pb.Tiles(); i++ {
				if ps, rs := pb.TileSig(i), rb.TileSig(i); ps != rs {
					t.Fatalf("step %d: tile %d sig palette=%016x raw=%016x (sigs must be canonical over decoded colors)",
						step, i, ps, rs)
				}
			}
			grid.Sample(pb, sp)
			grid.Sample(rb, sr)
			for i := range sp {
				if sp[i] != sr[i] {
					t.Fatalf("step %d: grid sample %d palette=%08x raw=%08x", step, i, sp[i], sr[i])
				}
			}
			if pl, rl := pb.MeanLuminance(), rb.MeanLuminance(); pl != rl {
				t.Fatalf("step %d: MeanLuminance palette=%v raw=%v", step, pl, rl)
			}
		}

		fill := func(step int, r Rect, c Color) {
			t.Helper()
			if np, nr := pb.Fill(r, c), rb.Fill(r, c); np != nr {
				t.Fatalf("step %d: Fill count palette=%d raw=%d", step, np, nr)
			}
			damage = append(damage, r)
		}

		for step, op := range ops {
			switch op % 10 {
			case 0, 1: // narrow fill: the palettized fast path
				fill(step, randRect(), narrow[rng.Intn(len(narrow))])
			case 2: // wide fill: palette growth and promotion
				fill(step, randRect(), Color(rng.Uint32()&0x00ffffff))
			case 3: // single stores, sometimes wide: per-tile palettes creep past PaletteCap
				for n := rng.Intn(40) + 1; n > 0; n-- {
					x, y := rng.Intn(w), rng.Intn(h)
					c := narrow[rng.Intn(len(narrow))]
					if rng.Intn(3) == 0 {
						c = Color(rng.Uint32() & 0x00ffffff)
					}
					pb.Set(x, y, c)
					rb.Set(x, y, c)
					damage = append(damage, Rect{x, y, x + 1, y + 1})
				}
			case 4: // scroll: the feed kernel over mixed representations
				r, dy := randRect(), rng.Intn(2*h+1)-h
				if rp, rr := pb.ScrollVert(r, dy), rb.ScrollVert(r, dy); rp != rr {
					t.Fatalf("step %d: ScrollVert repaint palette=%v raw=%v", step, rp, rr)
				}
				damage = append(damage, r)
			case 5: // blit raw content over palettized tiles
				srcR := randRect().Clamp(aux.Bounds())
				dx, dy := rng.Intn(w+10)-5, rng.Intn(h+10)-5
				if np, nr := pb.Blit(aux, srcR, dx, dy), rb.Blit(aux, srcR, dx, dy); np != nr {
					t.Fatalf("step %d: Blit count palette=%d raw=%d", step, np, nr)
				}
				damage = append(damage, Rect{dx, dy, dx + srcR.Dx(), dy + srcR.Dy()})
			case 6: // re-encode is content-preserving
				pb.EncodeAll()
			case 7: // snapshot + share round-trip must reproduce the content and meter identically
				snap := NewPaletteSnapshot(pb)
				if snap == nil {
					break // the damage keeps accumulating until a snapshot succeeds
				}
				view.ShareFromDamage(snap, damage)
				damage = damage[:0]
				if !view.Equal(rb) {
					t.Fatalf("step %d: snapshot/share view diverges from raw reference", step)
				}
				for i := 0; i < view.Tiles(); i++ {
					if vs, rs := view.TileSig(i), rb.TileSig(i); vs != rs {
						t.Fatalf("step %d: shared view tile %d sig %016x, raw %016x", step, i, vs, rs)
					}
				}
				iv := tl.DeltaCompare(view, cv, gv)
				ir := tl.DeltaCompare(rb, cr, gr)
				if iv != ir {
					t.Fatalf("step %d: view DeltaCompare first diff %d, raw %d", step, iv, ir)
				}
				if d := SamplesFirstDiff(cv, cr); d >= 0 {
					t.Fatalf("step %d: committed lattices diverge at %d: view %08x raw %08x", step, d, cv[d], cr[d])
				}
				gv, gr = view.Gen(), rb.Gen()
			case 8: // recycle both: must come back blank and in lockstep
				if rng.Intn(2) == 0 {
					pb.Recycle()
					rb.Recycle()
					damage = append(damage, pb.Bounds())
				}
			default: // cycle >PaletteCap colors through one tile with partial fills, like video bands
				tx, ty := rng.Intn(tilesFor(w)), rng.Intn(tilesFor(h))
				tr := Rect{tx * TileSize, ty * TileSize, (tx + 1) * TileSize, (ty + 1) * TileSize}
				for k := 0; k < PaletteCap+4+rng.Intn(PaletteCap); k++ {
					split := tr.X0 + 1 + rng.Intn(TileSize-1)
					c := RGB(uint8(k*37), uint8(step), uint8(rng.Intn(4)))
					if rng.Intn(4) == 0 { // a small patch keeps old colors live: promotion pressure
						x, y := tr.X0+rng.Intn(TileSize), tr.Y0+rng.Intn(TileSize)
						fill(step, Rect{x, y, x + 1 + rng.Intn(4), y + 1 + rng.Intn(4)}, c)
						continue
					}
					fill(step, Rect{tr.X0, tr.Y0, split, tr.Y1}, c)
					fill(step, Rect{split, tr.Y0, tr.X1, tr.Y1}, c^0x00ff00)
				}
			}
			check(step)
		}
	})
}

// checkPlaneInvariants asserts the palette plane invariants of b's own
// tile set: every index inside a compressed tile's on-screen rectangle
// addresses a live palette entry, index bits outside it are zero, and a
// solid tile's whole plane is zero.
func checkPlaneInvariants(t *testing.T, step int, b *Buffer) {
	t.Helper()
	ts := b.tiles
	for i, n := range ts.palN {
		if n == 0 {
			continue
		}
		r := b.TileRect(i)
		plane := ts.tilePlane(i)
		for np := 0; np < tilePixels; np++ {
			x, y := np&tileMask+r.X0, np>>TileShift+r.Y0
			nib := plane[np>>1] >> (uint(np&1) * 4) & 0xF
			switch {
			case (n == 1 || x >= r.X1 || y >= r.Y1) && nib != 0:
				t.Fatalf("step %d: tile %d (palN=%d) has index %d at local nibble %d, want 0", step, i, n, nib, np)
			case nib >= n:
				t.Fatalf("step %d: tile %d index %d addresses a dead entry (palN=%d)", step, i, nib, n)
			}
		}
	}
}
