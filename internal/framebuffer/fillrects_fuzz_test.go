package framebuffer

import (
	"math/rand"
	"testing"
)

// FuzzFillRects differentially tests the op-list fill kernel: random op
// lists run through FillRects on a palette buffer and through sequential
// Fill calls on a raw-tile twin, in lockstep. The lists mix column
// bands that compose (with overlapping and hidden ops, duplicate
// colors, and more than PaletteCap colors in one column), partial-height
// and out-of-bounds rects that take the per-op fallback, and more than
// PaletteCap ops on one tile. Raw blits and recycles between lists put
// tiles in every representation, stale index planes included. After
// each list both buffers must report the same return value, content
// (Equal, At, TileSig) and per-tile generations, and the palette buffer
// must keep its plane invariants. Sizes are rarely multiples of 32, so
// edge tiles are partial in both axes.
func FuzzFillRects(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 0}, uint8(200), uint8(128))
	f.Add(int64(2), []byte{2, 3, 3, 0, 4, 0}, uint8(75), uint8(90))
	f.Add(int64(3), []byte{5, 1, 6, 0, 7, 0, 3}, uint8(40), uint8(33))
	f.Add(int64(4), []byte{4, 4, 2, 0, 1, 6, 0}, uint8(97), uint8(100))

	f.Fuzz(func(t *testing.T, seed int64, lists []byte, w8, h8 uint8) {
		w := int(w8%100) + 8 // 8..107
		h := int(h8%120) + 8 // 8..127
		if len(lists) > 64 {
			lists = lists[:64]
		}
		rng := rand.New(rand.NewSource(seed))

		pb := New(w, h)
		pb.EnablePalettes()
		rb := New(w, h)
		rb.EnableTiles()
		aux := New(w, h)
		for i := range aux.Pix() {
			aux.Pix()[i] = Color(rng.Uint32() & 0x00ffffff)
		}

		narrow := [4]Color{RGB(10, 10, 10), RGB(200, 30, 30), RGB(30, 200, 30), RGB(240, 240, 240)}
		color := func() Color {
			if rng.Intn(2) == 0 {
				return narrow[rng.Intn(len(narrow))]
			}
			return Color(rng.Uint32() & 0x00ffffff)
		}
		var rs []Rect
		var cs []Color
		add := func(r Rect, c Color) {
			rs = append(rs, r)
			cs = append(cs, c)
		}
		// bands adds vertical bands of random widths across [y0, y1),
		// starting left of the buffer and ending right of it.
		bands := func(y0, y1, maxW int, pick func() Color) {
			for x := -rng.Intn(8); x < w+8; {
				x1 := x + 1 + rng.Intn(maxW)
				add(Rect{x, y0, x1, y1}, pick())
				x = x1
			}
		}

		for step, op := range lists {
			rs, cs = rs[:0], cs[:0]
			switch op % 8 {
			case 0: // bands over a row span: column compose
				y0 := rng.Intn(h+8) - 8
				bands(y0, y0+rng.Intn(2*h)+1, 70, color)
			case 1: // random rects: overlapping, partial height, out of bounds
				for n := rng.Intn(24) + 1; n > 0; n-- {
					add(Rect{rng.Intn(w+16) - 8, rng.Intn(h+16) - 8, rng.Intn(w+16) - 8, rng.Intn(h+16) - 8}, color())
				}
			case 2: // partial rects, then bands hiding some of them
				for n := rng.Intn(6) + 1; n > 0; n-- {
					x, y := rng.Intn(w), rng.Intn(h)
					add(Rect{x, y, x + 1 + rng.Intn(40), y + 1 + rng.Intn(40)}, color())
				}
				bands(0, h, 40, color)
				if rng.Intn(2) == 0 { // a full-height rect hiding part of the bands
					x := rng.Intn(w)
					add(Rect{x, -4, x + 1 + rng.Intn(32), h + 4}, color())
				}
			case 3: // more than PaletteCap ops on one tile column: 1–2 px slivers
				tx := rng.Intn(tilesFor(w))
				y0 := rng.Intn(h)
				y1 := y0 + 1 + rng.Intn(h)
				if rng.Intn(2) == 0 {
					y0, y1 = 0, h
				}
				for x := tx * TileSize; x < (tx+1)*TileSize; {
					x1 := x + 1 + rng.Intn(2)
					add(Rect{x, y0, x1, y1}, Color(rng.Uint32()&0x00ffffff))
					x = x1
				}
			case 4: // duplicate colors: bands drawn from two colors
				two := [2]Color{color(), color()}
				bands(0, h, 20, func() Color { return two[rng.Intn(2)] })
			case 5: // one-op lists and empty lists
				if rng.Intn(3) > 0 {
					add(Rect{rng.Intn(w+16) - 8, rng.Intn(h+16) - 8, rng.Intn(w+16) - 8, rng.Intn(h+16) - 8}, color())
				}
			case 6: // a raw blit between lists: raw tiles with stale planes
				srcR := Rect{rng.Intn(w), rng.Intn(h), rng.Intn(w) + 1, rng.Intn(h) + 1}
				dx, dy := rng.Intn(w), rng.Intn(h)
				pb.Blit(aux, srcR, dx, dy)
				rb.Blit(aux, srcR, dx, dy)
				bands(0, h, 50, color)
			default: // recycle, then a band repaint
				pb.Recycle()
				rb.Recycle()
				bands(rng.Intn(h), h, 60, color)
			}
			want := 0
			for k := range rs {
				want += rb.Fill(rs[k], cs[k])
			}
			if got := pb.FillRects(rs, cs); got != want {
				t.Fatalf("list %d: FillRects returned %d, sequential Fill %d", step, got, want)
			}
			checkPlaneInvariants(t, step, pb)
			if !pb.Equal(rb) || !rb.Equal(pb) {
				t.Fatalf("list %d (%dx%d, %d ops): content diverges from sequential Fill", step, w, h, len(rs))
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if pc, rc := pb.At(x, y), rb.At(x, y); pc != rc {
						t.Fatalf("list %d: At(%d,%d) FillRects=%08x sequential=%08x", step, x, y, pc, rc)
					}
				}
			}
			if pb.Gen() != rb.Gen() {
				t.Fatalf("list %d: buffer generation %d, sequential %d", step, pb.Gen(), rb.Gen())
			}
			for i := 0; i < pb.Tiles(); i++ {
				if pg, rg := pb.TileGen(i), rb.TileGen(i); pg != rg {
					t.Fatalf("list %d: tile %d generation %d, sequential %d", step, i, pg, rg)
				}
				if ps, rsig := pb.TileSig(i), rb.TileSig(i); ps != rsig {
					t.Fatalf("list %d: tile %d sig %016x, sequential %016x", step, i, ps, rsig)
				}
			}
		}
	})
}
