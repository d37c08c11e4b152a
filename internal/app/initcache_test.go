package app

import "testing"

// TestStateScreenBudgetNeverBinds pins the invariant the memo's
// determinism rests on: admission is a pure function of the key, so per
// screen geometry the admissible keys are exactly one install screen per
// catalog app plus stateSeqCap feed states per feed app — and that count
// must stay under stateScreenBudget. If the budget could bind, which
// screens got cached would depend on arrival order, and the memo hit/miss
// counters would stop being deterministic across fleet worker counts.
// Growing the catalog past this margin requires raising the budget (or
// tightening memoAdmit) in the same change.
func TestStateScreenBudgetNeverBinds(t *testing.T) {
	installs, feeds := 0, 0
	for _, p := range Catalog() {
		installs++
		if p.Style == StyleFeed {
			feeds++
		}
	}
	worst := installs + feeds*stateSeqCap
	if worst >= stateScreenBudget {
		t.Fatalf("admissible keys per geometry = %d (%d installs + %d feed apps × %d states) >= budget %d; "+
			"a binding budget makes cache admission arrival-order-dependent",
			worst, installs, feeds, stateSeqCap, stateScreenBudget)
	}
}

// TestMemoAdmitIsKeyPure spot-checks the admission predicate: installs of
// any style qualify, intermediate states qualify only for feeds inside
// the seq window.
func TestMemoAdmitIsKeyPure(t *testing.T) {
	for _, style := range []PaintStyle{StyleFeed, StyleSprites, StyleVideo, StylePulse} {
		if !memoAdmit(stateKey{name: "x", style: style, w: 720, h: 1280}) {
			t.Errorf("install screen (seq 0, style %v) not admitted", style)
		}
		got := memoAdmit(stateKey{name: "x", style: style, w: 720, h: 1280, seq: 1})
		if want := style == StyleFeed; got != want {
			t.Errorf("seq 1 admission for style %v = %v, want %v", style, got, want)
		}
	}
	if memoAdmit(stateKey{name: "x", style: StyleFeed, w: 720, h: 1280, seq: stateSeqCap + 1}) {
		t.Error("feed state past stateSeqCap admitted")
	}
	if !memoAdmit(stateKey{name: "x", style: StyleFeed, w: 720, h: 1280, seq: stateSeqCap}) {
		t.Error("feed state at stateSeqCap not admitted")
	}
}

// TestMemoAdmitIsPrefix pins the invariant power-only models rest on (see
// paint): for every app and geometry the admitted content states form a
// prefix of the content stream, so once content leaves the memo's window
// it never comes back, and a skipped paint is never followed by a memo
// miss painting from its stale pixels.
func TestMemoAdmitIsPrefix(t *testing.T) {
	for _, p := range Catalog() {
		key := stateKey{name: p.Name, style: p.Style, w: 720, h: 1280}
		left := false
		for seq := uint64(0); seq <= 4*stateSeqCap; seq++ {
			key.seq = seq
			admitted := memoAdmit(key)
			if admitted && left {
				t.Fatalf("%s: seq %d admitted after an earlier seq was not", p.Name, seq)
			}
			left = left || !admitted
		}
	}
}
