package register

import (
	"testing"

	"tbwf/internal/prim"
)

func TestTapeRecordsAndReplays(t *testing.T) {
	orig := NewTape(7)
	var want []bool
	for i := 0; i < 100; i++ {
		want = append(want, orig.Bool(0.5))
	}
	if orig.Len() != 100 {
		t.Fatalf("recorded %d decisions, want 100", orig.Len())
	}

	// Replaying the record reproduces every decision regardless of the
	// probabilities passed (they were folded in when recorded).
	rep := ReplayTape(7, orig.Bits())
	for i, w := range want {
		if got := rep.Bool(0.99); got != w {
			t.Fatalf("replayed decision %d = %v, want %v", i, got, w)
		}
	}
	// Past the record, the replayed tape extends deterministically from the
	// seed: two replays agree with each other.
	rep2 := ReplayTape(7, orig.Bits())
	for i := 0; i < 100; i++ {
		rep2.Bool(0.99)
	}
	for i := 0; i < 50; i++ {
		a, b := rep.Bool(0.3), rep2.Bool(0.3)
		if a != b {
			t.Fatalf("post-record extension diverges at draw %d: %v vs %v", i, a, b)
		}
	}
}

func TestTapeProbabilityExtremes(t *testing.T) {
	always := NewTape(1)
	never := NewTape(1)
	for i := 0; i < 64; i++ {
		if !always.Bool(1) {
			t.Fatal("p=1 drew false")
		}
		if never.Bool(0) {
			t.Fatal("p=0 drew true")
		}
	}
}

func TestTapedPolicies(t *testing.T) {
	tape := NewTape(3)
	abort := TapedAbort(1, tape)
	effect := TapedEffect(0, tape)
	if !abort.Abort(prim.Op{}) {
		t.Fatal("taped abort with p=1 did not abort")
	}
	if effect.TakesEffect(prim.Op{}) {
		t.Fatal("taped effect with p=0 took effect")
	}
	if got := tape.Bits(); got != "10" {
		t.Fatalf("tape bits = %q, want %q", got, "10")
	}
	// A replayed tape drives the policies identically.
	rep := ReplayTape(3, tape.Bits())
	if !TapedAbort(0, rep).Abort(prim.Op{}) {
		t.Fatal("replayed abort decision lost")
	}
	if TapedEffect(1, rep).TakesEffect(prim.Op{}) {
		t.Fatal("replayed effect decision lost")
	}
}
