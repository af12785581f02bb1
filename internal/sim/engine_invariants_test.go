//go:build gmtinvariants

package sim

import "testing"

// TestAdvanceToSkipAssertFires pins the invariant layer's teeth: an
// AdvanceTo past a pending event — the misuse the Peek-before-advance
// contract exists to prevent (HACKING.md, "Scheduler determinism
// contract") — must panic under -tags gmtinvariants.
func TestAdvanceToSkipAssertFires(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo past a pending event did not panic under gmtinvariants")
		}
	}()
	e := NewEngine()
	e.AfterCall(100, CallFunc, func() {}, 0)
	e.AdvanceTo(200)
}

// TestFIFOSeqAssertFires pins the dispatch-order check: with the seqs of
// two same-instant events swapped, the second dispatch carries an
// earlier seq than the first, which step must refuse under -tags
// gmtinvariants.
func TestFIFOSeqAssertFires(t *testing.T) {
	e := NewEngine()
	e.AtCall(5, nopCall, nil, 0)
	e.AtCall(5, nopCall, nil, 0)
	e.recs[0].seq, e.recs[1].seq = e.recs[1].seq, e.recs[0].seq
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order (at, seq) dispatch did not panic under gmtinvariants")
		}
	}()
	e.Run()
}
