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

// TestLaneFIFOSeqAssertFires pins the dispatch-order check on the lane
// path: with the seqs of two same-instant lane events swapped, the
// second lane dispatch carries an earlier seq than the first, which step
// must refuse under -tags gmtinvariants exactly as for wheel events.
func TestLaneFIFOSeqAssertFires(t *testing.T) {
	e := NewEngine()
	e.AfterCallFIFO(5, nopCall, nil, 0)
	e.AfterCallFIFO(5, nopCall, nil, 0)
	e.recs[0].seq, e.recs[1].seq = e.recs[1].seq, e.recs[0].seq
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order (at, seq) lane dispatch did not panic under gmtinvariants")
		}
	}()
	e.Run()
}

// TestLaneClockAssertFires: a lane event whose time lies behind the
// clock — impossible unless the lane's sort order broke — must panic on
// dispatch under -tags gmtinvariants.
func TestLaneClockAssertFires(t *testing.T) {
	e := NewEngine()
	e.AfterCallFIFO(10, nopCall, nil, 0)
	e.AfterCallFIFO(10, nopCall, nil, 0)
	e.step()
	e.recs[1].at = 3
	defer func() {
		if recover() == nil {
			t.Fatal("lane dispatch behind the clock did not panic under gmtinvariants")
		}
	}()
	e.step()
}
