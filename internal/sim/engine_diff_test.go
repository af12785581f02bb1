package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a minimal (time, seq) binary heap — the queue
// discipline the engine used before the timing wheel. The differential
// tests drive both structures with identical schedules and assert the
// wheel reproduces the heap's dispatch sequence exactly, which is the
// determinism contract the rewrite must preserve (HACKING.md,
// "Scheduler determinism contract").
type refEvent struct {
	at  Time
	seq int64
	id  int64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)    { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any      { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h refHeap) peek() refEvent { return h[0] }

// measuredDeltaLog2 shapes scheduling deltas like the simulator's own
// traffic. A full `gmtbench all` run schedules ~135 M events; most
// deltas fall in 128 ns–32 µs, with peaks at 128–255 ns (≈19%), 1–2 µs
// (≈13%) and 16–32 µs (≈30%). Each entry is one log2 bucket worth ≈5%
// of the draws; the remainder is spread over the octaves in between,
// sub-128 ns deltas, and equal-time ties (-1, delta 0).
var measuredDeltaLog2 = [20]int8{-1, 6, 7, 7, 7, 7, 8, 9, 10, 10, 10, 11, 12, 13, 14, 14, 14, 14, 14, 14}

// measuredDelta draws one delta from measuredDeltaLog2.
func measuredDelta(rng *rand.Rand) Time {
	k := measuredDeltaLog2[rng.Intn(len(measuredDeltaLog2))]
	if k < 0 {
		return 0
	}
	return Time(1)<<k + Time(rng.Int63n(1<<k))
}

// laneDelays are the fixed AfterCallFIFO delays diffRun draws from: a
// zero delay (due at the current instant), level-0 and upper-level
// spans, the ComputePerAccess default, and one beyond the wheel's span,
// where lane heads meet the overflow ladder.
var laneDelays = [...]Time{0, 1, 37, 200, 200, 1<<(2*wheelBits) + 3, 1<<wheelSpan + 5}

// diffRun replays one randomized schedule derived from data through both
// queues and reports the first divergence. The op stream mixes near and
// far deltas (level-0 hits, upper wheel levels, the overflow ladder),
// equal-time bursts, RunUntil boundaries, and reschedule-from-callback.
// When data[0]%8 == 5 it runs the sparse regime instead: the pending set
// held at or below sparsePending events, every event
// rescheduling a successor, with measuredDelta deltas — the traffic that
// mostly takes the lone-event dispatch path.
//
// (data[0]>>3)%3 sets the share of schedules — roots and reschedules
// from callbacks alike — that go through AfterCallFIFO lanes instead of
// the wheel: none, a third, or two thirds. Lane delays come from
// laneDelays or are chosen to land exactly on a pending event's time,
// so lane heads tie with wheel events and with other lanes' heads.
func diffRun(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	sparse := data[0]%8 == 5
	laneShare := int(data[0]>>3) % 3

	e := NewEngine()
	ref := &refHeap{}
	var refSeq, nextID int64
	var got []int64 // event IDs in engine dispatch order

	// delta picks a scheduling offset biased toward the simulator's real
	// mix (small constants) but regularly crossing every wheel level and
	// the 2^wheelSpan overflow horizon, and landing equal-time bursts.
	delta := func() Time {
		if sparse {
			return measuredDelta(rng)
		}
		switch rng.Intn(8) {
		case 0:
			return 0 // equal-time burst with whatever fired now
		case 1, 2, 3:
			return Time(rng.Intn(wheelSlots)) // level 0
		case 4:
			return Time(rng.Intn(1 << (2 * wheelBits))) // levels 1–2
		case 5:
			return Time(rng.Int63n(1 << (rng.Intn(wheelSpan) + 1))) // any level, log-uniform
		case 6:
			return 1<<wheelSpan + Time(rng.Int63n(1<<(wheelSpan+1))) // overflow ladder
		default:
			return Time(rng.Intn(64)) * 200 // ComputePerAccess-like grid
		}
	}
	// laneDelay picks a lane delay: a fixed one, or the distance to a
	// pending event so the lane event ties with it. (Inside a callback
	// the heap may still hold events the engine already dispatched,
	// which lie behind the clock.)
	laneDelay := func() Time {
		if rng.Intn(3) == 0 && ref.Len() > 0 {
			if d := (*ref)[rng.Intn(ref.Len())].at - e.Now(); d >= 0 {
				return d
			}
		}
		return laneDelays[rng.Intn(len(laneDelays))]
	}
	// put schedules event id on both queues, through a lane or the wheel.
	put := func(id int64, fire EventFunc) {
		refSeq++
		if laneShare > rng.Intn(3) {
			d := laneDelay()
			heap.Push(ref, refEvent{at: e.Now() + d, seq: refSeq, id: id})
			e.AfterCallFIFO(d, fire, nil, id)
			return
		}
		at := e.Now() + delta()
		heap.Push(ref, refEvent{at: at, seq: refSeq, id: id})
		e.AtCall(at, fire, nil, id)
	}
	schedule := func(chain int) {
		id := nextID
		nextID++
		var fire EventFunc
		fire = func(_ any, myID int64) {
			got = append(got, myID)
			if chain > 0 && (sparse || rng.Intn(3) == 0) {
				chain--
				child := nextID
				nextID++
				put(child, fire)
			}
		}
		put(id, fire)
	}

	nops := int(data[0])%48 + 8
	if sparse {
		nops *= 4
	}
	for op := 0; op < nops; op++ {
		kind := rng.Intn(4)
		if sparse && kind < 2 && e.Pending() >= sparsePending {
			kind = 3 // hold the pending set near its measured size
		}
		switch kind {
		case 0: // burst of simultaneous root events
			n := rng.Intn(6) + 1
			if sparse {
				n = 1
			}
			for i := 0; i < n; i++ {
				schedule(2)
			}
		case 1:
			schedule(4)
		case 2: // drain up to a boundary that both sides honor
			if e.Pending() > 0 {
				limit := e.Now() + delta()
				e.RunUntil(limit)
				for ref.Len() > 0 && ref.peek().at <= limit {
					ev := heap.Pop(ref).(refEvent)
					want := got[0]
					got = got[1:]
					if ev.id != want {
						t.Fatalf("RunUntil(%d): wheel dispatched %d, heap %d", limit, want, ev.id)
					}
				}
			}
		case 3: // single-step and compare against the reference head
			if e.Pending() > 0 {
				at, ok := e.Peek()
				if !ok || at != ref.peek().at {
					t.Fatalf("Peek = %d,%v; heap min %d", at, ok, ref.peek().at)
				}
				e.step()
				ev := heap.Pop(ref).(refEvent)
				want := got[0]
				got = got[1:]
				if ev.id != want || e.Now() != ev.at {
					t.Fatalf("step: wheel (%d @ %d), heap (%d @ %d)", want, e.Now(), ev.id, ev.at)
				}
			}
		}
		if e.Pending() != ref.Len() {
			t.Fatalf("Pending = %d, heap holds %d", e.Pending(), ref.Len())
		}
	}
	e.Run()
	for ref.Len() > 0 {
		ev := heap.Pop(ref).(refEvent)
		if len(got) == 0 {
			t.Fatalf("wheel dispatched %d events fewer than the heap", ref.Len()+1)
		}
		want := got[0]
		got = got[1:]
		if ev.id != want {
			t.Fatalf("drain: wheel dispatched %d, heap %d", want, ev.id)
		}
	}
	if len(got) != 0 {
		t.Fatalf("wheel dispatched %d extra events", len(got))
	}
}

// TestEngineDifferential is the deterministic slice of the fuzz
// property: a fixed corpus of seeds, always run, so the equivalence is
// checked on every `go test` (and under -tags gmtinvariants in CI), not
// only during fuzzing. Every eighth seed runs the sparse regime, and the
// seeds cycle through every lane share.
func TestEngineDifferential(t *testing.T) {
	for seed := byte(0); seed < 120; seed++ {
		diffRun(t, []byte{seed, byte(seed * 7), byte(255 - seed)})
	}
}

// FuzzEngineDifferential drives the timing wheel and the reference heap
// with identical randomized schedules and requires identical dispatch
// sequences. CI runs a short -fuzz pass, untagged and under -tags
// gmtinvariants; the seed corpus below covers each delta regime
// (level-0, upper levels, overflow, equal-time bursts), the sparse
// measured-mix regime (first byte ≡ 5 mod 8), and each lane share
// ((first byte >> 3) mod 3).
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{42, 0, 255, 13, 101})
	f.Add([]byte{255, 128, 64, 32, 16, 8})
	f.Add([]byte{5})
	f.Add([]byte{13, 99, 7})
	f.Add([]byte{45, 1, 2, 3, 4})
	f.Add([]byte{253, 17, 0, 255})
	f.Add([]byte{8, 3, 1})
	f.Add([]byte{16, 200, 9})
	f.Add([]byte{21, 4, 4, 4})
	f.Add([]byte{13 + 8, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRun(t, data)
	})
}
