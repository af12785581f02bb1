package sim

import (
	"math/rand"
	"testing"
)

// replaySchedule drives e through a deterministic randomized workload —
// cascading reschedules across all wheel levels plus the overflow list —
// and returns the dispatch log as (time, tag) pairs.
func replaySchedule(e *Engine, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var log []int64
	var fire EventFunc
	depth := 0
	fire = func(ctx any, arg int64) {
		log = append(log, int64(e.Now()), arg)
		if depth < 4000 && rng.Intn(3) > 0 {
			depth++
			// Spread across slot (<256), level-2/3, and overflow horizons.
			d := Time(1 + rng.Intn(200))
			switch rng.Intn(8) {
			case 0:
				d = Time(1 + rng.Intn(100_000))
			case 1:
				d = Time(1 + rng.Intn(400_000_000)) // beyond the wheel horizon
			}
			e.AfterCall(d, fire, nil, arg*31+int64(rng.Intn(7)))
		}
	}
	for i := 0; i < 64; i++ {
		e.AtCall(Time(rng.Intn(1000)), fire, nil, int64(i))
	}
	e.Run()
	return log
}

// TestEngineResetReplaysIdentically pins Engine.Reset's contract: a
// drained engine, reset, must replay a workload with exactly the
// dispatch sequence (times, order, step count) of a fresh engine, even
// though it retains its event arena and free-list order.
func TestEngineResetReplaysIdentically(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		fresh := NewEngine()
		want := replaySchedule(fresh, seed)
		wantNow, wantSteps := fresh.Now(), fresh.Steps()

		recycled := NewEngine()
		replaySchedule(recycled, seed+99) // churn with a different workload
		recycled.Reset()
		if recycled.Now() != 0 || recycled.Steps() != 0 || recycled.Pending() != 0 {
			t.Fatalf("seed %d: Reset left now=%d steps=%d pending=%d",
				seed, recycled.Now(), recycled.Steps(), recycled.Pending())
		}
		got := replaySchedule(recycled, seed)
		if recycled.Now() != wantNow || recycled.Steps() != wantSteps {
			t.Fatalf("seed %d: recycled now=%d steps=%d, fresh now=%d steps=%d",
				seed, recycled.Now(), recycled.Steps(), wantNow, wantSteps)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: dispatch log length %d, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch log diverges at %d: got %d, want %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestEngineResetPendingPanics pins the quiescence precondition: Reset
// on an engine with undispatched events must panic rather than leak
// them into the next run.
func TestEngineResetPendingPanics(t *testing.T) {
	e := NewEngine()
	e.AtCall(10, CallFunc, (func())(nil), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with pending events did not panic")
		}
	}()
	e.Reset()
}

// TestEngineQuiescenceCountsLanes: an event waiting in an AfterCallFIFO
// lane is pending like a wheel event, so Reset and Snapshot refuse it,
// and a drained engine resets and replays its lanes cleanly.
func TestEngineQuiescenceCountsLanes(t *testing.T) {
	for _, op := range []string{"Reset", "Snapshot"} {
		t.Run(op, func(t *testing.T) {
			e := NewEngine()
			e.AfterCallFIFO(200, nopCall, nil, 0)
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d with one lane event, want 1", e.Pending())
			}
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a lane event pending did not panic", op)
				}
			}()
			if op == "Reset" {
				e.Reset()
			} else {
				e.Snapshot()
			}
		})
	}

	e := NewEngine()
	var log []Time
	var fire EventFunc
	fire = func(_ any, n int64) {
		log = append(log, e.Now())
		if n > 0 {
			e.AfterCallFIFO(200, fire, nil, n-1)
			e.AfterCall(150, nopCall, nil, 0)
		}
	}
	e.AfterCallFIFO(0, fire, nil, 5)
	e.Run()
	want, steps := append([]Time(nil), log...), e.Steps()
	e.Reset()
	log = log[:0]
	e.AfterCallFIFO(0, fire, nil, 5)
	e.Run()
	if e.Steps() != steps || len(log) != len(want) {
		t.Fatalf("replay after Reset: %d steps, %d fires; want %d, %d", e.Steps(), len(log), steps, len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("replay after Reset diverges at fire %d: %d, want %d", i, log[i], want[i])
		}
	}
}
