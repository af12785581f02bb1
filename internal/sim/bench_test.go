package sim

import (
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/raceflag"
)

// Microbenchmarks and allocation gates for the engine's schedule/dispatch
// cycle. The typed path (AtCall/AfterCall) must be allocation-free in
// steady state; the compatibility path (At/After) may pay for the
// caller's closure but nothing engine-side.

func nopCall(any, int64) {}

// BenchmarkScheduleDispatchTyped measures one schedule+dispatch cycle on
// the typed path. Steady state is 0 allocs/op.
func BenchmarkScheduleDispatchTyped(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(1, nopCall, nil, 0)
		e.Run()
	}
}

// BenchmarkScheduleDispatchClosure measures the compatibility path with
// a capturing closure — what all device packages paid per event before
// the typed path existed. The delta against the typed benchmark is the
// per-event saving.
func BenchmarkScheduleDispatchClosure(b *testing.B) {
	e := NewEngine()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() { sink = i })
		e.Run()
	}
	_ = sink
}

// BenchmarkScheduleDispatchDeep measures schedule+dispatch with a large
// pending population: ~10 events per instant, so level-0 slots hold
// long FIFO lists and level-1 slots cascade many records at once.
func BenchmarkScheduleDispatchDeep(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	for i := 0; i < depth; i++ {
		e.AfterCall(Time(1+i%97), nopCall, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(1+i%97), nopCall, nil, 0)
		e.step()
	}
	b.StopTimer()
	e.Run()
}

// sparsePending and sparseDeltas shape BenchmarkScheduleDispatchSparse
// after the simulator's own traffic: a pending set of about a dozen
// events and deltas from the measured log2 histogram (measuredDelta),
// precomputed so the loop times the engine rather than the RNG.
const sparsePending = 12

var sparseDeltas = func() (d [4096]Time) {
	rng := rand.New(rand.NewSource(1))
	for i := range d {
		d[i] = measuredDelta(rng)
	}
	return d
}()

// sparseEngine returns an engine holding sparsePending events.
func sparseEngine() *Engine {
	e := NewEngine()
	for i := 0; i < sparsePending; i++ {
		e.AfterCall(sparseDeltas[i], nopCall, nil, 0)
	}
	return e
}

// BenchmarkScheduleDispatchSparse measures one schedule+dispatch cycle
// on the sparse pending set the simulator actually keeps — the path
// where most pops dispatch a lone upper-level event directly. Steady
// state is 0 allocs/op.
func BenchmarkScheduleDispatchSparse(b *testing.B) {
	e := sparseEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(sparseDeltas[i%len(sparseDeltas)], nopCall, nil, 0)
		e.step()
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkScheduleDispatchLane measures one schedule+dispatch cycle on
// the constant-delay lane with a warp-like population: 128 events
// pending on the lane and a sparse wheel set beside it, each dispatch
// scheduling its successor one quantum on. Steady state is 0 allocs/op.
func BenchmarkScheduleDispatchLane(b *testing.B) {
	e := sparseEngine()
	for i := 0; i < 128; i++ {
		e.AfterCallFIFO(200, nopCall, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			e.AfterCall(sparseDeltas[i%len(sparseDeltas)], nopCall, nil, 0)
		} else {
			e.AfterCallFIFO(200, nopCall, nil, 0)
		}
		e.step()
	}
	b.StopTimer()
	e.Run()
}

// allocGatesEnabled reports whether allocation-exactness assertions are
// meaningful for this build: race instrumentation and gmtinvariants
// assertions both allocate on paths the default build keeps clean.
func allocGatesEnabled() bool { return !raceflag.Enabled && !invariant.Enabled }

// TestScheduleDispatchAllocGate is the CI gate for the tentpole's
// engine half: a steady-state schedule+dispatch cycle on the typed path
// performs zero allocations, and the compatibility path allocates only
// the caller's closure (at most 1/op) — at least 2x fewer than the old
// closure+interface-boxing representation's 2/op.
func TestScheduleDispatchAllocGate(t *testing.T) {
	if !allocGatesEnabled() {
		t.Skip("allocation gates run on the default build only")
	}
	e := NewEngine()
	// Warm the arena and free list to steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.AfterCall(Time(i%13), nopCall, nil, 0)
	}
	e.Run()

	typed := testing.AllocsPerRun(200, func() {
		e.AfterCall(1, nopCall, nil, 0)
		e.AfterCall(2, nopCall, e, 7)
		e.Run()
	})
	if typed != 0 {
		t.Errorf("typed schedule+dispatch = %.1f allocs/op, want 0", typed)
	}

	// A lane schedule and dispatch, tied with and interleaved among
	// wheel events, allocates nothing once the arena is warm.
	lane := testing.AllocsPerRun(200, func() {
		e.AfterCallFIFO(200, nopCall, e, 1)
		e.AfterCall(200, nopCall, nil, 0)
		e.AfterCallFIFO(0, nopCall, nil, 2)
		e.AfterCallFIFO(200, nopCall, nil, 3)
		e.Run()
	})
	if lane != 0 {
		t.Errorf("lane schedule+dispatch = %.1f allocs/op, want 0", lane)
	}

	se := sparseEngine()
	i := 0
	sparse := testing.AllocsPerRun(200, func() {
		se.AfterCall(sparseDeltas[i%len(sparseDeltas)], nopCall, nil, 0)
		se.step()
		i++
	})
	if sparse != 0 {
		t.Errorf("sparse schedule+dispatch = %.1f allocs/op, want 0", sparse)
	}

	sink := 0
	compat := testing.AllocsPerRun(200, func() {
		e.After(1, func() { sink++ })
		e.Run()
	})
	if compat > 1 {
		t.Errorf("compat schedule+dispatch = %.1f allocs/op, want <= 1 (caller closure only)", compat)
	}
	_ = sink
}

// TestPipeTransferAllocGate: pipe completions ride the typed path, so a
// steady-state transfer with a pre-existing done callback is
// allocation-free.
func TestPipeTransferAllocGate(t *testing.T) {
	if !allocGatesEnabled() {
		t.Skip("allocation gates run on the default build only")
	}
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 100)
	done := func() {}
	for i := 0; i < 64; i++ {
		p.Transfer(4096, done)
	}
	e.Run()
	n := testing.AllocsPerRun(200, func() {
		p.Transfer(4096, done)
		e.Run()
	})
	if n != 0 {
		t.Errorf("pipe transfer = %.1f allocs/op, want 0", n)
	}
}

// TestFreshEngineLaneAllocGate: a fresh engine's first lanes live in
// the engine itself, so a single run that schedules onto one or two
// lanes allocates no more than one that stays on the wheel.
func TestFreshEngineLaneAllocGate(t *testing.T) {
	if !allocGatesEnabled() {
		t.Skip("allocation gates run on the default build only")
	}
	run := func(lanes bool) float64 {
		return testing.AllocsPerRun(100, func() {
			e := NewEngine()
			e.AfterCall(1, nopCall, nil, 0)
			if lanes {
				e.AfterCallFIFO(200, nopCall, nil, 0)
				e.AfterCallFIFO(100, nopCall, nil, 0)
			} else {
				e.AfterCall(200, nopCall, nil, 0)
				e.AfterCall(100, nopCall, nil, 0)
			}
			e.Run()
		})
	}
	if wheel, lanes := run(false), run(true); lanes > wheel {
		t.Errorf("fresh engine: %.1f allocs/op with two lanes, %.1f on the wheel alone", lanes, wheel)
	}
}
