package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(5, func() {
		times = append(times, e.Now())
		e.After(7, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if times[0] != 5 || times[1] != 12 {
		t.Fatalf("times = %v, want [5 12]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 after Run", fired)
	}
}

func TestEngineSteps(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Intn(1000))
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerCapacity(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	var order []int
	start := func(id int, hold Time) {
		s.Acquire(func() {
			order = append(order, id)
			e.After(hold, s.Release)
		})
	}
	start(1, 10)
	start(2, 10)
	start(3, 10) // must wait for 1 or 2
	if s.InUse() != 2 || s.Queued() != 1 {
		t.Fatalf("InUse=%d Queued=%d, want 2,1", s.InUse(), s.Queued())
	}
	e.Run()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("grant order = %v", order)
	}
}

func TestServerFIFOGrants(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var order []int
	for i := 1; i <= 5; i++ {
		i := i
		s.Acquire(func() {
			order = append(order, i)
			e.After(1, s.Release)
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i+1 {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if s.Grants() != 5 {
		t.Fatalf("Grants = %d, want 5", s.Grants())
	}
}

func TestServerUse(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var doneAt []Time
	s.Use(10, func() { doneAt = append(doneAt, e.Now()) })
	s.Use(10, func() { doneAt = append(doneAt, e.Now()) })
	e.Run()
	if doneAt[0] != 10 || doneAt[1] != 20 {
		t.Fatalf("doneAt = %v, want [10 20]", doneAt)
	}
}

func TestServerReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	NewServer(NewEngine(), 1).Release()
}

func TestPipeBandwidth(t *testing.T) {
	e := NewEngine()
	// 1 GB/s: 1000 bytes take 1000ns.
	p := NewPipe(e, 1_000_000_000, 0)
	var doneAt Time
	p.Transfer(1000, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 1000 {
		t.Fatalf("1000B @ 1GB/s done at %d, want 1000", doneAt)
	}
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	var ends []Time
	for i := 0; i < 3; i++ {
		p.Transfer(1000, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{1000, 2000, 3000}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestPipePipelinedLatency(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 500)
	var ends []Time
	p.Transfer(1000, func() { ends = append(ends, e.Now()) })
	p.Transfer(1000, func() { ends = append(ends, e.Now()) })
	e.Run()
	// Latency delays completion but transfers still stream back to back:
	// 1000+500, 2000+500 — not 1500+1500.
	if ends[0] != 1500 || ends[1] != 2500 {
		t.Fatalf("ends = %v, want [1500 2500]", ends)
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	var end Time
	e.At(5000, func() {
		p.Transfer(1000, func() { end = e.Now() })
	})
	e.Run()
	if end != 6000 {
		t.Fatalf("end = %d, want 6000 (transfer starts at submission)", end)
	}
}

// Property: cumulative pipe busy time equals the sum of per-transfer
// occupancy regardless of submission pattern.
func TestPipeBusyConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		p := NewPipe(e, 3_200_000_000, 100)
		var want Time
		for i := 0; i < int(n)+1; i++ {
			sz := int64(rng.Intn(1<<16) + 1)
			want += p.TransferTime(sz)
			at := Time(rng.Intn(10000))
			e.At(at, func() { p.Transfer(sz, nil) })
		}
		e.Run()
		return p.BusyTime() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipeTransferLimited(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0) // 1 GB/s pipe
	var ends []Time
	// A requester limited to 0.5 GB/s occupies the pipe twice as long.
	p.TransferLimited(1000, 500_000_000, func() { ends = append(ends, e.Now()) })
	// A faster-than-pipe requester is clamped to the pipe rate.
	p.TransferLimited(1000, 2_000_000_000, func() { ends = append(ends, e.Now()) })
	e.Run()
	if ends[0] != 2000 {
		t.Fatalf("limited transfer ended at %d, want 2000", ends[0])
	}
	if ends[1] != 3000 {
		t.Fatalf("clamped transfer ended at %d, want 3000", ends[1])
	}
}

func TestPipeBacklogAndStats(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000, 0)
	p.Transfer(5000, nil)
	if p.Backlog() != 5000 {
		t.Fatalf("backlog = %d, want 5000", p.Backlog())
	}
	e.Run()
	if p.Backlog() != 0 {
		t.Fatalf("backlog after drain = %d", p.Backlog())
	}
	if p.Bytes() != 5000 || p.Transfers() != 1 {
		t.Fatalf("bytes=%d transfers=%d", p.Bytes(), p.Transfers())
	}
}

func TestServerQueueStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	for i := 0; i < 4; i++ {
		s.Use(10, nil)
	}
	if s.MaxQueue() != 3 {
		t.Fatalf("MaxQueue = %d, want 3", s.MaxQueue())
	}
	e.Run()
	if s.InUse() != 0 || s.Queued() != 0 {
		t.Fatal("server not drained")
	}
}

func TestEnginePendingAndZeroCapacityPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d", e.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 server did not panic")
		}
	}()
	NewServer(e, 0)
}

func TestPipeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth pipe did not panic")
		}
	}()
	NewPipe(NewEngine(), 0, 0)
}

func TestPipeMinimumOccupancy(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, 1_000_000_000_000, 0) // 1 TB/s: 1 byte would be <1ns
	if got := p.TransferTime(1); got != 1 {
		t.Fatalf("TransferTime(1) = %d, want clamped to 1ns", got)
	}
}

// TestPopReleasesDispatchedEvents is the closure-retention regression:
// after Run() drains, no arena record may still hold a dispatched
// event's callback, so closures — and everything they capture — become
// collectable instead of lingering for the life of the engine. (Free
// records may pin their last callback transiently DURING a run; the
// drain sweep in Run bounds that retention to the simulation itself.)
func TestPopReleasesDispatchedEvents(t *testing.T) {
	e := NewEngine()
	const n = 16
	for i := 0; i < n; i++ {
		i := i
		e.At(Time(i), func() { _ = i })
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("events remain after Run: %d", e.Pending())
	}
	for i := range e.recs {
		r := &e.recs[i]
		if r.fn != nil || r.call != nil || r.ctx != nil {
			t.Fatalf("record %d still holds a dispatched event's callback", i)
		}
	}
}

// countCall is a shared EventFunc for the typed-path tests.
func countCall(ctx any, arg int64) {
	s := ctx.(*[]int64)
	*s = append(*s, arg)
}

func TestEngineTypedPathOrdering(t *testing.T) {
	e := NewEngine()
	var got []int64
	e.AtCall(30, countCall, &got, 3)
	e.AtCall(10, countCall, &got, 1)
	e.At(20, func() { got = append(got, 2) })
	e.AfterCall(25, countCall, &got, 4) // now=0, fires at 25
	e.Run()
	want := []int64{1, 2, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("typed/compat interleaving = %v, want %v", got, want)
		}
	}
}

func TestEngineCallFunc(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AtCall(5, CallFunc, func() { fired = true }, 0)
	e.AtCall(6, CallFunc, (func())(nil), 0) // nil callback tolerated
	e.Run()
	if !fired {
		t.Fatal("CallFunc did not invoke its context function")
	}
	if e.Now() != 6 {
		t.Fatalf("Now = %d, want 6", e.Now())
	}
}

func TestEnginePastTypedSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("typed scheduling in the past did not panic")
			}
		}()
		e.AtCall(5, CallFunc, nil, 0)
	})
	e.Run()
}

func TestEngineRunUntilBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil with a backwards target did not panic")
		}
	}()
	e.RunUntil(49)
}

// TestEnginePoolConservation checks the free-list accounting the
// gmtinvariants build asserts at the end of Run: after a drain, every
// acquired record is back on the free list.
func TestEnginePoolConservation(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.AtCall(Time(i%7), CallFunc, func() {
			e.AfterCall(3, CallFunc, (func())(nil), 0)
		}, 0)
	}
	e.Run()
	if e.acquired != e.released {
		t.Fatalf("pool leak: %d acquired, %d released", e.acquired, e.released)
	}
	if len(e.free) != len(e.recs) {
		t.Fatalf("pool leak: %d free of %d records", len(e.free), len(e.recs))
	}
	if e.acquired != 200 {
		t.Fatalf("acquired = %d, want 200", e.acquired)
	}

	// Lane events acquire and release records like wheel events.
	for i := 0; i < 50; i++ {
		e.AfterCallFIFO(Time(i%3), CallFunc, func() {
			e.AfterCallFIFO(7, CallFunc, (func())(nil), 0)
		}, 0)
	}
	e.Run()
	if e.acquired != 300 || e.acquired != e.released || len(e.free) != len(e.recs) {
		t.Fatalf("lane pool: %d acquired, %d released, %d free of %d records; want 300 balanced",
			e.acquired, e.released, len(e.free), len(e.recs))
	}
}

func TestEnginePeek(t *testing.T) {
	e := NewEngine()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on an empty engine reported an event")
	}
	e.At(30, func() {})
	e.At(10, func() {})
	if at, ok := e.Peek(); !ok || at != 10 {
		t.Fatalf("Peek = %d,%v, want 10,true", at, ok)
	}
	e.At(5, func() {})
	if at, ok := e.Peek(); !ok || at != 5 {
		t.Fatalf("Peek after earlier schedule = %d,%v, want 5,true", at, ok)
	}
	// Peek must not dispatch or restructure: the full run still fires
	// everything in order.
	var fired []Time
	e.At(20, func() { fired = append(fired, e.Now()) })
	e.Run()
	if e.Steps() != 4 || e.Now() != 30 {
		t.Fatalf("after run: steps=%d now=%d, want 4, 30", e.Steps(), e.Now())
	}
}

// TestEnginePeekAgreesWithDispatch pins the acceptance criterion that
// Peek and Pending agree with dispatch reality at every step.
func TestEnginePeekAgreesWithDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	n, rescheduled := 500, 0
	var sink EventFunc
	sink = func(ctx any, arg int64) {
		if n > 0 {
			n--
			rescheduled++
			e.AfterCall(Time(rng.Intn(5000)), sink, nil, 0)
		}
	}
	for i := 0; i < 32; i++ {
		e.AfterCall(Time(rng.Intn(1<<20)), sink, nil, 0)
	}
	for e.Pending() > 0 {
		at, ok := e.Peek()
		if !ok {
			t.Fatal("Peek empty while Pending > 0")
		}
		before, schedBefore := e.Pending(), rescheduled
		e.step()
		if e.Now() != at {
			t.Fatalf("dispatched at %d, Peek promised %d", e.Now(), at)
		}
		if want := before - 1 + (rescheduled - schedBefore); e.Pending() != want {
			t.Fatalf("Pending %d -> %d across one step, want %d", before, e.Pending(), want)
		}
	}
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.AdvanceTo(40)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40", e.Now())
	}
	e.AdvanceTo(40) // idempotent
	e.Run()
	if e.Now() != 100 || e.Steps() != 1 {
		t.Fatalf("after run: now=%d steps=%d", e.Now(), e.Steps())
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards AdvanceTo did not panic")
		}
	}()
	e.AdvanceTo(99)
}

// TestEngineFarEvents exercises the overflow ladder: events beyond the
// wheel's span (2^wheelSpan ns past the cursor) must still dispatch in
// exact time-then-FIFO order, including equal-time pairs straddling the
// rebase. Both far instants start on the ladder, and the second rebase
// (onto near) leaves far on it again.
func TestEngineFarEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	const near = Time(1) << (wheelSpan + 1)
	const far = Time(1) << (wheelSpan + 4)
	e.At(far+5, func() { got = append(got, 4) })
	e.At(3, func() { got = append(got, 1) })
	e.At(far+5, func() { got = append(got, 5) }) // same instant, FIFO after 4
	e.At(far, func() { got = append(got, 3) })
	e.At(near, func() { got = append(got, 2) })
	if len(e.overflow) != 4 {
		t.Fatalf("%d events on the overflow ladder, want 4", len(e.overflow))
	}
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("far-event order = %v, want %v", got, want)
		}
	}
	if e.Now() != far+5 {
		t.Fatalf("Now = %d, want %d", e.Now(), far+5)
	}
}

// TestEngineCascadeFIFO pins FIFO preservation across cascades: events
// at one instant far enough out to start life in an upper wheel level
// must still fire in scheduling order after migrating down.
func TestEngineCascadeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	// A non-zero digit at every level, so the burst starts in the top
	// level and cascades through each one on its way down.
	var at Time
	for lvl := 0; lvl < wheelLevels; lvl++ {
		at |= Time(lvl+3) << (lvl * wheelBits)
	}
	for i := 0; i < 64; i++ {
		i := i
		e.At(at, func() { got = append(got, i) })
		// Interleave other instants in the same upper-level slots so the
		// cascade has to split mixed lists.
		e.At(at+Time(i%3)+1, func() {})
	}
	e.Run()
	if len(got) != 64 {
		t.Fatalf("fired %d of 64", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("cascade broke FIFO: %v", got)
		}
	}
}

// TestEngineRunUntilAcrossWindows stops between events that live in
// different wheel levels and verifies nothing beyond the target fires.
func TestEngineRunUntilAcrossWindows(t *testing.T) {
	e := NewEngine()
	var fired []Time
	// One event per wheel level, then one on the overflow ladder.
	var times []Time
	for lvl := 0; lvl < wheelLevels; lvl++ {
		times = append(times, Time(3)<<(lvl*wheelBits))
	}
	times = append(times, Time(1)<<(wheelSpan+1))
	for _, at := range times {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if e.levels != 1<<wheelLevels-1 || len(e.overflow) != 1 {
		t.Fatalf("levels = %#x, overflow = %d; want every level and one ladder event", e.levels, len(e.overflow))
	}
	e.RunUntil(times[2])
	if len(fired) != 3 || e.Now() != times[2] {
		t.Fatalf("fired=%v now=%d, want 3 events and now=%d", fired, e.Now(), times[2])
	}
	if at, ok := e.Peek(); !ok || at != times[3] {
		t.Fatalf("Peek = %d,%v, want %d,true", at, ok, times[3])
	}
	e.Run()
	if len(fired) != len(times) {
		t.Fatalf("fired %d of %d after Run", len(fired), len(times))
	}
}

// TestEngineUpperSingletonDispatch pins the lone-event rule: an event
// alone in an upper-level slot dispatches directly, without cascading
// its level, and the events its callback schedules — one at the same
// instant, one later in the same level — still dispatch in (time, seq)
// order behind the untouched event already waiting in that level.
func TestEngineUpperSingletonDispatch(t *testing.T) {
	e := NewEngine()
	const lvl = 2
	const unit = Time(1) << (lvl * wheelBits)
	const at, soon, later = 5*unit + 7, 6*unit + 1, 8 * unit
	var got []int64
	e.AtCall(later, countCall, &got, 4)
	e.AtCall(at, func(ctx any, arg int64) {
		countCall(ctx, arg)
		e.AtCall(at, countCall, &got, 2)
		e.AtCall(soon, countCall, &got, 3)
	}, &got, 1)
	if e.levels != 1<<lvl {
		t.Fatalf("levels = %#x, want only level %d occupied", e.levels, lvl)
	}
	e.step()
	if e.Now() != at || e.cur != at {
		t.Fatalf("now=%d cur=%d after the lone dispatch, want both %d", e.Now(), e.cur, at)
	}
	// Not cascaded: the waiting event keeps its level-2 slot, beside the
	// callback's later event, and the tie sits at level 0.
	if want := uint64(1)<<(soon/unit) | 1<<(later/unit); e.occ[lvl] != want || e.levels != 1|1<<lvl {
		t.Fatalf("occ[%d] = %#x, levels = %#x; want %#x, %#x", lvl, e.occ[lvl], e.levels, want, 1|1<<lvl)
	}
	var times []Time
	for e.Pending() > 0 {
		e.step()
		times = append(times, e.Now())
	}
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("dispatch order = %v, want [1 2 3 4]", got)
	}
	if times[0] != at || times[1] != soon || times[2] != later {
		t.Fatalf("dispatch times = %v, want [%d %d %d]", times, at, soon, later)
	}
}

// TestEngineRecordReuse pins the pooling behavior: once the peak event
// population has been reached, further scheduling reuses records instead
// of growing the arena.
func TestEngineRecordReuse(t *testing.T) {
	e := NewEngine()
	var chain EventFunc
	remaining := 1000
	chain = func(ctx any, arg int64) {
		if remaining > 0 {
			remaining--
			e.AfterCall(1, chain, nil, 0)
		}
	}
	e.AfterCall(1, chain, nil, 0)
	e.Run()
	if len(e.recs) != 1 {
		t.Fatalf("arena grew to %d records for a 1-deep event chain", len(e.recs))
	}
}
