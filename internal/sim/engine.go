// Package sim provides a deterministic discrete-event simulation engine.
//
// All GMT components — the GPU execution model, the NVMe SSD, the PCIe
// link, and the tiering runtime — advance a single virtual clock owned by
// an Engine. Events scheduled for the same instant fire in scheduling
// order (FIFO), so a run is fully deterministic for a given seed.
//
// The engine is single-goroutine: callbacks run on the caller of Run, and
// no synchronization is required inside components.
//
// # Scheduling paths
//
// Three scheduling APIs coexist. At/After accept a plain func() and remain
// the general-purpose path; the closure they are handed is the caller's
// only allocation. AtCall/AfterCall accept an EventFunc — a top-level
// function plus a context pointer and an int64 argument — and allocate
// nothing at all in steady state, which is what the per-access hot paths
// (pipe completions, device stages) use. AfterCallFIFO is the typed path
// for one delay repeated at volume — the GPU's per-warp compute quantum:
// it appends to a constant-delay FIFO lane instead of the wheel.
// Internally all paths share one representation, free-listed event
// records threaded through the timing wheel or a lane, so no interface
// boxing or per-event allocation happens inside the engine on any path.
//
// # Queue discipline
//
// The pending set is a hierarchical timing wheel (6 levels × 64 slots
// covering 2^36 ns beyond the cursor) with a ladder-style overflow list
// for farther-out events. Each level's occupancy is one 64-bit word and
// a level-summary word marks the non-empty levels, so the earliest
// occupied slot is two TrailingZeros64 away. The simulator's pending set
// is sparse (typically 8–15 events, deltas of 128 ns–32 µs), so most
// events sit alone in an upper-level slot; pop dispatches such a lone
// event directly — it is the global minimum — and only a slot holding
// several events cascades down. Push and pop are O(1) amortized.
// Dispatch order is bit-exact with a binary min-heap ordered by (time,
// sequence): slot lists are appended in schedule order, cascades
// preserve it, and equal-time events always share a slot, so a lone
// event has no tied peer and the FIFO tie-break of simultaneous events
// survives every structural move (see HACKING.md, "Scheduler
// determinism contract"). The differential fuzz test in
// engine_diff_test.go pins the equivalence, and -tags gmtinvariants
// builds assert per dispatch that (time, sequence) strictly increases.
//
// Events scheduled through AfterCallFIFO skip the wheel. Each distinct
// delay d has a lane: a FIFO list of records in schedule order. Every
// event on it is due at its schedule time plus d, and the clock never
// runs backwards, so the lane is already sorted by (time, sequence) and
// its head is its minimum. Dispatch merges the lane heads with the
// wheel's minimum by (time, sequence); on equal times the lane head's
// sequence is compared with the wheel's earliest record at that instant.
// A lane dispatch leaves the wheel's cursor and cached minimum alone.
// The same differential test drives a share of its schedules through
// lanes, so the merge is pinned against the reference heap too.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/gmtsim/gmt/internal/invariant"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// EventFunc is the typed callback of the zero-allocation scheduling
// path: a top-level (or otherwise pre-existing) function invoked with
// the context and argument captured at schedule time. Passing a pointer
// as ctx does not allocate; capturing state in a fresh closure would.
type EventFunc func(ctx any, arg int64)

// CallFunc is an EventFunc that invokes its context as a niladic
// function. It lets a caller holding an existing func() — typically a
// completion callback threaded through device layers — schedule it
// without wrapping it in a new closure:
//
//	eng.AtCall(t, sim.CallFunc, done, 0)
//
// A nil done is tolerated, so completion paths need no branch.
func CallFunc(ctx any, _ int64) {
	if fn, ok := ctx.(func()); ok && fn != nil {
		fn()
	}
}

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots each.
// Level k buckets times by bits [k*wheelBits, (k+1)*wheelBits) relative
// to the cursor's window, so the wheel spans 2^wheelSpan ns beyond the
// cursor; events farther out wait in the overflow ladder. 64 slots make
// a level's occupancy exactly one uint64.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 6
	wheelSpan   = wheelBits * wheelLevels
)

// noEvent terminates a slot's singly-linked record list.
const noEvent int32 = -1

// eventRecord is one scheduled event. Records live in a free-listed
// arena owned by the engine: dispatch releases the record (zeroing its
// callback references so dispatched closures become collectable) before
// the callback runs, and the next schedule reuses it.
type eventRecord struct {
	at  Time
	seq int64
	// next links the record into its wheel slot's FIFO list.
	next int32

	// Exactly one of call/fn is set: call is the typed path (with ctx
	// and arg), fn the compatibility path.
	call EventFunc
	ctx  any
	arg  int64
	fn   func()
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use.
type Engine struct {
	now Time

	// recs is the record arena; free lists reusable indices.
	recs []eventRecord
	free []int32

	// cur is the wheel cursor: the time of the last structural advance
	// (a pop or an overflow rebase). Invariants: cur <= now between
	// dispatches, every pending event's time is >= cur, and every wheel
	// record sits where place would put it against the current cur. Slot
	// placement hashes an event's time against cur, so slots behind the
	// cursor are always empty and the lowest occupied bit is the earliest.
	cur Time
	// occ is the per-level occupancy word and levels has bit k set while
	// occ[k] != 0; head/tail (at the end of the struct, so the per-event
	// scalars share cache lines) index each slot's FIFO record list.
	occ    [wheelLevels]uint64
	levels uint64

	// overflow is the ladder fallback: events beyond the wheel's span,
	// in schedule order. They re-enter the wheel when it drains and the
	// cursor rebases to overflowMin (the earliest overflow time).
	overflow    []int32
	overflowMin Time

	// lanes are the constant-delay FIFO queues of AfterCallFIFO, one per
	// distinct delay; see lane. The first ones live in laneBuf, so a
	// fresh engine's lanes allocate nothing (an Engine is never copied).
	// pending counts every scheduled event, laned the share of it
	// waiting in lanes rather than on the wheel.
	lanes   []lane
	laneBuf [2]lane
	pending int
	laned   int

	// peekAt caches the wheel's earliest pending time (valid while
	// peekOK). Schedules keep it fresh in O(1); wheel pops invalidate it,
	// and the next use recomputes from the bitmaps. Lane dispatches leave
	// the wheel untouched and keep it valid. Across a run each wheel
	// dispatch pays for at most one recompute, so Peek is O(1) amortized.
	peekAt Time
	peekOK bool

	// seq numbers schedules; lastSeq is the seq of the last dispatch,
	// which gmtinvariants builds use to check that dispatched
	// (time, seq) pairs strictly increase.
	seq     int64
	lastSeq int64
	steps   int64

	// Pool conservation counters: every schedule acquires one record,
	// every dispatch releases it. Run asserts they balance (under -tags
	// gmtinvariants), so a pool leak fails loudly instead of silently
	// re-growing the arena.
	acquired int64
	released int64

	// The head/tail values are meaningful only while the slot's occ bit
	// is set, which is what lets the zero value work.
	head [wheelLevels][wheelSlots]int32
	tail [wheelLevels][wheelSlots]int32
}

// lane is the FIFO of events scheduled through AfterCallFIFO with one
// fixed delay d. Each was due at its schedule time plus d, and the clock
// never runs backwards, so appending in schedule order keeps the lane
// sorted by (time, sequence): its head is its minimum, and dispatch only
// ever compares lane heads with the wheel's minimum. The records live in
// the engine's arena like wheel records and are threaded through next,
// from head to tail (head is noEvent while the lane is empty). at and
// seq copy the head record's, so comparing a lane with the wheel or
// another lane reads only the lane.
type lane struct {
	d          Time
	head, tail int32
	at         Time
	seq        int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns a quiescent engine to the state NewEngine constructs,
// retaining the event-record arena so the next run schedules into
// already-allocated records instead of re-growing the pool. It panics if
// events are pending: like Snapshot, a reset is only defined at
// quiescence, where the wheel and the overflow ladder are structurally
// empty and the clock plus counters are the entire state. Pending
// counts lane events too, so an occupied lane panics like the wheel.
// The lanes themselves are kept, empty, for the next run's delays.
//
// The free list keeps whatever pop order the previous run left it in.
// That is behavior-neutral: record indices only name storage; dispatch
// order is fully determined by (time, sequence) and slot list order, so
// a reset engine replays any schedule bit-identically to a fresh one
// (pinned by TestEngineResetReplaysIdentically).
func (e *Engine) Reset() {
	if e.pending != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", e.pending))
	}
	if invariant.Enabled {
		invariant.Assert(e.levels == 0 && e.occ == [wheelLevels]uint64{},
			"sim: Reset found occupied wheel slots (levels %#x) with nothing pending", e.levels)
		invariant.Assert(len(e.free) == len(e.recs),
			"sim: Reset found %d free of %d records with nothing pending", len(e.free), len(e.recs))
		for i := range e.lanes {
			invariant.Assert(e.lanes[i].head == noEvent,
				"sim: Reset found lane %d (delay %d) occupied with nothing pending", i, e.lanes[i].d)
		}
	}
	e.now, e.cur = 0, 0
	e.seq, e.lastSeq, e.steps = 0, 0, 0
	e.overflow = e.overflow[:0]
	e.overflowMin = 0
	e.peekAt, e.peekOK = 0, false
	e.acquired, e.released = 0, 0
	// Sweep retained callback references (a drain via RunUntil does not
	// sweep the arena the way Run does), so nothing scheduled in the
	// previous run outlives it through the free list.
	for i := range e.recs {
		e.recs[i].call, e.recs[i].ctx, e.recs[i].fn = nil, nil, nil
	}
}

// Snapshot is the compact state of a quiescent engine: with no events
// pending, the wheel, the overflow ladder, the lanes, and the record
// arena are all structurally empty, so the clock and the determinism
// counters are the entire state. Runtime forking (core.Runtime.Fork) captures one after
// a warm-up prefix and hydrates any number of child engines from it.
type Snapshot struct {
	now   Time
	seq   int64
	steps int64
}

// Now reports the captured virtual time.
func (s Snapshot) Now() Time { return s.now }

// Snapshot captures the engine's state. It panics if events are still
// pending: forks are only defined at quiescence, where the wheel is
// empty and the snapshot is exact rather than a deep copy.
func (e *Engine) Snapshot() Snapshot {
	if e.pending != 0 {
		panic(fmt.Sprintf("sim: Snapshot with %d events pending", e.pending))
	}
	return Snapshot{now: e.now, seq: e.seq, steps: e.steps}
}

// NewEngineFrom returns a fresh engine whose clock, sequence counter,
// and dispatch count continue from snap. The wheel cursor rebases to
// the snapshot time, which preserves the placement invariant (every
// future event is >= now >= cur); because the sequence counter also
// continues, equal-time tie-breaking in a child matches what the parent
// engine would have done had it kept running. Every event the parent
// dispatched carries a seq <= snap.seq, so that bounds lastSeq.
func NewEngineFrom(snap Snapshot) *Engine {
	return &Engine{now: snap.now, cur: snap.now, seq: snap.seq, lastSeq: snap.seq, steps: snap.steps}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been dispatched so far.
func (e *Engine) Steps() int64 { return e.steps }

// Pending reports how many events are scheduled but not yet dispatched.
func (e *Engine) Pending() int { return e.pending }

// Peek reports the time of the earliest pending event, without
// dispatching or restructuring anything. It is the guard the
// synchronous-completion fast path consults before advancing time
// inline: AdvanceTo(t) is legal only while Peek is absent or strictly
// later than t (see HACKING.md, "Scheduler determinism contract").
//
//gmt:hotpath
func (e *Engine) Peek() (Time, bool) {
	if e.pending == 0 {
		return 0, false
	}
	at := Time(math.MaxInt64)
	if e.pending > e.laned {
		at = e.wheelMin()
	}
	if e.laned > 0 {
		if l := e.firstLane(); l.at < at {
			at = l.at
		}
	}
	return at, true
}

// wheelMin reports the wheel's earliest pending time, from the cache
// when it is valid. The wheel must hold at least one event.
func (e *Engine) wheelMin() Time {
	if !e.peekOK {
		e.refreshMin()
	}
	return e.peekAt
}

// refreshMin recomputes the cached wheel minimum. It stays out of line
// so that wheelMin's cached path inlines into dispatch and Peek.
//
//go:noinline
func (e *Engine) refreshMin() {
	e.peekAt = e.findMin()
	e.peekOK = true
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// The caller must have established — via Peek — that no pending event is
// due at or before t; violating that would let the inline advance
// reorder the dispatch sequence, so it is asserted under -tags
// gmtinvariants. A backwards target panics unconditionally.
//
//gmt:hotpath
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo target %d behind clock %d", t, e.now))
	}
	if invariant.Enabled {
		if at, ok := e.Peek(); ok {
			invariant.Assert(at > t,
				"sim: AdvanceTo(%d) would skip the pending event at %d", t, at)
		}
	}
	e.now = t
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a modeling bug.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, nil, nil, 0, fn)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, nil, nil, 0, fn) }

// AtCall schedules call(ctx, arg) at virtual time t. Unlike At, this
// path performs no allocation in steady state: the callback is a shared
// function value and the context travels as a pointer.
//
//gmt:hotpath
func (e *Engine) AtCall(t Time, call EventFunc, ctx any, arg int64) {
	e.schedule(t, call, ctx, arg, nil)
}

// AfterCall schedules call(ctx, arg) d nanoseconds from now.
//
//gmt:hotpath
func (e *Engine) AfterCall(d Time, call EventFunc, ctx any, arg int64) {
	e.schedule(e.now+d, call, ctx, arg, nil)
}

// AfterCallFIFO schedules call(ctx, arg) d nanoseconds from now, like
// AfterCall, but onto the constant-delay lane for d instead of the
// timing wheel. Dispatch order is the same (time, sequence) order either
// way; the lane only skips the wheel's placement and cascades, which
// events whose order is known at schedule time do not need. Use it for
// high-volume repeating delays — the GPU's per-warp compute quantum.
// Negative d panics.
//
//gmt:hotpath
func (e *Engine) AfterCallFIFO(d Time, call EventFunc, ctx any, arg int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %d", d))
	}
	l := e.laneFor(d)
	e.seq++
	id := e.acquireRecord()
	r := &e.recs[id]
	r.at = e.now + d
	r.seq = e.seq
	r.next = noEvent
	r.call = call
	r.ctx = ctx
	r.arg = arg
	r.fn = nil
	if l.head == noEvent {
		l.head, l.at, l.seq = id, r.at, r.seq
	} else {
		e.recs[l.tail].next = id
	}
	l.tail = id
	e.pending++
	e.laned++
}

// laneFor returns the lane of delay d. Delays are unique across lanes:
// a delay without a lane takes over the first empty lane, and only when
// every lane is occupied does the engine grow a new one, so the scan is
// bounded by the number of distinct delays pending at once.
func (e *Engine) laneFor(d Time) *lane {
	free := -1
	for i := range e.lanes {
		if e.lanes[i].d == d {
			return &e.lanes[i]
		}
		if free < 0 && e.lanes[i].head == noEvent {
			free = i
		}
	}
	if free < 0 {
		if e.lanes == nil {
			e.lanes = e.laneBuf[:0]
		}
		free = len(e.lanes)
		e.lanes = append(e.lanes, lane{head: noEvent, tail: noEvent})
	}
	e.lanes[free].d = d
	return &e.lanes[free]
}

// firstLane returns the lane whose head dispatches first by (time,
// sequence). At least one lane must be occupied.
func (e *Engine) firstLane() *lane {
	if len(e.lanes) == 1 {
		return &e.lanes[0]
	}
	return e.scanLanes()
}

// scanLanes is firstLane over several lanes.
func (e *Engine) scanLanes() *lane {
	var first *lane
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.head == noEvent {
			continue
		}
		if first == nil || l.at < first.at || l.at == first.at && l.seq < first.seq {
			first = l
		}
	}
	return first
}

func (e *Engine) schedule(t Time, call EventFunc, ctx any, arg int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	id := e.acquireRecord()
	r := &e.recs[id]
	r.at = t
	r.seq = e.seq
	r.call = call
	r.ctx = ctx
	r.arg = arg
	r.fn = fn
	e.place(id, t)
	e.pending++
	// Keep the cached wheel minimum exact: a first event defines it, an
	// earlier event lowers it, a later one cannot disturb it.
	if e.pending-e.laned == 1 || (e.peekOK && t < e.peekAt) {
		e.peekAt = t
		e.peekOK = true
	}
}

// place threads record id (due at t) onto its wheel slot, or onto the
// overflow ladder when t is beyond the wheel's span. The level is the
// highest wheelBits-wide digit in which t differs from the cursor, so
// every event below the current level-0 window boundary sits in the
// bottom wheel where its slot denotes an exact instant. Appending at the
// tail preserves schedule (sequence) order within a slot.
func (e *Engine) place(id int32, t Time) {
	lvl := uint(bits.Len64(uint64(t^e.cur)|1)-1) / wheelBits
	if lvl >= wheelLevels {
		if len(e.overflow) == 0 || t < e.overflowMin {
			e.overflowMin = t
		}
		e.overflow = append(e.overflow, id)
		return
	}
	s := uint(t>>(lvl*wheelBits)) & wheelMask
	e.recs[id].next = noEvent
	if e.occ[lvl]&(1<<s) != 0 {
		e.recs[e.tail[lvl][s]].next = id
	} else {
		e.occ[lvl] |= 1 << s
		e.levels |= 1 << lvl
		e.head[lvl][s] = id
	}
	e.tail[lvl][s] = id
}

// findMin computes the earliest pending time without mutating the
// wheel. Levels are strictly ordered in time (everything at level k+1 is
// later than everything at level k or below), and slots behind the
// cursor are empty, so the lowest occupied slot of the lowest non-empty
// level decides: at level 0 a slot is an exact instant; higher up the
// slot's list is scanned for its earliest member.
func (e *Engine) findMin() Time {
	if e.levels == 0 {
		return e.overflowMin
	}
	lvl := bits.TrailingZeros64(e.levels)
	id := e.head[lvl][bits.TrailingZeros64(e.occ[lvl])]
	min := e.recs[id].at
	for id = e.recs[id].next; lvl > 0 && id != noEvent; id = e.recs[id].next {
		if at := e.recs[id].at; at < min {
			min = at
		}
	}
	return min
}

// wheelSeq reports the sequence number of the wheel's earliest record,
// given its time t (the wheel minimum). Equal-time records share a slot
// — or, beyond the wheel's span, the overflow ladder — in schedule
// order, so the first record due at t is the one.
func (e *Engine) wheelSeq(t Time) int64 {
	if e.levels == 0 {
		for _, id := range e.overflow {
			if e.recs[id].at == t {
				return e.recs[id].seq
			}
		}
	}
	lvl := bits.TrailingZeros64(e.levels)
	id := e.head[lvl][bits.TrailingZeros64(e.occ[lvl])]
	for e.recs[id].at != t {
		id = e.recs[id].next
	}
	return e.recs[id].seq
}

// takeLane removes and returns the first lane head when it is the
// earliest pending record by (time, sequence), and returns noEvent when
// the wheel holds an earlier event or a tied one scheduled before it.
// Taking from a lane leaves the wheel, its cursor and its cached minimum
// untouched. At least one lane must be occupied.
func (e *Engine) takeLane() int32 {
	l := e.firstLane()
	if e.pending > e.laned {
		if at := e.wheelMin(); at < l.at || at == l.at && e.wheelSeq(at) < l.seq {
			return noEvent
		}
	}
	id := l.head
	if l.head = e.recs[id].next; l.head != noEvent {
		h := &e.recs[l.head]
		l.at, l.seq = h.at, h.seq
	}
	e.pending--
	e.laned--
	return id
}

// pop removes and returns the earliest pending record, advancing the
// cursor to its time. The lowest occupied slot of the lowest non-empty
// level is dispatched from directly when it is a level-0 slot (an exact
// instant, popped in FIFO order) or holds a single record: a lone record
// is the global minimum, and because equal-time events always share a
// slot it has no tied peer. Moving the cursor to its time leaves every
// other record's level and slot unchanged, since it agrees with the old
// cursor on every digit above that level. An upper slot holding several
// records cascades instead: the cursor advances to the slot's window
// start and the list is re-placed in order, which keeps the per-instant
// FIFO intact (each record moves down at most wheelLevels-1 times). A
// fully drained wheel rebases onto the overflow ladder. The wheel must
// hold at least one event.
func (e *Engine) pop() int32 {
	for {
		if e.levels == 0 {
			// Ladder fallback: the wheel is empty, so nothing is pending
			// before overflowMin and the cursor can rebase there.
			// Replaying the ladder in schedule order re-splits it: events
			// inside the new span enter the wheel (equal-time FIFO
			// intact), the rest stay behind with a recomputed minimum.
			if len(e.overflow) == 0 {
				panic("sim: pop from an empty engine")
			}
			e.cur = e.overflowMin
			ovf := e.overflow
			e.overflow = e.overflow[:0]
			for _, id := range ovf {
				// In-place refill over the shared backing array is safe:
				// when entry i is read (copied out by range) at most i
				// entries have been re-appended, so writes trail reads.
				e.place(id, e.recs[id].at)
			}
			continue
		}
		lvl := uint(bits.TrailingZeros64(e.levels))
		s := uint(bits.TrailingZeros64(e.occ[lvl]))
		id := e.head[lvl][s]
		nxt := e.recs[id].next
		if lvl == 0 && nxt != noEvent {
			e.head[0][s] = nxt
		} else {
			if e.occ[lvl] &^= 1 << s; e.occ[lvl] == 0 {
				e.levels &^= 1 << lvl
			}
			if nxt != noEvent {
				shift := lvl * wheelBits
				e.cur = e.cur&^(1<<(shift+wheelBits)-1) | Time(s)<<shift
				for ; id != noEvent; id = nxt {
					nxt = e.recs[id].next
					e.place(id, e.recs[id].at)
				}
				continue
			}
		}
		e.cur = e.recs[id].at
		e.pending--
		e.peekOK = false
		return id
	}
}

// acquireRecord pops a free record index, growing the arena only when
// the free list is empty (i.e. only while the peak event population is
// still growing).
func (e *Engine) acquireRecord() int32 {
	e.acquired++
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.recs = append(e.recs, eventRecord{})
	return int32(len(e.recs) - 1)
}

// releaseRecord returns the index to the free list. The record's
// callback and context fields are deliberately NOT zeroed here: the
// next schedule overwrites every field, so zeroing per event would pay
// a typed memclr plus write barriers only to be overwritten. A free
// record therefore pins its last ctx/fn until reuse — transiently,
// bounded by the arena (peak concurrent events), and in practice those
// are pooled pipeline records that outlive the engine anyway. Run()
// sweeps the arena clean once at drain so nothing outlives the
// simulation it belongs to.
func (e *Engine) releaseRecord(id int32) {
	e.released++
	e.free = append(e.free, id)
}

// Run dispatches events until none remain, advancing the clock. On
// completion it asserts event-pool conservation (gmtinvariants builds):
// every acquired record must have been released back to the free list.
//
//gmt:hotpath
//gmt:blocking
func (e *Engine) Run() {
	for e.pending > 0 {
		e.step()
	}
	if invariant.Enabled {
		invariant.Assert(e.acquired == e.released,
			"sim: event pool leak: %d records acquired, %d released", e.acquired, e.released)
		invariant.Assert(len(e.free) == len(e.recs),
			"sim: event pool leak: %d free of %d records after drain", len(e.free), len(e.recs))
	}
	// Drop callback/context references retained by free records (see
	// releaseRecord): one arena sweep at drain instead of a typed memclr
	// per event, so dispatched closures and their captures do not outlive
	// the run.
	for i := range e.recs {
		e.recs[i].call, e.recs[i].ctx, e.recs[i].fn = nil, nil, nil
	}
}

// RunUntil dispatches events with time <= t, then sets the clock to t.
// A target behind the current clock panics: the clock is monotonic, and
// a backwards target always indicates a harness bug (the same
// invariant the dispatcher asserts per event under -tags gmtinvariants).
//
//gmt:hotpath
//gmt:blocking
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil target %d behind clock %d", t, e.now))
	}
	for e.pending > 0 {
		if at, _ := e.Peek(); at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// step dispatches the earliest pending event by (time, sequence), from
// a lane (see takeLane) or the wheel.
func (e *Engine) step() {
	var peeked Time
	if invariant.Enabled {
		peeked, _ = e.Peek()
	}
	id := noEvent
	if e.laned > 0 {
		id = e.takeLane()
	}
	if id == noEvent {
		id = e.pop()
	}
	r := &e.recs[id]
	invariant.Assert(r.at >= e.now,
		"sim: clock would run backwards: dispatching event at %d with clock at %d", r.at, e.now)
	if invariant.Enabled {
		invariant.Assert(peeked == r.at,
			"sim: Peek promised %d but dispatch popped %d", peeked, r.at)
		// With the clock check above, this makes dispatched (at, seq)
		// pairs strictly increase: an event due at the current instant
		// was scheduled after the previous dispatch or ties with it, and
		// either way must carry a later seq (the FIFO tie-break).
		invariant.Assert(r.at > e.now || r.seq > e.lastSeq,
			"sim: FIFO tie-break broken: dispatching seq %d at %d after seq %d", r.seq, r.at, e.lastSeq)
		e.lastSeq = r.seq
	}
	e.now = r.at
	e.steps++
	call, ctx, arg, fn := r.call, r.ctx, r.arg, r.fn
	// Release before dispatch: the record (and its references) is
	// already recycled when the callback runs, so a callback scheduling
	// new events reuses it immediately.
	e.releaseRecord(id)
	if call != nil {
		call(ctx, arg)
	} else {
		fn()
	}
}
