package gpu

import (
	"reflect"
	"testing"

	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/tier"
)

func trace(n int) []Access {
	t := make([]Access, n)
	for i := range t {
		t[i] = Access{Page: tier.PageID(i)}
	}
	return t
}

func TestAllAccessesProcessed(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 4, ComputePerAccess: 10}, &SliceStream{Trace: trace(100)}, ResidentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	if g.Accesses() != 100 {
		t.Fatalf("accesses = %d, want 100", g.Accesses())
	}
}

func TestComputeBoundTime(t *testing.T) {
	eng := sim.NewEngine()
	const n, warps, c = 100, 4, sim.Time(10)
	g := New(eng, Config{Warps: warps, ComputePerAccess: c}, &SliceStream{Trace: trace(n)}, ResidentManager{})
	g.Launch()
	eng.Run()
	// All hits: wall time = (n/warps) * compute.
	want := sim.Time(n/warps) * c
	if eng.Now() != want {
		t.Fatalf("compute-bound time = %d, want %d", eng.Now(), want)
	}
	if g.StallTime() != 0 {
		t.Fatalf("stall = %d on all-resident run", g.StallTime())
	}
	if g.ComputeTime() != sim.Time(n)*c {
		t.Fatalf("compute = %d, want %d", g.ComputeTime(), sim.Time(n)*c)
	}
}

// delayManager resolves every access after a fixed latency, with
// unlimited parallelism.
type delayManager struct {
	eng *sim.Engine
	d   sim.Time
}

func (m delayManager) Access(_ Access, done func()) { m.eng.After(m.d, done) }

func TestMissOverlapAcrossWarps(t *testing.T) {
	// 8 warps, 8 accesses, each costing 1000ns of memory latency:
	// with overlap the kernel finishes in ≈1000ns, not 8000.
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 8, ComputePerAccess: 1}, &SliceStream{Trace: trace(8)}, delayManager{eng, 1000})
	g.Launch()
	eng.Run()
	if eng.Now() > 1100 {
		t.Fatalf("8 overlapped misses took %dns; no overlap", eng.Now())
	}
	if g.StallTime() != 8*1000 {
		t.Fatalf("stall = %d, want 8000 (8 warps x 1000)", g.StallTime())
	}
}

func TestSingleWarpSerializes(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 1, ComputePerAccess: 1}, &SliceStream{Trace: trace(8)}, delayManager{eng, 1000})
	g.Launch()
	eng.Run()
	if eng.Now() != 8*1001 {
		t.Fatalf("serial time = %d, want 8008", eng.Now())
	}
}

func TestStreamOrderPreserved(t *testing.T) {
	// Warps pull from a shared stream: with a synchronous manager the
	// issue order must equal the trace order regardless of warp count.
	eng := sim.NewEngine()
	var issued []tier.PageID
	mm := managerFunc(func(a Access, done func()) {
		issued = append(issued, a.Page)
		done()
	})
	g := New(eng, Config{Warps: 7, ComputePerAccess: 3}, &SliceStream{Trace: trace(50)}, mm)
	g.Launch()
	eng.Run()
	for i, p := range issued {
		if p != tier.PageID(i) {
			t.Fatalf("issue order broken at %d: got %d", i, p)
		}
	}
}

type managerFunc func(Access, func())

func (f managerFunc) Access(a Access, done func()) { f(a, done) }

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		g := New(eng, Config{Warps: 16, ComputePerAccess: 7}, &SliceStream{Trace: trace(500)}, delayManager{eng, 333})
		g.Launch()
		eng.Run()
		return eng.Now()
	}
	if run() != run() {
		t.Fatal("identical runs diverged")
	}
}

func TestSliceStreamExhaustion(t *testing.T) {
	s := &SliceStream{Trace: trace(2)}
	if _, ok := s.Next(); !ok {
		t.Fatal("first Next failed")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not report exhaustion")
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Phase 1 (pages 0..7), barrier, phase 2 (pages 8..15). With a
	// delaying manager, no phase-2 access may issue before every
	// phase-1 access completed.
	var tr []Access
	for p := tier.PageID(0); p < 8; p++ {
		tr = append(tr, Access{Page: p})
	}
	tr = append(tr, Barrier)
	for p := tier.PageID(8); p < 16; p++ {
		tr = append(tr, Access{Page: p})
	}
	eng := sim.NewEngine()
	var phase1Done, phase2First sim.Time
	mm := managerFunc(func(a Access, done func()) {
		if a.Page < 8 {
			eng.After(1000, func() {
				if eng.Now() > phase1Done {
					phase1Done = eng.Now()
				}
				done()
			})
			return
		}
		if phase2First == 0 {
			phase2First = eng.Now()
		}
		done()
	})
	g := New(eng, Config{Warps: 4, ComputePerAccess: 1}, &SliceStream{Trace: tr}, mm)
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("kernel did not finish")
	}
	if g.Barriers() != 1 {
		t.Fatalf("barriers = %d, want 1", g.Barriers())
	}
	if phase2First < phase1Done {
		t.Fatalf("phase 2 started at %d before phase 1 finished at %d", phase2First, phase1Done)
	}
	if g.Accesses() != 16 {
		t.Fatalf("accesses = %d, want 16 (barrier not counted)", g.Accesses())
	}
}

func TestConsecutiveBarriers(t *testing.T) {
	tr := []Access{{Page: 1}, Barrier, Barrier, {Page: 2}}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 3, ComputePerAccess: 1}, &SliceStream{Trace: tr}, ResidentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() || g.Barriers() != 2 || g.Accesses() != 2 {
		t.Fatalf("done=%v barriers=%d accesses=%d", g.Done(), g.Barriers(), g.Accesses())
	}
}

func TestBarrierWithDrainingWarps(t *testing.T) {
	// More warps than pre-barrier work: extra warps hit the barrier (or
	// stream end) immediately; the rendezvous must still release.
	tr := []Access{{Page: 1}, Barrier, {Page: 2}, {Page: 3}}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 16, ComputePerAccess: 5}, &SliceStream{Trace: tr}, delayManager{eng, 100})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("deadlocked on barrier with excess warps")
	}
	if g.Accesses() != 3 {
		t.Fatalf("accesses = %d", g.Accesses())
	}
}

func TestTrailingBarrierTerminates(t *testing.T) {
	tr := []Access{{Page: 1}, Barrier}
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 2, ComputePerAccess: 1}, &SliceStream{Trace: tr}, ResidentManager{})
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatal("trailing barrier deadlocked")
	}
}

func TestZeroWarpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Warps=0 did not panic")
		}
	}()
	New(sim.NewEngine(), Config{}, &SliceStream{}, ResidentManager{})
}

// issue is one access as a manager saw it: when it issued and where.
type issue struct {
	at   sim.Time
	page tier.PageID
}

// callManager is a typed-completion manager that logs every issue:
// even pages hit inline, odd pages land after a page-dependent latency
// through the typed event path, so hit streaks, misses and barrier
// arrivals interleave.
type callManager struct {
	eng *sim.Engine
	log []issue
}

func (m *callManager) Access(a Access, done func()) {
	if m.AccessSync(a, done) {
		done()
	}
}

func (m *callManager) AccessSync(a Access, done func()) bool {
	m.log = append(m.log, issue{m.eng.Now(), a.Page})
	if a.Page%2 == 0 {
		return true
	}
	m.eng.After(m.latency(a), done)
	return false
}

func (m *callManager) AccessSyncCall(a Access, call sim.EventFunc, ctx any, arg int64) bool {
	m.log = append(m.log, issue{m.eng.Now(), a.Page})
	if a.Page%2 == 0 {
		return true
	}
	m.eng.AfterCall(m.latency(a), call, ctx, arg)
	return false
}

func (m *callManager) latency(a Access) sim.Time { return sim.Time(100 + a.Page%7*300) }

// kernelCounters is a GPU's counter state; relaunch deltas subtract two.
type kernelCounters struct {
	accesses, barriers int64
	stall, compute     sim.Time
}

func countersOf(g *GPU) kernelCounters {
	return kernelCounters{g.Accesses(), g.Barriers(), g.StallTime(), g.ComputeTime()}
}

// TestRelaunchMatchesFresh pins Launch's relaunch contract: kernel B
// relaunched on a GPU that already ran kernel A dispatches the same
// events (same issues at the same instants, same engine step count),
// ends at the same clock and adds the same counter deltas as a fresh
// New+Launch over B on an engine that ran A the same way.
func TestRelaunchMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		a, b []Access
	}{
		{"plain", trace(90), trace(130)[40:]},
		{"barriers", barrierMixTrace(8, 3), barrierMixTrace(8, 5)},
		{"trailing-barrier", append(trace(20), Barrier), append(barrierMixTrace(8, 2), trace(9)...)},
	}
	cfg := Config{Warps: 8, ComputePerAccess: 50 * sim.Nanosecond}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Relaunched: one GPU and one stream for both kernels.
			engR := sim.NewEngine()
			mmR := &callManager{eng: engR}
			stream := &SliceStream{Trace: tc.a}
			g := New(engR, cfg, stream, mmR)
			g.Launch()
			engR.Run()
			logA, stepsA, before := len(mmR.log), engR.Steps(), countersOf(g)
			stream.Reset(tc.b)
			g.Launch()
			engR.Run()
			if !g.Done() {
				t.Fatal("relaunched kernel did not finish")
			}

			// Fresh: a new GPU for kernel B on an engine that ran A.
			engF := sim.NewEngine()
			mmF := &callManager{eng: engF}
			ga := New(engF, cfg, &SliceStream{Trace: tc.a}, mmF)
			ga.Launch()
			engF.Run()
			logAF, stepsAF := len(mmF.log), engF.Steps()
			gb := New(engF, cfg, &SliceStream{Trace: tc.b}, mmF)
			gb.Launch()
			engF.Run()

			if engR.Now() != engF.Now() {
				t.Errorf("clock: relaunch %d, fresh %d", engR.Now(), engF.Now())
			}
			if r, f := engR.Steps()-stepsA, engF.Steps()-stepsAF; r != f {
				t.Errorf("kernel B dispatched %d events relaunched, %d fresh", r, f)
			}
			if !reflect.DeepEqual(mmR.log[logA:], mmF.log[logAF:]) {
				t.Error("kernel B's issue sequence differs between relaunch and fresh GPU")
			}
			now := countersOf(g)
			delta := kernelCounters{now.accesses - before.accesses, now.barriers - before.barriers,
				now.stall - before.stall, now.compute - before.compute}
			if fresh := countersOf(gb); delta != fresh {
				t.Errorf("kernel B counters: relaunch delta %+v, fresh %+v", delta, fresh)
			}
			if delta.accesses == 0 || (tc.name != "plain" && delta.barriers == 0) {
				t.Errorf("kernel B exercised too little: %+v", delta)
			}
		})
	}
}

// TestRelaunchUnfinishedPanics: a kernel with warps still running cannot
// be relaunched.
func TestRelaunchUnfinishedPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, Config{Warps: 4, ComputePerAccess: 10}, &SliceStream{Trace: trace(100)}, ResidentManager{})
	g.Launch()
	eng.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Error("Launch of an unfinished kernel did not panic")
		}
	}()
	g.Launch()
}
