package gpu_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/stats"
	"github.com/gmtsim/gmt/internal/tier"
	"github.com/gmtsim/gmt/internal/workload"
)

// kernelModel is what the differential drives: gpu.GPU or queuedGPU.
type kernelModel interface {
	Launch()
	Done() bool
	Accesses() int64
	StallTime() sim.Time
	ComputeTime() sim.Time
	Barriers() int64
}

// Memory managers the differential draws from. Each exercises a
// different GPU path: typed completions with batched hit replay, the
// scalar closure fast path, and the closure-only asynchronous path.
const (
	mgrRuntime = iota // core.Runtime: CallSync + BatchSync
	mgrScalar         // core.Runtime behind AccessSync only
	mgrHMM            // baseline.HMM: Access only
	numManagers
)

// scalarOnly hides core.Runtime's typed and batched faces, leaving the
// closure-based synchronous path.
type scalarOnly struct{ rt *core.Runtime }

func (s scalarOnly) Access(a gpu.Access, done func()) { s.rt.Access(a, done) }
func (s scalarOnly) AccessSync(a gpu.Access, done func()) bool {
	return s.rt.AccessSync(a, done)
}

// gpuCase is one random differential configuration: a GPU shape, a
// manager, and a sequence of kernels relaunched on one GPU (or a single
// zipf-stream kernel, which has no batch face and no relaunch).
type gpuCase struct {
	warps    int
	cpa      sim.Time
	mgr      int
	policy   core.PolicyKind
	t1, foot int
	kernels  [][]gpu.Access
	// reset rewinds a core.Runtime (and with it the engine's clock)
	// between relaunches, as a recycled fleet unit does.
	reset    bool
	zipfN    int64 // > 0: one workload.ZipfStream kernel of zipfN accesses
	zipfSeed int64
}

func (c gpuCase) String() string {
	k := make([]int, len(c.kernels))
	for i, tr := range c.kernels {
		k[i] = len(tr)
	}
	return fmt.Sprintf("warps=%d cpa=%d mgr=%d policy=%v t1=%d foot=%d kernels=%v reset=%v zipf=%d",
		c.warps, c.cpa, c.mgr, c.policy, c.t1, c.foot, k, c.reset, c.zipfN)
}

// randomKernel draws a trace with mid-stream, back-to-back and trailing
// barriers over a hot set and the full footprint; about one kernel in
// eight is empty.
func randomKernel(rng *rand.Rand, foot int) []gpu.Access {
	if rng.Intn(8) == 0 {
		return nil
	}
	n := rng.Intn(400)
	hot := foot/8 + 1
	tr := make([]gpu.Access, 0, n+4)
	if rng.Intn(6) == 0 {
		tr = append(tr, gpu.Barrier) // leading barrier
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 3:
			tr = append(tr, gpu.Barrier)
			if rng.Intn(3) == 0 {
				tr = append(tr, gpu.Barrier) // back to back
			}
		case r < 65:
			tr = append(tr, gpu.Access{Page: tier.PageID(rng.Intn(hot)), Write: rng.Intn(8) == 0})
		default:
			tr = append(tr, gpu.Access{Page: tier.PageID(rng.Intn(foot)), Write: rng.Intn(8) == 0})
		}
	}
	if rng.Intn(4) == 0 {
		tr = append(tr, gpu.Barrier) // trailing barrier
	}
	return tr
}

var diffCPAs = [...]sim.Time{0, 1, 100, 200, 1000}

func randomGPUCase(seed int64) gpuCase {
	rng := rand.New(rand.NewSource(seed))
	c := gpuCase{
		warps:  1 + rng.Intn(40),
		cpa:    diffCPAs[rng.Intn(len(diffCPAs))],
		mgr:    rng.Intn(numManagers),
		policy: []core.PolicyKind{core.PolicyBaM, core.PolicyTierOrder, core.PolicyReuse}[rng.Intn(3)],
		t1:     16 << rng.Intn(3),
	}
	c.foot = c.t1 * (1 + rng.Intn(4))
	if rng.Intn(6) == 0 {
		c.zipfN = int64(rng.Intn(300))
		c.zipfSeed = rng.Int63()
		return c
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		c.kernels = append(c.kernels, randomKernel(rng, c.foot))
	}
	c.reset = c.mgr != mgrHMM && rng.Intn(3) == 0
	return c
}

// kernelResult is the observable state after one kernel drains.
type kernelResult struct {
	now                sim.Time
	accesses, barriers int64
	stall, compute     sim.Time
	done               bool
	snap               stats.Run
	steps              int64
}

// runGPUCase runs c's kernels through the real GPU (queued=false) or the
// queued reference, each on a fresh engine and manager.
func runGPUCase(c gpuCase, queued bool) []kernelResult {
	eng := sim.NewEngine()
	var mm gpu.MemoryManager
	var snap func() stats.Run
	var reset func()
	switch c.mgr {
	case mgrHMM:
		hc := baseline.DefaultHMMConfig()
		hc.Tier1Pages, hc.PageCachePages, hc.FootprintPages = c.t1, 2*c.t1, c.foot
		h := baseline.NewHMM(eng, hc)
		mm, snap = h, h.Snapshot
	default:
		cfg := core.DefaultConfig()
		cfg.Policy = c.policy
		cfg.Tier1Pages = c.t1
		cfg.FootprintPages = c.foot
		rt := core.NewRuntime(eng, cfg)
		mm, snap = rt, rt.Snapshot
		reset = func() { rt.Reset(cfg) }
		if c.mgr == mgrScalar {
			mm = scalarOnly{rt}
		}
	}
	var stream gpu.Stream
	slice := &gpu.SliceStream{}
	kernels := len(c.kernels)
	if c.zipfN > 0 || kernels == 0 {
		stream = workload.NewZipfStream(int64(c.foot), 0.8, c.zipfN, c.zipfSeed)
		kernels = 1
	} else {
		slice.Reset(c.kernels[0])
		stream = slice
	}
	gcfg := gpu.Config{Warps: c.warps, ComputePerAccess: c.cpa}
	var g kernelModel
	if queued {
		g = newQueuedGPU(eng, gcfg, stream, mm)
	} else {
		g = gpu.New(eng, gcfg, stream, mm)
	}
	var out []kernelResult
	for k := 0; k < kernels; k++ {
		if k > 0 {
			if c.reset {
				reset()
			}
			slice.Reset(c.kernels[k])
		}
		g.Launch()
		eng.Run()
		out = append(out, kernelResult{
			now: eng.Now(), accesses: g.Accesses(), barriers: g.Barriers(),
			stall: g.StallTime(), compute: g.ComputeTime(), done: g.Done(),
			snap: snap(), steps: eng.Steps(),
		})
	}
	return out
}

// diffGPU runs one case both ways. Every kernel must end on the same
// clock with the same counters and manager snapshot; the real GPU may
// only dispatch fewer events.
func diffGPU(t *testing.T, c gpuCase) {
	t.Helper()
	got, want := runGPUCase(c, false), runGPUCase(c, true)
	for k := range want {
		g, w := got[k], want[k]
		if !g.done || !w.done {
			t.Fatalf("%v: kernel %d done: gpu %v, queued %v", c, k, g.done, w.done)
		}
		if g.steps > w.steps {
			t.Errorf("%v: kernel %d: gpu dispatched %d events, queued reference %d", c, k, g.steps, w.steps)
		}
		g.steps, w.steps = 0, 0
		if g != w {
			t.Fatalf("%v: kernel %d diverged:\ngpu:    %+v\nqueued: %+v", c, k, g, w)
		}
	}
}

// TestGPUMatchesQueuedReference is the seed-range slice of
// FuzzGPUMatchesQueuedReference: the real GPU — launch batch, lane
// continuations, early retirement — against the queued reference over
// random kernels, managers and GPU shapes.
func TestGPUMatchesQueuedReference(t *testing.T) {
	n := int64(600)
	if testing.Short() {
		n = 150
	}
	for seed := int64(1); seed <= n; seed++ {
		diffGPU(t, randomGPUCase(seed))
	}
}

// FuzzGPUMatchesQueuedReference lets `go test -fuzz` explore cases
// beyond the fixed seed range; the fuzzed bytes seed the case generator.
func FuzzGPUMatchesQueuedReference(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40, 99991} {
		f.Add(binary.LittleEndian.AppendUint64(nil, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [8]byte
		copy(b[:], data)
		diffGPU(t, randomGPUCase(int64(binary.LittleEndian.Uint64(b[:]))))
	})
}
