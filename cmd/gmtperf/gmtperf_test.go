package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/exp"
)

func TestFrameLayer(t *testing.T) {
	cases := []struct{ fn, want string }{
		{"github.com/gmtsim/gmt/internal/core.(*Runtime).furthest", "core"},
		{"github.com/gmtsim/gmt/internal/core.(*Runtime).furthest.func1", "core"},
		{"github.com/gmtsim/gmt/internal/tier.(*Clock).Each", "tier"},
		{"github.com/gmtsim/gmt/internal/sim.(*Engine).Run", "sim"},
		{"github.com/gmtsim/gmt/internal/stats.MergeDigests", "stats"},
		{"github.com/gmtsim/gmt/internal/serve.(*Server).handleSubmit", "serve"},
		{"github.com/gmtsim/gmt/internal/tier.(*heap[...]).Push", "tier"},
		{"runtime.mallocgc", "gc"},
		{"runtime.gcBgMarkWorker", "gc"},
		{"runtime/internal/atomic.(*Uint32).Load", "gc"},
		{"internal/runtime/atomic.(*Uint32).Load", "gc"},
		// Frames that belong to no layer defer to their caller.
		{"sort.Slice", ""},
		{"math/rand.(*Rand).Float64", ""},
		{"github.com/gmtsim/gmt.Run", ""},
		{"github.com/gmtsim/gmt/internal/plot.(*Figure).SVG", ""},
		{"main.(*bench).replay", ""},
	}
	for _, c := range cases {
		if got := frameLayer(c.fn); got != c.want {
			t.Errorf("frameLayer(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	graph := frame{"github.com/gmtsim/gmt/internal/graph.GenerateKron", "/src/internal/graph/graph.go"}
	rnd := frame{"math/rand.(*Rand).Float64", "/go/src/math/rand/rand.go"}
	memmove := frame{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"}
	pool := frame{"github.com/gmtsim/gmt/internal/exp.runJobs.func1", "/src/internal/exp/pool.go"}
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{graph, pool}, "graph"},
		{[]frame{rnd, graph, pool}, "graph"}, // std-lib leaf charged to its caller
		{[]frame{memmove, graph, pool}, "gc"},
		{[]frame{rnd}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}

	scan := frame{"github.com/gmtsim/gmt/internal/core.(*Runtime).furthest.func1", "/src/internal/core/oracle.go"}
	each := frame{"github.com/gmtsim/gmt/internal/tier.(*Clock).Each", "/src/internal/tier/tier.go"}
	if !inOracle([]frame{each, scan}) || sampleLayer([]frame{each, scan}) != "tier" {
		t.Error("a tier callback inside the oracle scan is tier's flat sample and inside the oracle")
	}
	if inOracle([]frame{graph, pool}) {
		t.Error("graph generation is not the oracle")
	}
}

// rawProfile is `go tool pprof -raw` output in miniature: sample lines
// list location IDs leaf first, and a location's continuation lines are
// the callers its leaf frame was inlined into.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 3
          1   10000000: 2 3
          2   20000000: 4
          4   40000000: 5 6 3
Locations
     1: 0x479ca0 M=1 github.com/gmtsim/gmt/internal/sim.(*Engine).Run /src/internal/sim/engine.go:10:0 s=7
     2: 0x5186c5 M=1 math/rand.(*Rand).Float64 /go/src/math/rand/rand.go:208:0 s=189
             github.com/gmtsim/gmt/internal/graph.GenerateKron /src/internal/graph/graph.go:42:0 s=31
     3: 0x55cf4d M=1 github.com/gmtsim/gmt/internal/exp.runJobs.func1 /src/internal/exp/pool.go:168:0 s=155
     4: 0x479675 M=1 runtime.memmove /go/src/runtime/memmove_amd64.s:122:0 s=35
     5: 0x51a614 M=1 github.com/gmtsim/gmt/internal/tier.(*Clock).Each /src/internal/tier/tier.go:195:0 s=193
     6: 0x51a615 M=1 github.com/gmtsim/gmt/internal/core.(*Runtime).furthest /src/internal/core/oracle.go:61:0 s=60
Mappings
1: 0x400000/0x6b1000/0x0 /bin/gmtperf  [FN]
`

func TestParseRaw(t *testing.T) {
	p, err := parseRaw(strings.NewReader(rawProfile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 30e6, "graph": 10e6, "gc": 20e6, "tier": 40e6}
	if !reflect.DeepEqual(p.byLayer, want) {
		t.Errorf("byLayer = %v, want %v", p.byLayer, want)
	}
	if p.samples != 10 || p.totalNS != 100e6 || p.oracle != 40e6 {
		t.Errorf("samples %d, total %d ns, oracle %d ns; want 10, 1e8, 4e7", p.samples, p.totalNS, p.oracle)
	}

	b := newBench(1, 1, true, t.TempDir())
	b.setShares(p)
	if len(b.problems) != 0 {
		t.Fatalf("problems: %v", b.problems)
	}
	for name, want := range map[string]float64{"sim.cpu_share": 30, "graph.cpu_share": 10, "gc.cpu_share": 20,
		"tier.cpu_share": 40, "core.cpu_share": 0, "core.oracle.cpu_share": 40, "trace.samples": 10} {
		if got := b.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// With 200 samples the p95 has ten samples beyond it.
	var many []float64
	for i := 1; i <= 200; i++ {
		many = append(many, float64(i))
	}
	if got := percentile(many, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 7.1, 3.3, 9.9, 0.4, 6.6}, [3]float64{1.975, 4.95, 7.8}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGmtdScheduleDeterministic(t *testing.T) {
	const n, span = 200, 20.0
	a, b := gmtdSchedule(7, n, span), gmtdSchedule(7, n, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, gmtdSchedule(8, n, span)) {
		t.Fatal("different seeds gave the same schedule")
	}

	var fleets, repeats int
	combos := make(map[string]int)
	var prev int64 = -1
	for i, r := range a {
		if r.dueNS <= prev || r.dueNS <= 0 || r.dueNS >= int64(span*1e9) {
			t.Fatalf("request %d due at %d ns: not increasing within (0, %gs)", i, r.dueNS, span)
		}
		prev = r.dueNS
		switch {
		case r.first >= 0:
			repeats++
			if r.first >= i || a[r.first].first >= 0 || string(a[r.first].body) != string(r.body) {
				t.Errorf("request %d repeats %d, which is not an earlier original with the same body", i, r.first)
			}
		case r.nodes > 0:
			fleets++
		default:
			combos[r.sim.App+"/"+r.sim.Config.Policy.String()]++
		}
	}
	if fleets != n/10 || repeats != 3*n/10 {
		t.Errorf("%d fleet jobs and %d repeats, want %d and %d", fleets, repeats, n/10, 3*n/10)
	}
	if len(combos) != len(gmtdApps)*len(gmtdPolicies) {
		t.Errorf("%d app x policy combinations, want %d", len(combos), len(gmtdApps)*len(gmtdPolicies))
	}
	lo, hi := n, 0
	for _, c := range combos {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > 1 {
		t.Errorf("combination counts range %d..%d; the cycle should balance them", lo, hi)
	}
	// The mean offered rate is n/span for every seed: the last arrival
	// falls within a few mean gaps of the end of the span.
	if last := a[n-1].dueNS; float64(last) < 0.95*span*1e9 {
		t.Errorf("last arrival at %.3fs of a %gs span", float64(last)/1e9, span)
	}
}

func TestLatencyCountsFromDue(t *testing.T) {
	// A request the generator sent 30 ms late, whose job finished 100 ms
	// after it was due: lateness is part of its latency.
	o := gmtdOutcome{dueNS: 1000e6, sentNS: 1030e6, respNS: 1031e6}
	o.view.FinishedNS = 1100e6
	if got := o.latencyNS(); got != 100e6 {
		t.Errorf("latency %d ns, want 100 ms", got)
	}
	// A cache hit answered at once carries its original's finish time,
	// which precedes the submit; the answer came with the response.
	hit := gmtdOutcome{dueNS: 2000e6, sentNS: 2005e6, respNS: 2006e6}
	hit.view.FinishedNS = 1500e6
	if got := hit.latencyNS(); got != 6e6 {
		t.Errorf("cache-hit latency %d ns, want 6 ms", got)
	}

	out := []gmtdOutcome{o, hit}
	out[0].view.ID, out[1].view.ID = "a", "b"
	if n := outstanding(out, 1050e6); n != 1 {
		t.Errorf("outstanding at 1.05 s = %d, want 1", n)
	}
	if n := outstanding(out, 2001e6); n != 1 {
		t.Errorf("outstanding at 2.001 s = %d, want 1", n)
	}
}

func TestPaperErr(t *testing.T) {
	if got := claimErrPct(1.65, 1.50); math.Abs(got-10) > 1e-9 {
		t.Errorf("claimErrPct(1.65, 1.50) = %v, want 10", got)
	}
	// Hand-built tables. Averages: fig8 Reuse (1.4+1.6)/2 = 1.5 (0%),
	// Random 1.364 (10%), TierOrder 1.07 (0%); fig11 Reuse 1.23 (0%),
	// Random 1.026 (10%), TierOrder 0.927 (10%); fig13 Reuse 1.45 (0%);
	// fig14 Reuse/HMM (4+6)/2 = 5.027 avg of 4.0 and 6.054 (10%),
	// Reuse vs optimistic HMM 1.90 (0%). Mean error 40/9 %.
	sp := func(to, rnd, reuse float64) map[string]float64 {
		return map[string]float64{"GMT-TierOrder": to, "GMT-Random": rnd, "GMT-Reuse": reuse}
	}
	rows := map[string]interface{}{
		"fig8": []exp.Figure8Row{
			{App: "A", Speedup: sp(1.07, 1.364, 1.4)},
			{App: "B", Speedup: sp(1.07, 1.364, 1.6)},
		},
		"fig11": []exp.SensitivityRow{{App: "A", Speedup: sp(0.927, 1.026, 1.23)}},
		"fig13": []exp.SensitivityRow{{App: "A", Speedup: sp(1, 1, 1.45)}},
		"fig14": []exp.Figure14Row{
			{App: "A", HMMSpeedup: 0.5, ReuseSpeedup: 2.0, ReuseVsOptHMM: 1.8},
			{App: "B", HMMSpeedup: 0.25, ReuseSpeedup: 1.5135, ReuseVsOptHMM: 2.0},
		},
	}
	b := newBench(1, 1, true, t.TempDir())
	b.paperErr(rows)
	if len(b.problems) != 0 {
		t.Fatalf("problems: %v", b.problems)
	}
	want := map[string]float64{
		"exp.err.fig8_reuse": 0, "exp.err.fig8_random": 10, "exp.err.fig8_tierorder": 0,
		"exp.err.fig11_reuse": 0, "exp.err.fig11_random": 10, "exp.err.fig11_tierorder": 10,
		"exp.err.fig13_reuse": 0, "exp.err.fig14_reuse_vs_hmm": 10, "exp.err.fig14_reuse_vs_opt_hmm": 0,
		"exp.paper_err_pct": 40.0 / 9,
	}
	for name, w := range want {
		if got := b.metrics[name].Value; math.Abs(got-w) > 1e-3 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}

	// A missing table is a failed check, and paper_err_pct is not reported.
	b = newBench(1, 1, true, t.TempDir())
	delete(rows, "fig13")
	b.paperErr(rows)
	if len(b.problems) != 1 {
		t.Errorf("problems %v, want one for fig13", b.problems)
	}
	if _, ok := b.metrics["exp.paper_err_pct"]; ok {
		t.Error("paper_err_pct reported without every claim")
	}
}

func TestCompleteFillsAndChecksUnits(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "count"}}
	got, bad := complete(map[string]metric{"a": {1.5, "s"}, "b": {2, "ms"}, "c": {3, "s"}}, defs)
	want := map[string]metric{"a": {1.5, "s"}, "b": {2, "count"}}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(bad, []string{"b"}) {
		t.Errorf("complete = %v, %v", got, bad)
	}
	got, _ = complete(nil, defs)
	if got["b"] != (metric{0, "count"}) {
		t.Errorf("an unmeasured metric reads %v, want 0 count", got["b"])
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints and the ones BENCHMARK.json declares identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

func TestCheckGmtdResultCatchesWrongOutput(t *testing.T) {
	reqs := gmtdSchedule(3, 40, 4)
	var simIdx, repeatIdx, fleetIdx = -1, -1, -1
	for i, r := range reqs {
		switch {
		case r.first >= 0 && reqs[r.first].sim != nil && repeatIdx < 0:
			repeatIdx = i
		case r.first < 0 && r.nodes > 0 && fleetIdx < 0:
			fleetIdx = i
		case r.first < 0 && r.sim != nil && simIdx < 0:
			simIdx = i
		}
	}
	if simIdx < 0 || repeatIdx < 0 || fleetIdx < 0 {
		t.Fatal("schedule lacks a sim job, a repeat of one, or a fleet job")
	}
	simResult := func(r gmtdReq, accesses int64) []byte {
		data, err := json.Marshal(map[string]interface{}{
			"App": r.sim.App, "Policy": r.sim.Config.Policy.String(),
			"Accesses": accesses, "Tier1Hits": 60, "Tier2Hits": 20, "SSDFills": 15, "InFlightJoins": 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	done := func(result []byte) gmtdOutcome {
		o := gmtdOutcome{code: 202, result: result}
		o.view.Status = "done"
		return o
	}
	out := make([]gmtdOutcome, len(reqs))
	first := reqs[repeatIdx].first
	out[first] = done(simResult(reqs[first], 100))
	out[simIdx] = done(simResult(reqs[simIdx], 100))
	out[repeatIdx] = done(simResult(reqs[repeatIdx], 100))
	for _, i := range []int{first, simIdx, repeatIdx} {
		if msg := checkGmtdResult(reqs, out, i); msg != "" {
			t.Errorf("request %d: a correct result was flagged: %s", i, msg)
		}
	}

	out[simIdx] = done(simResult(reqs[simIdx], 101))
	if msg := checkGmtdResult(reqs, out, simIdx); !strings.Contains(msg, "accesses") {
		t.Errorf("a result that breaks access conservation passed: %q", msg)
	}
	out[repeatIdx] = done(append(simResult(reqs[repeatIdx], 100), ' '))
	if msg := checkGmtdResult(reqs, out, repeatIdx); !strings.Contains(msg, "different bytes") {
		t.Errorf("a repeat with different bytes passed: %q", msg)
	}
	out[fleetIdx] = done([]byte(`{"nodes": 16, "per_node": [], "fleet": {"requests": 384}}`))
	if msg := checkGmtdResult(reqs, out, fleetIdx); !strings.Contains(msg, "fleet of") {
		t.Errorf("a fleet result missing its nodes passed: %q", msg)
	}
	out[fleetIdx] = gmtdOutcome{code: 429}
	if msg := checkGmtdResult(reqs, out, fleetIdx); !strings.Contains(msg, "refused") {
		t.Errorf("a refused request passed: %q", msg)
	}
}
