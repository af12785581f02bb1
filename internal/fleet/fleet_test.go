package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// TestStreamSplitDeterministic pins the seeded-stream splitting
// contract: the shared stream is a pure function of its config, and
// per-node sub-streams are byte-identical however many times the
// stream is regenerated and re-routed.
func TestStreamSplitDeterministic(t *testing.T) {
	cfg := DefaultStream(8)
	a := GenerateStream(cfg)
	b := GenerateStream(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateStream is not deterministic")
	}
	weights := []int{3, 1, 3, 1, 3, 1, 3, 1}
	for _, kind := range []RouterKind{RouterHash, RouterWRR} {
		s1 := Split(a, Assign(kind, weights, a), len(weights))
		s2 := Split(b, Assign(kind, weights, b), len(weights))
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: sub-streams differ across regenerations", kind)
		}
		total := 0
		for _, s := range s1 {
			total += len(s)
		}
		if total != len(a) {
			t.Errorf("%s: split lost requests: %d != %d", kind, total, len(a))
		}
		// Arrival order must be preserved within each node.
		for n, s := range s1 {
			for i := 1; i < len(s); i++ {
				if s[i].Arrive < s[i-1].Arrive {
					t.Errorf("%s: node %d sub-stream out of arrival order", kind, n)
					break
				}
			}
		}
	}
}

// TestHashRouterStability pins consistent hashing's defining property:
// growing the fleet from n to n+1 nodes only moves requests TO the new
// node — no request shuffles between surviving nodes.
func TestHashRouterStability(t *testing.T) {
	reqs := GenerateStream(DefaultStream(16))
	weights := make([]int, 16)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	before := Assign(RouterHash, weights, reqs)
	after := Assign(RouterHash, append(append([]int{}, weights...), 2), reqs)
	moved := 0
	for i := range reqs {
		if after[i] != before[i] {
			if after[i] != len(weights) {
				t.Fatalf("request %d moved between old nodes: %d -> %d", i, before[i], after[i])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no requests moved to the new node (suspicious for 384 requests)")
	}
}

// TestWRRProportional pins the weighted-round-robin split: node load
// tracks weight share exactly (within one cycle's rounding).
func TestWRRProportional(t *testing.T) {
	reqs := GenerateStream(DefaultStream(4))
	weights := []int{3, 1, 3, 1}
	counts := make([]int, len(weights))
	for _, n := range Assign(RouterWRR, weights, reqs) {
		counts[n]++
	}
	total := len(reqs)
	for i, w := range weights {
		want := float64(total) * float64(w) / 8
		if diff := float64(counts[i]) - want; diff > 1 || diff < -1 {
			t.Errorf("node %d: got %d requests, want %.1f±1", i, counts[i], want)
		}
	}
}

// TestTemplateExpansion pins smooth WRR interleaving for the default
// 3:1 mix.
func TestTemplateExpansion(t *testing.T) {
	cfg := DefaultConfig(8)
	got := ExpandTemplates(cfg.Templates, 8)
	want := []int{0, 0, 1, 0, 0, 0, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandTemplates = %v, want %v", got, want)
	}
}

func TestParseTemplates(t *testing.T) {
	ts, err := ParseTemplates("a100:3, h100")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "a100" || ts[0].Weight != 3 || ts[1].Weight != 1 {
		t.Errorf("unexpected parse: %+v", ts)
	}
	for _, bad := range []string{"", "v100", "a100:0", "a100:x"} {
		if _, err := ParseTemplates(bad); err == nil {
			t.Errorf("ParseTemplates(%q) succeeded, want error", bad)
		}
	}
}

func TestFromOptionsErrors(t *testing.T) {
	for _, o := range []Options{
		{Nodes: 0},
		{Nodes: 4, Templates: "v100"},
		{Nodes: 4, Router: "random"},
		{Nodes: 4, Requests: -1},
		{Nodes: 4, Rate: -1},
		{Nodes: 4, Tier2Policy: "mru"},
	} {
		if _, err := FromOptions(o); err == nil {
			t.Errorf("FromOptions(%+v) succeeded, want error", o)
		}
	}
	cfg, err := FromOptions(Options{Nodes: 4, Templates: "h100", Router: "wrr", Requests: 10, Seed: 7, Tier2Policy: "2q"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 4 || cfg.Stream.Requests != 10 || cfg.Seed != 7 || cfg.Router != RouterWRR {
		t.Errorf("unexpected config: %+v", cfg)
	}
}

// fleetBytes runs the fleet and returns the canonical encoding plus a
// deep dump, the same double check the exp determinism tests use.
func fleetBytes(t *testing.T, cfg Config, workers int) string {
	t.Helper()
	res, _, err := Run(context.Background(), cfg, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String() + fmt.Sprintf("%#v", res) + Render(res)
}

// TestFleetParallelByteIdentical is the tentpole contract: the fleet
// result is byte-identical at any worker count (jobs write node-indexed
// slots; units recycle through Reset; aggregation runs in node order).
func TestFleetParallelByteIdentical(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Stream.Requests = 64 // keep the test fast
	seq := fleetBytes(t, cfg, 1)
	for _, workers := range []int{2, 4} {
		if got := fleetBytes(t, cfg, workers); got != seq {
			t.Fatalf("fleet output differs at workers=%d", workers)
		}
	}
}

// TestFleetGolden pins the canonical fleet bytes of a 64-node default
// fleet under both routers. Node simulation is a performance hot spot
// whose rewrites (trace building, kernel relaunch, unit pooling, digest
// merging) must never move a result byte; a deliberate model change
// re-records these hashes and says so.
func TestFleetGolden(t *testing.T) {
	want := map[RouterKind]string{
		RouterHash: "4a34f32d509bd51dbe0eea6c6b8ca109c212b766a27da9dc94132584cf62c3c7",
		RouterWRR:  "abd1c343434b2b6162a5f43a626189171b7310f03f2643773c1fd8f5c06c604b",
	}
	for _, kind := range []RouterKind{RouterHash, RouterWRR} {
		cfg := DefaultConfig(64)
		cfg.Router = kind
		res, _, err := Run(context.Background(), cfg, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[kind] {
			t.Errorf("%s: fleet result sha256 = %s, want %s", kind, got, want[kind])
		}
	}
}

// TestFleetRunTwiceIdentical pins run-to-run determinism within one
// process (fresh units vs a process that never recycled).
func TestFleetRunTwiceIdentical(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stream.Requests = 32
	cfg.Router = RouterWRR
	if a, b := fleetBytes(t, cfg, 2), fleetBytes(t, cfg, 2); a != b {
		t.Fatal("fleet output differs across runs")
	}
}

// TestFleetAggregates sanity-checks the folded summary.
func TestFleetAggregates(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Stream.Requests = 32
	res, _, err := Run(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema {
		t.Errorf("schema = %q", res.Schema)
	}
	if res.Fleet.Requests != 32 {
		t.Errorf("fleet requests = %d, want 32", res.Fleet.Requests)
	}
	perNode := 0
	for _, n := range res.PerNode {
		perNode += n.Requests
	}
	if perNode != 32 {
		t.Errorf("per-node requests sum = %d, want 32", perNode)
	}
	if res.Fleet.LatencyP50MS <= 0 || res.Fleet.LatencyP99MS < res.Fleet.LatencyP50MS ||
		res.Fleet.LatencyP999MS < res.Fleet.LatencyP99MS {
		t.Errorf("implausible percentiles: %+v", res.Fleet)
	}
	if res.Fleet.Tier1HitRate <= 0 || res.Fleet.Tier1HitRate > 1 {
		t.Errorf("implausible tier-1 hit rate %v", res.Fleet.Tier1HitRate)
	}
	if res.Fleet.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", res.Fleet.ThroughputRPS)
	}
	tplNodes := 0
	for _, ts := range res.Templates {
		tplNodes += ts.Nodes
	}
	if tplNodes != 4 {
		t.Errorf("template node sum = %d, want 4", tplNodes)
	}
}

// TestScalingSweepDeterministic covers the committed-figure path.
func TestScalingSweepDeterministic(t *testing.T) {
	base := DefaultConfig(4)
	base.Stream.Requests = 48
	sizes := []int{2, 4}
	a, err := ScalingSweep(context.Background(), base, sizes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScalingSweep(context.Background(), base, sizes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep differs across worker counts:\n%+v\n%+v", a, b)
	}
	svg := ScalingSVG(a).SVG()
	if svg == "" || ScalingTable(a).Render() == "" {
		t.Error("empty figure or table")
	}
}
