package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"runtime/pprof"
	"strconv"
	"strings"
)

// module is the import path of the program under test.
const module = "github.com/gmtsim/gmt"

// layers maps the module's packages to the layer names metrics use.
var layers = map[string]string{
	"internal/sim":      "sim",
	"internal/gpu":      "gpu",
	"internal/core":     "core",
	"internal/tier":     "tier",
	"internal/nvme":     "nvme",
	"internal/pcie":     "pcie",
	"internal/xfer":     "xfer",
	"internal/reuse":    "reuse",
	"internal/baseline": "baseline",
	"internal/workload": "workload",
	"internal/graph":    "graph",
	"internal/exp":      "exp",
	"internal/fleet":    "fleet",
	"internal/stats":    "stats",
	"internal/serve":    "serve",
}

// layerNames is every layer a CPU sample can land in; their shares sum
// to 100%.
var layerNames = []string{
	"sim", "gpu", "core", "tier", "nvme", "pcie", "xfer", "reuse", "baseline",
	"workload", "graph", "exp", "fleet", "stats", "serve", "gc", "other",
}

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "github.com/gmtsim/gmt/internal/core" for
// "github.com/gmtsim/gmt/internal/core.(*Runtime).furthest".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer classifies one stack frame: a module package's layer, "gc"
// for the Go runtime (allocation, collection, scheduling), or "" for
// anything else (the standard library, the benchmark itself), which
// defers to the frame's caller.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "gc"
	}
	if rel, ok := strings.CutPrefix(pkg, module+"/"); ok {
		return layers[rel]
	}
	return ""
}

// frame is one symbolized, possibly inlined, stack frame.
type frame struct {
	fn, file string
}

// sampleLayer attributes a sample by its flat (leaf-most) frame: the
// first frame, walking from the leaf, that belongs to a layer. A
// standard-library leaf is charged to the layer that called it; a stack
// with no layer frame is "other".
func sampleLayer(stack []frame) string {
	for _, f := range stack {
		if l := frameLayer(f.fn); l != "" {
			return l
		}
	}
	return "other"
}

// inOracle reports whether a sample was taken inside the Belady oracle's
// victim scan (core's oracle.go) anywhere on the stack. The scan walks
// the stores through tier callbacks, so its flat samples land in both
// core and tier; this inclusive share counts them together.
func inOracle(stack []frame) bool {
	for _, f := range stack {
		if path.Base(f.file) == "oracle.go" && funcPackage(f.fn) == module+"/internal/core" {
			return true
		}
	}
	return false
}

// profileShares is a CPU profile folded by layer.
type profileShares struct {
	samples int64
	totalNS int64
	byLayer map[string]int64
	oracle  int64
}

// parseRaw folds `go tool pprof -raw` output by layer.
func parseRaw(r io.Reader) (profileShares, error) {
	type sample struct {
		ns, count int64
		locs      []int
	}
	var (
		samples []sample
		locs    = make(map[int][]frame)
		section string
		cur     = -1
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		case section == "Samples:":
			head, ids, ok := strings.Cut(line, ":")
			f := strings.Fields(head)
			if !ok || len(f) != 2 {
				continue // the column header
			}
			count, err1 := strconv.ParseInt(f[0], 10, 64)
			ns, err2 := strconv.ParseInt(f[1], 10, 64)
			if err1 != nil || err2 != nil {
				return profileShares{}, fmt.Errorf("pprof sample line %q", line)
			}
			s := sample{ns: ns, count: count}
			for _, id := range strings.Fields(ids) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return profileShares{}, fmt.Errorf("pprof sample line %q", line)
				}
				s.locs = append(s.locs, n)
			}
			samples = append(samples, s)
		case section == "Locations":
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			if strings.HasSuffix(f[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(f[0], ":"))
				if err != nil {
					return profileShares{}, fmt.Errorf("pprof location line %q", line)
				}
				cur = id
				locs[id] = nil
				f = f[1:]
				for len(f) > 0 && (strings.HasPrefix(f[0], "0x") || strings.HasPrefix(f[0], "M=")) {
					f = f[1:]
				}
			}
			if cur >= 0 && len(f) >= 2 {
				file, _, _ := strings.Cut(f[1], ":")
				locs[cur] = append(locs[cur], frame{fn: f[0], file: file})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return profileShares{}, err
	}
	p := profileShares{byLayer: make(map[string]int64)}
	for _, s := range samples {
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		p.byLayer[sampleLayer(stack)] += s.ns
		p.totalNS += s.ns
		p.samples += s.count
		if inOracle(stack) {
			p.oracle += s.ns
		}
	}
	return p, nil
}

// profiled runs fn under the CPU profiler, writing the profile to file.
func profiled(file string, fn func()) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// readProfile folds a CPU profile by layer with the toolchain's pprof.
func readProfile(file string) (profileShares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", file)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof -raw %s: %w", file, err)
	}
	return parseRaw(strings.NewReader(string(out)))
}

// setShares reports the layer shares and checks that they add up.
func (b *bench) setShares(p profileShares) {
	b.set("trace.samples", float64(p.samples), "count")
	if !b.check(p.totalNS > 0, "the CPU profile holds no samples") {
		return
	}
	sum := 0.0
	for _, l := range layerNames {
		share := 100 * float64(p.byLayer[l]) / float64(p.totalNS)
		sum += share
		b.set(l+".cpu_share", share, "%")
	}
	b.set("core.oracle.cpu_share", 100*float64(p.oracle)/float64(p.totalNS), "%")
	b.check(sum > 99.5 && sum < 100.5, "layer CPU shares sum to %.3f%%, not 100%%", sum)
}

// readShares folds the run's CPU profile and reports the layer shares.
func (b *bench) readShares(file string) {
	p, err := readProfile(file)
	if !b.check(err == nil, "reading the CPU profile: %v", err) {
		return
	}
	b.setShares(p)
}
