package gmt

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gmtsim/gmt/internal/baseline"
	"github.com/gmtsim/gmt/internal/core"
	"github.com/gmtsim/gmt/internal/gpu"
	"github.com/gmtsim/gmt/internal/nvme"
	"github.com/gmtsim/gmt/internal/sim"
	"github.com/gmtsim/gmt/internal/workload"
)

// eventBudget is the deterministic, machine-independent work of one
// simulation: engine dispatches, NVMe commands, Pipe transfers (host
// link and drive) and Server grants (drive queues and channels, DMA).
type eventBudget struct {
	Steps, NVMe, Transfers, Grants int64
}

func (b eventBudget) String() string {
	return fmt.Sprintf("{Steps: %d, NVMe: %d, Transfers: %d, Grants: %d}", b.Steps, b.NVMe, b.Transfers, b.Grants)
}

// diskBudget adds a drive's commands, transfers and grants to b.
func diskBudget(b eventBudget, d *nvme.Disk) eventBudget {
	s := d.Stats()
	b.NVMe += s.Reads + s.Writes
	b.Transfers += d.Transfers()
	b.Grants += d.Grants()
	return b
}

// budgetScale is the small configuration every app runs at.
var budgetScale = workload.Scale{Tier1Pages: 64, Tier2Pages: 256, Oversubscription: 2}

// budgetPolicies are the managers each app runs under; "HMM" is the
// CPU-orchestrated baseline.
var budgetPolicies = []string{"BaM", "GMT-TierOrder", "GMT-Random", "GMT-Reuse", "HMM"}

// measureBudget runs w under policy and returns its event budget.
func measureBudget(t *testing.T, w workload.Workload, policy string) eventBudget {
	t.Helper()
	eng := sim.NewEngine()
	var mm gpu.MemoryManager
	var budget func() eventBudget
	if policy == "HMM" {
		cfg := baseline.DefaultHMMConfig()
		cfg.Tier1Pages = budgetScale.Tier1Pages
		cfg.PageCachePages = budgetScale.Tier2Pages
		cfg.FootprintPages = int(w.Pages())
		h := baseline.NewHMM(eng, cfg)
		mm = h
		budget = func() eventBudget { return diskBudget(eventBudget{}, h.SSD()) }
	} else {
		cfg := core.DefaultConfig()
		for _, p := range []core.PolicyKind{core.PolicyBaM, core.PolicyTierOrder, core.PolicyRandom, core.PolicyReuse} {
			if p.String() == policy {
				cfg.Policy = p
			}
		}
		cfg.Tier1Pages = budgetScale.Tier1Pages
		cfg.Tier2Pages = budgetScale.Tier2Pages
		cfg.FootprintPages = int(w.Pages())
		rt := core.NewRuntime(eng, cfg)
		mm = rt
		budget = func() eventBudget {
			d, ok := rt.SSD().(*nvme.Disk)
			if !ok {
				t.Fatalf("%s/%s: storage is %T, want a single *nvme.Disk", w.Name(), policy, rt.SSD())
			}
			link := rt.HostLink()
			b := eventBudget{
				Transfers: link.Up.Transfers() + link.Down.Transfers(),
				Grants:    rt.Mover().Grants(),
			}
			return diskBudget(b, d)
		}
	}
	g := gpu.New(eng, gpu.DefaultConfig(), &gpu.SliceStream{Trace: w.Trace()}, mm)
	g.Launch()
	eng.Run()
	if !g.Done() {
		t.Fatalf("%s/%s: kernel did not finish", w.Name(), policy)
	}
	b := budget()
	b.Steps = eng.Steps()
	return b
}

// eventBudgets pins every app × policy budget at budgetScale. A change
// that adds engine events or device work fails here; one that removes
// them lowers the pins on purpose, and the change that lowers Steps
// records the old values beside the new (CHANGES.md).
var eventBudgets = map[string]eventBudget{
	"LavaMD/BaM":                   {Steps: 3323, NVMe: 595, Transfers: 1190, Grants: 1190},
	"LavaMD/GMT-TierOrder":         {Steps: 4660, NVMe: 595, Transfers: 1721, Grants: 1721},
	"LavaMD/GMT-Random":            {Steps: 3862, NVMe: 595, Transfers: 1455, Grants: 1455},
	"LavaMD/GMT-Reuse":             {Steps: 3835, NVMe: 595, Transfers: 1446, Grants: 1446},
	"LavaMD/HMM":                   {Steps: 4767, NVMe: 595, Transfers: 1190, Grants: 1190},
	"Pathfinder/BaM":               {Steps: 4168, NVMe: 754, Transfers: 1508, Grants: 1508},
	"Pathfinder/GMT-TierOrder":     {Steps: 5440, NVMe: 704, Transfers: 1984, Grants: 1984},
	"Pathfinder/GMT-Random":        {Steps: 4556, NVMe: 699, Transfers: 1686, Grants: 1686},
	"Pathfinder/GMT-Reuse":         {Steps: 4460, NVMe: 699, Transfers: 1654, Grants: 1654},
	"Pathfinder/HMM":               {Steps: 5665, NVMe: 716, Transfers: 1432, Grants: 1432},
	"BFS/BaM":                      {Steps: 14425, NVMe: 2153, Transfers: 4306, Grants: 4306},
	"BFS/GMT-TierOrder":            {Steps: 15935, NVMe: 1058, Transfers: 4672, Grants: 3628},
	"BFS/GMT-Random":               {Steps: 14405, NVMe: 1415, Transfers: 4269, Grants: 4160},
	"BFS/GMT-Reuse":                {Steps: 14070, NVMe: 1086, Transfers: 4080, Grants: 3566},
	"BFS/HMM":                      {Steps: 14728, NVMe: 1530, Transfers: 3060, Grants: 3060},
	"MultiVectorAdd/BaM":           {Steps: 8044, NVMe: 1563, Transfers: 3126, Grants: 3126},
	"MultiVectorAdd/GMT-TierOrder": {Steps: 7573, NVMe: 694, Transfers: 2731, Grants: 2193},
	"MultiVectorAdd/GMT-Random":    {Steps: 7696, NVMe: 1133, Transfers: 2934, Grants: 2934},
	"MultiVectorAdd/GMT-Reuse":     {Steps: 7334, NVMe: 1002, Transfers: 2770, Grants: 2738},
	"MultiVectorAdd/HMM":           {Steps: 8407, NVMe: 1135, Transfers: 2270, Grants: 2270},
	"Srad/BaM":                     {Steps: 17316, NVMe: 2928, Transfers: 5856, Grants: 5856},
	"Srad/GMT-TierOrder":           {Steps: 13732, NVMe: 656, Transfers: 3904, Grants: 1920},
	"Srad/GMT-Random":              {Steps: 15337, NVMe: 1774, Transfers: 4851, Grants: 4811},
	"Srad/GMT-Reuse":               {Steps: 14647, NVMe: 1370, Transfers: 4447, Grants: 3618},
	"Srad/HMM":                     {Steps: 21377, NVMe: 2736, Transfers: 5472, Grants: 5472},
	"Backprop/BaM":                 {Steps: 100390, NVMe: 18666, Transfers: 37332, Grants: 37332},
	"Backprop/GMT-TierOrder":       {Steps: 109057, NVMe: 11060, Transfers: 38559, Grants: 27623},
	"Backprop/GMT-Random":          {Steps: 86031, NVMe: 9566, Transfers: 30209, Grants: 29296},
	"Backprop/GMT-Reuse":           {Steps: 85978, NVMe: 8982, Transfers: 30048, Grants: 23781},
	"Backprop/HMM":                 {Steps: 114352, NVMe: 15530, Transfers: 31060, Grants: 31060},
	"PageRank/BaM":                 {Steps: 12292, NVMe: 1730, Transfers: 3460, Grants: 3460},
	"PageRank/GMT-TierOrder":       {Steps: 15467, NVMe: 1249, Transfers: 4558, Grants: 4423},
	"PageRank/GMT-Random":          {Steps: 12760, NVMe: 1182, Transfers: 3665, Grants: 3533},
	"PageRank/GMT-Reuse":           {Steps: 12782, NVMe: 1095, Transfers: 3654, Grants: 3467},
	"PageRank/HMM":                 {Steps: 13962, NVMe: 1430, Transfers: 2860, Grants: 2860},
	"SSSP/BaM":                     {Steps: 21744, NVMe: 3323, Transfers: 6646, Grants: 6646},
	"SSSP/GMT-TierOrder":           {Steps: 23479, NVMe: 1375, Transfers: 6950, Grants: 4743},
	"SSSP/GMT-Random":              {Steps: 21427, NVMe: 2004, Transfers: 6438, Grants: 6127},
	"SSSP/GMT-Reuse":               {Steps: 20795, NVMe: 1487, Transfers: 6114, Grants: 5021},
	"SSSP/HMM":                     {Steps: 22927, NVMe: 2486, Transfers: 4972, Grants: 4972},
	"Hotspot/BaM":                  {Steps: 57042, NVMe: 10418, Transfers: 20836, Grants: 20836},
	"Hotspot/GMT-TierOrder":        {Steps: 71476, NVMe: 10162, Transfers: 25562, Grants: 25562},
	"Hotspot/GMT-Random":           {Steps: 47205, NVMe: 5434, Transfers: 15905, Grants: 15652},
	"Hotspot/GMT-Reuse":            {Steps: 44737, NVMe: 4186, Transfers: 14657, Grants: 12131},
	"Hotspot/HMM":                  {Steps: 72249, NVMe: 10226, Transfers: 20452, Grants: 20452},
}

// TestEventBudget pins the exact event and device-work budget of one
// small run per app × policy. Every count is a deterministic function of
// the configuration, so the pins hold on any machine.
func TestEventBudget(t *testing.T) {
	var table strings.Builder
	for _, w := range workload.All(budgetScale) {
		for _, p := range budgetPolicies {
			key := w.Name() + "/" + p
			got := measureBudget(t, w, p)
			fmt.Fprintf(&table, "\t%q: %v,\n", key, got)
			if want, ok := eventBudgets[key]; !ok || got != want {
				t.Errorf("%s: budget %v, pinned %v", key, got, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("measured budgets:\n%s", table.String())
	}
}
