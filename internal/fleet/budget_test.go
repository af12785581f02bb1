package fleet

import (
	"fmt"
	"testing"

	"github.com/gmtsim/gmt/internal/nvme"
)

// nodeBudget is a fleet node's deterministic work: engine dispatches,
// NVMe commands, Pipe transfers (host link and drive) and Server grants
// (drive queues and channels, DMA).
type nodeBudget struct {
	Steps, NVMe, Transfers, Grants int64
}

func (b nodeBudget) String() string {
	return fmt.Sprintf("{Steps: %d, NVMe: %d, Transfers: %d, Grants: %d}", b.Steps, b.NVMe, b.Transfers, b.Grants)
}

// nodeBudgets pins the budget of one small node per template: the
// default stream's first 16 requests, all served by one node. A change
// that adds engine events or device work fails here; one that removes
// them lowers the pins on purpose.
var nodeBudgets = map[string]nodeBudget{
	"a100": {Steps: 7311, NVMe: 283, Transfers: 593, Grants: 588},
	"h100": {Steps: 6223, NVMe: 283, Transfers: 566, Grants: 566},
}

// TestNodeEventBudget is TestEventBudget's fleet half: the exact event
// and device-work budget of one small node per template.
func TestNodeEventBudget(t *testing.T) {
	for _, name := range TemplateNames() {
		cfg := DefaultConfig(1)
		cfg.Stream.Requests = 16
		u := &unit{}
		u.simulateNode(templates[name], cfg, cfg.Seed, GenerateStream(cfg.Stream))
		d, ok := u.rt.SSD().(*nvme.Disk)
		if !ok {
			t.Fatalf("%s: storage is %T, want a single *nvme.Disk", name, u.rt.SSD())
		}
		s, link := d.Stats(), u.rt.HostLink()
		got := nodeBudget{
			Steps:     u.eng.Steps(),
			NVMe:      s.Reads + s.Writes,
			Transfers: link.Up.Transfers() + link.Down.Transfers() + d.Transfers(),
			Grants:    u.rt.Mover().Grants() + d.Grants(),
		}
		if want, ok := nodeBudgets[name]; !ok || got != want {
			t.Errorf("%s: budget %v, pinned %v\n\t%q: %v,", name, got, want, name, got)
		}
	}
}
