package network

import (
	"fmt"
	"sort"
	"strings"

	"powerpunch/internal/mesh"
)

// RouterReport is one router's activity summary over a run.
type RouterReport struct {
	ID             mesh.NodeID
	FlitsForwarded int64
	PGStallCycles  int64
	GatingEvents   int64
	GatedCycles    int64
	ShortGatings   int64
	WakeupsPunch   int64
	WakeupsWU      int64
}

// UtilizationReport aggregates per-router activity, the raw material of
// the heatmap experiment and of load-balance debugging.
type UtilizationReport struct {
	Cycles  int64
	Routers []RouterReport
}

// Report snapshots per-router statistics through the last stepped
// cycle.
func (n *Network) Report() *UtilizationReport {
	rep := &UtilizationReport{Cycles: n.now}
	for _, r := range n.Routers {
		cs := r.Ctrl.Stats(n.now - 1)
		rep.Routers = append(rep.Routers, RouterReport{
			ID:             r.ID,
			FlitsForwarded: r.FlitsForwarded,
			PGStallCycles:  r.PGStallCycles,
			GatingEvents:   cs.GatingEvents,
			GatedCycles:    cs.GatedCycles,
			ShortGatings:   cs.ShortGatings,
			WakeupsPunch:   cs.WakeupsPunch,
			WakeupsWU:      cs.WakeupsWU,
		})
	}
	return rep
}

// Totals sums the per-router rows.
func (u *UtilizationReport) Totals() RouterReport {
	var t RouterReport
	t.ID = mesh.Invalid
	for _, r := range u.Routers {
		t.FlitsForwarded += r.FlitsForwarded
		t.PGStallCycles += r.PGStallCycles
		t.GatingEvents += r.GatingEvents
		t.GatedCycles += r.GatedCycles
		t.ShortGatings += r.ShortGatings
		t.WakeupsPunch += r.WakeupsPunch
		t.WakeupsWU += r.WakeupsWU
	}
	return t
}

// GatedFraction returns router id's gated-time share of the run.
func (u *UtilizationReport) GatedFraction(id mesh.NodeID) float64 {
	if u.Cycles == 0 {
		return 0
	}
	return float64(u.Routers[id].GatedCycles) / float64(u.Cycles)
}

// Hottest returns the k routers with the most forwarded flits,
// descending.
func (u *UtilizationReport) Hottest(k int) []RouterReport {
	rs := make([]RouterReport, len(u.Routers))
	copy(rs, u.Routers)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].FlitsForwarded != rs[j].FlitsForwarded {
			return rs[i].FlitsForwarded > rs[j].FlitsForwarded
		}
		return rs[i].ID < rs[j].ID
	})
	if k > len(rs) {
		k = len(rs)
	}
	return rs[:k]
}

// String renders a compact summary: totals plus the five busiest
// routers.
func (u *UtilizationReport) String() string {
	var b strings.Builder
	t := u.Totals()
	n := int64(len(u.Routers))
	fmt.Fprintf(&b, "utilization over %d cycles, %d routers:\n", u.Cycles, n)
	fmt.Fprintf(&b, "  flits forwarded: %d (%.4f/router/cycle)\n",
		t.FlitsForwarded, safeDiv(t.FlitsForwarded, n*u.Cycles))
	fmt.Fprintf(&b, "  gated router-cycles: %d (%.1f%%), %d gating events (%d short)\n",
		t.GatedCycles, 100*safeDiv(t.GatedCycles, n*u.Cycles), t.GatingEvents, t.ShortGatings)
	fmt.Fprintf(&b, "  PG stall cycles: %d; wakeups: %d punch, %d WU\n",
		t.PGStallCycles, t.WakeupsPunch, t.WakeupsWU)
	b.WriteString("  busiest routers:")
	for _, r := range u.Hottest(5) {
		fmt.Fprintf(&b, " R%d(%d)", r.ID, r.FlitsForwarded)
	}
	b.WriteByte('\n')
	return b.String()
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
