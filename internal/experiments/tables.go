package experiments

import (
	"fmt"
	"strings"

	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// FormatTable1 reproduces the paper's Table 1: every distinct set of
// targeted routers on router 27's X+ punch channel of an 8x8 mesh with
// 3-hop punch, plus the resulting channel widths in both dimensions.
func FormatTable1() string {
	rf, err := topo.Build("mesh", 8, 8)
	if err != nil {
		panic(err)
	}
	enc := core.EncodeChannel(rf, 27, mesh.East, 3)
	var b strings.Builder
	b.WriteString("Table 1: punch-signal encoding (router 27, X+ direction, 3-hop)\n\n")
	b.WriteString(enc.FormatTable())
	fmt.Fprintf(&b, "\ndistinct sets: %d (paper: 22) -> %d-bit X channels (paper: 5)\n", len(enc.Codes), enc.WidthBits)
	x3, y3 := core.MaxChannelWidths(rf, 3)
	x4, y4 := core.MaxChannelWidths(rf, 4)
	fmt.Fprintf(&b, "3-hop widths across all routers: X=%d bits, Y=%d bits (paper: 5, 2)\n", x3, y3)
	fmt.Fprintf(&b, "4-hop widths across all routers: X=%d bits, Y=%d bits (paper: 8, 2; our straight-line\n"+
		"Y enumeration needs one more bit to name the 4th-hop target plus idle)\n", x4, y4)
	return b.String()
}

// FormatTable2 reproduces the paper's Table 2: the key simulation
// parameters of the default configuration.
func FormatTable2() string {
	cfg := config.Default()
	t := &table{header: []string{"parameter", "value"}}
	t.add("Network topology", fmt.Sprintf("%dx%d mesh (also 4x4, 16x16 for scalability)", cfg.Width, cfg.Height))
	t.add("Routing / switching", "XY dimension-order, wormhole")
	t.add("Input buffer depth", fmt.Sprintf("%d-flit data VC, %d-flit control VC", cfg.DataVCDepth, cfg.CtrlVCDepth))
	t.add("Link bandwidth", fmt.Sprintf("%d bits/cycle", cfg.LinkBandwidth))
	t.add("Router", fmt.Sprintf("%d-stage (3-stage speculative and 4-stage supported)", cfg.RouterStages))
	t.add("Virtual channels", fmt.Sprintf("%d data + %d control VCs/VN, 3 VNs", cfg.DataVCs, cfg.CtrlVCs))
	t.add("Coherence protocol", "two-level MESI-style directory (cmp substrate)")
	t.add("Private L1", "32KB, 1-cycle (modelled as request latency)")
	t.add("Shared L2 per bank", fmt.Sprintf("256KB, %d-cycle (ResourceSlack)", cfg.ResourceSlack))
	t.add("Memory controllers", "4, one at each mesh corner")
	t.add("Memory latency", "128 cycles")
	t.add("Wakeup latency (Twakeup)", fmt.Sprintf("%d cycles (swept 6-12 in Figure 13)", cfg.WakeupLatency))
	t.add("Break-even time", fmt.Sprintf("%d cycles", cfg.BreakEven))
	t.add("Idle timeout", fmt.Sprintf("%d cycles (ConvOpt), %d (punch schemes)", cfg.IdleTimeout, cfg.PunchIdleTimeout))
	t.add("Punch hop slack", fmt.Sprintf("%d hops", cfg.PunchHops))
	t.add("NI latency", fmt.Sprintf("%d cycles", cfg.NILatency))

	var b strings.Builder
	b.WriteString("Table 2: key parameters for simulation\n")
	b.WriteString(t.String())
	return b.String()
}

// FormatArea renders the Section 6.6(1) area analysis.
func FormatArea() string {
	rep := core.EstimateArea(config.Default(), core.DefaultAreaModel())
	var b strings.Builder
	b.WriteString("Section 6.6(1): Power Punch hardware cost\n\n")
	b.WriteString(rep.String())
	return b.String()
}
