package core

import (
	"fmt"
	"strings"

	"powerpunch/internal/config"
	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// AreaModel is the analytical overhead estimate behind the paper's
// Section 6.6(1): the punch channels and their relay logic cost ~2.4% of
// NoC area on top of conventional power-gating. Areas are expressed in
// normalized "bit-equivalent" units; the constants are calibrated to the
// paper's synthesis result and documented here so the calibration is
// auditable rather than hidden.
type AreaModel struct {
	// Per-unit areas (arbitrary units; only ratios matter).
	BufferBitArea float64 // one flip-flop/SRAM bit of input buffer
	WireBitArea   float64 // one inter-router wire with repeaters
	GateArea      float64 // one combinational gate-equivalent
	XbarBitArea   float64 // one crossbar crosspoint bit
	// GatesPerCode approximates the relay/decode logic per code-book
	// entry of a punch channel.
	GatesPerCode float64
}

// DefaultAreaModel returns the calibrated constants.
func DefaultAreaModel() AreaModel {
	return AreaModel{
		BufferBitArea: 1.0,
		WireBitArea:   0.30,
		GateArea:      0.50,
		XbarBitArea:   0.15,
		GatesPerCode:  14.0,
	}
}

// AreaReport decomposes the per-tile NoC area and the Power Punch
// overhead.
type AreaReport struct {
	RouterArea   float64 // buffers + crossbar + allocators per tile
	LinkArea     float64 // data + flow-control wiring per tile
	PunchWires   float64 // punch channel wiring per tile
	PunchLogic   float64 // relay/merge logic per tile
	OverheadFrac float64 // (wires+logic) / (router+link)
	XBits        int     // punch channel width, X directions
	YBits        int     // punch channel width, Y directions
}

// EstimateArea computes the Power Punch area overhead for the given
// configuration on its mesh, mirroring the paper's "2.4% of additional
// NoC area as compared to conventional power-gating".
func EstimateArea(cfg config.Config, am AreaModel) AreaReport {
	rf, err := topo.Build("mesh", cfg.Width, cfg.Height)
	if err != nil {
		panic(fmt.Sprintf("core: area estimate: %v", err))
	}
	xBits, yBits := MaxChannelWidths(rf, cfg.PunchHops)

	flitBits := cfg.LinkBandwidth
	vcsPerVN := cfg.VCsPerVN()
	bufferFlits := 0
	for v := 0; v < vcsPerVN; v++ {
		bufferFlits += cfg.VCDepth(v)
	}
	bufferFlits *= 3 // virtual networks
	// Buffers on all 5 input ports.
	bufferBits := float64(bufferFlits*flitBits) * float64(mesh.NumPorts)

	router := bufferBits*am.BufferBitArea +
		float64(mesh.NumPorts*mesh.NumPorts*flitBits)*am.XbarBitArea +
		800*am.GateArea // VC + switch allocators, PG controller

	link := float64(mesh.NumLinkDirs*(flitBits+8)) * am.WireBitArea // data + credits/handshake

	punchWires := float64(2*xBits+2*yBits) * am.WireBitArea

	// Relay logic: one decoder/merger per incoming direction, sized by
	// the code-book of the outgoing channel it feeds.
	codes := 0
	for _, d := range mesh.LinkDirections {
		// Use a central router's channel as the representative worst case.
		r := rf.Topology().NodeAt(mesh.Coord{X: cfg.Width / 2, Y: cfg.Height / 2})
		if enc := EncodeChannel(rf, r, d, cfg.PunchHops); enc != nil {
			codes += len(enc.Codes)
		}
	}
	punchLogic := float64(codes) * am.GatesPerCode * am.GateArea

	total := router + link
	return AreaReport{
		RouterArea:   router,
		LinkArea:     link,
		PunchWires:   punchWires,
		PunchLogic:   punchLogic,
		OverheadFrac: (punchWires + punchLogic) / total,
		XBits:        xBits,
		YBits:        yBits,
	}
}

// String renders the report.
func (r AreaReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "punch channel widths: X=%d bits, Y=%d bits\n", r.XBits, r.YBits)
	fmt.Fprintf(&b, "per-tile area (normalized units):\n")
	fmt.Fprintf(&b, "  router (buffers/xbar/alloc): %8.1f\n", r.RouterArea)
	fmt.Fprintf(&b, "  link wiring:                 %8.1f\n", r.LinkArea)
	fmt.Fprintf(&b, "  punch wiring:                %8.1f\n", r.PunchWires)
	fmt.Fprintf(&b, "  punch relay logic:           %8.1f\n", r.PunchLogic)
	fmt.Fprintf(&b, "Power Punch area overhead: %.2f%% of NoC area (paper: 2.4%%)\n", r.OverheadFrac*100)
	return b.String()
}
