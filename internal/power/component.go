package power

// Component identifies one energy-bearing router subsystem in the
// DSENT-style per-component decomposition. Every joule the Accountant
// charges is attributable to exactly one component; the aggregate
// Breakdown is the component totals summed by class (see
// ComponentBreakdown.Classes).
type Component int

// The modelled components. The first four (buffers, crossbar,
// allocators, clock tree) leak; Constants.StaticFracBuffer..Clock apportion the
// router's leakage power across them. Links are charged dynamically to
// the sending router. The last three are power-gating machinery:
// punch-channel signalling, the WU/PG handshake, and the gate
// transition overhead itself (plus any residual leakage of the sleep
// switches while gated).
const (
	CompBuffer   Component = iota // input buffers: write + read energy
	CompCrossbar                  // crossbar traversal
	CompAlloc                     // VC + switch allocation (SA/VA stages)
	CompClock                     // clock tree (per powered-on cycle)
	CompLink                      // inter-router link traversal
	CompPunch                     // punch-channel assertion (Figure 5 sideband)
	CompWakeup                    // WU/PG handshake assertion
	CompGate                      // power-gate transitions + gated residual leak
	NumComponents
)

// String returns the component's stable export name (used as a CSV
// column stem and a JSON key stem).
func (c Component) String() string {
	switch c {
	case CompBuffer:
		return "buffer"
	case CompCrossbar:
		return "crossbar"
	case CompAlloc:
		return "alloc"
	case CompClock:
		return "clock"
	case CompLink:
		return "link"
	case CompPunch:
		return "punch"
	case CompWakeup:
		return "wakeup"
	case CompGate:
		return "gate"
	default:
		return "component?"
	}
}

// ComponentNames lists the component export names in enum order.
func ComponentNames() []string {
	names := make([]string, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		names[c] = c.String()
	}
	return names
}

// ComponentBreakdown is the per-component energy decomposition in
// joules, indexed by Component. It is a flat comparable value (tests
// compare whole RunResults with ==) derived purely from the integer
// event counters, so it is bit-identical across the active-set and
// full-walk engines by construction.
type ComponentBreakdown [NumComponents]Breakdown

// Classes sums the components into the aggregate three-class Breakdown
// (dynamic / static / overhead), in component order. This is the
// aggregate the Accountant reports (Accountant.Network), so the two
// views agree exactly.
func (b *ComponentBreakdown) Classes() Breakdown {
	var t Breakdown
	for i := range b {
		t.Add(b[i])
	}
	return t
}

// Total returns the summed energy of every component.
func (b *ComponentBreakdown) Total() float64 {
	c := b.Classes()
	return c.Total()
}
