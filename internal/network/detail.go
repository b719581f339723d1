package network

import "powerpunch/internal/power"

// DetailVersion identifies the RunDetail JSON schema. Bump it only
// with a deliberate format change; consumers key on it.
// Version 2 added the per-component Energy section.
const DetailVersion = 2

// EnergyVersion identifies the EnergyBreakdown JSON schema (the
// component taxonomy and class split).
const EnergyVersion = 1

// StageBreakdown decomposes the total packet latency of a run into
// pipeline stages, in exact integer cycles: summed over every measured
// ejected packet,
//
//	LatencyCycles == NIQueueCycles + WakeupNICycles +
//	                 WakeupNetCycles + TransitCycles
//
// holds exactly (no float rounding), and
// LatencyCycles / Packets == Summary.AvgLatency. The two wakeup terms
// reproduce the paper's §6 observation that conventional gating's
// latency penalty is wakeup exposure: WakeupNICycles were spent at the
// source NI blocked on a gated/waking local router, WakeupNetCycles
// inside the network stalled on gated/waking downstream routers.
type StageBreakdown struct {
	Packets         int64 `json:"packets"`           // measured packets ejected
	LatencyCycles   int64 `json:"latency_cycles"`    // Σ creation → ejection
	NIQueueCycles   int64 `json:"ni_queue_cycles"`   // NI pipeline + queueing, excl. wakeup blocks
	WakeupNICycles  int64 `json:"wakeup_ni_cycles"`  // wakeup waits at the source NI
	WakeupNetCycles int64 `json:"wakeup_net_cycles"` // wakeup waits inside the network
	TransitCycles   int64 `json:"transit_cycles"`    // in-network time minus wakeup waits
}

// PGBreakdown aggregates the power-gating controllers' activity over
// the run (sums over all routers).
type PGBreakdown struct {
	GatingEvents  int64 `json:"gating_events"`
	GatedCycles   int64 `json:"gated_cycles"`
	WakingCycles  int64 `json:"waking_cycles"`
	ShortGatings  int64 `json:"short_gatings"` // gated periods under the break-even time
	WakeupsPunch  int64 `json:"wakeups_punch"` // wakes triggered by punch signals
	WakeupsWU     int64 `json:"wakeups_wu"`    // wakes triggered by the WU handshake
	SleepsBlocked int64 `json:"sleeps_blocked"`
	StallCycles   int64 `json:"stall_cycles"` // router-side PG stall cycles (flit-cycles)
}

// PunchBreakdown aggregates punch-fabric activity (zero for schemes
// without punch signals).
type PunchBreakdown struct {
	SourceEmissions int64 `json:"source_emissions"`
	RelayedTargets  int64 `json:"relayed_targets"`
	ChannelCycles   int64 `json:"channel_cycles"`
	StrictDrops     int64 `json:"strict_drops"`
}

// ComponentEnergy is one component's energy over the measured window,
// in joules, split into the aggregate model's three classes.
type ComponentEnergy struct {
	Dynamic  float64 `json:"dynamic_j"`
	Static   float64 `json:"static_j"`
	Overhead float64 `json:"overhead_j"`
}

// Total returns the component's summed energy.
func (c ComponentEnergy) Total() float64 { return c.Dynamic + c.Static + c.Overhead }

// EnergyBreakdown is the versioned per-component energy decomposition
// of a run (EnergyVersion), derived from the power accountant's
// integer event counters — so it is bit-identical across the
// active-set and full-walk tick engines. RunResult.Energy is its class
// sums.
type EnergyBreakdown struct {
	Version  int             `json:"version"`
	Buffer   ComponentEnergy `json:"buffer"`   // input buffers (write + read)
	Crossbar ComponentEnergy `json:"crossbar"` // crossbar traversal
	Alloc    ComponentEnergy `json:"alloc"`    // VC + switch allocation
	Clock    ComponentEnergy `json:"clock"`    // clock tree
	Link     ComponentEnergy `json:"link"`     // inter-router links
	Punch    ComponentEnergy `json:"punch"`    // punch-channel signalling
	Wakeup   ComponentEnergy `json:"wakeup"`   // WU/PG handshake
	Gate     ComponentEnergy `json:"gate"`     // gate transitions + gated residual leak
}

// Component returns component c's energy (the named fields, indexed).
func (e *EnergyBreakdown) Component(c power.Component) ComponentEnergy {
	switch c {
	case power.CompBuffer:
		return e.Buffer
	case power.CompCrossbar:
		return e.Crossbar
	case power.CompAlloc:
		return e.Alloc
	case power.CompClock:
		return e.Clock
	case power.CompLink:
		return e.Link
	case power.CompPunch:
		return e.Punch
	case power.CompWakeup:
		return e.Wakeup
	case power.CompGate:
		return e.Gate
	default:
		return ComponentEnergy{}
	}
}

// Total returns the summed energy of every component.
func (e *EnergyBreakdown) Total() float64 {
	var t float64
	for c := power.Component(0); c < power.NumComponents; c++ {
		t += e.Component(c).Total()
	}
	return t
}

// energyBreakdownFrom converts the power package's indexed component
// array into the named, JSON-stable export form.
func energyBreakdownFrom(b power.ComponentBreakdown) EnergyBreakdown {
	conv := func(c power.Component) ComponentEnergy {
		return ComponentEnergy{Dynamic: b[c].Dynamic, Static: b[c].Static, Overhead: b[c].Overhead}
	}
	return EnergyBreakdown{
		Version:  EnergyVersion,
		Buffer:   conv(power.CompBuffer),
		Crossbar: conv(power.CompCrossbar),
		Alloc:    conv(power.CompAlloc),
		Clock:    conv(power.CompClock),
		Link:     conv(power.CompLink),
		Punch:    conv(power.CompPunch),
		Wakeup:   conv(power.CompWakeup),
		Gate:     conv(power.CompGate),
	}
}

// RunDetail is the versioned, JSON-stable detail section of a
// RunResult: the exact latency stage decomposition plus power-gating,
// punch-fabric, and per-component energy breakdowns. It is a flat
// comparable value (tests compare whole RunResults with ==) and is
// always populated — the inputs are counters the simulation maintains
// anyway.
type RunDetail struct {
	Version int             `json:"version"`
	Stages  StageBreakdown  `json:"stages"`
	PG      PGBreakdown     `json:"pg"`
	Punch   PunchBreakdown  `json:"punch"`
	Energy  EnergyBreakdown `json:"energy"`
}

// detail assembles the RunDetail from the run's collectors. Call only
// after SyncInspection/syncAll (result does).
func (n *Network) detail() RunDetail {
	st := n.Col.Stages()
	d := RunDetail{
		Version: DetailVersion,
		Stages: StageBreakdown{
			Packets:         st.Packets,
			LatencyCycles:   st.Latency,
			NIQueueCycles:   st.NIWait - st.WakeupWaitNI,
			WakeupNICycles:  st.WakeupWaitNI,
			WakeupNetCycles: st.WakeupWait - st.WakeupWaitNI,
			TransitCycles:   st.Latency - st.NIWait - (st.WakeupWait - st.WakeupWaitNI),
		},
	}
	for _, r := range n.Routers {
		cs := r.Ctrl.Stats()
		d.PG.GatingEvents += cs.GatingEvents
		d.PG.GatedCycles += cs.GatedCycles
		d.PG.WakingCycles += cs.WakingCycles
		d.PG.ShortGatings += cs.ShortGatings
		d.PG.WakeupsPunch += cs.WakeupsPunch
		d.PG.WakeupsWU += cs.WakeupsWU
		d.PG.SleepsBlocked += cs.SleepsBlocked
		d.PG.StallCycles += r.PGStallCycles
	}
	if n.Fabric != nil {
		fs := n.Fabric.Stats()
		d.Punch = PunchBreakdown{
			SourceEmissions: fs.SourceEmissions,
			RelayedTargets:  fs.RelayedTargets,
			ChannelCycles:   fs.ChannelCycles,
			StrictDrops:     fs.StrictDrops,
		}
	}
	d.Energy = energyBreakdownFrom(n.Acct.Components())
	return d
}
