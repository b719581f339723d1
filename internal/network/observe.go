package network

import (
	"fmt"

	"powerpunch/internal/obs"
	"powerpunch/internal/power"
)

// Observe attaches observability sinks to the network: every router,
// PG controller, NI, and the punch fabric publish cycle-level events
// into a shared obs.Bus fanned out to the sinks. Must be called
// before the first Step — a mid-run attach would see a torn event
// stream, so it panics after cycle 0.
//
// With no observer attached the whole layer is a nil-pointer check per
// emission site; the hot tick path stays allocation-free either way
// (events are stack values copied into one bus-owned scratch slot).
func (n *Network) Observe(sinks ...obs.Sink) {
	if n.now > 0 {
		panic(fmt.Sprintf("network: Observe called at cycle %d; observers must attach before the first Step", n.now))
	}
	if n.bus == nil {
		punch := 0
		if n.Fabric != nil {
			punch = n.Fabric.Hops()
		}
		n.bus = obs.NewBus(obs.Meta{
			Nodes:    n.M.NumNodes(),
			Width:    n.Cfg.Width,
			Height:   n.Cfg.Height,
			Topology: n.Cfg.TopologyKind().String(),
			Scheme:   n.Cfg.Scheme.String(),
			Twakeup:  n.Cfg.WakeupLatency,
			BET:      n.Cfg.BreakEven,
			Punch:    punch,
		})
		for i, r := range n.Routers {
			r.SetBus(n.bus)
			r.Ctrl.SetBus(n.bus, int32(i))
		}
		for _, nif := range n.NIs {
			nif.SetBus(n.bus)
		}
		if n.Fabric != nil {
			n.Fabric.SetBus(n.bus)
		}
	}
	for _, s := range sinks {
		// Sinks that consume cumulative per-component energy (the
		// timeline Sampler's power columns) read the run's accountant
		// through syncedMeter, so EndCycle reads are current and
		// engine-invariant.
		if pm, ok := s.(interface{ SetPowerMeter(obs.PowerMeter) }); ok {
			pm.SetPowerMeter(syncedMeter{n})
		}
		n.bus.Attach(s)
	}
}

// syncedMeter is the obs.PowerMeter sinks read: the run's accountant,
// with every node the active-set scheduler parked charged through the
// cycle being closed first. Parked nodes otherwise accrue their static
// charges in a batch when they re-arm, which would move an idle
// window's power into a later window (or past the last one).
type syncedMeter struct{ n *Network }

func (m syncedMeter) Components() power.ComponentBreakdown {
	m.n.sched.syncAll(m.n.now)
	return m.n.Acct.Components()
}

func (m syncedMeter) CycleTime() float64 { return m.n.Acct.CycleTime() }

// Observed reports whether an observability bus is attached.
func (n *Network) Observed() bool { return n.bus != nil }

// Bus returns the attached observability bus, or nil when the network
// is unobserved.
func (n *Network) Bus() *obs.Bus { return n.bus }
