package power

import (
	"math"
	"testing"
)

func TestBreakEvenIdentity(t *testing.T) {
	// The defining property of the break-even time: the overhead of one
	// gating event equals BET cycles of leakage. Gating for exactly BET
	// cycles is therefore energy-neutral.
	c := DefaultConstants()
	if got, want := c.EGatingOverhead(), float64(c.BreakEvenCycles)*c.EStaticCycle(); math.Abs(got-want) > 1e-18 {
		t.Errorf("EGatingOverhead = %g, want %g", got, want)
	}
}

func TestGatingForBreakEvenCyclesIsEnergyNeutral(t *testing.T) {
	c := DefaultConstants()

	// Router A: stays on for BET cycles. Router B: gated for BET cycles,
	// then charged one gating event. Net static+overhead must be equal.
	on, gated := NewAccountant(1, c), NewAccountant(1, c)
	on.SetEnabled(true)
	gated.SetEnabled(true)
	for i := 0; i < c.BreakEvenCycles; i++ {
		on.TickCycle(0)
		gated.TickCycle(1)
	}
	gated.GatingEvent()
	eA, eB := on.Network(), gated.Network()
	if math.Abs((eA.Static+eA.Overhead)-(eB.Static+eB.Overhead)) > 1e-18 {
		t.Errorf("break-even violated: on=%g gated=%g", eA.Static+eA.Overhead, eB.Static+eB.Overhead)
	}
}

func TestDisabledAccountantChargesNothing(t *testing.T) {
	a := NewAccountant(1, DefaultConstants())
	a.TickCycle(0)
	a.TickCycle(1)
	a.BufferWrite()
	a.Traverse()
	a.LinkHop()
	a.PunchHop()
	a.WakeupSignal()
	a.GatingEvent()
	if got := a.Components(); got != (ComponentBreakdown{}) {
		t.Errorf("disabled accountant accumulated %+v", got)
	}
	for ev := Event(0); ev < numEvents; ev++ {
		if a.Count(ev) != 0 {
			t.Errorf("disabled accountant counted event %d", ev)
		}
	}
	if a.Cycles() != 0 {
		t.Error("disabled accountant counted cycles")
	}
}

func TestEventEnergies(t *testing.T) {
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	a.BufferWrite()
	a.Traverse()
	a.LinkHop()
	want := c.EBufferWrite + c.EBufferRead + c.EArbitration + c.ECrossbar + c.ELink
	if got := a.Network().Dynamic; math.Abs(got-want) > 1e-18 {
		t.Errorf("dynamic = %g, want %g", got, want)
	}
	if a.Count(EvBufferWrite) != 1 || a.Count(EvTraverse) != 1 || a.Count(EvLink) != 1 {
		t.Error("event counters")
	}
}

func TestGatedLeakFraction(t *testing.T) {
	c := DefaultConstants()
	c.GatedLeakFrac = 0.1
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	a.TickCycle(1)
	want := 0.1 * c.EStaticCycle()
	if got := a.Network().Static; math.Abs(got-want) > 1e-20 {
		t.Errorf("gated leak = %g, want %g", got, want)
	}
}

func TestStaticSavedFrac(t *testing.T) {
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	// 100 cycles: 25 on, 75 gated, no overhead => 75% saved.
	for i := 0; i < 100; i++ {
		if i < 25 {
			a.TickCycle(0)
		} else {
			a.TickCycle(1)
		}
	}
	if got := a.StaticSavedFrac(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("StaticSavedFrac = %g, want 0.75", got)
	}
}

func TestAvgStaticPowerAlwaysOn(t *testing.T) {
	// A single always-on router's average static power equals its
	// leakage power.
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	for i := 0; i < 1000; i++ {
		a.TickCycle(0)
	}
	if got := a.AvgStaticPower(); math.Abs(got-c.PStaticRouter) > 1e-9 {
		t.Errorf("AvgStaticPower = %g, want %g", got, c.PStaticRouter)
	}
}

func TestBreakdownAdd(t *testing.T) {
	b := Breakdown{Dynamic: 1, Static: 2, Overhead: 3}
	b.Add(Breakdown{Dynamic: 10, Static: 20, Overhead: 30})
	if b.Dynamic != 11 || b.Static != 22 || b.Overhead != 33 || b.Total() != 66 {
		t.Errorf("Add/Total: %+v", b)
	}
}

func TestNetworkAggregates(t *testing.T) {
	a := NewAccountant(3, DefaultConstants())
	a.SetEnabled(true)
	a.BufferWrite()
	a.BufferWrite()
	a.BufferWrite()
	want := 3 * a.C.EBufferWrite
	if got := a.Network().Dynamic; math.Abs(got-want) > 1e-18 {
		t.Errorf("network dynamic = %g, want %g", got, want)
	}
}

func TestZeroCycleGuards(t *testing.T) {
	a := NewAccountant(1, DefaultConstants())
	if a.AvgStaticPower() != 0 || a.StaticSavedFrac() != 0 {
		t.Error("zero-cycle accountant must report zeros, not NaN")
	}
}

func TestPresetRegistry(t *testing.T) {
	names := Presets()
	if len(names) < 2 {
		t.Fatalf("expected multiple presets, got %v", names)
	}
	seen := false
	for _, n := range names {
		c, ok := PresetByName(n)
		if !ok {
			t.Fatalf("Presets lists %q but PresetByName rejects it", n)
		}
		if c.CycleTime <= 0 || c.PStaticRouter <= 0 {
			t.Errorf("preset %q has degenerate constants: %+v", n, c)
		}
		// The static apportionment must sum to 1 so a powered-on
		// router-cycle leaks exactly PStaticRouter * CycleTime.
		sum := c.StaticFracBuffer + c.StaticFracCrossbar + c.StaticFracAlloc + c.StaticFracClock
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("preset %q static fractions sum to %g, want 1", n, sum)
		}
		if n == DefaultPreset {
			seen = true
			if c != DefaultConstants() {
				t.Errorf("preset %q must be exactly DefaultConstants (the golden suite pins it)", n)
			}
		}
	}
	if !seen {
		t.Fatalf("default preset %q missing from %v", DefaultPreset, names)
	}
	if c, ok := PresetByName(""); !ok || c != DefaultConstants() {
		t.Error("empty name must select the default preset")
	}
	if _, ok := PresetByName("no-such-preset"); ok {
		t.Error("unknown preset accepted")
	}
}

func TestComponentNames(t *testing.T) {
	names := ComponentNames()
	if len(names) != int(NumComponents) {
		t.Fatalf("ComponentNames has %d entries, want %d", len(names), NumComponents)
	}
	uniq := map[string]bool{}
	for _, n := range names {
		if n == "" || n == "component?" || uniq[n] {
			t.Errorf("bad or duplicate component name %q", n)
		}
		uniq[n] = true
	}
}

// cell addresses one (component, class) entry of a ComponentBreakdown.
type cell struct {
	comp  Component
	class int // 0 dynamic, 1 static, 2 overhead
}

func (b *ComponentBreakdown) at(x cell) float64 {
	e := b[x.comp]
	return [3]float64{e.Dynamic, e.Static, e.Overhead}[x.class]
}

// chargeCase is one charge and the joules it must land in each cell.
type chargeCase struct {
	name   string
	charge func(a *Accountant)
	want   map[cell]float64
}

// TestChargesLandInOneComponent is the per-event ledger check: for
// every preset, each charge method (and TickCycle for a router in each
// power state) must put exactly its hand-computed joules into exactly
// the expected (component, class) cells and nothing anywhere else.
func TestChargesLandInOneComponent(t *testing.T) {
	const dyn, stat, ovh = 0, 1, 2
	for _, name := range Presets() {
		c, _ := PresetByName(name)
		leak := c.PStaticRouter * c.CycleTime
		cases := []chargeCase{
			{"BufferWrite", (*Accountant).BufferWrite, map[cell]float64{
				{CompBuffer, dyn}: c.EBufferWrite,
			}},
			{"Traverse", (*Accountant).Traverse, map[cell]float64{
				{CompBuffer, dyn}:   c.EBufferRead,
				{CompAlloc, dyn}:    c.EArbitration,
				{CompCrossbar, dyn}: c.ECrossbar,
			}},
			{"LinkHop", (*Accountant).LinkHop, map[cell]float64{
				{CompLink, dyn}: c.ELink,
			}},
			{"PunchHop", (*Accountant).PunchHop, map[cell]float64{
				{CompPunch, ovh}: c.EPunchHop,
			}},
			{"WakeupSignal", (*Accountant).WakeupSignal, map[cell]float64{
				{CompWakeup, ovh}: c.EWakeupSignal,
			}},
			{"GatingEvent", (*Accountant).GatingEvent, map[cell]float64{
				{CompGate, ovh}: float64(c.BreakEvenCycles) * leak,
			}},
		}
		powered := map[cell]float64{
			{CompBuffer, stat}:   c.StaticFracBuffer * leak,
			{CompCrossbar, stat}: c.StaticFracCrossbar * leak,
			{CompAlloc, stat}:    c.StaticFracAlloc * leak,
			{CompClock, stat}:    c.StaticFracClock * leak,
			{CompClock, dyn}:     c.EClockCycle,
		}
		// One router for one cycle: a waking router is not gated, so
		// it leaks like a powered-on one.
		for _, st := range []struct {
			name  string
			gated int
			want  map[cell]float64
		}{
			{"On", 0, powered},
			{"WakingUp", 0, powered},
			{"Gated", 1, map[cell]float64{{CompGate, stat}: c.GatedLeakFrac * leak}},
		} {
			gated := st.gated
			cases = append(cases, chargeCase{"TickCycle/" + st.name, func(a *Accountant) { a.TickCycle(gated) }, st.want})
		}

		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				a := NewAccountant(1, c)
				a.SetEnabled(true)
				tc.charge(a)
				got := a.Components()
				var wantClasses [3]float64
				for comp := Component(0); comp < NumComponents; comp++ {
					for class := 0; class < 3; class++ {
						x := cell{comp, class}
						g, w := got.at(x), tc.want[x]
						wantClasses[class] += w
						if w == 0 && g != 0 || w != 0 && math.Abs(g-w) > 1e-12*math.Abs(w) {
							t.Errorf("%s: %v class %d = %g J, want %g J", tc.name, comp, class, g, w)
						}
					}
				}
				net := a.Network()
				for class, g := range [3]float64{net.Dynamic, net.Static, net.Overhead} {
					if w := wantClasses[class]; math.Abs(g-w) > 1e-12*math.Abs(w) {
						t.Errorf("%s: class %d total = %g J, want %g J", tc.name, class, g, w)
					}
				}
			}
		})
	}
}

// TestTickCycleChargesEveryRouter checks that one TickCycle(g) on an
// n-router accountant charges every router once: g gated router-cycles
// and n-g powered-on ones, the same counts and joules as n one-router
// cycles in those states.
func TestTickCycleChargesEveryRouter(t *testing.T) {
	for _, name := range Presets() {
		c, _ := PresetByName(name)
		for _, n := range []int{1, 3, 64} {
			for _, g := range []int{0, 1, n / 2, n} {
				a := NewAccountant(n, c)
				a.SetEnabled(true)
				a.TickCycle(g)
				one := NewAccountant(1, c)
				one.SetEnabled(true)
				for r := 0; r < n; r++ {
					if r < g {
						one.TickCycle(1)
					} else {
						one.TickCycle(0)
					}
				}
				if a.Count(EvGatedCycle) != int64(g) || a.Count(EvOnCycle) != int64(n-g) || a.Cycles() != 1 {
					t.Errorf("%s: n=%d g=%d: %d gated, %d on router-cycles over %d cycles",
						name, n, g, a.Count(EvGatedCycle), a.Count(EvOnCycle), a.Cycles())
				}
				got, want := a.Components(), one.Components()
				for comp := Component(0); comp < NumComponents; comp++ {
					for class := 0; class < 3; class++ {
						x := cell{comp, class}
						if gj, wj := got.at(x), want.at(x); math.Abs(gj-wj) > 1e-12*math.Abs(wj) {
							t.Errorf("%s: n=%d: %v class %d = %g J, want %g J", name, n, comp, class, gj, wj)
						}
					}
				}
			}
		}
	}
}
