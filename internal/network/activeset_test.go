package network

import (
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/pg"
)

// activeTestConfig returns a 4x4 configuration with an unbounded
// measurement window, the shape every active-set edge-case test shares.
func activeTestConfig(s config.Scheme) config.Config {
	cfg := testConfig(s)
	return cfg
}

// stepUntilSetEmpty steps until the active set drains, failing after
// bound cycles. Returns the cycle count stepped.
func stepUntilSetEmpty(t *testing.T, n *Network, bound int) int {
	t.Helper()
	for i := 0; i < bound; i++ {
		if len(n.ActiveNodes()) == 0 {
			return i
		}
		n.Step()
	}
	t.Fatalf("active set not empty after %d cycles: %v", bound, n.ActiveNodes())
	return 0
}

// snapshotNodeSteps copies every node's in-set cycle count.
func snapshotNodeSteps(n *Network) []int64 {
	out := make([]int64, len(n.Routers))
	for i := range n.Routers {
		out[i] = n.NodeSteps(mesh.NodeID(i))
	}
	return out
}

// TestIdleNetworkGatesAndDrainsAtExactCycle pins the idle-timer expiry
// path with empty buffers: in a fresh network with no traffic every
// controller is Draining through cycle timeout-1 and Gated from cycle
// timeout, and every node stays in the active set until its controller
// parks: it steps exactly timeout cycles and retires in the cycle it
// gates. ConvOpt uses the long (break-even-oriented) filter, the punch
// schemes the 2-cycle minimum.
func TestIdleNetworkGatesAndDrainsAtExactCycle(t *testing.T) {
	cases := []struct {
		scheme  config.Scheme
		timeout func(cfg config.Config) int
	}{
		{config.ConvOptPG, func(cfg config.Config) int { return cfg.IdleTimeout }},
		{config.PowerPunchPG, func(cfg config.Config) int { return cfg.PunchIdleTimeout }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme.String(), func(t *testing.T) {
			cfg := activeTestConfig(tc.scheme)
			n := mustNew(t, cfg)
			timeout := tc.timeout(cfg)

			// One cycle before the timeout, the FSMs are still Draining
			// and every node is still live...
			for i := 0; i < timeout-1; i++ {
				n.Step()
			}
			for _, r := range n.Routers {
				if s := r.Ctrl.State(); s != pg.Draining {
					t.Fatalf("cycle %d: router %d is %v, want draining", timeout-1, r.ID, s)
				}
			}
			if got := len(n.ActiveNodes()); got != len(n.Routers) {
				t.Fatalf("cycle %d: %d nodes live, want all %d", timeout-1, got, len(n.Routers))
			}

			// ...and the timeout cycle gates every router and retires
			// every node in that same cycle.
			n.Step()
			for _, r := range n.Routers {
				if s := r.Ctrl.State(); s != pg.Gated {
					t.Fatalf("cycle %d: router %d is %v, want gated", timeout, r.ID, s)
				}
			}
			if got := len(n.ActiveNodes()); got != 0 {
				t.Fatalf("cycle %d: want empty active set, got %v", timeout, n.ActiveNodes())
			}
			n.Step()
			for i := range n.Routers {
				if got := n.NodeSteps(mesh.NodeID(i)); got != int64(timeout) {
					t.Fatalf("node %d stepped %d cycles, want exactly %d", i, got, timeout)
				}
			}
		})
	}
}

// TestDrainDeactivationFreezesNodeSteps pins last-flit drain
// deactivation and the exactness of skipped cycles: after one packet
// delivers and the network re-gates, the active set empties, node step
// counts freeze completely, and 200 further skipped cycles count for the
// gated routers exactly (200 gated-cycles per router), proving a skipped
// cycle and a stepped idle cycle are indistinguishable in the accounts.
func TestDrainDeactivationFreezesNodeSteps(t *testing.T) {
	cfg := activeTestConfig(config.PowerPunchPG)
	n := mustNew(t, cfg)

	p := n.NewPacket(0, 15, flit.VNRequest, flit.KindControl)
	n.NI(0).Submit(p, true, 0)
	for i := 0; p.EjectedAt == 0; i++ {
		if i > 2000 {
			t.Fatalf("packet not delivered after 2000 cycles")
		}
		n.Step()
	}
	stepUntilSetEmpty(t, n, 200)
	if !n.Quiesced() {
		t.Fatal("active set empty but network not quiesced")
	}
	// Step on idle, then confirm the whole mesh stays gated without any
	// node re-entering the set.
	for i := 0; i < 50; i++ {
		n.Step()
	}
	if got := len(n.ActiveNodes()); got != 0 {
		t.Fatalf("idle stepping re-armed nodes: %v", n.ActiveNodes())
	}
	for _, r := range n.Routers {
		if s := r.Ctrl.State(); s != pg.Gated {
			t.Fatalf("router %d is %v after drain, want gated", r.ID, s)
		}
	}

	before := snapshotNodeSteps(n)
	gatedBefore := n.Report().Totals().GatedCycles
	start := n.Now()
	for i := 0; i < 200; i++ {
		n.Step()
	}
	if n.Now() != start+200 {
		t.Fatalf("cycle counter: got %d, want %d", n.Now(), start+200)
	}
	if got := len(n.ActiveNodes()); got != 0 {
		t.Fatalf("idle stepping re-armed nodes: %v", n.ActiveNodes())
	}
	for i, b := range before {
		if got := n.NodeSteps(mesh.NodeID(i)); got != b {
			t.Fatalf("node %d stepped while quiescent: %d -> %d", i, b, got)
		}
	}
	// Exactly one gated-cycle per router per skipped cycle.
	want := gatedBefore + 200*int64(len(n.Routers))
	if got := n.Report().Totals().GatedCycles; got != want {
		t.Fatalf("gated cycles over skipped cycles: got %d, want exactly %d", got, want)
	}
}

// TestPunchWakesQuiescentGatedRouter pins the punch-arrival wakeup of a
// router that has left the active set: with the whole mesh gated and the
// set empty, a single injection re-arms only the source, and the punch
// fabric's holds re-arm the gated path routers — which the NI never
// touches — before the packet needs them awake.
func TestPunchWakesQuiescentGatedRouter(t *testing.T) {
	cfg := activeTestConfig(config.PowerPunchPG)
	n := mustNew(t, cfg)
	stepUntilSetEmpty(t, n, 50)
	// Step on idle so every router is Gated and retired before the
	// punch scenario begins.
	for i := 0; i < 20; i++ {
		n.Step()
	}
	for _, r := range n.Routers {
		if s := r.Ctrl.State(); s != pg.Gated {
			t.Fatalf("setup: router %d is %v, want gated", r.ID, s)
		}
	}

	path := []mesh.NodeID{1, 2, 3} // XY route of 0 -> 3: straight along the row
	before := snapshotNodeSteps(n)
	punchBefore := make(map[mesh.NodeID]int64)
	for _, id := range path {
		punchBefore[id] = n.Routers[id].Ctrl.Stats(n.Now() - 1).WakeupsPunch
	}

	p := n.NewPacket(0, 3, flit.VNRequest, flit.KindControl)
	n.NI(0).Submit(p, true, n.Now())
	// The injection arms exactly the source node; the gated path routers
	// stay parked until a punch (or WU level) names them.
	if got := n.ActiveNodes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after submit, want active set [0], got %v", got)
	}

	for i := 0; p.EjectedAt == 0; i++ {
		if i > 2000 {
			t.Fatalf("packet not delivered after 2000 cycles")
		}
		n.Step()
	}

	var punchWakes int64
	for _, id := range path {
		if got := n.NodeSteps(id); got <= before[id] {
			t.Errorf("path router %d never re-entered the active set (steps %d)", id, got)
		}
		punchWakes += n.Routers[id].Ctrl.Stats(n.Now()-1).WakeupsPunch - punchBefore[id]
	}
	if punchWakes == 0 {
		t.Errorf("no path router woke by punch; the wakeups were not punch-driven")
	}

	// The mesh re-gates and the set drains again once the packet is out.
	stepUntilSetEmpty(t, n, 200)
	for i := 0; i < 20; i++ {
		n.Step()
	}
	for _, r := range n.Routers {
		if s := r.Ctrl.State(); s != pg.Gated {
			t.Fatalf("router %d is %v after re-drain, want gated", r.ID, s)
		}
	}
}

// TestCreditReturnToRetiredUpstream pins the credit-return path across a
// parked node: an upstream router may leave the active set with credits
// still in flight back toward it (the downstream owner of the credit
// pipe delivers them), and its credit state must be exact — full — when
// the link goes quiet, without the credits ever re-arming it.
func TestCreditReturnToRetiredUpstream(t *testing.T) {
	cfg := activeTestConfig(config.NoPG)
	n := mustNew(t, cfg)

	// A data packet 0 -> 1 crosses one East link using more flits (5)
	// than any VC holds (3), so credit returns continue after the source
	// router has emptied and parked.
	p := n.NewPacket(0, 1, flit.VNRequest, flit.KindData)
	n.NI(0).Submit(p, true, 0)

	op := n.Routers[0].Out(mesh.East)
	depth := func(v int) int { return cfg.VCDepth(v % cfg.VCsPerVN()) }
	creditsOutstanding := func() bool {
		for v := 0; v < n.Routers[0].NumVCs(); v++ {
			if op.Credits(v) < depth(v) {
				return true
			}
		}
		return false
	}
	inSet := func(id mesh.NodeID) bool { return n.sched.inSet[id] }

	sawParkedWithCreditsInFlight := false
	for i := 0; i < 400; i++ {
		n.Step()
		n.CheckInvariants()
		if !inSet(0) && creditsOutstanding() {
			sawParkedWithCreditsInFlight = true
			// The pending credits must not have re-armed node 0.
			for _, id := range n.ActiveNodes() {
				if id == 0 {
					t.Fatal("credit in flight re-armed the parked upstream node")
				}
			}
		}
		if p.EjectedAt > 0 && n.Quiesced() && len(n.ActiveNodes()) == 0 {
			break
		}
	}
	if p.EjectedAt == 0 {
		t.Fatal("packet not delivered")
	}
	if !sawParkedWithCreditsInFlight {
		t.Fatal("scenario never materialized: node 0 stayed in the set until all credits returned")
	}
	// Link quiet: every credit found its way home through the parked node.
	for v := 0; v < n.Routers[0].NumVCs(); v++ {
		if got := op.Credits(v); got != depth(v) {
			t.Fatalf("vc%d credits: got %d, want full depth %d", v, got, depth(v))
		}
	}
}

// TestSimultaneousWakeAndSleepInOneCycle drives staggered traffic until
// some cycle both wakes one router (Gated -> Waking) and gates another
// (on -> Gated), and checks the scheduler tracks both sides of the same
// cycle: the woken router is in the active set (a wakeup needs a live
// punch or WU level, which only an armed node can observe), and — every
// cycle, not just that one — every node outside the set satisfies the
// scheduler's own quiescence rule, so nothing that could change
// network-visible state is ever skipped.
func TestSimultaneousWakeAndSleepInOneCycle(t *testing.T) {
	cfg := activeTestConfig(config.PowerPunchPG)
	n := mustNew(t, cfg)

	prev := make([]pg.State, len(n.Routers))
	record := func() {
		for i, r := range n.Routers {
			prev[i] = r.Ctrl.State()
		}
	}
	record()

	simultaneous := false
	seq := 0
	for i := 0; i < 4000 && !simultaneous; i++ {
		// Deterministic staggered injections from rotating corners.
		if i%11 == 0 {
			src := mesh.NodeID((seq * 7) % 16)
			dst := mesh.NodeID((seq*5 + 3) % 16)
			if src != dst {
				p := n.NewPacket(src, dst, flit.VNRequest, flit.KindControl)
				n.NI(src).Submit(p, true, n.Now())
			}
			seq++
		}
		n.Step()

		// Set-membership invariant: a retired node is quiescent.
		for j := range n.Routers {
			if !n.sched.inSet[j] && !n.sched.quiescent(int32(j)) {
				t.Fatalf("cycle %d: router %d is outside the active set but not quiescent", n.Now(), j)
			}
		}

		wokeThisCycle, sleptThisCycle := -1, -1
		for j, r := range n.Routers {
			cur := r.Ctrl.State()
			if prev[j] == pg.Gated && cur == pg.Waking {
				wokeThisCycle = j
			}
			if (prev[j] == pg.Active || prev[j] == pg.Draining) && cur == pg.Gated {
				sleptThisCycle = j
			}
		}
		if wokeThisCycle >= 0 && sleptThisCycle >= 0 {
			simultaneous = true
			if !n.sched.inSet[wokeThisCycle] {
				t.Fatalf("cycle %d: router %d woke but is not in the active set", n.Now(), wokeThisCycle)
			}
		}
		record()
	}
	if !simultaneous {
		t.Fatal("no cycle had a simultaneous wake and sleep; adjust the injection schedule")
	}
}

// TestDropRearmsFaultIsCaught proves the invariant engine catches a
// scheduler that loses re-arm events (config.Faults.DropRearms): under a
// power-gating scheme the gated victim never observes its wakeup and the
// PG handshake invariants fire; under No-PG the victim holds a delivered
// head flit it never routes and the scheduler-liveness invariant fires.
// Either way the fault is caught by checks, not by silent wrong results.
func TestDropRearmsFaultIsCaught(t *testing.T) {
	run := func(t *testing.T, scheme config.Scheme, wantInvariants ...string) {
		t.Helper()
		cfg := activeTestConfig(scheme)
		cfg.Checks = true
		cfg.Faults.DropRearms = true
		n := mustNew(t, cfg)
		var got *check.Artifact
		n.OnViolation = func(a *check.Artifact) { got = a }

		// Let the mesh park, then push traffic whose re-arms get dropped.
		for i := 0; i < 10; i++ {
			n.Step()
		}
		seq := 0
		for i := 0; i < 3000 && got == nil; i++ {
			if i%17 == 0 {
				src := mesh.NodeID((seq * 3) % 16)
				dst := mesh.NodeID((seq*7 + 5) % 16)
				if src != dst {
					p := n.NewPacket(src, dst, flit.VNRequest, flit.KindControl)
					n.NI(src).Submit(p, true, n.Now())
				}
				seq++
			}
			n.Step()
		}
		if got == nil {
			t.Fatalf("%v: dropped re-arms never tripped an invariant (dropped=%d)",
				scheme, n.DroppedRearms())
		}
		if n.DroppedRearms() == 0 {
			t.Fatalf("%v: violation fired but no re-arm was ever dropped", scheme)
		}
		for _, w := range wantInvariants {
			if got.Violation.Invariant == w {
				return
			}
		}
		t.Fatalf("%v: violation %q (cycle %d), want one of %v",
			scheme, got.Violation.Invariant, got.Violation.Cycle, wantInvariants)
	}

	t.Run("PowerPunch-PG", func(t *testing.T) {
		run(t, config.PowerPunchPG, "pg-wake-handshake")
	})
	t.Run("No-PG", func(t *testing.T) {
		run(t, config.NoPG, "scheduler-liveness")
	})
}
