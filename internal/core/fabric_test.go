package core

import (
	"testing"

	"powerpunch/internal/mesh"
)

func newFab(hops int) *Fabric {
	return NewFabric(meshRF(8, 8), hops, false, nil)
}

func TestTargetedRouterPaperExamples(t *testing.T) {
	rf := meshRF(8, 8)
	// Section 4.1: "if a packet has source R0, destination R7 and is
	// currently in R3, then R6 is the targeted router".
	if got := TargetedRouter(rf, 3, 7, 3); got != 6 {
		t.Errorf("TargetedRouter(3,7,3) = %d, want 6", got)
	}
	// Step 1: "a packet currently at R26 with destination R31 knows
	// precisely that the targeted router is R29".
	if got := TargetedRouter(rf, 26, 31, 3); got != 29 {
		t.Errorf("TargetedRouter(26,31,3) = %d, want 29", got)
	}
	// At the destination: no punch.
	if got := TargetedRouter(rf, 31, 31, 3); got != mesh.Invalid {
		t.Errorf("TargetedRouter at destination = %d, want Invalid", got)
	}
	// Destination closer than the hop slack: target the destination.
	if got := TargetedRouter(rf, 26, 28, 3); got != 28 {
		t.Errorf("TargetedRouter(26,28,3) = %d, want 28", got)
	}
}

func TestPunchPropagatesOneHopPerCycle(t *testing.T) {
	// A punch emitted at R26 toward R29 must hold R26 in cycle 0, R27 in
	// cycle 1, R28 in cycle 2, and R29 in cycle 3 — one link per cycle,
	// waking every intermediate router implicitly (Section 4.1 step 2).
	f := newFab(3)
	f.EmitSource(26, 31) // target = 29
	f.Step()             // cycle 0 processed
	if !f.Hold(26) {
		t.Error("cycle 0: source router must be held")
	}
	f.Step()
	if !f.Hold(27) {
		t.Error("cycle 1: hop-1 router must be held")
	}
	f.Step()
	if !f.Hold(28) {
		t.Error("cycle 2: hop-2 router must be held")
	}
	f.Step()
	if !f.Hold(29) {
		t.Error("cycle 3: targeted router must be held")
	}
	// The punch is absorbed at its target: R30 must never see it.
	f.Step()
	if f.Hold(30) {
		t.Error("punch must be absorbed at the targeted router")
	}
}

func TestPunchFollowsXYTurn(t *testing.T) {
	// Packet at 27 destined to 21 (paper: path 27->28->29->21, X then
	// Y-). The punch must turn with the path.
	f := newFab(3)
	f.EmitSource(27, 21) // target = 21 itself (3 hops)
	f.Step()
	f.Step()
	if !f.Hold(28) {
		t.Error("hop 1 (28) not held")
	}
	f.Step()
	if !f.Hold(29) {
		t.Error("hop 2 (29) not held")
	}
	f.Step()
	if !f.Hold(21) {
		t.Error("target (21) not held after Y turn")
	}
}

func TestLevelSemanticsKeepDownstreamHeld(t *testing.T) {
	// Re-emitting each cycle (a resident, possibly stalled packet) keeps
	// the whole 3-hop-ahead window held every cycle.
	f := newFab(3)
	for cyc := 0; cyc < 6; cyc++ {
		f.EmitSource(26, 31)
		f.Step()
	}
	for _, n := range []mesh.NodeID{26, 27, 28, 29} {
		if !f.Hold(n) {
			t.Errorf("router %d not held under level semantics", n)
		}
	}
}

func TestMergeIsLossless(t *testing.T) {
	// Two punches sharing the channel 27->28 in the same cycle must both
	// reach their targets (contention-free merging, Section 4.1).
	f := newFab(3)
	for cyc := 0; cyc < 5; cyc++ {
		f.EmitSource(26, 36) // target 36: path 26,27,28,36
		f.EmitSource(27, 21) // target 21: path 27,28,29,21
		f.Step()
	}
	for _, n := range []mesh.NodeID{27, 28, 29, 36, 21} {
		if !f.Hold(n) {
			t.Errorf("router %d not held after merge", n)
		}
	}
}

func TestEmitLocalHoldsSourceAndPunchesAhead(t *testing.T) {
	f := newFab(3)
	f.EmitLocal(0, 7)
	f.Step()
	if !f.Hold(0) {
		t.Error("EmitLocal must hold the local router")
	}
	f.Step()
	if !f.Hold(1) {
		t.Error("EmitLocal must start the multi-hop punch")
	}
}

func TestHoldLocalOnly(t *testing.T) {
	f := newFab(3)
	f.HoldLocal(5)
	f.Step()
	if !f.Hold(5) {
		t.Error("HoldLocal must hold")
	}
	f.Step()
	for n := mesh.NodeID(0); n < 64; n++ {
		if f.Hold(n) {
			t.Errorf("slack-2 hold must not propagate (router %d held)", n)
		}
	}
}

func TestShortPathPunch(t *testing.T) {
	// One-hop packet: the punch targets the destination directly.
	f := newFab(3)
	f.EmitSource(0, 1)
	f.Step()
	f.Step()
	if !f.Hold(1) {
		t.Error("one-hop target not held")
	}
}

func TestStrictModeDropsSecondSourcePunchSameChannel(t *testing.T) {
	rf := meshRF(8, 8)
	f := NewFabric(rf, 3, true, nil)
	// Two new punches from the same router out the same (X+) channel in
	// one cycle: strict hardware can encode only one new signal per
	// emitter per cycle.
	f.EmitSource(27, 31) // target 30, via X+
	f.EmitSource(27, 21) // target 21, via X+ too
	if got := f.Stats().StrictDrops; got != 1 {
		t.Errorf("StrictDrops = %d, want 1", got)
	}
	// Different channels are independent.
	f.EmitSource(27, 59) // Y+ channel
	if got := f.Stats().StrictDrops; got != 1 {
		t.Errorf("cross-channel emission dropped: %d", got)
	}
}

func TestRelaysAreNeverDroppedInStrictMode(t *testing.T) {
	rf := meshRF(8, 8)
	f := NewFabric(rf, 3, true, nil)
	for cyc := 0; cyc < 5; cyc++ {
		f.EmitSource(25, 29) // target 28 (3 hops)
		f.EmitSource(26, 30) // target 29
		f.Step()
	}
	for _, n := range []mesh.NodeID{28, 29} {
		if !f.Hold(n) {
			t.Errorf("strict mode lost a relayed punch (router %d)", n)
		}
	}
}

func TestFabricStatsCount(t *testing.T) {
	f := newFab(3)
	f.EmitSource(26, 31)
	f.Step()
	s := f.Stats()
	if s.SourceEmissions != 1 {
		t.Errorf("SourceEmissions = %d", s.SourceEmissions)
	}
	if s.ChannelCycles == 0 {
		t.Error("ChannelCycles not counted")
	}
}

func TestNewFabricPanicsOnBadHops(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFabric(meshRF(4, 4), 0, false, nil)
}

func TestVerifyEncodableCatchesIdealizedOverflow(t *testing.T) {
	// In non-strict mode, two same-cycle source punches from one router
	// out the same channel form a set the Table-1 hardware cannot
	// encode; verification must catch it.
	rf := meshRF(8, 8)
	f := NewFabric(rf, 3, false, nil)
	f.SetVerifyEncodable(true)
	f.EmitSource(27, 31) // target 30 via X+
	f.EmitSource(27, 21) // target 21 via X+ — {30,21} is not in the code book
	defer func() {
		if recover() == nil {
			t.Error("expected unencodable-set panic in idealized mode")
		}
	}()
	f.Step()
}

func TestVerifyEncodablePassesStrictFabric(t *testing.T) {
	rf := meshRF(8, 8)
	f := NewFabric(rf, 3, true, nil)
	f.SetVerifyEncodable(true)
	for cyc := 0; cyc < 10; cyc++ {
		f.EmitSource(27, 31)
		f.EmitSource(26, 36)
		f.EmitSource(25, 29)
		f.Step() // must not panic
	}
	if len(f.InboxTargets(30)) > 3 {
		t.Error("unexpected inbox blowup")
	}
	if f.Hops() != 3 {
		t.Error("Hops accessor")
	}
}
