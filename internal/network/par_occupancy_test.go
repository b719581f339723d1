package network

import (
	"fmt"
	"math/rand"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
)

// These tests pin the occupancy-aware grouping of the parallel engine
// (par.go regroupNow and friends) at its edge cases: an all-asleep
// fabric must cost zero worker wakeups, a lone active router must run
// inline on the coordinator, re-grouping across home boundaries must
// not perturb results, and — metamorphically — no (workers, grain)
// choice may ever change what the simulation computes.

// occupancyFingerprint drains the network and folds every observable
// the golden differential cares about into one comparable string:
// utilization report, final cycle, and the accounted energy floats.
func occupancyFingerprint(t *testing.T, n *Network) string {
	t.Helper()
	for i := 0; i < 20_000 && !n.Quiesced(); i++ {
		n.Step()
	}
	if !n.Quiesced() {
		t.Fatal("network did not quiesce")
	}
	pow := n.Acct.Network()
	return fmt.Sprintf("%s|cyc=%d|E=%.15e/%.15e/%.15e",
		n.Report().String(), n.Now(), pow.Dynamic, pow.Static, pow.Overhead)
}

// newOccupancyNet builds an 8x8 PowerPunch-PG network with accounting
// enabled and, when parallel, the engine's grouping grain overridden.
func newOccupancyNet(t *testing.T, workers, grain int) *Network {
	t.Helper()
	cfg := config.Default()
	cfg.Scheme = config.PowerPunchPG
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	cfg.Workers = workers
	n := mustNew(t, cfg)
	if n.par != nil && grain > 0 {
		n.par.grain = grain
	}
	n.SetAccounting(true)
	return n
}

// TestParOccupancyAllAsleep pins the zero-work contract: once every
// router has parked, each cycle's sections all see an empty active set
// and are skipped outright — no group is dispatched to a worker
// goroutine and nothing runs inline either.
func TestParOccupancyAllAsleep(t *testing.T) {
	n := newOccupancyNet(t, 4, 0)
	defer n.Close()
	e := n.par
	// A fresh gated network parks in a handful of cycles.
	stepUntilSetEmpty(t, n, 100)
	skip, inline, dispatch := e.nSkip, e.nInline, e.nDispatch
	const quiet = 50
	for i := 0; i < quiet; i++ {
		n.Step()
	}
	// Every section of every quiet cycle must have been skipped: A and
	// B always run, C runs because PowerPunch-PG gates, so three
	// skipped sections per cycle.
	if got, want := e.nSkip-skip, int64(3*quiet); got != want {
		t.Errorf("asleep fabric skipped %d sections over %d cycles, want %d", got, quiet, want)
	}
	if e.nInline != inline || e.nDispatch != dispatch {
		t.Errorf("asleep fabric ran sections: inline +%d, dispatched +%d (want 0/0)",
			e.nInline-inline, e.nDispatch-dispatch)
	}
}

// TestParOccupancySingleActive pins the inline path: one packet
// between neighbors wakes a handful of routers — far under the
// grouping grain — so every section runs inline on the coordinator
// and no worker goroutine is ever woken.
func TestParOccupancySingleActive(t *testing.T) {
	n := newOccupancyNet(t, 4, 0)
	defer n.Close()
	e := n.par
	stepUntilSetEmpty(t, n, 100)
	dispatch := e.nDispatch
	inline := e.nInline
	p := n.NewPacket(0, 1, flit.VNRequest, flit.KindData)
	n.NI(0).Submit(p, true, n.Now())
	for i := 0; p.EjectedAt == 0; i++ {
		if i > 2000 {
			t.Fatal("packet not delivered")
		}
		n.Step()
	}
	stepUntilSetEmpty(t, n, 200)
	if e.nInline == inline {
		t.Error("single-active delivery never ran a section inline")
	}
	if e.nDispatch != dispatch {
		t.Errorf("single-active delivery dispatched %d sections to workers (grain %d should keep it inline)",
			e.nDispatch-dispatch, e.grain)
	}
}

// TestParRegroupStraddlesHomeBoundary drives traffic whose active set
// repeatedly grows and shrinks across the fixed home boundaries (16
// nodes per home at 4 workers on the 8x8 mesh) with the grain forced
// to 1, so every cycle re-partitions the active homes into maximal
// group counts and successive cycles see group boundaries move across
// a home that stays active. The result must match the serial engine
// exactly, and the shape must actually have exercised multi-group
// dispatch.
func TestParRegroupStraddlesHomeBoundary(t *testing.T) {
	// Packet waves bouncing across the three home boundaries
	// (15|16, 31|32, 47|48), staggered so activity straddles a
	// different boundary as earlier waves drain.
	drive := func(n *Network, cyc int64) {
		if cyc%40 != 0 || cyc >= 400 {
			return
		}
		wave := (cyc / 40) % 3
		lo := mesh.NodeID(15 + 16*wave)
		p := n.NewPacket(lo, lo+1, flit.VNRequest, flit.KindData)
		n.NI(lo).Submit(p, true, n.Now())
		q := n.NewPacket(lo+1, lo, flit.VNResponse, flit.KindData)
		n.NI(lo+1).Submit(q, true, n.Now())
	}
	run := func(workers, grain int) (string, int64) {
		n := newOccupancyNet(t, workers, grain)
		defer n.Close()
		for cyc := int64(0); cyc < 440; cyc++ {
			drive(n, cyc)
			n.Step()
		}
		var dispatched int64
		if n.par != nil {
			dispatched = n.par.nDispatch
		}
		return occupancyFingerprint(t, n), dispatched
	}
	want, _ := run(0, 0)
	got, dispatched := run(4, 1)
	if got != want {
		t.Errorf("straddling re-group diverged from serial:\n got %s\nwant %s", got, want)
	}
	if dispatched == 0 {
		t.Error("grain=1 boundary waves never dispatched a multi-group section")
	}
}

// TestParMetamorphicGrainInvariance is the metamorphic property: the
// grouping grain and the worker count select an execution schedule,
// never a result. At a sparse load and at a load heavy enough to keep
// most of the fabric awake, every (workers, grain) combination must
// produce the identical fingerprint as the serial engine.
func TestParMetamorphicGrainInvariance(t *testing.T) {
	for _, rate := range []float64{0.01, 0.20} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			run := func(workers, grain int) string {
				n := newOccupancyNet(t, workers, grain)
				defer n.Close()
				d := &randomDriver{rng: rand.New(rand.NewSource(23)), rate: rate, until: 300}
				for cyc := 0; cyc < 300; cyc++ {
					d.Tick(n, n.Now())
					n.Step()
				}
				return occupancyFingerprint(t, n)
			}
			want := run(0, 0)
			for _, workers := range []int{2, 4, 8} {
				for _, grain := range []int{1, 4, 32} {
					if got := run(workers, grain); got != want {
						t.Errorf("workers=%d grain=%d diverged from serial:\n got %s\nwant %s",
							workers, grain, got, want)
					}
				}
			}
		})
	}
}
