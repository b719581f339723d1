package network

import (
	"fmt"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
)

// TestStepAllocsIdleSteadyState pins the allocation-free hot path on an
// idle, fully-parked mesh: once every node has left the active set,
// Step must not allocate at all — the whole cycle is a handful of
// counter bumps.
func TestStepAllocsIdleSteadyState(t *testing.T) {
	for _, s := range config.AllSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			n := mustNew(t, cfg)
			// Warm: deliver one packet so pools and scratch buffers reach
			// their steady sizes, then let the mesh park completely.
			p := n.NewPacket(0, 15, flit.VNRequest, flit.KindControl)
			n.NI(0).Submit(p, true, 0)
			for i := 0; p.EjectedAt == 0 || len(n.ActiveNodes()) > 0; i++ {
				if i > 2000 {
					t.Fatal("network never drained")
				}
				n.Step()
			}
			if avg := testing.AllocsPerRun(200, n.Step); avg != 0 {
				t.Fatalf("idle Step allocates %.2f times per cycle, want 0", avg)
			}
		})
	}
}

// TestStepAllocsRecycledLoads pins the fully-recycled hot path: with
// packet recycling on, even the driver-side packet creation draws from
// the network's pools, so a whole inject+Step cycle — the exact shape
// of the benchmark loop — performs zero allocations at every
// benchmarked load. Without recycling the same loop costs 2–6 allocs/op at
// loads 0.10 and 0.30 (one packet plus its flits per injection).
func TestStepAllocsRecycledLoads(t *testing.T) {
	for _, load := range []float64{0.02, 0.10, 0.30} {
		load := load
		t.Run(fmt.Sprintf("serial/load=%.2f", load), func(t *testing.T) {
			cfg := testConfig(config.PowerPunchPG)
			cfg.RecyclePackets = true
			n := mustNew(t, cfg)

			// Deterministic per-node Bernoulli injection at the given
			// load, mirroring the benchmark driver.
			rng := uint64(0x9e3779b97f4a7c15)
			next := func() uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return rng >> 33
			}
			thresh := uint64(load * 1024)
			tick := func() {
				for v := mesh.NodeID(0); v < 16; v++ {
					if next()%1024 >= thresh {
						continue
					}
					dst := mesh.NodeID(next() % 16)
					if dst == v {
						continue
					}
					p := n.NewPacket(v, dst, flit.VirtualNetwork(next()%3), flit.KindControl)
					n.NI(v).Submit(p, true, n.Now())
				}
				n.Step()
			}

			// Warm-up sizes every pool, free list, and scratch buffer
			// past the in-flight peak the measured window can reach.
			for i := 0; i < 4000; i++ {
				tick()
			}
			if avg := testing.AllocsPerRun(300, tick); avg != 0 {
				t.Fatalf("recycled inject+Step allocates %.3f times per cycle at load %.2f, want 0", avg, load)
			}
		})
	}
}

// TestStepAllocsEnergyAccounting is TestStepAllocsRecycledLoads with
// the per-component energy accountant switched on for the measured
// window: every emission site bumps its router's integer event
// counter, and the whole inject+Step cycle must still allocate
// nothing.
func TestStepAllocsEnergyAccounting(t *testing.T) {
	for _, load := range []float64{0.10, 0.30} {
		load := load
		t.Run(fmt.Sprintf("serial/load=%.2f", load), func(t *testing.T) {
			cfg := testConfig(config.PowerPunchPG)
			cfg.RecyclePackets = true
			n := mustNew(t, cfg)
			n.SetAccounting(true)

			rng := uint64(0x9e3779b97f4a7c15)
			next := func() uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return rng >> 33
			}
			thresh := uint64(load * 1024)
			tick := func() {
				for v := mesh.NodeID(0); v < 16; v++ {
					if next()%1024 >= thresh {
						continue
					}
					dst := mesh.NodeID(next() % 16)
					if dst == v {
						continue
					}
					p := n.NewPacket(v, dst, flit.VirtualNetwork(next()%3), flit.KindControl)
					n.NI(v).Submit(p, true, n.Now())
				}
				n.Step()
			}
			for i := 0; i < 4000; i++ {
				tick()
			}
			if avg := testing.AllocsPerRun(300, tick); avg != 0 {
				t.Fatalf("accounted inject+Step allocates %.3f times per cycle at load %.2f, want 0", avg, load)
			}
			// The report-time component view must also be hot-path
			// clean: it folds the counters into a stack value.
			if avg := testing.AllocsPerRun(100, func() { _ = n.Acct.Components() }); avg != 0 {
				t.Fatalf("Components() allocates %.3f times per call, want 0", avg)
			}
		})
	}
}

// TestStepAllocsLoadedSteadyState pins zero allocations per cycle with
// traffic in flight: after a warm-up burst has sized every scratch
// buffer, free list, and pool, a steady stream of new packets keeps
// moving through the mesh without a single allocation inside Step. The
// packets themselves are created by the driver (outside the network's
// own tick), exactly as in a real run.
func TestStepAllocsLoadedSteadyState(t *testing.T) {
	for _, s := range []config.Scheme{config.NoPG, config.PowerPunchPG, config.FlyOverPG} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			n := mustNew(t, cfg)

			seq := 0
			inject := func() {
				src := mesh.NodeID((seq * 7) % 16)
				dst := mesh.NodeID((seq*5 + 3) % 16)
				if src != dst {
					kind := flit.KindControl
					if seq%2 == 0 {
						kind = flit.KindData
					}
					p := n.NewPacket(src, dst, flit.VirtualNetwork(seq%3), kind)
					n.NI(src).Submit(p, true, n.Now())
				}
				seq++
			}

			// Warm-up: enough traffic to size every reusable structure
			// (flit pool per packet size, NI open-injection free list,
			// scratch buffers, scheduler pending list).
			for i := 0; i < 3000; i++ {
				if i%3 == 0 {
					inject()
				}
				n.Step()
			}

			// Measured phase: same load, all allocations must come from
			// the injector, none from Step. Packets are pre-built outside
			// the measured region to isolate the network's own tick.
			const cycles = 300
			type sub struct {
				p  *flit.Packet
				at int
			}
			var subs []sub
			for i := 0; i < cycles; i++ {
				if i%3 == 0 {
					src := mesh.NodeID((seq * 7) % 16)
					dst := mesh.NodeID((seq*5 + 3) % 16)
					if src != dst {
						kind := flit.KindControl
						if seq%2 == 0 {
							kind = flit.KindData
						}
						subs = append(subs, sub{p: n.NewPacket(src, dst, flit.VirtualNetwork(seq%3), kind), at: i})
					}
					seq++
				}
			}
			si := 0
			i := 0
			step := func() {
				for si < len(subs) && subs[si].at == i {
					n.NI(subs[si].p.Src).Submit(subs[si].p, true, n.Now())
					si++
				}
				n.Step()
				i++
			}
			if avg := testing.AllocsPerRun(cycles, step); avg != 0 {
				t.Fatalf("loaded Step allocates %.3f times per cycle, want 0", avg)
			}
		})
	}
}
