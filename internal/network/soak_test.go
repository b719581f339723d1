package network

import (
	"math/rand"
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
)

// TestSoakLongRun exercises 60k cycles of mixed traffic on an 8x8 mesh
// under PowerPunch-PG with periodic invariant checks — the long-run
// stability test. Skipped under -short.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := config.Default()
	cfg.Scheme = config.PowerPunchPG
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	n := mustNew(t, cfg)
	d := &randomDriver{rng: rand.New(rand.NewSource(99)), rate: 0.012, until: 60_000}
	for cyc := 0; cyc < 60_000; cyc++ {
		d.Tick(n, n.Now())
		n.Step()
		if cyc%512 == 0 {
			n.CheckInvariants()
		}
	}
	for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
		n.Step()
	}
	if !n.Quiesced() {
		t.Fatal("soak run did not quiesce")
	}
	n.CheckInvariants()
	for _, p := range d.pkts {
		if p.EjectedAt == 0 {
			t.Fatalf("soak lost packet %v", p)
		}
	}
}

// TestSoakWithChecks is the tier-2 gate variant (Makefile `check`,
// `go test -short -run Soak`): every scheme on every fabric — 8x8 mesh,
// 4x4 torus, 8-node ring — with the full invariant engine sweeping
// every cycle (including the dateline-legality invariant on the wrapped
// fabrics), sized to stay fast enough for -short. The long randomized
// run above stresses duration; this one stresses invariant coverage
// under concurrent schemes and topologies.
func TestSoakWithChecks(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 8, 8},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	for _, fab := range fabrics {
		for _, s := range config.AllSchemes {
			fab, s := fab, s
			t.Run(fab.topo+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.Scheme = s
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				cfg.Checks = true
				cfg.CheckInterval = 1
				n := mustNew(t, cfg)
				violated := false
				n.OnViolation = func(a *check.Artifact) {
					violated = true
					t.Errorf("%v/%v: %v", fab.topo, s, &a.Violation)
				}
				d := &randomDriver{rng: rand.New(rand.NewSource(99)), rate: 0.012, until: 6_000}
				for cyc := 0; cyc < 6_000 && !violated; cyc++ {
					d.Tick(n, n.Now())
					n.Step()
				}
				for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
					n.Step()
				}
				if !n.Quiesced() {
					t.Fatal("checked soak did not quiesce")
				}
				for _, p := range d.pkts {
					if p.EjectedAt == 0 {
						t.Fatalf("checked soak lost packet %v", p)
					}
				}
			})
		}
	}
}

// TestSoakParallel runs every scheme on every fabric as concurrent
// subtests in one process — the way experiments sweeps run their points
// side by side — with the invariant engine sweeping every cycle, then
// large-fabric legs and a recycled high-load leg. Its job is liveness
// under concurrency: every run must quiesce and deliver every packet,
// and under -race (make race) the concurrent Networks must share no
// mutable state, package-level pools and tables included.
func TestSoakParallel(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 8, 8},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	for _, fab := range fabrics {
		for _, s := range config.AllSchemes {
			fab, s := fab, s
			t.Run(fab.topo+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.Scheme = s
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				cfg.Checks = true
				cfg.CheckInterval = 1
				n := mustNew(t, cfg)
				violated := false
				n.OnViolation = func(a *check.Artifact) {
					violated = true
					t.Errorf("%v/%v: %v", fab.topo, s, &a.Violation)
				}
				d := &randomDriver{rng: rand.New(rand.NewSource(99)), rate: 0.012, until: 4_000}
				for cyc := 0; cyc < 4_000 && !violated; cyc++ {
					d.Tick(n, n.Now())
					n.Step()
				}
				for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
					n.Step()
				}
				if !n.Quiesced() {
					t.Fatal("concurrent checked soak did not quiesce")
				}
				for _, p := range d.pkts {
					if p.EjectedAt == 0 {
						t.Fatalf("concurrent soak lost packet %v", p)
					}
				}
			})
		}
	}

	// Large-fabric legs, bounded in cycles so the -race pass stays
	// tractable: a sparse active set on a big fabric, where most routers
	// sleep and wake-ups cross long distances.
	t.Run("32x32-checked", func(t *testing.T) {
		t.Parallel()
		cfg := config.Default()
		cfg.Scheme = config.PowerPunchPG
		cfg.Width, cfg.Height = 32, 32
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		cfg.Checks = true
		cfg.CheckInterval = 1
		n := mustNew(t, cfg)
		violated := false
		n.OnViolation = func(a *check.Artifact) {
			violated = true
			t.Errorf("32x32: %v", &a.Violation)
		}
		d := &randomDriver{rng: rand.New(rand.NewSource(99)), rate: 0.004, until: 500}
		for cyc := 0; cyc < 500 && !violated; cyc++ {
			d.Tick(n, n.Now())
			n.Step()
		}
		for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
			n.Step()
		}
		if !n.Quiesced() {
			t.Fatal("32x32 checked soak did not quiesce")
		}
		for _, p := range d.pkts {
			if p.EjectedAt == 0 {
				t.Fatalf("32x32 soak lost packet %v", p)
			}
		}
	})
	t.Run("64x64-flyover", func(t *testing.T) {
		t.Parallel()
		cfg := config.Default()
		cfg.Scheme = config.FlyOverPG
		cfg.Width, cfg.Height = 64, 64
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(17)), rate: 0.002, until: 250}
		for cyc := 0; cyc < 250; cyc++ {
			d.Tick(n, n.Now())
			n.Step()
		}
		for cyc := 0; cyc < 30_000 && !n.Quiesced(); cyc++ {
			n.Step()
		}
		if !n.Quiesced() {
			t.Fatal("64x64 FlyOver soak did not quiesce")
		}
		n.CheckInvariants()
		for _, p := range d.pkts {
			if p.EjectedAt == 0 {
				t.Fatalf("64x64 FlyOver soak lost packet %v", p)
			}
		}
	})

	// Recycled high-load leg: packet recycling on, so the packet and
	// flit pools churn for thousands of cycles while the other legs run.
	// The driver retains no packet pointers — recycled packets are
	// reused the moment they eject.
	t.Run("recycled-highload", func(t *testing.T) {
		t.Parallel()
		cfg := config.Default()
		cfg.Scheme = config.PowerPunchPG
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		cfg.RecyclePackets = true
		n := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(7))
		injected := int64(0)
		for cyc := 0; cyc < 12_000; cyc++ {
			for id := mesh.NodeID(0); n.M.Contains(id); id++ {
				if rng.Float64() >= 0.05 {
					continue
				}
				dst := mesh.NodeID(rng.Intn(n.M.NumNodes()))
				if dst == id {
					continue
				}
				p := n.NewPacket(id, dst, flit.VirtualNetwork(rng.Intn(int(flit.NumVirtualNetworks))), flit.KindData)
				n.NI(id).Submit(p, true, n.Now())
				injected++
			}
			n.Step()
			if cyc%512 == 0 {
				n.CheckInvariants()
			}
		}
		for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
			n.Step()
		}
		if !n.Quiesced() {
			t.Fatal("recycled soak did not quiesce")
		}
		n.CheckInvariants()
		ejected := int64(0)
		for id := mesh.NodeID(0); n.M.Contains(id); id++ {
			ejected += n.NI(id).Ejected
		}
		if ejected != injected {
			t.Fatalf("ejected %d of %d injected packets", ejected, injected)
		}
	})
}

// TestSoakParallelEnergy is the energy-enabled leg of the concurrent
// soak (its name matches TestSoakParallel's regex): every scheme on
// mesh and torus as concurrent subtests, with per-component accounting
// charging every cycle and a timeline sampler differencing the
// accountant at window boundaries. Under -race it shows that the
// per-router event counters and the sampler of one Network are touched
// by no other. At the end the sampler must have produced live power
// columns.
func TestSoakParallelEnergy(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 8, 8},
		{"torus", 4, 4},
	}
	for _, fab := range fabrics {
		for _, s := range config.AllSchemes {
			fab, s := fab, s
			t.Run(fab.topo+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.Scheme = s
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				n := mustNew(t, cfg)
				sampler := obs.NewSampler(256)
				n.Observe(sampler)
				n.SetAccounting(true)
				d := &randomDriver{rng: rand.New(rand.NewSource(31)), rate: 0.012, until: 4_000}
				for cyc := 0; cyc < 4_000; cyc++ {
					d.Tick(n, n.Now())
					n.Step()
				}
				for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
					n.Step()
				}
				if !n.Quiesced() {
					t.Fatal("energy soak did not quiesce")
				}

				livePower := false
				for _, sm := range sampler.Samples() {
					for _, w := range sm.PowerW {
						if w > 0 {
							livePower = true
						}
					}
				}
				if !livePower {
					t.Error("sampler recorded no nonzero power columns")
				}
			})
		}
	}
}
