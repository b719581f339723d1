package network

import (
	"math/rand"
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/power"
)

// randomDriver injects uniformly random packets directly (bypassing the
// traffic package to keep this an independent check) and remembers them
// for liveness verification.
type randomDriver struct {
	rng   *rand.Rand
	rate  float64
	pkts  []*flit.Packet
	until int64
}

func (d *randomDriver) Tick(n *Network, now int64) {
	if now >= d.until {
		return
	}
	for id := mesh.NodeID(0); n.M.Contains(id); id++ {
		if d.rng.Float64() >= d.rate {
			continue
		}
		dst := mesh.NodeID(d.rng.Intn(n.M.NumNodes()))
		if dst == id {
			continue
		}
		vn := flit.VirtualNetwork(d.rng.Intn(int(flit.NumVirtualNetworks)))
		kind := flit.KindControl
		if d.rng.Intn(2) == 0 {
			kind = flit.KindData
		}
		p := n.NewPacket(id, dst, vn, kind)
		d.pkts = append(d.pkts, p)
		n.NI(id).Submit(p, d.rng.Intn(2) == 0, now)
	}
}

func (d *randomDriver) Done() bool { return false }

// TestLivenessAndInvariantsUnderRandomTraffic is the heavyweight
// integration check: random mixed traffic under every scheme, with the
// credit-conservation and gating invariants asserted every few cycles,
// and every injected packet eventually delivered.
func TestLivenessAndInvariantsUnderRandomTraffic(t *testing.T) {
	for _, s := range config.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Scheme = s
			cfg.Width, cfg.Height = 4, 4
			cfg.WarmupCycles = 0
			cfg.MeasureCycles = 1 << 40
			n := mustNew(t, cfg)
			d := &randomDriver{rng: rand.New(rand.NewSource(42)), rate: 0.05, until: 2000}
			for cyc := 0; cyc < 2000; cyc++ {
				d.Tick(n, n.Now())
				n.Step()
				if cyc%8 == 0 {
					n.CheckInvariants()
				}
			}
			for cyc := 0; cyc < 5000 && !n.Quiesced(); cyc++ {
				n.Step()
				if cyc%32 == 0 {
					n.CheckInvariants()
				}
			}
			if !n.Quiesced() {
				t.Fatal("network did not quiesce: possible deadlock or lost flit")
			}
			for _, p := range d.pkts {
				if p.EjectedAt == 0 {
					t.Fatalf("packet %v lost (%v scheme)", p, s)
				}
			}
		})
	}
}

// TestSaturationRecovery drives the network well past saturation and
// verifies it recovers: no lost flits, invariants intact, full drain.
func TestSaturationRecovery(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.PowerPunchPG
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	n := mustNew(t, cfg)
	d := &randomDriver{rng: rand.New(rand.NewSource(7)), rate: 0.9, until: 600}
	for cyc := 0; cyc < 600; cyc++ {
		d.Tick(n, n.Now())
		n.Step()
	}
	// NIs hold large backlogs now; let everything drain.
	for cyc := 0; cyc < 200_000 && !n.Quiesced(); cyc++ {
		n.Step()
		if cyc%256 == 0 {
			n.CheckInvariants()
		}
	}
	if !n.Quiesced() {
		t.Fatal("saturated network failed to drain")
	}
	for _, p := range d.pkts {
		if p.EjectedAt == 0 {
			t.Fatalf("lost packet %v after saturation", p)
		}
	}
}

// TestHotspotLiveness aims all traffic at one node — the hardest sink
// pressure — under ConvOpt gating.
func TestHotspotLiveness(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ConvOptPG
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	n := mustNew(t, cfg)
	var pkts []*flit.Packet
	for round := 0; round < 20; round++ {
		for src := mesh.NodeID(0); n.M.Contains(src); src++ {
			if src == 5 {
				continue
			}
			p := n.NewPacket(src, 5, flit.VNResponse, flit.KindData)
			pkts = append(pkts, p)
			n.NI(src).Submit(p, true, n.Now())
		}
		for i := 0; i < 30; i++ {
			n.Step()
		}
	}
	for i := 0; i < 30_000 && !n.Quiesced(); i++ {
		n.Step()
	}
	for _, p := range pkts {
		if p.EjectedAt == 0 {
			t.Fatalf("hotspot packet lost: %v", p)
		}
	}
}

// TestSchemeLatencyOrdering verifies the paper's headline ordering
// statistically on an 8x8 mesh: NoPG <= PunchPG < Signal < ConvOpt.
func TestSchemeLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical ordering test")
	}
	lat := map[config.Scheme]float64{}
	for _, s := range config.Schemes {
		cfg := config.Default()
		cfg.Scheme = s
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 10_000
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(3)), rate: 0.006, until: 1 << 40}
		res := n.Run(d)
		if !res.Drained {
			t.Fatalf("%v did not drain", s)
		}
		lat[s] = res.Summary.AvgLatency
	}
	if !(lat[config.NoPG] <= lat[config.PowerPunchPG] &&
		lat[config.PowerPunchPG] < lat[config.PowerPunchSignal] &&
		lat[config.PowerPunchSignal] < lat[config.ConvOptPG]) {
		t.Errorf("latency ordering violated: %v", lat)
	}
}

// TestFourStagePipelineEndToEnd runs the 4-stage router configuration
// end to end (Figure 13's second group).
func TestFourStagePipelineEndToEnd(t *testing.T) {
	cfg := testConfig(config.PowerPunchPG)
	cfg.RouterStages = 4
	cfg.WakeupLatency = 12
	_, p, _ := deliverOne(t, cfg, 0, 15, flit.KindData)
	if p.EjectedAt == 0 {
		t.Fatal("4-stage delivery failed")
	}
}

func TestTinyAndWideMeshes(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 8}, {8, 2}} {
		cfg := testConfig(config.PowerPunchPG)
		cfg.Width, cfg.Height = dims[0], dims[1]
		if d := (dims[0] - 1) + (dims[1] - 1); cfg.PunchHops > d {
			cfg.PunchHops = d // Validate rejects punches longer than the diameter
		}
		n := mustNew(t, cfg)
		dst := mesh.NodeID(n.M.NumNodes() - 1)
		p := n.NewPacket(0, dst, flit.VNRequest, flit.KindControl)
		n.NI(0).Submit(p, true, 0)
		for i := 0; i < 2000 && p.EjectedAt == 0; i++ {
			n.Step()
			n.CheckInvariants()
		}
		if p.EjectedAt == 0 {
			t.Fatalf("%dx%d: packet undelivered", dims[0], dims[1])
		}
	}
}

// TestPunchKeepsPathAwakeForStream verifies the level semantics: a
// stream of packets along one row keeps the row's routers from gating
// between packets (the punch forewarning filter), while a far-away
// router still gates.
func TestPunchKeepsPathAwakeForStream(t *testing.T) {
	cfg := testConfig(config.PowerPunchPG)
	cfg.Width, cfg.Height = 8, 8
	n := mustNew(t, cfg)
	// Warm-up gate everything.
	for i := 0; i < 60; i++ {
		n.Step()
	}
	blockedTotal := 0
	for round := 0; round < 12; round++ {
		p := n.NewPacket(0, 7, flit.VNRequest, flit.KindControl)
		n.NI(0).Submit(p, true, n.Now())
		for i := 0; i < 12; i++ { // next packet before the row re-gates
			n.Step()
		}
		if round > 2 {
			blockedTotal += p.BlockedRouters
		}
	}
	for i := 0; i < 2000 && !n.Quiesced(); i++ {
		n.Step()
	}
	if blockedTotal > 2 {
		t.Errorf("steady stream still hit %d gated routers; punch filter ineffective", blockedTotal)
	}
	// A router far from the stream must be gated.
	if st := n.Routers[63].Ctrl.State(); st.String() != "gated" {
		t.Errorf("far-away router 63 is %v, want gated", st)
	}
}

// TestNoPGHasZeroOverheadEnergy checks the energy accounting seams: the
// No-PG baseline must show zero gating overhead and zero gated cycles.
func TestNoPGHasZeroOverheadEnergy(t *testing.T) {
	cfg := testConfig(config.NoPG)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 500
	n := mustNew(t, cfg)
	n.SetAccounting(true)
	p := n.NewPacket(0, 15, flit.VNRequest, flit.KindData)
	n.NI(0).Submit(p, true, 0)
	for i := 0; i < 500; i++ {
		n.Step()
	}
	e := n.Acct.Network()
	if e.Overhead != 0 {
		t.Errorf("No-PG overhead energy = %g", e.Overhead)
	}
	if n.Acct.Count(power.EvGatedCycle) != 0 {
		t.Errorf("No-PG gated cycles = %d", n.Acct.Count(power.EvGatedCycle))
	}
	if e.Dynamic == 0 || e.Static == 0 {
		t.Error("missing dynamic/static energy")
	}
}

// TestMeasuredWindowEnergyOnly: energy must accumulate only while
// accounting is enabled.
func TestMeasuredWindowEnergyOnly(t *testing.T) {
	cfg := testConfig(config.NoPG)
	n := mustNew(t, cfg)
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if n.Acct.Network().Total() != 0 {
		t.Error("energy accumulated while disabled")
	}
}

// TestPlainPGIsWorseThanConvOpt quantifies what ConvOpt's timeout and
// early-wakeup optimizations buy over the unoptimized Section 2.2
// handshake.
func TestPlainPGIsWorseThanConvOpt(t *testing.T) {
	lat := map[config.Scheme]float64{}
	for _, s := range []config.Scheme{config.ConvOptPG, config.PlainPG} {
		cfg := config.Default()
		cfg.Scheme = s
		cfg.Width, cfg.Height = 8, 8
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 6000
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(5)), rate: 0.004, until: 1 << 40}
		res := n.Run(d)
		if !res.Drained {
			t.Fatalf("%v did not drain", s)
		}
		lat[s] = res.Summary.AvgLatency
	}
	if lat[config.PlainPG] <= lat[config.ConvOptPG] {
		t.Errorf("Plain-PG (%.2f) should be slower than ConvOpt-PG (%.2f)",
			lat[config.PlainPG], lat[config.ConvOptPG])
	}
}

// TestFourHopPunchCoversLongWakeup reproduces the paper's remark that
// the Twakeup=10, 3-stage penalty "becomes negligible when a 4-hop
// punch signal is used": 4 hops of slack hide 12 cycles.
func TestFourHopPunchCoversLongWakeup(t *testing.T) {
	waits := map[int]float64{}
	for _, hops := range []int{3, 4} {
		cfg := testConfig(config.PowerPunchPG)
		cfg.Width, cfg.Height = 8, 8
		cfg.WakeupLatency = 10
		cfg.PunchHops = hops
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 6000
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(9)), rate: 0.004, until: 1 << 40}
		res := n.Run(d)
		if !res.Drained {
			t.Fatalf("hops=%d did not drain", hops)
		}
		waits[hops] = res.Summary.AvgWakeWait
	}
	if waits[4] >= waits[3] {
		t.Errorf("4-hop punch (wait %.2f) should beat 3-hop (%.2f) at Twakeup=10",
			waits[4], waits[3])
	}
}

// TestStrictEncodingEndToEnd runs the hardware-exact punch arbitration
// (one new signal per emitter per channel per cycle) end to end and
// verifies liveness and near-identical blocking to the idealized merge.
func TestStrictEncodingEndToEnd(t *testing.T) {
	res := map[bool]float64{}
	for _, strict := range []bool{false, true} {
		cfg := testConfig(config.PowerPunchPG)
		cfg.Width, cfg.Height = 8, 8
		cfg.PunchStrict = strict
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 6000
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(11)), rate: 0.01, until: 1 << 40}
		r := n.Run(d)
		if !r.Drained {
			t.Fatalf("strict=%v did not drain", strict)
		}
		res[strict] = r.Summary.AvgLatency
	}
	// Strict arbitration may cost a little, but must stay within 10% of
	// the idealized merge (the paper's contention-free claim).
	if res[true] > res[false]*1.10 {
		t.Errorf("strict encoding latency %.2f far above idealized %.2f", res[true], res[false])
	}
}

// TestWakeupLatencySweepMonotonic: longer Twakeup can only hurt (or not
// help) ConvOpt's latency.
func TestWakeupLatencySweepMonotonic(t *testing.T) {
	var prev float64
	for i, tw := range []int{4, 8, 16} {
		cfg := testConfig(config.ConvOptPG)
		cfg.Width, cfg.Height = 8, 8
		cfg.WakeupLatency = tw
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 6000
		n := mustNew(t, cfg)
		d := &randomDriver{rng: rand.New(rand.NewSource(13)), rate: 0.004, until: 1 << 40}
		r := n.Run(d)
		if i > 0 && r.Summary.AvgLatency < prev {
			t.Errorf("Twakeup=%d latency %.2f below Twakeup of previous step (%.2f)",
				tw, r.Summary.AvgLatency, prev)
		}
		prev = r.Summary.AvgLatency
	}
}

// patternDriver injects Bernoulli traffic under a destination pattern,
// bypassing the traffic package so this stays an independent check. Two
// drivers built with the same seed submit an identical event sequence,
// which is what makes the metamorphic scheme comparisons below valid:
// every run sees the same offered traffic, only the power-gating policy
// differs.
type patternDriver struct {
	rng   *rand.Rand
	rate  float64
	dst   func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID
	until int64
}

func (d *patternDriver) Tick(n *Network, now int64) {
	if now >= d.until {
		return
	}
	for id := mesh.NodeID(0); n.M.Contains(id); id++ {
		if d.rng.Float64() >= d.rate {
			continue
		}
		dst := d.dst(n, id, d.rng)
		if dst == id {
			continue
		}
		kind, vn := flit.KindControl, flit.VNRequest
		if d.rng.Intn(2) == 0 {
			kind, vn = flit.KindData, flit.VNResponse
		}
		p := n.NewPacket(id, dst, vn, kind)
		n.NI(id).Submit(p, true, now)
	}
}

func (d *patternDriver) Done() bool { return false }

// metamorphicPatterns are the destination generators for the scheme
// comparison: uniform random, matrix transpose, and a 50% hotspot. Each
// carries its own low-load rate — the hotspot concentrates half the
// traffic on one ejection port, so it must offer less per node to stay
// out of the saturated regime where queueing delay swamps the
// power-gating penalty the relations are about.
func metamorphicPatterns() map[string]struct {
	rate float64
	dst  func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID
} {
	return map[string]struct {
		rate float64
		dst  func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID
	}{
		"uniform": {0.01, func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID {
			return mesh.NodeID(r.Intn(n.M.NumNodes()))
		}},
		"transpose": {0.01, func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID {
			c := n.M.CoordOf(src)
			return n.M.NodeAt(mesh.Coord{X: c.Y, Y: c.X})
		}},
		"hotspot": {0.002, func(n *Network, src mesh.NodeID, r *rand.Rand) mesh.NodeID {
			if r.Float64() < 0.5 {
				return mesh.NodeID(n.M.NumNodes() - 1)
			}
			return mesh.NodeID(r.Intn(n.M.NumNodes()))
		}},
	}
}

// TestMetamorphicSchemeRelations pins the paper's central claims as
// metamorphic relations over identical traffic (same seed, same
// pattern, different scheme), with the invariant engine live:
//
//  1. PowerPunch-PG at low load stays close to the No-PG baseline —
//     "power gating with no performance penalty" (Abstract, Section 6).
//     The paper reports +0.1%-0.6% latency on PARSEC; this simulator's
//     conventional-router model measures +5-10% at these synthetic
//     loads, so the bound is x1.15 rather than the paper's headline
//     (EXPERIMENTS.md tracks the absolute gap).
//  2. ConvOpt-PG is strictly and substantially worse than
//     PowerPunch-PG (the paper's ~1.5x-2x penalty, Figure 12): bound
//     ConvOpt > PunchPG x1.2.
func TestMetamorphicSchemeRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical scheme comparison")
	}
	for name, pat := range metamorphicPatterns() {
		name, pat := name, pat
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lat := map[config.Scheme]float64{}
			for _, s := range []config.Scheme{config.NoPG, config.PowerPunchPG, config.ConvOptPG} {
				cfg := config.Default()
				cfg.Scheme = s
				cfg.WarmupCycles = 1000
				cfg.MeasureCycles = 8000
				cfg.Checks = true
				n := mustNew(t, cfg)
				n.OnViolation = func(a *check.Artifact) {
					t.Errorf("%s/%v: %v", name, s, &a.Violation)
				}
				d := &patternDriver{rng: rand.New(rand.NewSource(17)), rate: pat.rate, dst: pat.dst, until: 1 << 40}
				res := n.Run(d)
				if !res.Drained {
					t.Fatalf("%v did not drain", s)
				}
				lat[s] = res.Summary.AvgLatency
			}
			noPG, punch, conv := lat[config.NoPG], lat[config.PowerPunchPG], lat[config.ConvOptPG]
			t.Logf("%s: NoPG=%.2f PunchPG=%.2f (%+.1f%%) ConvOpt=%.2f (%+.1f%%)",
				name, noPG, punch, (punch/noPG-1)*100, conv, (conv/noPG-1)*100)
			if punch > noPG*1.15 {
				t.Errorf("PowerPunch-PG latency %.2f exceeds No-PG %.2f by more than 15%%", punch, noPG)
			}
			if punch < noPG {
				t.Errorf("PowerPunch-PG latency %.2f below No-PG %.2f: gating cannot speed the network up", punch, noPG)
			}
			if conv <= punch*1.2 {
				t.Errorf("ConvOpt-PG latency %.2f not substantially worse than PowerPunch-PG %.2f", conv, punch)
			}
		})
	}
}

// TestStrictPunchSetsAlwaysEncodable is the runtime proof tying the
// behavioural fabric to the Table-1 hardware: under strict arbitration,
// every merged target set ever carried on any channel must be in that
// channel's code book.
func TestStrictPunchSetsAlwaysEncodable(t *testing.T) {
	cfg := testConfig(config.PowerPunchPG)
	cfg.Width, cfg.Height = 8, 8
	cfg.PunchStrict = true
	n := mustNew(t, cfg)
	n.Fabric.SetVerifyEncodable(true) // panics on violation
	d := &randomDriver{rng: rand.New(rand.NewSource(23)), rate: 0.03, until: 4000}
	for cyc := 0; cyc < 4000; cyc++ {
		d.Tick(n, n.Now())
		n.Step()
	}
	for cyc := 0; cyc < 5000 && !n.Quiesced(); cyc++ {
		n.Step()
	}
	if !n.Quiesced() {
		t.Fatal("did not quiesce")
	}
}
