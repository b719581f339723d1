package router_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
	"powerpunch/internal/topo"
	"powerpunch/internal/traffic"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Scheme = config.NoPG
	return cfg
}

// meshRF returns XY routing over cfg's mesh.
func meshRF(t testing.TB, cfg *config.Config) *topo.RoutingFunction {
	t.Helper()
	rf, err := topo.Build("mesh", cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

func newRouter(t *testing.T, id mesh.NodeID, cfg *config.Config) *router.Router {
	t.Helper()
	return router.New(id, meshRF(t, cfg), cfg, pg.New(false, 2, 1, 0), nil)
}

func mkPacket(id uint64, src, dst mesh.NodeID, size int) *flit.Packet {
	return &flit.Packet{ID: id, Src: src, Dst: dst, VN: flit.VNRequest, Kind: kindFor(size), Size: size}
}

func kindFor(size int) flit.Kind {
	if size > 1 {
		return flit.KindData
	}
	return flit.KindControl
}

// stepUntil steps the router until pred or the cycle budget runs out,
// returning the cycle pred first held.
func stepUntil(r *router.Router, from int64, budget int, pred func() bool) int64 {
	for now := from; now < from+int64(budget); now++ {
		r.Step(now)
		if pred() {
			return now
		}
	}
	return -1
}

func TestHeadFlitTraversesInTrouterCycles(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg) // interior router of the 4x4 mesh
	p := mkPacket(1, 4, 7, 1)  // heading east through 5
	f := flit.NewFlits(p)[0]
	r.ReceiveFlit(mesh.West, 0, f, 10)

	out := r.Out(mesh.East)
	departed := stepUntil(r, 10, 20, func() bool { return !out.FlitOut.Empty() })
	if departed != 13 {
		t.Fatalf("head departed at cycle %d, want 13 (arrival 10 + Trouter 3)", departed)
	}
}

func TestFourStageRouterIsOneCycleSlower(t *testing.T) {
	cfg := testCfg()
	cfg.RouterStages = 4
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 10)
	out := r.Out(mesh.East)
	departed := stepUntil(r, 10, 20, func() bool { return !out.FlitOut.Empty() })
	if departed != 14 {
		t.Fatalf("4-stage head departed at %d, want 14", departed)
	}
}

func TestRouteComputation(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	cases := []struct {
		dst  mesh.NodeID
		want mesh.Direction
	}{
		{6, mesh.East}, {4, mesh.West}, {1, mesh.North}, {9, mesh.South},
		{10, mesh.East}, // X first
		{5, mesh.Local},
	}
	for i, c := range cases {
		p := mkPacket(uint64(i), 0, c.dst, 1)
		r.ReceiveFlit(mesh.Local, i%r.NumVCs(), flit.NewFlits(p)[0], 0)
	}
	r.Step(1) // routes computed in VA phase
	var want [mesh.NumPorts]bool
	r.WantsOutput(&want)
	for _, c := range cases {
		if !want[c.want] {
			t.Errorf("output %v not wanted (dst %d)", c.want, c.dst)
		}
	}
}

func TestCreditsBlockWhenExhausted(t *testing.T) {
	// A 5-flit data packet through a 3-deep downstream VC: without
	// credit returns only 3 flits may leave; returning credits releases
	// the rest.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	out := r.Out(mesh.East)

	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	next := 0
	var allocatedVC = -1
	for now := int64(0); now < 30; now++ {
		if next < len(fs) && r.CanAcceptFlit(mesh.West, 0) {
			r.ReceiveFlit(mesh.West, 0, fs[next], now)
			next++
		}
		r.Step(now)
		out.FlitOut.Drain(now+100, func(ft router.FlitInTransit) { allocatedVC = ft.VC })
	}
	// 3 drained, credits for the downstream VC now 0; flits 3,4 stuck.
	if got := r.BufferedFlits(); got != 2 {
		t.Fatalf("buffered = %d, want 2 stuck flits (credits exhausted)", got)
	}
	if out.Credits(allocatedVC) != 0 {
		t.Fatalf("credits = %d, want 0", out.Credits(allocatedVC))
	}
	// Returning credits unblocks the tail of the packet.
	r.ReceiveCredit(mesh.East, allocatedVC)
	r.ReceiveCredit(mesh.East, allocatedVC)
	forwarded := 0
	for now := int64(30); now < 40; now++ {
		r.Step(now)
		out.FlitOut.Drain(now+100, func(router.FlitInTransit) { forwarded++ })
	}
	if forwarded != 2 || r.BufferedFlits() != 0 {
		t.Fatalf("after credit return: forwarded %d, buffered %d", forwarded, r.BufferedFlits())
	}
}

func TestWormholeKeepsPacketContiguousPerVC(t *testing.T) {
	// A 5-flit data packet must depart in order, one flit per cycle once
	// flowing.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	out := r.Out(mesh.East)
	var seqs []int
	next := 0
	for now := int64(0); now < 30; now++ {
		if next < len(fs) && r.CanAcceptFlit(mesh.West, 0) {
			r.ReceiveFlit(mesh.West, 0, fs[next], now)
			next++
		}
		r.Step(now)
		// Return credits promptly so the whole packet can flow.
		out.FlitOut.Drain(now+100, func(ft router.FlitInTransit) {
			seqs = append(seqs, ft.Flit.Seq)
			r.ReceiveCredit(mesh.East, ft.VC)
		})
	}
	if len(seqs) != 5 {
		t.Fatalf("forwarded %d flits, want 5", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("out-of-order flits: %v", seqs)
		}
	}
}

func TestBlockedOutputAccruesPaperStats(t *testing.T) {
	cfg := testCfg()
	cfg.Scheme = config.ConvOptPG
	r := newRouter(t, 5, &cfg)
	r.Out(mesh.East).Blocked = true

	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 10; now++ {
		r.Step(now)
	}
	if p.BlockedRouters != 1 {
		t.Errorf("BlockedRouters = %d, want 1 (counted once per router)", p.BlockedRouters)
	}
	// Eligible from cycle 3 (arrival 0 + Trouter 3): waits cycles 3..9.
	if p.WakeupWait != 7 {
		t.Errorf("WakeupWait = %d, want 7", p.WakeupWait)
	}
	if r.PGStallCycles != 7 {
		t.Errorf("PGStallCycles = %d, want 7", r.PGStallCycles)
	}

	// Unblocking lets the packet proceed; the counters stop.
	r.Out(mesh.East).Blocked = false
	for now := int64(10); now < 15; now++ {
		r.Step(now)
	}
	if r.Out(mesh.East).FlitOut.Empty() {
		t.Error("packet did not proceed after unblock")
	}
	if p.BlockedRouters != 1 {
		t.Errorf("BlockedRouters grew after unblock: %d", p.BlockedRouters)
	}
}

func TestGatedRouterDoesNothing(t *testing.T) {
	cfg := testCfg()
	cfg.Scheme = config.ConvOptPG
	ctrl := pg.New(true, 2, 8, 10)
	r := router.New(5, meshRF(t, &cfg), &cfg, ctrl, nil)
	// Gate the controller.
	for i := 0; i < 5; i++ {
		ctrl.Step(pg.Inputs{Empty: true})
	}
	if ctrl.IsOn() {
		t.Fatal("setup: controller should be gated")
	}
	// Step must be a no-op (and must not panic) while gated.
	r.Step(100)
	if !r.Empty() {
		t.Error("gated router mutated state")
	}
}

func TestVCAllocationRespectsVirtualNetworks(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	// A VN0 packet must never be allocated a VN1/VN2 downstream VC.
	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 6; now++ {
		r.Step(now)
	}
	var got router.FlitInTransit
	found := false
	r.Out(mesh.East).FlitOut.Drain(100, func(ft router.FlitInTransit) { got, found = ft, true })
	if !found {
		t.Fatal("packet not forwarded")
	}
	perVN := cfg.VCsPerVN()
	if got.VC < 0 || got.VC >= perVN {
		t.Errorf("VN0 packet allocated downstream VC %d outside [0,%d)", got.VC, perVN)
	}
}

func TestControlPacketPrefersControlVC(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 1) // control packet
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 6; now++ {
		r.Step(now)
	}
	var vc int
	r.Out(mesh.East).FlitOut.Drain(100, func(ft router.FlitInTransit) { vc = ft.VC })
	if vc != cfg.DataVCs { // control VC follows the data VCs
		t.Errorf("control packet on VC %d, want control VC %d", vc, cfg.DataVCs)
	}
}

func TestDataPacketUsesDataVC(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	for i, f := range fs[:3] {
		r.ReceiveFlit(mesh.West, 0, f, int64(i))
	}
	for now := int64(0); now < 8; now++ {
		r.Step(now)
	}
	seen := false
	r.Out(mesh.East).FlitOut.Drain(100, func(ft router.FlitInTransit) {
		seen = true
		if !defaultIsData(&cfg, ft.VC) {
			t.Errorf("data packet on non-data VC %d", ft.VC)
		}
	})
	if !seen {
		t.Fatal("no flits forwarded")
	}
}

func defaultIsData(cfg *config.Config, vcIdx int) bool {
	return cfg.IsDataVC(vcIdx % cfg.VCsPerVN())
}

func TestReceiveFlitPanicsOnOverflow(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	for i := 0; i < 3; i++ { // data VC depth is 3
		r.ReceiveFlit(mesh.West, 0, fs[i], int64(i))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	r.ReceiveFlit(mesh.West, 0, fs[3], 3)
}

func TestEjectionPortHasUnboundedCredits(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	// Many packets to the local port must never stall on credits.
	var pending []*flit.Flit
	for i := 0; i < 8; i++ {
		p := mkPacket(uint64(i), 4, 5, 1)
		pending = append(pending, flit.NewFlits(p)[0])
	}
	count := 0
	for now := int64(0); now < 60; now++ {
		vc := int(now) % cfg.VCsPerVN()
		if len(pending) > 0 && r.CanAcceptFlit(mesh.West, vc) {
			r.ReceiveFlit(mesh.West, vc, pending[0], now)
			pending = pending[1:]
		}
		r.Step(now)
		r.Out(mesh.Local).FlitOut.Drain(now+100, func(router.FlitInTransit) { count++ })
	}
	if count != 8 {
		t.Errorf("ejected %d flits, want 8", count)
	}
}

func TestCanAcceptFlit(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	if !r.CanAcceptFlit(mesh.Local, 0) {
		t.Error("fresh router must accept")
	}
	p := mkPacket(1, 5, 7, 5)
	fs := flit.NewFlits(p)
	for i := 0; i < 3; i++ {
		r.ReceiveFlit(mesh.Local, 0, fs[i], int64(i))
	}
	if r.CanAcceptFlit(mesh.Local, 0) {
		t.Error("full VC must refuse")
	}
	if r.BufferedFlits() != 3 {
		t.Errorf("BufferedFlits = %d", r.BufferedFlits())
	}
}

func TestResidentHeadsEnumeratesAllHeadFlits(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p1 := mkPacket(1, 4, 7, 1)
	p2 := mkPacket(2, 4, 11, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p1)[0], 0)
	r.ReceiveFlit(mesh.West, 1, flit.NewFlits(p2)[0], 0)
	var got []uint64
	r.ResidentHeads(func(p *flit.Packet) { got = append(got, p.ID) })
	if len(got) != 2 {
		t.Fatalf("ResidentHeads found %d packets, want 2", len(got))
	}
	// Two queued packets in ONE VC both expose their heads.
	r2 := newRouter(t, 5, &cfg)
	q1 := mkPacket(3, 4, 7, 1)
	q2 := mkPacket(4, 4, 11, 1)
	r2.ReceiveFlit(mesh.West, 2, flit.NewFlits(q1)[0], 0)
	// control VC depth is 1, use a data VC for queueing two heads
	r2.ReceiveFlit(mesh.West, 0, flit.NewFlits(q2)[0], 0)
	n := 0
	r2.ResidentHeads(func(*flit.Packet) { n++ })
	if n != 2 {
		t.Errorf("queued heads: %d, want 2", n)
	}
}

func TestSwitchAllocationIsRoundRobinFair(t *testing.T) {
	// Two input VCs stream single-flit packets toward the same output;
	// over many cycles each must win about half the grants.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	out := r.Out(mesh.East)
	wins := map[int]int{}
	var nextID uint64
	for now := int64(0); now < 400; now++ {
		for _, vc := range []int{0, 1} {
			if r.CanAcceptFlit(mesh.West, vc) {
				nextID++
				p := mkPacket(nextID, 4, 7, 1)
				r.ReceiveFlit(mesh.West, vc, flit.NewFlits(p)[0], now)
			}
		}
		r.Step(now)
		out.FlitOut.Drain(now+100, func(ft router.FlitInTransit) {
			wins[ft.VC%cfg.VCsPerVN()]++ // downstream VC tracks input class
			r.ReceiveCredit(mesh.East, ft.VC)
		})
	}
	total := 0
	for _, w := range wins {
		total += w
	}
	if total < 100 {
		t.Fatalf("too few grants: %d", total)
	}
	// No starvation: every contending class forwarded something and no
	// class took more than 80% of the link.
	for vc, w := range wins {
		frac := float64(w) / float64(total)
		if frac > 0.8 {
			t.Errorf("VC class %d monopolized the output (%.0f%%)", vc, frac*100)
		}
	}
}

// TestBitsetsMatchProbe is the brute-force oracle for the router's
// VC-key bitsets. It drives random traffic, alternating between heavy
// and light load so routers saturate, gate, wake and (under FlyOver-PG)
// get flown over, through an 8x8 mesh and a 4x4 torus under No-PG,
// PowerPunch-PG and FlyOver-PG. After every cycle it checks every router:
//   - occ and routedTo equal a full (port, VC) probe of the VC state,
//     and vaSet names exactly the VCs that own their routed output's
//     downstream VC;
//   - every stage walk visits what the probe it replaced would accept,
//     in the same order: the circular (swRR[p]+k)%total probe for switch
//     and bypass arbitration, the ascending nested (port, VC) probe for
//     the PG-stall and VA walks;
//   - EmitPunches, which reads the head destinations the VCs keep beside
//     their flits, names the destinations of exactly the packets
//     ResidentHeads finds by reading the flits, in the same order.
func TestBitsetsMatchProbe(t *testing.T) {
	fabrics := []struct {
		topo string
		w, h int
	}{{"mesh", 8, 8}, {"torus", 4, 4}}
	schemes := []config.Scheme{config.NoPG, config.PowerPunchPG, config.FlyOverPG}
	cycles := int64(2400)
	if testing.Short() {
		cycles = 600
	}
	for _, fab := range fabrics {
		for _, s := range schemes {
			fab, s := fab, s
			t.Run(fmt.Sprintf("%s/%s", fab.topo, s), func(t *testing.T) {
				cfg := config.Default()
				cfg.Topology, cfg.Width, cfg.Height = fab.topo, fab.w, fab.h
				cfg.Scheme = s
				n, err := network.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pat, err := traffic.ByName("uniform")
				if err != nil {
					t.Fatal(err)
				}
				drv := traffic.NewSynthetic(pat, 0, 7)
				var pr prober
				for now := int64(0); now < cycles; now++ {
					// 300 busy cycles, then 300 nearly idle ones.
					drv.Rate = 0.35
					if now/300%2 == 1 {
						drv.Rate = 0.01
					}
					drv.Tick(n, now)
					n.Step()
					for _, r := range n.Routers {
						if err := pr.check(r, now); err != nil {
							t.Fatalf("cycle %d: router %d: %v", now, r.ID, err)
						}
					}
				}
				// The walks under test must all have had work to do.
				var gatings, stalls, bypassed int64
				for _, r := range n.Routers {
					gatings += r.Ctrl.Stats().GatingEvents
					stalls += r.PGStallCycles
					bypassed += r.FlitsBypassed
				}
				t.Logf("gating events %d, PG stall cycles %d, bypassed flits %d", gatings, stalls, bypassed)
				if s != config.NoPG && (gatings == 0 || stalls == 0) {
					t.Errorf("no gating (%d events) or no PG stalls (%d cycles)", gatings, stalls)
				}
				if s == config.FlyOverPG && bypassed == 0 {
					t.Error("no flit was bypassed")
				}
			})
		}
	}
}

// prober compares a router's bitsets and stage walks against a full
// (port, VC) probe of its VC state, reusing its buffers across calls.
type prober struct {
	views     []router.VCView
	got, want []int
	m         []uint64
	heads     []mesh.NodeID
	punches   punchRecorder
}

// punchRecorder is a router.PunchEmitter that lists the destinations
// it is asked to punch toward.
type punchRecorder []mesh.NodeID

func (pr *punchRecorder) EmitSource(_, dst mesh.NodeID) { *pr = append(*pr, dst) }

func (pr *prober) check(r *router.Router, now int64) error {
	occ, routedTo, vaSet := router.Bitsets(r)
	pr.views = pr.views[:0]
	r.ForEachVC(now, func(v router.VCView) { pr.views = append(pr.views, v) })
	views, total := pr.views, len(pr.views)
	has := func(s []uint64, k int) bool { return s[k>>6]>>(k&63)&1 == 1 }
	for k, v := range views {
		if v.Key != k {
			return fmt.Errorf("VC (%v, %d) has key %d, want %d", v.Port, v.Index, v.Key, k)
		}
		if has(occ, k) != (v.Occupancy > 0) {
			return fmt.Errorf("key %d: occ bit %v, occupancy %d", k, has(occ, k), v.Occupancy)
		}
		for p := range routedTo {
			if want := v.Routed && int(v.OutDir) == p; has(routedTo[p], k) != want {
				return fmt.Errorf("key %d: routedTo[%v] bit %v, routed %v toward %v", k, mesh.Direction(p), !want, v.Routed, v.OutDir)
			}
		}
		// vaSet is the only record of a downstream VC, so check it
		// against the output port's owner table.
		if holds := v.Routed && r.Out(v.OutDir).Owner(v.OutVC) == k; has(vaSet, k) != holds || v.VADone != holds {
			return fmt.Errorf("key %d: vaSet bit %v, VADone %v, owns %v VC %d: %v", k, has(vaSet, k), v.VADone, v.OutDir, v.OutVC, holds)
		}
	}

	// mask ANDs the bitsets the way the stages do; walk lists a mask's
	// keys in a stage's order (round-robin from start, or ascending when
	// start is -1).
	mask := func(sets ...[]uint64) []uint64 {
		m := append(pr.m[:0], sets[0]...)
		for _, s := range sets[1:] {
			for i := range m {
				m[i] &= s[i]
			}
		}
		pr.m = m
		return m
	}
	walk := func(m []uint64, start int) []int {
		keys := pr.got[:0]
		defer func() { pr.got = keys }()
		if start == -1 {
			for k := router.NextSet(m, 0); k != -1; k = router.NextSet(m, k+1) {
				keys = append(keys, k)
			}
			return keys
		}
		for k := router.RRNext(m, start, -1); k != -1; k = router.RRNext(m, start, k) {
			keys = append(keys, k)
		}
		return keys
	}
	probe := func(start int, accept func(router.VCView) bool) []int {
		keys := pr.want[:0]
		defer func() { pr.want = keys }()
		for k := 0; k < total; k++ {
			key := k
			if start != -1 {
				key = (start + k) % total
			}
			if accept(views[key]) {
				keys = append(keys, key)
			}
		}
		return keys
	}
	pr.heads = pr.heads[:0]
	r.ResidentHeads(func(p *flit.Packet) { pr.heads = append(pr.heads, p.Dst) })
	pr.punches = pr.punches[:0]
	r.EmitPunches(&pr.punches)
	if !slices.Equal(pr.punches, pr.heads) {
		return fmt.Errorf("EmitPunches toward %v, resident heads bound for %v", pr.punches, pr.heads)
	}

	notVA := append(pr.m[:0], occ...)
	for i := range notVA {
		notVA[i] &^= vaSet[i]
	}
	pr.m = notVA
	if got, want := walk(notVA, -1), probe(-1, func(v router.VCView) bool { return v.Occupancy > 0 && !v.VADone }); !slices.Equal(got, want) {
		return fmt.Errorf("VA walk %v, probe %v", got, want)
	}
	for p := 0; p < mesh.NumPorts; p++ {
		start := router.SwitchRR(r, p)
		toP := func(v router.VCView) bool { return v.Occupancy > 0 && v.Routed && int(v.OutDir) == p }
		if got, want := walk(mask(occ, routedTo[p], vaSet), start), probe(start, func(v router.VCView) bool { return toP(v) && v.VADone }); !slices.Equal(got, want) {
			return fmt.Errorf("switch walk toward %v from %d: %v, probe %v", mesh.Direction(p), start, got, want)
		}
		if got, want := walk(mask(occ, routedTo[p]), start), probe(start, toP); !slices.Equal(got, want) {
			return fmt.Errorf("bypass walk toward %v from %d: %v, probe %v", mesh.Direction(p), start, got, want)
		}
		if got, want := walk(mask(occ, routedTo[p]), -1), probe(-1, toP); !slices.Equal(got, want) {
			return fmt.Errorf("stall walk toward %v: %v, probe %v", mesh.Direction(p), got, want)
		}
	}
	return nil
}

// TestRRNextMatchesCircularProbe checks the round-robin walk on random
// multi-word sets, which the default VC geometry (45 keys, one word)
// never reaches.
func TestRRNextMatchesCircularProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		total := 1 + rng.Intn(200)
		set := make([]uint64, (total+63)/64)
		density := rng.Float64()
		for k := 0; k < total; k++ {
			if rng.Float64() < density {
				set[k>>6] |= 1 << (k & 63)
			}
		}
		start := rng.Intn(total)
		var got, want []int
		for k := router.RRNext(set, start, -1); k != -1; k = router.RRNext(set, start, k) {
			got = append(got, k)
		}
		for k := 0; k < total; k++ {
			if key := (start + k) % total; set[key>>6]>>(key&63)&1 == 1 {
				want = append(want, key)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("total %d start %d: walk %v, probe %v", total, start, got, want)
		}
	}
}

// stepHarness holds one interior router of an 8x8 mesh at a fixed VC
// occupancy: every occupied VC buffers one single-flit packet, and each
// flit the router forwards is returned with its credit and re-injected
// into the input VC it left, so every cycle sees the same resident set.
type stepHarness struct {
	r      *router.Router
	now    int64
	onFlit [mesh.NumPorts]func(router.FlitInTransit)
	noop   func(router.Credit)
}

func newStepHarness(t testing.TB, occupied int) *stepHarness {
	cfg := config.Default()
	cfg.Scheme = config.NoPG
	const id = 27 // (3,3)
	r := router.New(id, meshRF(t, &cfg), &cfg, pg.New(false, 2, 1, 0), nil)
	h := &stepHarness{r: r, noop: func(router.Credit) {}}
	numVCs, perVN := r.NumVCs(), cfg.VCsPerVN()
	total := mesh.NumPorts * numVCs
	// One destination per output direction: E, W, N, S, Local.
	dsts := []mesh.NodeID{28, 26, 19, 35, 27}
	for i := 0; i < occupied; i++ {
		key := i * total / occupied
		port, v := key/numVCs, key%numVCs
		p := &flit.Packet{ID: uint64(key), Src: id, Dst: dsts[(port+v)%len(dsts)],
			VN: flit.VirtualNetwork(v / perVN), Kind: flit.KindControl, Size: 1}
		r.ReceiveFlit(mesh.Direction(port), v, flit.NewFlits(p)[0], 0)
	}
	for d := range h.onFlit {
		d := mesh.Direction(d)
		h.onFlit[d] = func(ft router.FlitInTransit) {
			r.ReceiveCredit(d, ft.VC)
			key := int(ft.Flit.Packet.ID)
			r.ReceiveFlit(mesh.Direction(key/numVCs), key%numVCs, ft.Flit, h.now+1)
		}
	}
	return h
}

// step advances the router one cycle and recirculates what it forwarded.
func (h *stepHarness) step() {
	h.r.Step(h.now)
	for d := mesh.Direction(0); d < mesh.NumPorts; d++ {
		h.r.Out(d).FlitOut.Drain(h.now+1, h.onFlit[d])
		h.r.In(d).CreditOut.Drain(h.now+1, h.noop)
	}
	h.now++
}

// BenchmarkRouterStep is the router-pipeline layer microbenchmark: one
// Router.Step (switch allocation + traversal, then route computation
// and VC allocation) at a fixed number of occupied input VCs out of the
// default geometry's 45.
func BenchmarkRouterStep(b *testing.B) {
	for _, occupied := range []int{5, 15, 30, 45} {
		b.Run(fmt.Sprintf("vcs=%d", occupied), func(b *testing.B) {
			h := newStepHarness(b, occupied)
			for i := 0; i < 100; i++ {
				h.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		})
	}
}

// TestRouterStepAllocFree pins BenchmarkRouterStep's steady state at
// zero allocations per cycle.
func TestRouterStepAllocFree(t *testing.T) {
	for _, occupied := range []int{5, 45} {
		h := newStepHarness(t, occupied)
		for i := 0; i < 100; i++ {
			h.step()
		}
		if h.r.FlitsForwarded == 0 {
			t.Fatalf("vcs=%d: harness forwarded nothing", occupied)
		}
		if avg := testing.AllocsPerRun(500, h.step); avg != 0 {
			t.Errorf("vcs=%d: %.2f allocs per router cycle, want 0", occupied, avg)
		}
	}
}
