package ni

import (
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
	"powerpunch/internal/stats"
	"powerpunch/internal/topo"
)

// rig is a single node (router + NI) harness; the router's output pipes
// are drained manually.
type rig struct {
	cfg config.Config
	r   *router.Router
	ni  *NI
	fab *core.Fabric
	col *stats.Collector
}

func newRig(t *testing.T, scheme config.Scheme) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.Width, cfg.Height = 4, 4
	rf, err := topo.Build("mesh", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := scheme.Policy()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := pg.New(pol.Gates(), 4, cfg.WakeupLatency, cfg.BreakEven)
	r := router.New(5, rf, &cfg, ctrl, nil)
	col := stats.New(0, 0)
	var fab *core.Fabric
	if pol.Punches() {
		fab = core.NewFabric(rf, cfg.PunchHops, false, nil)
	}
	n := New(5, rf.Topology(), &cfg, r, fab, col)
	return &rig{cfg: cfg, r: r, ni: n, fab: fab, col: col}
}

// step advances one cycle: NI signals, fabric, router, injection, credit
// return.
func (rg *rig) step(now int64) {
	rg.ni.StepSignals(now)
	if rg.fab != nil {
		rg.fab.Step()
	}
	rg.r.Step(now)
	rg.ni.StepInject(now)
	rg.r.In(mesh.Local).CreditOut.Drain(now, func(c router.Credit) { rg.ni.ReceiveCredit(c.VC) })
}

func mkPkt(rg *rig, dst mesh.NodeID, size int) *flit.Packet {
	kind := flit.KindControl
	if size > 1 {
		kind = flit.KindData
	}
	return &flit.Packet{ID: 1, Src: 5, Dst: dst, VN: flit.VNRequest, Kind: kind, Size: size, ResourceHint: -1}
}

func TestSubmitDelaysByResourceSlack(t *testing.T) {
	rg := newRig(t, config.NoPG)
	p := mkPkt(rg, 7, 1)
	rg.ni.Submit(p, true, 10)
	for now := int64(10); now < 40 && p.InjectedAt == 0; now++ {
		rg.step(now)
	}
	// CreatedAt = submit + ResourceSlack (6); injected after NILatency (3).
	if p.CreatedAt != 16 {
		t.Errorf("CreatedAt = %d, want 16", p.CreatedAt)
	}
	if p.InjectedAt != 19 {
		t.Errorf("InjectedAt = %d, want 19 (NI latency 3)", p.InjectedAt)
	}
	if p.ResourceHint != 10 {
		t.Errorf("ResourceHint = %d, want 10", p.ResourceHint)
	}
}

func TestOneFlitPerCycleAcrossVNs(t *testing.T) {
	rg := newRig(t, config.NoPG)
	// Three single-flit packets in three VNs, all ready: injection must
	// serialize at one flit per cycle.
	for vn := 0; vn < 3; vn++ {
		p := mkPkt(rg, 7, 1)
		p.VN = flit.VirtualNetwork(vn)
		rg.ni.Generate(p, 0)
	}
	for now := int64(0); now < 3; now++ {
		rg.step(now)
	}
	// NI latency 3: all become ready at cycle 3; injected at 3,4,5.
	counts := []int{}
	for now := int64(3); now < 6; now++ {
		before := rg.r.BufferedFlits()
		rg.step(now)
		counts = append(counts, rg.r.BufferedFlits()-before)
	}
	for i, c := range counts {
		if c > 1 {
			t.Errorf("cycle %d injected %d flits (>1/cycle)", i, c)
		}
	}
	if rg.r.BufferedFlits() != 3 {
		t.Errorf("buffered = %d, want 3", rg.r.BufferedFlits())
	}
}

func TestInjectionBlockedByGatedRouterAccruesStats(t *testing.T) {
	rg := newRig(t, config.ConvOptPG)
	// Gate the local router.
	for i := 0; i < 6; i++ {
		rg.r.Ctrl.Step(pg.Inputs{Empty: true})
	}
	if rg.r.Ctrl.IsOn() {
		t.Fatal("setup: router should be gated")
	}
	p := mkPkt(rg, 7, 1)
	rg.ni.Generate(p, 0)
	for now := int64(0); now < 6; now++ {
		rg.step(now)
	}
	if p.BlockedRouters != 1 {
		t.Errorf("BlockedRouters = %d, want 1", p.BlockedRouters)
	}
	if p.WakeupWait == 0 {
		t.Error("WakeupWait not accrued at injection")
	}
	if !rg.ni.WantsWakeup() {
		t.Error("NI must assert WU while a ready packet waits")
	}
}

func TestWantsWakeupOnlyWhenReady(t *testing.T) {
	rg := newRig(t, config.ConvOptPG)
	// Gate the local router so the packet cannot inject the moment it
	// becomes ready.
	for i := 0; i < 6; i++ {
		rg.r.Ctrl.Step(pg.Inputs{Empty: true})
	}
	p := mkPkt(rg, 7, 1)
	rg.ni.Generate(p, 0)
	// During the NI pipeline (cycles 0..2) the conventional handshake is
	// silent — that is exactly why ConvOpt packets eat Twakeup at
	// injection.
	for now := int64(0); now <= 3; now++ {
		if rg.ni.WantsWakeup() {
			t.Fatalf("cycle %d: WU asserted before the availability check", now)
		}
		rg.ni.StepSignals(now)
		rg.ni.StepInject(now)
	}
	if !rg.ni.WantsWakeup() {
		t.Error("WU must assert once the packet is injection-ready")
	}
}

func TestPunchSignalsFromNI(t *testing.T) {
	// PowerPunch-PG: slack-1 punches flow from NI entry.
	rg := newRig(t, config.PowerPunchPG)
	p := mkPkt(rg, 7, 1)
	rg.ni.Generate(p, 0)
	rg.ni.StepSignals(0)
	rg.fab.Step()
	if !rg.fab.Hold(5) {
		t.Error("slack-1 punch must hold the local router from NI entry")
	}

	// PowerPunch-Signal: no NI-entry punch, but the injection-ready
	// packet punches (keep the router gated so it stays at the NI).
	rg2 := newRig(t, config.PowerPunchSignal)
	for i := 0; i < 6; i++ {
		rg2.r.Ctrl.Step(pg.Inputs{Empty: true})
	}
	p2 := mkPkt(rg2, 7, 1)
	rg2.ni.Generate(p2, 0)
	rg2.ni.StepSignals(0)
	rg2.fab.Step()
	if rg2.fab.Hold(5) {
		t.Error("Signal scheme must not use NI-entry slack")
	}
	for now := int64(0); now <= 3; now++ {
		rg2.ni.StepSignals(now)
		rg2.fab.Step()
		rg2.ni.StepInject(now)
	}
	rg2.ni.StepSignals(4)
	rg2.fab.Step()
	if !rg2.fab.Hold(5) {
		t.Error("Signal scheme must punch from the availability check")
	}
}

func TestSlack2HoldForAnnouncedMessages(t *testing.T) {
	rg := newRig(t, config.PowerPunchPG)
	p := mkPkt(rg, 7, 1)
	rg.ni.Submit(p, true, 0) // hint-valid resource access starts at 0
	rg.ni.StepSignals(1)
	rg.fab.Step()
	if !rg.fab.Hold(5) {
		t.Error("slack-2 hold missing during the resource access")
	}
	// Hint-invalid accesses (L1) must not hold.
	rg2 := newRig(t, config.PowerPunchPG)
	p2 := mkPkt(rg2, 7, 1)
	rg2.ni.Submit(p2, false, 0)
	rg2.ni.StepSignals(1)
	rg2.fab.Step()
	if rg2.fab.Hold(5) {
		t.Error("L1-triggered (hint-invalid) access must not assert slack-2")
	}
}

func TestSlack2HoldCappedForLongAccesses(t *testing.T) {
	rg := newRig(t, config.PowerPunchPG)
	p := mkPkt(rg, 7, 1)
	rg.ni.SubmitDelayed(p, true, 128, 0) // DRAM-length access
	rg.ni.StepSignals(1)
	rg.fab.Step()
	if rg.fab.Hold(5) {
		t.Error("hold must not cover the whole 128-cycle access")
	}
	// Within the last ResourceSlack cycles it holds.
	rg.ni.StepSignals(124)
	rg.fab.Step()
	if !rg.fab.Hold(5) {
		t.Error("hold missing in the final ResourceSlack window")
	}
}

func TestEjectionReassemblyAndDelivery(t *testing.T) {
	rg := newRig(t, config.NoPG)
	var delivered *flit.Packet
	rg.ni.Deliver = func(p *flit.Packet, now int64) { delivered = p }
	p := &flit.Packet{ID: 9, Src: 4, Dst: 5, VN: flit.VNResponse, Kind: flit.KindData, Size: 3, CreatedAt: 1}
	fs := flit.NewFlits(p)
	for i, f := range fs {
		rg.ni.ReceiveEject(router.FlitInTransit{Flit: f, VC: 0}, int64(20+i))
	}
	if delivered != p {
		t.Fatal("packet not delivered on tail")
	}
	if p.EjectedAt != 22 {
		t.Errorf("EjectedAt = %d, want 22", p.EjectedAt)
	}
	if rg.ni.Ejected != 1 {
		t.Error("Ejected counter")
	}
}

func TestEjectionPanicsOnOutOfOrderFlits(t *testing.T) {
	rg := newRig(t, config.NoPG)
	p := &flit.Packet{ID: 9, Src: 4, Dst: 5, VN: flit.VNResponse, Kind: flit.KindData, Size: 3}
	fs := flit.NewFlits(p)
	defer func() {
		if recover() == nil {
			t.Error("expected out-of-order panic")
		}
	}()
	rg.ni.ReceiveEject(router.FlitInTransit{Flit: fs[1], VC: 0}, 0)
}

func TestBusyAndQueuedPackets(t *testing.T) {
	rg := newRig(t, config.NoPG)
	if rg.ni.Busy() || rg.ni.QueuedPackets() != 0 {
		t.Error("fresh NI must be idle")
	}
	p := mkPkt(rg, 7, 1)
	rg.ni.Submit(p, true, 0)
	if !rg.ni.Busy() || rg.ni.QueuedPackets() != 1 {
		t.Error("announced message must count as busy")
	}
	for now := int64(0); now < 30 && rg.ni.Busy(); now++ {
		rg.step(now)
	}
	if rg.ni.Busy() {
		t.Error("NI stuck busy after injection")
	}
}

func TestMultiFlitInjectionRespectsCredits(t *testing.T) {
	rg := newRig(t, config.NoPG)
	p := mkPkt(rg, 7, 5) // 5-flit data into 3-deep VC
	rg.ni.Generate(p, 0)
	injected := func() int { return int(rg.r.BufferedFlits()) }
	stuck := 0
	for now := int64(0); now < 8; now++ {
		// Do NOT step the router: no credits return, so at most 3 flits fit.
		rg.ni.StepSignals(now)
		rg.ni.StepInject(now)
		stuck = injected()
	}
	if stuck != 3 {
		t.Errorf("injected %d flits into a 3-deep VC without credits", stuck)
	}
}

func TestControlPacketFallsBackToDataVC(t *testing.T) {
	// With the control VC busy, a second control packet may use a data
	// VC rather than wait (allocVC fallback, mirrored in the NI).
	rg := newRig(t, config.NoPG)
	p1 := mkPkt(rg, 7, 1)
	p2 := mkPkt(rg, 11, 1)
	p2.ID = 2
	vc1, ok1 := rg.ni.chooseVC(p1)
	if !ok1 || vc1 != rg.cfg.DataVCs {
		t.Fatalf("first control packet got VC %d, want control VC %d", vc1, rg.cfg.DataVCs)
	}
	rg.ni.vcBusy[vc1] = true
	vc2, ok2 := rg.ni.chooseVC(p2)
	if !ok2 || rg.cfg.IsDataVC(vc2%rg.cfg.VCsPerVN()) == false {
		t.Fatalf("second control packet got VC %d, want a data VC fallback", vc2)
	}
}

func TestSubmittedCounter(t *testing.T) {
	rg := newRig(t, config.NoPG)
	rg.ni.Submit(mkPkt(rg, 7, 1), true, 0)
	rg.ni.SubmitDelayed(mkPkt(rg, 9, 1), false, 2, 0)
	if rg.ni.Submitted != 2 {
		t.Errorf("Submitted = %d", rg.ni.Submitted)
	}
}
