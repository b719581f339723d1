// Package ni implements the network interface of the paper's Figure 6:
// message generation feeds an NI pipeline (packetization, VC arbitration,
// availability check) before flits enter the local router. The NI is the
// anchor of Power Punch's injection-node mechanism (Section 4.2): it
// exploits "slack 1" (the destination is known a full NI latency before
// injection) and "slack 2" (an L2/directory access guarantees a packet
// will be generated even earlier) to fire wakeup and punch signals ahead
// of packet injection.
package ni

import (
	"fmt"

	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/router"
	"powerpunch/internal/stats"
	"powerpunch/internal/topo"
)

// openInjection tracks a packet whose flits are partially injected.
type openInjection struct {
	p     *flit.Packet
	flits []*flit.Flit
	next  int
	vcIdx int
}

// futureMessage is a message announced by a resource access but not yet
// generated (the window between the paper's slack-2 and slack-1 points).
type futureMessage struct {
	p         *flit.Packet
	genAt     int64
	hintValid bool
}

// NI is one node's network interface. It is driven by the network's
// cycle loop; it is not concurrency-safe.
type NI struct {
	Node mesh.NodeID
	cfg  *config.Config
	m    *topo.Topology
	r    *router.Router
	fab  *core.Fabric // nil unless a Power Punch scheme is active
	col  *stats.Collector

	// Deliver, if non-nil, receives every ejected packet (the coherence
	// substrate's protocol handler).
	Deliver func(p *flit.Packet, now int64)

	// OnSubmit, if non-nil, observes every SubmitDelayed call (used by
	// the traffic recorder).
	OnSubmit func(p *flit.Packet, hintValid bool, delay int, now int64)

	future  []futureMessage
	pipe    []*flit.Packet // in the NI pipeline (ready at NIEnterAt+NILatency)
	readyQ  [flit.NumVirtualNetworks][]*flit.Packet
	open    [flit.NumVirtualNetworks]*openInjection
	credits []int // local-port VC credits (NI is the upstream "router")
	vcBusy  []bool
	vnRR    int

	// activityHook, when set, is called whenever new work enters the NI
	// from outside the cycle loop (SubmitDelayed / Generate); the
	// active-set scheduler uses it to arm this node.
	activityHook func()

	// pool, when set, recycles flit objects and slices (the allocation-
	// free hot path); nil falls back to plain allocation. openFree
	// recycles openInjection records alongside it.
	pool     *flit.Pool
	openFree []*openInjection

	// recycle enables returning ejected packets to the pool's packet
	// free list (config.RecyclePackets). Only honoured when Deliver is
	// nil: delivered packets are owned by the protocol handler. niSlack
	// caches the policy's NISlack predicate, resolved once at
	// construction (Section 4.2 injection-node signalling). The two
	// share a word.
	recycle, niSlack bool

	// bus, when non-nil, receives inject/eject/NI-block events.
	bus *obs.Bus

	asm [][]*flit.Flit // ejection reassembly per local-output VC

	// Stats.
	Submitted int64
	Injected  int64
	Ejected   int64

	// Per-VN flit counters for the invariant engine's conservation check.
	injFlits [flit.NumVirtualNetworks]int64
	ejFlits  [flit.NumVirtualNetworks]int64
}

// New returns the NI for node id attached to router r. fab may be nil
// (non-punch schemes); col must be non-nil.
func New(id mesh.NodeID, m *topo.Topology, cfg *config.Config, r *router.Router, fab *core.Fabric, col *stats.Collector) *NI {
	numVCs := r.NumVCs()
	pol, _ := cfg.Scheme.Policy() // Validate vetted the name already
	n := &NI{
		Node:    id,
		cfg:     cfg,
		m:       m,
		r:       r,
		fab:     fab,
		col:     col,
		niSlack: pol != nil && pol.NISlack(),
		credits: make([]int, numVCs),
		vcBusy:  make([]bool, numVCs),
		asm:     make([][]*flit.Flit, numVCs),
	}
	for v := 0; v < numVCs; v++ {
		n.credits[v] = cfg.VCDepth(v % cfg.VCsPerVN())
	}
	return n
}

// Submit announces a message at cycle now (the start of its generating
// resource access) to be generated ResourceSlack cycles later. hintValid
// marks accesses that certainly produce a packet (L2/directory — the
// paper's slack-2 valid bit); L1-triggered messages pass false. The
// packet's CreatedAt/NIEnterAt and ResourceHint are filled in here.
func (n *NI) Submit(p *flit.Packet, hintValid bool, now int64) {
	n.SubmitDelayed(p, hintValid, n.cfg.ResourceSlack, now)
}

// SubmitDelayed is Submit with an explicit resource-access latency: the
// message materializes in the NI `delay` cycles from now. The coherence
// substrate uses it to model L1 (short, hint-invalid), L2/directory
// (ResourceSlack, hint-valid) and memory (long) access times.
func (n *NI) SubmitDelayed(p *flit.Packet, hintValid bool, delay int, now int64) {
	p.ResourceHint = now
	n.future = append(n.future, futureMessage{p: p, genAt: now + int64(delay), hintValid: hintValid})
	n.Submitted++
	if n.activityHook != nil {
		n.activityHook()
	}
	if n.OnSubmit != nil {
		n.OnSubmit(p, hintValid, delay, now)
	}
}

// Generate places a fully-formed message directly into the NI pipeline at
// cycle now (the slack-1 point). StepSignals calls it when a submitted
// message's resource access completes; drivers submit through Submit or
// SubmitDelayed, whose pending access also drives the slack-2 hold.
func (n *NI) Generate(p *flit.Packet, now int64) {
	p.CreatedAt = now
	p.NIEnterAt = now
	n.pipe = append(n.pipe, p)
	if n.activityHook != nil {
		n.activityHook()
	}
}

// SetActivityHook registers the active-set scheduler's arming callback;
// it fires on every SubmitDelayed/Generate so externally-submitted work
// can never be missed (injections are never droppable re-arm events).
func (n *NI) SetActivityHook(fn func()) { n.activityHook = fn }

// SetBus attaches an observability bus; a nil bus (the default) keeps
// the NI silent.
func (n *NI) SetBus(b *obs.Bus) { n.bus = b }

// SetPool installs a flit pool for the allocation-free injection path.
// Must only be used when no other component retains flit pointers past
// ejection (the invariant engine does, so checked runs leave it unset).
func (n *NI) SetPool(p *flit.Pool) { n.pool = p }

// SetPacketRecycling enables returning ejected, undelivered packets to
// the pool's packet free list (see config.RecyclePackets for the
// aliasing contract callers accept).
func (n *NI) SetPacketRecycling(v bool) { n.recycle = v }

// StepSignals emits this cycle's injection-node signals into the punch
// fabric. Under both punch schemes, a packet that has reached the NI's
// availability check (injection-ready or mid-injection) punches the
// local router and the routers on its first hops — Section 4.2's
// baseline NI behaviour. PowerPunch-PG additionally moves these signals
// earlier: slack 1 punches from NI entry (destination known) and slack-2
// local holds from the start of the generating L2/directory access.
// Call before Fabric.Step each cycle.
func (n *NI) StepSignals(now int64) {
	// Move announced messages whose generation time arrived into the NI
	// pipeline regardless of scheme (the timeline is physical; only the
	// signalling is scheme-dependent).
	kept := n.future[:0]
	for _, fm := range n.future {
		if now >= fm.genAt {
			n.Generate(fm.p, now)
		} else {
			kept = append(kept, fm)
		}
	}
	n.future = kept

	if n.fab == nil {
		return
	}

	// Injection-ready packets punch under every punch scheme.
	for vn := range n.readyQ {
		for _, p := range n.readyQ[vn] {
			n.fab.EmitLocal(n.Node, p.Dst)
		}
	}
	for vn := range n.open {
		if o := n.open[vn]; o != nil {
			n.fab.EmitLocal(n.Node, o.p.Dst)
		}
	}

	if !n.niSlack {
		return
	}
	// Slack 1: the destination is known from NI entry, so the punch can
	// be sent a full NI latency early.
	for _, p := range n.pipe {
		n.fab.EmitLocal(n.Node, p.Dst)
	}
	// Slack 2: the access guarantees a packet but the destination is not
	// yet known, so only the local router can be held. The hold covers at
	// most the last ResourceSlack cycles of a long access (no point
	// keeping the router awake through a 128-cycle DRAM access).
	for _, fm := range n.future {
		if fm.hintValid && fm.genAt-now <= int64(n.cfg.ResourceSlack) {
			n.fab.HoldLocal(n.Node)
		}
	}
}

// WantsWakeup reports the NI's WU level toward the local router: true
// while a packet is ready to inject (past the NI pipeline) or is mid-
// injection. This is the conventional handshake of Figure 2 — it fires
// only at the availability-check point, which is why ConvOpt-PG packets
// suffer the full wakeup latency at injection.
func (n *NI) WantsWakeup() bool {
	for vn := range n.readyQ {
		if len(n.readyQ[vn]) > 0 || n.open[vn] != nil {
			return true
		}
	}
	return false
}

// ReceiveCredit restores one local-port credit (a flit left the local
// input port's VC).
func (n *NI) ReceiveCredit(vcIdx int) { n.credits[vcIdx]++ }

// StepInject advances the NI pipeline and injects at most one flit into
// the local router (one physical injection channel, paper Section 4.2).
func (n *NI) StepInject(now int64) {
	// NI pipeline: packets become injectable NILatency cycles after entry.
	kept := n.pipe[:0]
	for _, p := range n.pipe {
		if now-p.NIEnterAt >= int64(n.cfg.NILatency) {
			n.readyQ[p.VN] = append(n.readyQ[p.VN], p)
		} else {
			kept = append(kept, p)
		}
	}
	n.pipe = kept

	if !n.r.Ctrl.IsOn() {
		// The local router is gated or waking: every injection-ready
		// packet at the head of its VN queue is blocked by power gating.
		blocked := int64(0)
		for vn := range n.readyQ {
			if len(n.readyQ[vn]) == 0 {
				continue
			}
			p := n.readyQ[vn][0]
			p.WakeupWait++
			p.WakeupWaitNI++
			blocked++
			if !p.CountedNIBlock {
				p.CountedNIBlock = true
				p.BlockedRouters++
			}
		}
		if blocked > 0 && n.bus != nil {
			n.bus.Emit(obs.Event{Kind: obs.KindNIBlock, Node: int32(n.Node), A: blocked})
		}
		return
	}

	// One flit per cycle across all VNs, round-robin.
	for i := 0; i < int(flit.NumVirtualNetworks); i++ {
		vn := (n.vnRR + i) % int(flit.NumVirtualNetworks)
		if o := n.open[vn]; o != nil {
			if n.pushFlit(o, now) {
				n.vnRR = (vn + 1) % int(flit.NumVirtualNetworks)
				return
			}
			continue
		}
		if len(n.readyQ[vn]) == 0 {
			continue
		}
		p := n.readyQ[vn][0]
		vcIdx, ok := n.chooseVC(p)
		if !ok {
			continue
		}
		o := n.newOpen(p, vcIdx)
		n.vcBusy[vcIdx] = true
		if !n.pushFlit(o, now) {
			// Credit race cannot happen (chooseVC checked); back out.
			n.vcBusy[vcIdx] = false
			continue
		}
		p.InjectedAt = now
		n.col.PacketInjected(p)
		n.Injected++
		if n.bus != nil {
			n.bus.Emit(obs.Event{Kind: obs.KindInject, Node: int32(n.Node),
				VC: int16(p.VN), Pkt: p.ID, Src: int32(p.Src), Dst: int32(p.Dst),
				A: now - p.CreatedAt})
		}
		q := n.readyQ[vn]
		n.readyQ[vn] = q[:copy(q, q[1:])] // capacity-preserving pop
		n.open[vn] = o
		if o.next >= len(o.flits) { // single-flit packet completed
			n.finishOpen(vn)
		}
		n.vnRR = (vn + 1) % int(flit.NumVirtualNetworks)
		return
	}
}

// pushFlit injects the next flit of o if a credit is available, returning
// whether a flit was sent.
func (n *NI) pushFlit(o *openInjection, now int64) bool {
	if n.credits[o.vcIdx] <= 0 {
		return false
	}
	f := o.flits[o.next]
	n.credits[o.vcIdx]--
	n.r.ReceiveFlit(mesh.Local, o.vcIdx, f, now)
	n.injFlits[o.p.VN]++
	o.next++
	if o.next >= len(o.flits) {
		vn := int(o.p.VN)
		if n.open[vn] == o {
			n.finishOpen(vn)
		} else {
			n.vcBusy[o.vcIdx] = false
		}
	}
	return true
}

// newOpen builds an injection record, reusing a recycled one when the
// pool is active.
func (n *NI) newOpen(p *flit.Packet, vcIdx int) *openInjection {
	if k := len(n.openFree); k > 0 {
		o := n.openFree[k-1]
		n.openFree[k-1] = nil
		n.openFree = n.openFree[:k-1]
		o.p, o.flits, o.next, o.vcIdx = p, n.pool.Flits(p), 0, vcIdx
		return o
	}
	return &openInjection{p: p, flits: n.pool.Flits(p), vcIdx: vcIdx}
}

func (n *NI) finishOpen(vn int) {
	if o := n.open[vn]; o != nil && o.next >= len(o.flits) {
		n.vcBusy[o.vcIdx] = false
		n.open[vn] = nil
		if n.pool != nil {
			// The flits are still in flight downstream; only the slice
			// header and the injection record are recycled here.
			n.pool.PutSlice(o.flits)
			o.p, o.flits = nil, nil
			n.openFree = append(n.openFree, o)
		}
	}
}

// chooseVC picks a free local-port VC for packet p: data packets use data
// VCs of their VN; control packets prefer the control VC.
func (n *NI) chooseVC(p *flit.Packet) (int, bool) {
	perVN := n.cfg.VCsPerVN()
	base := int(p.VN) * perVN
	try := func(lo, hi int) (int, bool) {
		for v := lo; v < hi; v++ {
			if !n.vcBusy[v] && n.credits[v] > 0 {
				return v, true
			}
		}
		return -1, false
	}
	if p.Kind == flit.KindData {
		return try(base, base+n.cfg.DataVCs)
	}
	if v, ok := try(base+n.cfg.DataVCs, base+perVN); ok {
		return v, true
	}
	return try(base, base+n.cfg.DataVCs)
}

// ReceiveEject accepts a flit arriving from the router's Local output
// port, reassembling packets and delivering them on tail arrival.
func (n *NI) ReceiveEject(ft router.FlitInTransit, now int64) {
	if got, want := ft.Flit.Seq, len(n.asm[ft.VC]); got != want {
		panic(fmt.Sprintf("ni %d: out-of-order flit on eject VC %d: seq %d, want %d (%v)",
			n.Node, ft.VC, got, want, ft.Flit))
	}
	n.asm[ft.VC] = append(n.asm[ft.VC], ft.Flit)
	n.ejFlits[ft.Flit.Packet.VN]++
	if !ft.Flit.Type.IsTail() {
		return
	}
	p := ft.Flit.Packet
	p.EjectedAt = now
	if n.pool != nil {
		// The packet has fully ejected: its flits can never be observed
		// again, so return them to the pool (the Packet itself lives on —
		// stats and the coherence substrate keep it).
		for _, f := range n.asm[ft.VC] {
			n.pool.PutFlit(f)
		}
	}
	n.asm[ft.VC] = n.asm[ft.VC][:0]
	n.Ejected++
	n.col.PacketEjected(p, n.m.HopDistance(p.Src, p.Dst))
	if n.bus != nil {
		n.bus.Emit(obs.Event{Kind: obs.KindEject, Node: int32(n.Node),
			VC: int16(p.VN), Pkt: p.ID, Src: int32(p.Src), Dst: int32(p.Dst),
			A: p.NetworkLatency(), B: p.WakeupWait})
	}
	if n.Deliver != nil {
		n.Deliver(p, now)
	} else if n.recycle && n.pool != nil {
		n.pool.PutPacket(p)
	}
}

// Busy reports whether the NI still holds work: announced, pipelined,
// queued, or partially injected messages.
func (n *NI) Busy() bool {
	if len(n.future) > 0 || len(n.pipe) > 0 {
		return true
	}
	for vn := range n.readyQ {
		if len(n.readyQ[vn]) > 0 || n.open[vn] != nil {
			return true
		}
	}
	return false
}

// InjectedFlitsVN returns the number of flits this NI has pushed into the
// local router on virtual network vn (invariant engine).
func (n *NI) InjectedFlitsVN(vn flit.VirtualNetwork) int64 { return n.injFlits[vn] }

// EjectedFlitsVN returns the number of flits this NI has accepted from the
// local router's ejection port on virtual network vn (invariant engine).
func (n *NI) EjectedFlitsVN(vn flit.VirtualNetwork) int64 { return n.ejFlits[vn] }

// CreditCount returns the NI's credit count for local-port VC v: the free
// slots it believes the router's local input VC has (invariant engine).
func (n *NI) CreditCount(v int) int { return n.credits[v] }

// QueuedPackets returns the number of messages waiting anywhere in the NI.
func (n *NI) QueuedPackets() int {
	c := len(n.future) + len(n.pipe)
	for vn := range n.readyQ {
		c += len(n.readyQ[vn])
		if n.open[vn] != nil {
			c++
		}
	}
	return c
}
