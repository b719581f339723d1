// Package cmp is the full-system substrate standing in for the paper's
// gem5 + GARNET setup: a chip multiprocessor whose cores, private L1s,
// shared distributed L2 banks, MESI-style directory, and corner memory
// controllers generate the three-virtual-network coherence traffic the
// NoC carries, with an execution-time feedback loop (network latency
// lengthens miss latency, which stalls cores and lengthens execution).
//
// The protocol is a statistical MESI skeleton: request (VN0) ->
// directory action (invalidations on VN1, memory fetches on VN1) ->
// responses/acks/writebacks (VN2). VN2 sinks unconditionally at the NIs,
// so the message-dependency chain VN0 -> VN1 -> VN2 is acyclic and the
// protocol is deadlock-free, exactly the property the paper's 3-VN
// configuration provides.
package cmp

import (
	"fmt"
	"math/rand"

	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgGetLine MsgType = iota // core -> home: read/write request (VN0, ctrl)
	MsgInv                    // home -> sharer: invalidate (VN1, ctrl)
	MsgMemReq                 // home -> memory controller: fetch (VN1, ctrl)
	MsgAck                    // sharer -> home: invalidation ack (VN2, ctrl)
	MsgData                   // home/MC -> core: line data (VN2, data)
	MsgWB                     // core -> home: writeback (VN2, data)
)

// String returns a short message-type name.
func (t MsgType) String() string {
	switch t {
	case MsgGetLine:
		return "GET"
	case MsgInv:
		return "INV"
	case MsgMemReq:
		return "MEMREQ"
	case MsgAck:
		return "ACK"
	case MsgData:
		return "DATA"
	case MsgWB:
		return "WB"
	default:
		return fmt.Sprintf("Msg(%d)", int(t))
	}
}

// Msg is the protocol payload carried in flit.Packet.Payload.
type Msg struct {
	Type      MsgType
	Txn       uint64
	Requester mesh.NodeID
	Home      mesh.NodeID
	// Write marks a GetX (read-for-ownership); only writes can require
	// sharer invalidations.
	Write bool
}

// Profile parameterizes one workload (one PARSEC-like benchmark).
type Profile struct {
	Name string

	InstrPerCore int64   // instructions each core retires
	MPKI         float64 // L1 misses per kilo-instruction
	L2HitRate    float64 // probability a miss hits in the shared L2
	// WriteFrac is the fraction of misses that are writes (GetX).
	// Zero means the default (0.3); a negative value means read-only.
	WriteFrac float64
	// InvFrac is the probability an L2 hit needs invalidations,
	// expressed over ALL hits; since only writes invalidate, a write
	// hit invalidates with probability InvFrac/WriteFrac (capped at 1).
	InvFrac    float64
	MaxSharers int     // sharers to invalidate (1..MaxSharers)
	WBFrac     float64 // probability a fill triggers a writeback
	BlockFrac  float64 // probability a miss blocks the core until filled
	MSHRs      int     // outstanding misses per core
	// LocalFrac is the probability a miss's home L2 bank lies within
	// LocalRadius hops of the requester (page-coloring / first-touch
	// locality); the remainder are uniformly distributed.
	LocalFrac   float64
	LocalRadius int
	// Misses arrive in bursts of BurstSize spaced BurstGap cycles apart,
	// all to the same home bank (cache-line streaming through a page).
	// MPKI remains the average rate. BurstSize <= 1 disables clustering.
	BurstSize int
	BurstGap  int

	// Phase behaviour: miss rate is multiplied by PhaseScale during the
	// quiet fraction (1 - PhaseDuty) of each PhasePeriod, modelling
	// bursty benchmarks. PhasePeriod == 0 disables phases.
	PhasePeriod int64
	PhaseDuty   float64
	PhaseScale  float64

	// Latencies (cycles).
	L1Latency  int
	L2Latency  int
	MemLatency int
	// MemOccupancy is how long one DRAM access occupies a memory
	// controller (bank-level parallelism folded into one figure); a hot
	// controller queues requests. L2 banks similarly serve one request
	// per L2Latency.
	MemOccupancy int
}

// DefaultProfileLatencies fills in the paper's Table 2 latencies if unset.
func (p *Profile) applyDefaults() {
	if p.L1Latency == 0 {
		p.L1Latency = 1
	}
	if p.L2Latency == 0 {
		p.L2Latency = 6
	}
	if p.MemLatency == 0 {
		p.MemLatency = 128
	}
	if p.MSHRs == 0 {
		p.MSHRs = 8
	}
	if p.MaxSharers == 0 {
		p.MaxSharers = 2
	}
	if p.BurstSize == 0 {
		p.BurstSize = 4
	}
	if p.BurstGap == 0 {
		p.BurstGap = 8
	}
	if p.WriteFrac == 0 {
		p.WriteFrac = 0.3
	}
	if p.WriteFrac < 0 {
		p.WriteFrac = 0
	}
	if p.MemOccupancy == 0 {
		p.MemOccupancy = 16
	}
}

// invProbForWrite returns the per-write-hit invalidation probability
// that yields InvFrac over all hits.
func (p *Profile) invProbForWrite() float64 {
	if p.WriteFrac <= 0 {
		return 0
	}
	pr := p.InvFrac / p.WriteFrac
	if pr > 1 {
		pr = 1
	}
	return pr
}

// core is one processor's execution state.
type core struct {
	node        mesh.NodeID
	remaining   int64
	outstanding int
	blockedOn   uint64 // txn id the core stalls on; 0 = running
	finishedAt  int64  // cycle the budget hit zero; -1 while running

	// Burst state: remaining clustered misses, their common home, and
	// the earliest cycle the next one may issue.
	burstLeft int
	burstHome mesh.NodeID
	burstNext int64

	// Stats.
	Misses      int64
	StallCycles int64
}

// homeTxn tracks a directory transaction awaiting invalidation acks.
type homeTxn struct {
	requester mesh.NodeID
	acksLeft  int
}

// System is a complete CMP workload: it implements network.Driver.
type System struct {
	Prof Profile
	net  *network.Network
	rng  *rand.Rand

	cores   []*core
	mcs     []mesh.NodeID
	pending map[uint64]*homeTxn // keyed by txn, live at the home node
	txnSeq  uint64

	// Contention: each L2 bank serves one request per L2Latency; each
	// memory controller admits one access per MemOccupancy. Requests
	// arriving at a busy resource queue behind it.
	bankBusy map[mesh.NodeID]int64
	mcBusy   map[mesh.NodeID]int64

	// Contention stats.
	BankQueueCycles int64
	MCQueueCycles   int64

	// Observability. The workload publishes protocol-level events
	// (wl_miss, wl_fill, wl_dir) onto the network's bus, alongside the
	// injection/ejection/wakeup events the NIs and controllers already
	// emit, so CMP runs produce the same JSONL traces synthetic runs do.
	// Tick-time events (miss issue) go straight to the bus. Deliver-time
	// events (directory actions, fills) are buffered in evq and flushed
	// from the next driver-side hook (Done or Tick), a fixed point of
	// the run loop, so they follow every network event of the cycle
	// they happened in. The bus stamps flushed events with the cycle the
	// deliver happened in (SetNow for the next cycle has not run yet at
	// hook time).
	bus *obs.Bus
	evq []obs.Event

	// Stats.
	TotalMisses   int64
	TotalReads    int64
	TotalWrites   int64
	TotalInvs     int64
	TotalMemReqs  int64
	TotalWBs      int64
	PacketsByType [6]int64
}

// NewSystem attaches a CMP workload to net. Every node hosts one core and
// one L2 bank; memory controllers sit at the corners (Table 2). The
// system registers itself as the delivery handler of every NI.
func NewSystem(prof Profile, net *network.Network, seed int64) *System {
	prof.applyDefaults()
	s := &System{
		Prof:     prof,
		net:      net,
		rng:      rand.New(rand.NewSource(seed)),
		pending:  map[uint64]*homeTxn{},
		mcs:      net.M.Corners(),
		bankBusy: map[mesh.NodeID]int64{},
		mcBusy:   map[mesh.NodeID]int64{},
	}
	for id := mesh.NodeID(0); net.M.Contains(id); id++ {
		c := &core{node: id, remaining: prof.InstrPerCore, finishedAt: -1}
		s.cores = append(s.cores, c)
		s.net.NI(id).Deliver = s.deliver
	}
	return s
}

// missProb returns the per-instruction miss probability at cycle now,
// applying phase modulation.
func (s *System) missProb(now int64) float64 {
	p := s.Prof.MPKI / 1000
	if s.Prof.PhasePeriod > 0 {
		pos := float64(now%s.Prof.PhasePeriod) / float64(s.Prof.PhasePeriod)
		if pos >= s.Prof.PhaseDuty {
			p *= s.Prof.PhaseScale
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Tick implements network.Driver: each running core retires one
// instruction and possibly issues an L1 miss. Misses cluster in bursts
// (consecutive lines streaming through the same home bank), so the
// base-draw probability is the average divided by the burst size.
func (s *System) Tick(n *network.Network, now int64) {
	if s.bus == nil {
		s.bus = n.Bus()
	}
	s.flushEvents()
	burst := s.Prof.BurstSize
	if burst < 1 {
		burst = 1
	}
	mp := s.missProb(now) / float64(burst)
	for _, c := range s.cores {
		if c.finishedAt >= 0 {
			continue
		}
		if c.blockedOn != 0 || c.outstanding >= s.Prof.MSHRs {
			c.StallCycles++
			continue
		}
		c.remaining--
		if c.remaining <= 0 {
			c.finishedAt = now
			continue
		}
		if c.burstLeft > 0 {
			if now >= c.burstNext {
				c.burstLeft--
				c.burstNext = now + int64(s.Prof.BurstGap)
				s.issueMissTo(c, c.burstHome, now)
			}
			continue
		}
		if s.rng.Float64() < mp {
			c.burstHome = s.pickHome(c.node)
			c.burstLeft = burst - 1
			c.burstNext = now + int64(s.Prof.BurstGap)
			s.issueMissTo(c, c.burstHome, now)
		}
	}
}

// issueMissTo sends a GetS/GetX request from core c to home.
func (s *System) issueMissTo(c *core, home mesh.NodeID, now int64) {
	c.Misses++
	s.TotalMisses++
	s.txnSeq++
	txn := s.txnSeq
	c.outstanding++
	write := s.rng.Float64() < s.Prof.WriteFrac
	if write {
		s.TotalWrites++
	} else {
		s.TotalReads++
	}
	if s.rng.Float64() < s.Prof.BlockFrac {
		c.blockedOn = txn
	}
	s.send(c.node, home, flit.VNRequest, flit.KindControl,
		Msg{Type: MsgGetLine, Txn: txn, Requester: c.node, Home: home, Write: write},
		false, s.Prof.L1Latency, now)
	if s.bus != nil {
		var a int64
		if write {
			a = 1
		}
		// Direct emit: driver-time events need no buffering (same
		// convention as the punch fabric's driver-time emissions).
		s.bus.Emit(obs.Event{
			Kind: obs.KindWorkloadMiss, Node: int32(c.node),
			Dst: int32(home), VC: int16(flit.VNRequest), Pkt: txn, A: a,
		})
	}
}

// flushEvents drains buffered deliver-time events onto the bus. Called
// only from driver-side hooks (Tick, Done), so the emission point — and
// therefore the JSONL trace — is fixed; see the evq field comment.
func (s *System) flushEvents() {
	if s.bus == nil || len(s.evq) == 0 {
		return
	}
	for i := range s.evq {
		s.bus.Emit(s.evq[i])
	}
	s.evq = s.evq[:0]
}

// send builds and submits one protocol packet.
func (s *System) send(src, dst mesh.NodeID, vn flit.VirtualNetwork, kind flit.Kind, m Msg, hint bool, delay int, now int64) {
	p := s.net.NewPacket(src, dst, vn, kind)
	p.Payload = m
	s.PacketsByType[m.Type]++
	s.net.NI(src).SubmitDelayed(p, hint, delay, now)
}

// deliver is the NI ejection handler: it advances the protocol state
// machine at the receiving node.
func (s *System) deliver(p *flit.Packet, now int64) {
	m, ok := p.Payload.(Msg)
	if !ok {
		return // non-protocol packet (mixed workloads)
	}
	here := p.Dst
	switch m.Type {
	case MsgGetLine:
		s.handleRequest(here, m, now)
	case MsgInv:
		// Sharer invalidates its L1 copy and acks the home directory.
		s.send(here, m.Home, flit.VNResponse, flit.KindControl,
			Msg{Type: MsgAck, Txn: m.Txn, Requester: m.Requester, Home: m.Home},
			false, s.Prof.L1Latency, now)
	case MsgAck:
		if t := s.pending[m.Txn]; t != nil {
			t.acksLeft--
			if t.acksLeft <= 0 {
				delete(s.pending, m.Txn)
				// Directory data is ready; respond after a short access.
				s.send(here, t.requester, flit.VNResponse, flit.KindData,
					Msg{Type: MsgData, Txn: m.Txn, Requester: t.requester, Home: here},
					true, 2, now)
			}
		}
	case MsgMemReq:
		// Memory controller: fetch from DRAM (queueing behind earlier
		// accesses), then send the line directly to the requester.
		s.send(here, m.Requester, flit.VNResponse, flit.KindData,
			Msg{Type: MsgData, Txn: m.Txn, Requester: m.Requester, Home: m.Home},
			true, s.mcDelay(here, now), now)
	case MsgData:
		s.handleFill(here, m, now)
	case MsgWB:
		// Writeback absorbed at the home bank.
	}
}

// bankDelay reserves the home L2 bank and returns the total service
// delay (queueing behind earlier requests + the access itself).
func (s *System) bankDelay(home mesh.NodeID, now int64) int {
	start := now
	if busy := s.bankBusy[home]; busy > start {
		s.BankQueueCycles += busy - start
		start = busy
	}
	s.bankBusy[home] = start + int64(s.Prof.L2Latency)
	return int(start-now) + s.Prof.L2Latency
}

// mcDelay reserves the memory controller and returns the total access
// delay (queueing + DRAM latency).
func (s *System) mcDelay(mc mesh.NodeID, now int64) int {
	start := now
	if busy := s.mcBusy[mc]; busy > start {
		s.MCQueueCycles += busy - start
		start = busy
	}
	s.mcBusy[mc] = start + int64(s.Prof.MemOccupancy)
	return int(start-now) + s.Prof.MemLatency
}

// handleRequest processes a GetLine at the home L2 bank / directory.
func (s *System) handleRequest(home mesh.NodeID, m Msg, now int64) {
	delay := s.bankDelay(home, now)
	if s.rng.Float64() >= s.Prof.L2HitRate {
		// L2 miss: forward to the memory controller owning the line.
		s.TotalMemReqs++
		mc := s.mcs[int(m.Txn)%len(s.mcs)]
		s.send(home, mc, flit.VNCoherence, flit.KindControl,
			Msg{Type: MsgMemReq, Txn: m.Txn, Requester: m.Requester, Home: home},
			true, delay, now)
		if s.bus != nil {
			s.evq = append(s.evq, obs.Event{
				Kind: obs.KindWorkloadDir, Node: int32(home),
				Src: int32(m.Requester), Dst: int32(mc), Pkt: m.Txn, A: 2,
			})
		}
		return
	}
	if m.Write && s.Prof.MaxSharers > 0 && s.rng.Float64() < s.Prof.invProbForWrite() {
		// Write hit on a shared line: sharers must be invalidated first
		// (reads never invalidate under MESI).
		k := 1 + s.rng.Intn(s.Prof.MaxSharers)
		s.pending[m.Txn] = &homeTxn{requester: m.Requester, acksLeft: k}
		for i := 0; i < k; i++ {
			sharer := s.randomNodeExcept(home)
			s.TotalInvs++
			s.send(home, sharer, flit.VNCoherence, flit.KindControl,
				Msg{Type: MsgInv, Txn: m.Txn, Requester: m.Requester, Home: home},
				true, delay, now)
		}
		if s.bus != nil {
			s.evq = append(s.evq, obs.Event{
				Kind: obs.KindWorkloadDir, Node: int32(home),
				Src: int32(m.Requester), Pkt: m.Txn, A: 1, B: int64(k),
			})
		}
		return
	}
	// Clean hit: data response after the L2 access.
	s.send(home, m.Requester, flit.VNResponse, flit.KindData,
		Msg{Type: MsgData, Txn: m.Txn, Requester: m.Requester, Home: home},
		true, delay, now)
	if s.bus != nil {
		s.evq = append(s.evq, obs.Event{
			Kind: obs.KindWorkloadDir, Node: int32(home),
			Src: int32(m.Requester), Pkt: m.Txn,
		})
	}
}

// handleFill completes a miss at the requesting core.
func (s *System) handleFill(node mesh.NodeID, m Msg, now int64) {
	c := s.cores[node]
	if c.outstanding > 0 {
		c.outstanding--
	}
	if c.blockedOn == m.Txn {
		c.blockedOn = 0
	}
	if s.bus != nil {
		s.evq = append(s.evq, obs.Event{
			Kind: obs.KindWorkloadFill, Node: int32(node),
			Src: int32(m.Home), Pkt: m.Txn,
		})
	}
	if s.rng.Float64() < s.Prof.WBFrac {
		s.TotalWBs++
		s.send(node, m.Home, flit.VNResponse, flit.KindData,
			Msg{Type: MsgWB, Txn: m.Txn, Requester: node, Home: m.Home},
			false, s.Prof.L1Latency, now)
	}
}

// pickHome chooses the home L2 bank for a miss at node c, honouring the
// profile's locality parameters.
func (s *System) pickHome(c mesh.NodeID) mesh.NodeID {
	if s.Prof.LocalFrac > 0 && s.rng.Float64() < s.Prof.LocalFrac {
		r := s.Prof.LocalRadius
		if r < 1 {
			r = 2
		}
		near := s.net.M.NodesWithin(c, r)
		if len(near) > 0 {
			return near[s.rng.Intn(len(near))]
		}
	}
	return s.randomNodeExcept(c)
}

func (s *System) randomNodeExcept(not mesh.NodeID) mesh.NodeID {
	n := s.net.M.NumNodes()
	d := mesh.NodeID(s.rng.Intn(n - 1))
	if d >= not {
		d++
	}
	return d
}

// Done implements network.Driver: the workload completes when every core
// has retired its budget and no directory transaction is pending. (The
// network's quiescence check covers in-flight packets.)
func (s *System) Done() bool {
	s.flushEvents()
	for _, c := range s.cores {
		if c.finishedAt < 0 {
			return false
		}
	}
	return len(s.pending) == 0
}

// ExecutionTime returns the cycle at which the last core finished, the
// paper's execution-time metric (Figure 8). Valid once Done.
func (s *System) ExecutionTime() int64 {
	var max int64
	for _, c := range s.cores {
		if c.finishedAt > max {
			max = c.finishedAt
		}
	}
	return max
}

// TotalStallCycles sums core stall cycles (network sensitivity metric).
func (s *System) TotalStallCycles() int64 {
	var t int64
	for _, c := range s.cores {
		t += c.StallCycles
	}
	return t
}
