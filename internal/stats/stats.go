// Package stats collects the performance metrics the paper reports:
// average packet latency (Figures 7, 12, 13), per-packet blocking counts
// (Figure 9), wakeup-wait cycles (Figure 10), plus throughput and
// distribution data used for saturation detection and tests.
package stats

import (
	"fmt"
	"math"
	"sort"

	"powerpunch/internal/flit"
)

// Collector accumulates per-packet statistics over a measurement window.
// Packets created outside [MeasureStart, MeasureEnd) are transported but
// not counted. The zero value with window [0, MaxInt64) counts everything.
type Collector struct {
	MeasureStart int64
	MeasureEnd   int64

	injectedPackets int64
	ejectedPackets  int64
	injectedFlits   int64
	ejectedFlits    int64

	latencySum       int64 // creation -> ejection
	networkLatSum    int64 // injection -> ejection
	blockedSum       int64 // powered-off routers encountered
	wakeupWaitSum    int64 // cycles stalled waiting for wakeup
	niWaitSum        int64 // creation -> injection (time before entering the net)
	wakeupWaitNISum  int64 // wakeup-wait portion accrued at the source NI
	hopsSum          int64
	perVNejected     [flit.NumVirtualNetworks]int64
	latencySamples   []int64
	maxLatency       int64
	keepSamples      bool
	inFlightMeasured int64
}

// New returns a collector measuring packets created in [start, end).
func New(start, end int64) *Collector {
	if end <= 0 {
		end = math.MaxInt64
	}
	return &Collector{MeasureStart: start, MeasureEnd: end}
}

// KeepSamples makes the collector retain every measured latency sample so
// percentiles can be computed. Off by default to bound memory.
func (c *Collector) KeepSamples(v bool) { c.keepSamples = v }

// Measured reports whether a packet created at cycle t falls in the
// measurement window.
func (c *Collector) Measured(t int64) bool {
	end := c.MeasureEnd
	if end == 0 {
		end = math.MaxInt64
	}
	return t >= c.MeasureStart && t < end
}

// PacketInjected records a packet entering the network (head flit
// accepted by the source router).
func (c *Collector) PacketInjected(p *flit.Packet) {
	if !c.Measured(p.CreatedAt) {
		return
	}
	c.injectedPackets++
	c.injectedFlits += int64(p.Size)
	c.inFlightMeasured++
}

// PacketEjected records a packet fully delivered to its destination NI.
func (c *Collector) PacketEjected(p *flit.Packet, hops int) {
	if !c.Measured(p.CreatedAt) {
		return
	}
	c.ejectedPackets++
	c.ejectedFlits += int64(p.Size)
	c.inFlightMeasured--
	lat := p.NetworkLatency()
	c.latencySum += lat
	c.networkLatSum += p.RouterLatency()
	c.blockedSum += int64(p.BlockedRouters)
	c.wakeupWaitSum += p.WakeupWait
	c.niWaitSum += p.InjectedAt - p.CreatedAt
	c.wakeupWaitNISum += p.WakeupWaitNI
	c.hopsSum += int64(hops)
	c.perVNejected[p.VN]++
	if lat > c.maxLatency {
		c.maxLatency = lat
	}
	if c.keepSamples {
		c.latencySamples = append(c.latencySamples, lat)
	}
}

// EjectedPackets returns the number of measured packets delivered.
func (c *Collector) EjectedPackets() int64 { return c.ejectedPackets }

// InFlight returns measured packets injected but not yet delivered.
func (c *Collector) InFlight() int64 { return c.inFlightMeasured }

// AvgLatency returns the mean creation-to-ejection packet latency in
// cycles — the paper's "average packet latency".
func (c *Collector) AvgLatency() float64 {
	if c.ejectedPackets == 0 {
		return 0
	}
	return float64(c.latencySum) / float64(c.ejectedPackets)
}

// AvgNetworkLatency returns the mean injection-to-ejection latency.
func (c *Collector) AvgNetworkLatency() float64 {
	if c.ejectedPackets == 0 {
		return 0
	}
	return float64(c.networkLatSum) / float64(c.ejectedPackets)
}

// AvgBlockedRouters returns the mean number of powered-off routers a
// packet encountered (Figure 9).
func (c *Collector) AvgBlockedRouters() float64 {
	if c.ejectedPackets == 0 {
		return 0
	}
	return float64(c.blockedSum) / float64(c.ejectedPackets)
}

// AvgWakeupWait returns the mean cycles per packet spent stalled waiting
// for router wakeups (Figure 10).
func (c *Collector) AvgWakeupWait() float64 {
	if c.ejectedPackets == 0 {
		return 0
	}
	return float64(c.wakeupWaitSum) / float64(c.ejectedPackets)
}

// AvgHops returns the mean hop count of delivered packets.
func (c *Collector) AvgHops() float64 {
	if c.ejectedPackets == 0 {
		return 0
	}
	return float64(c.hopsSum) / float64(c.ejectedPackets)
}

// MaxLatency returns the largest observed packet latency.
func (c *Collector) MaxLatency() int64 { return c.maxLatency }

// VNEjected returns delivered packet counts per virtual network.
func (c *Collector) VNEjected(vn flit.VirtualNetwork) int64 { return c.perVNejected[vn] }

// Throughput returns delivered flits per node per cycle over a window of
// `cycles` cycles and `nodes` nodes.
func (c *Collector) Throughput(nodes int, cycles int64) float64 {
	if nodes == 0 || cycles == 0 {
		return 0
	}
	return float64(c.ejectedFlits) / (float64(nodes) * float64(cycles))
}

// Percentile returns the p-th (0-100) latency percentile. KeepSamples
// must have been enabled; otherwise it returns NaN.
func (c *Collector) Percentile(p float64) float64 {
	if !c.keepSamples || len(c.latencySamples) == 0 {
		return math.NaN()
	}
	s := make([]int64, len(c.latencySamples))
	copy(s, c.latencySamples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx])
}

// StageSums are the exact integer cycle sums behind the latency
// metrics, the inputs to RunResult.Detail's stage decomposition. All
// sums cover measured ejected packets only, so
// Latency == NIWait' + transit' for every packet and
// Latency / Packets == Summary.AvgLatency exactly.
type StageSums struct {
	Packets      int64 // measured packets ejected
	Latency      int64 // Σ (EjectedAt − CreatedAt)
	NIWait       int64 // Σ (InjectedAt − CreatedAt)
	WakeupWait   int64 // Σ WakeupWait (NI-side + in-network)
	WakeupWaitNI int64 // Σ WakeupWaitNI (the NI-side portion)
}

// Stages returns the integer cycle sums of the latency decomposition.
func (c *Collector) Stages() StageSums {
	return StageSums{
		Packets:      c.ejectedPackets,
		Latency:      c.latencySum,
		NIWait:       c.niWaitSum,
		WakeupWait:   c.wakeupWaitSum,
		WakeupWaitNI: c.wakeupWaitNISum,
	}
}

// Summary is a snapshot of the headline metrics for reporting.
type Summary struct {
	Injected    int64
	Ejected     int64
	AvgLatency  float64
	AvgBlocked  float64
	AvgWakeWait float64
	AvgHops     float64
}

// Summarize returns the headline metrics.
func (c *Collector) Summarize() Summary {
	return Summary{
		Injected:    c.injectedPackets,
		Ejected:     c.ejectedPackets,
		AvgLatency:  c.AvgLatency(),
		AvgBlocked:  c.AvgBlockedRouters(),
		AvgWakeWait: c.AvgWakeupWait(),
		AvgHops:     c.AvgHops(),
	}
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("ejected=%d lat=%.2f blocked=%.2f wait=%.2f hops=%.2f",
		s.Ejected, s.AvgLatency, s.AvgBlocked, s.AvgWakeWait, s.AvgHops)
}
