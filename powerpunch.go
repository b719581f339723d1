// Package powerpunch is the public API of this repository: a
// cycle-accurate network-on-chip simulator (2D mesh, torus, and ring
// fabrics) with router power-gating and the Power Punch non-blocking
// power-gating scheme of Chen, Zhu, Pedram and Pinkston (HPCA 2015).
//
// The package re-exports the stable surface of the internal packages:
// configuration, network construction, synthetic and full-system
// (CMP/coherence) workloads, and the paper's experiment drivers.
//
// # Quick start
//
//	cfg := powerpunch.DefaultConfig()
//	cfg.Scheme = powerpunch.PowerPunchPG
//	net, err := powerpunch.NewNetwork(cfg)
//	if err != nil { ... }
//	drv := powerpunch.NewSyntheticTraffic(powerpunch.Uniform(), 0.02, 1)
//	res := net.Run(drv)
//	fmt.Println(res.Summary.AvgLatency, res.StaticSaved)
//
// Each simulation runs on one goroutine: the active-set tick engine by
// default, or the full walk under Config.FullTick, with bit-identical
// results. Experiment drivers and campaigns run the independent points
// of a sweep concurrently instead. Config.RecyclePackets makes the
// steady-state inject+step cycle allocation-free.
package powerpunch

import (
	"fmt"
	"io"

	"powerpunch/internal/check"
	"powerpunch/internal/cmp"
	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/experiments"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/parsec"
	"powerpunch/internal/power"
	"powerpunch/internal/topo"
	"powerpunch/internal/traffic"
)

// Config is the complete simulation configuration (the paper's Table 2
// plus the power-gating and Power Punch parameters).
type Config = config.Config

// Scheme selects the power-management policy under evaluation by its
// registered name. The named constants cover the built-in schemes;
// SchemeByName resolves any registered name (rejecting unknown ones
// with a typed *UnknownSchemeError).
type Scheme = config.Scheme

// The built-in schemes: the paper's evaluation set plus the
// FlyOver-style bypass rival.
const (
	NoPG             = config.NoPG
	ConvOptPG        = config.ConvOptPG
	PowerPunchSignal = config.PowerPunchSignal
	PowerPunchPG     = config.PowerPunchPG
	FlyOverPG        = config.FlyOverPG
)

// Schemes lists the paper's four schemes in presentation order.
var Schemes = config.Schemes

// SchemeNames lists every registered scheme name, sorted (including
// the ablation-only Plain-PG and the FlyOver-PG bypass scheme).
func SchemeNames() []string { return config.SchemeNames() }

// SchemeByName resolves a registered scheme name; the empty string is
// the No-PG baseline. Unknown names fail with *UnknownSchemeError.
func SchemeByName(name string) (Scheme, error) { return config.SchemeByName(name) }

// UnknownSchemeError is the typed error SchemeByName and
// Config.Validate report for unregistered scheme names; it carries
// the known names so callers can self-correct.
type UnknownSchemeError = config.UnknownSchemeError

// DefaultConfig returns the paper's primary configuration: an 8x8 mesh
// with XY routing, 3 VNs, 3-stage speculative routers, Twakeup=8,
// BET=10, and 3-hop punch signals.
func DefaultConfig() Config { return config.Default() }

// Network is a fully-assembled simulated NoC.
type Network = network.Network

// Driver injects traffic into a Network (see Network.Run / RunUntil).
type Driver = network.Driver

// RunResult summarizes a simulation run.
type RunResult = network.RunResult

// RunDetail is the versioned, JSON-stable detail section of a
// RunResult: the exact per-stage latency decomposition (which sums to
// Summary.AvgLatency exactly), power-gating activity, and punch-fabric
// activity.
type RunDetail = network.RunDetail

// The component breakdowns of RunDetail.
type (
	// StageBreakdown is RunDetail's exact latency decomposition.
	StageBreakdown = network.StageBreakdown
	// PGBreakdown aggregates power-gating controller activity.
	PGBreakdown = network.PGBreakdown
	// PunchBreakdown aggregates punch-fabric activity.
	PunchBreakdown = network.PunchBreakdown
	// EnergyBreakdown is RunDetail's per-component energy decomposition
	// (buffers, crossbar, allocators, clock, links, punch channels,
	// wakeup handshake, power gates), derived from integer event
	// counters and therefore bit-identical across the active-set and
	// full-walk tick engines.
	EnergyBreakdown = network.EnergyBreakdown
	// ComponentEnergy is one component's dynamic/static/overhead energy.
	ComponentEnergy = network.ComponentEnergy
)

// DetailVersion identifies the RunDetail JSON schema.
const DetailVersion = network.DetailVersion

// EnergyVersion identifies the EnergyBreakdown JSON schema.
const EnergyVersion = network.EnergyVersion

// DefaultPowerPreset is the power calibration used when
// Config.PowerPreset is empty: the paper's HPCA 2015 numbers.
const DefaultPowerPreset = power.DefaultPreset

// PowerPresets lists the selectable power-model calibrations, sorted
// (set Config.PowerPreset, or `-power-preset` on the CLIs).
func PowerPresets() []string { return power.Presets() }

// Observer consumes cycle-level events from an observed network (see
// WithObserver and Network.Observe). The *ProbeEvent passed to Event
// points at bus-owned scratch storage, valid only for the duration of
// the call; copy the value to retain it. Sinks run synchronously on
// the simulation goroutine.
type Observer = obs.Sink

// ProbeEvent is one observation: a flat comparable value whose field
// meaning depends on Kind (see the internal/obs kind taxonomy,
// documented in DESIGN.md §10).
type ProbeEvent = obs.Event

// ProbeKind discriminates ProbeEvent types.
type ProbeKind = obs.Kind

// CountersProbe accumulates per-node event counts, latency-breakdown
// histograms, and the paper's §6 wakeup-exposed vs punch-hidden stall
// split. The zero value is ready to attach; see NewCountersProbe.
type CountersProbe = obs.Counters

// NewCountersProbe returns an empty counters probe:
//
//	probe := powerpunch.NewCountersProbe()
//	net, err := powerpunch.NewNetwork(cfg, powerpunch.WithObserver(probe))
func NewCountersProbe() *CountersProbe { return &obs.Counters{} }

// TimelineSampler produces a periodic power/activity timeline
// (gated/waking router counts, injection and switching rates)
// exportable as CSV or JSONL.
type TimelineSampler = obs.Sampler

// TimelineSample is one row of a TimelineSampler's output.
type TimelineSample = obs.Sample

// NewTimelineSampler returns a sampler emitting one TimelineSample
// every interval cycles.
func NewTimelineSampler(interval int64) *TimelineSampler { return obs.NewSampler(interval) }

// EventTraceWriter streams every event as one JSON object per line.
// Call Flush before reading the underlying writer.
type EventTraceWriter = obs.TraceWriter

// NewEventTraceWriter returns a trace writer streaming every event
// kind to w (see `noctrace trace` for the CLI form).
func NewEventTraceWriter(w io.Writer) *EventTraceWriter {
	return obs.NewTraceWriter(w, obs.MaskAll)
}

// NewFilteredEventTraceWriter returns a trace writer streaming only
// the given event kinds to w.
func NewFilteredEventTraceWriter(w io.Writer, kinds ...ProbeKind) *EventTraceWriter {
	return obs.NewTraceWriter(w, obs.MaskOf(kinds...))
}

// ProbeKindByName resolves a stable snake_case event-kind name
// ("inject", "pg_wake", "punch_emit", ...) as used in JSONL traces;
// ok is false for unknown names.
func ProbeKindByName(name string) (k ProbeKind, ok bool) { return obs.KindByName(name) }

// NodeID identifies a mesh node.
type NodeID = mesh.NodeID

// Direction identifies a router port / link direction.
type Direction = mesh.Direction

// Typed link directions for the punch-channel encoders and any API
// taking a Direction. Prefer these over raw ints.
const (
	DirN = mesh.North // Y-
	DirS = mesh.South // Y+
	DirE = mesh.East  // X+
	DirW = mesh.West  // X-
)

// Option configures a Network at construction time (see NewNetwork).
type Option func(*Network)

// WithObserver attaches observability sinks to the network being
// built: routers, PG controllers, NIs, and the punch fabric publish
// cycle-level events (flit lifecycle, gating transitions, punch
// signalling) into a shared bus fanned out to the sinks. See
// NewCountersProbe, NewTimelineSampler, and NewEventTraceWriter for
// ready-made sinks. With no observer the layer costs nothing beyond a
// nil check per emission site, and the tick path stays 0 allocs/cycle.
func WithObserver(sinks ...Observer) Option {
	return func(n *Network) { n.Observe(sinks...) }
}

// NewNetwork builds a network for cfg and applies the options.
func NewNetwork(cfg Config, opts ...Option) (*Network, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		if o != nil {
			o(n)
		}
	}
	return n, nil
}

// TrafficPattern maps sources to destinations for synthetic workloads.
type TrafficPattern = traffic.Pattern

// Uniform returns the uniform-random traffic pattern.
func Uniform() TrafficPattern { return traffic.UniformRandom{} }

// TransposeTraffic returns the transpose permutation pattern.
func TransposeTraffic() TrafficPattern { return traffic.Transpose{} }

// BitComplementTraffic returns the bit-complement permutation pattern.
func BitComplementTraffic() TrafficPattern { return traffic.BitComplement{} }

// PatternByName resolves "uniform", "transpose", "bit-complement",
// "tornado", or "neighbor".
func PatternByName(name string) (TrafficPattern, error) { return traffic.ByName(name) }

// SyntheticTraffic is an open-loop Bernoulli injector.
type SyntheticTraffic = traffic.Synthetic

// NewSyntheticTraffic returns a synthetic driver offering `rate` flits
// per node per cycle under the given pattern.
func NewSyntheticTraffic(p TrafficPattern, rate float64, seed int64) *SyntheticTraffic {
	return traffic.NewSynthetic(p, rate, seed)
}

// WorkloadProfile parameterizes a full-system (CMP/coherence) workload.
type WorkloadProfile = cmp.Profile

// Workload is a CMP workload attached to a network; it implements Driver
// and reports execution time.
type Workload = cmp.System

// NewWorkload attaches a CMP workload to net.
func NewWorkload(p WorkloadProfile, net *Network, seed int64) *Workload {
	return cmp.NewSystem(p, net, seed)
}

// PARSECBenchmarks lists the eight PARSEC-like profile names.
var PARSECBenchmarks = parsec.Benchmarks

// PARSECProfile returns the named PARSEC-like profile with the given
// per-core instruction budget.
func PARSECProfile(name string, instrPerCore int64) (WorkloadProfile, error) {
	return parsec.Profile(name, instrPerCore)
}

// PunchChannelEncoding is the Table-1 code book of one punch channel.
type PunchChannelEncoding = core.ChannelEncoding

// TopologySpec names a fabric for APIs that work on any topology. The
// zero value is the paper's default 8x8 mesh: an empty Topology means
// "mesh", zero Width/Height default to 8 (Height 1 for a ring).
type TopologySpec struct {
	Topology string // "mesh" (default), "torus", or "ring"
	Width    int    // grid columns; 0 means 8
	Height   int    // grid rows; 0 means 8 (1 for a ring)
}

// normalize applies the zero-value defaults.
func (s TopologySpec) normalize() TopologySpec {
	if s.Topology == "" {
		s.Topology = "mesh"
	}
	if s.Width == 0 {
		s.Width = 8
	}
	if s.Height == 0 {
		s.Height = 8
		if s.Topology == "ring" {
			s.Height = 1
		}
	}
	return s
}

// EncodePunchChannel enumerates the distinct merged target sets on the
// punch channel leaving router r in direction dir with the given
// hop-count slack (paper Table 1). The code book is derived from the
// fabric's routing function, so torus and ring channels account for
// wraparound paths; the zero TopologySpec is the paper's 8x8 mesh:
//
//	enc, err := powerpunch.EncodePunchChannel(powerpunch.TopologySpec{}, 27, powerpunch.DirE, 3)
func EncodePunchChannel(spec TopologySpec, r NodeID, dir Direction, hops int) (*PunchChannelEncoding, error) {
	spec = spec.normalize()
	rf, err := topo.Build(spec.Topology, spec.Width, spec.Height)
	if err != nil {
		return nil, err
	}
	return core.EncodeChannel(rf, r, dir, hops), nil
}

// Experiments re-exports the per-figure drivers for programmatic use.
// See the cmd/powerpunch CLI for the command-line interface.
type (
	// FullSystemOptions parameterizes Figures 7-11.
	FullSystemOptions = experiments.FullSystemOptions
	// BenchResult is one benchmark's four-scheme comparison.
	BenchResult = experiments.BenchResult
	// LoadSweepOptions parameterizes Figure 12.
	LoadSweepOptions = experiments.LoadSweepOptions
)

// RunFullSystem executes the PARSEC-style comparison behind Figures 7-11.
func RunFullSystem(o FullSystemOptions) ([]BenchResult, error) {
	return experiments.RunFullSystem(o)
}

// RunLoadSweep executes the synthetic sweep behind Figure 12.
func RunLoadSweep(o LoadSweepOptions) ([]experiments.LoadPoint, error) {
	return experiments.RunLoadSweep(o)
}

// TrafficTrace is a recorded workload: every message submission with its
// cycle, endpoints, class, and slack hints. Traces replay bit-exactly.
type TrafficTrace = traffic.Trace

// TraceRecorder captures every NI submission on a network.
type TraceRecorder = traffic.Recorder

// TraceReplay is a Driver that re-submits a recorded trace.
type TraceReplay = traffic.Replay

// NewTraceRecorder attaches a recorder to every NI of net; attach before
// running the workload.
func NewTraceRecorder(net *Network) *TraceRecorder { return traffic.NewRecorder(net) }

// NewTraceReplay returns a driver replaying t from cycle 0.
func NewTraceReplay(t *TrafficTrace) *TraceReplay { return traffic.NewReplay(t) }

// ReadTrafficTrace parses a JSON-lines trace.
func ReadTrafficTrace(r io.Reader) (*TrafficTrace, error) { return traffic.ReadTrace(r) }

// ValidateTrafficTrace checks a recorded trace against a fabric shape:
// events in cycle order, every endpoint on the fabric, sane sizes and
// virtual networks. A trace records raw node IDs, so replaying it on a
// different shape than it was recorded on otherwise fails deep inside
// the cycle loop; validate first and report the mismatch instead.
func ValidateTrafficTrace(spec TopologySpec, t *TrafficTrace) error {
	spec = spec.normalize()
	rf, err := topo.Build(spec.Topology, spec.Width, spec.Height)
	if err != nil {
		return err
	}
	return t.Validate(rf.Topology())
}

// CheckArtifact is the structured failure report the invariant engine
// (Config.Checks) emits on its first violation: the failing invariant
// and cycle, the full configuration, and every traffic submission, so
// the run reproduces deterministically.
type CheckArtifact = check.Artifact

// CheckViolation identifies one invariant failure.
type CheckViolation = check.Violation

// ReadCheckArtifact parses an artifact written by the invariant engine
// (see Network.OnViolation and `noctrace replay-failure`).
func ReadCheckArtifact(r io.Reader) (*CheckArtifact, error) { return check.ReadArtifact(r) }

// ReplayFailure rebuilds the network described by a failure artifact —
// same configuration, same injected faults, checks enabled — re-submits
// the recorded traffic, and runs until the violation reproduces. It
// returns the replayed run's artifact, whose invariant and cycle must
// match the original for the replay to be considered faithful (the
// simulator is deterministic, so they always do for a genuine capture).
// maxCycles <= 0 runs a short grace window past the recorded cycle.
func ReplayFailure(a *CheckArtifact, maxCycles int64) (*CheckArtifact, error) {
	cfg := a.Config
	cfg.Checks = true
	if maxCycles <= 0 {
		maxCycles = a.Cycle + 64
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("powerpunch: rebuilding network from artifact: %w", err)
	}
	var got *CheckArtifact
	net.OnViolation = func(x *CheckArtifact) { got = x }

	tr := &TrafficTrace{Events: make([]traffic.Event, 0, len(a.Events))}
	for _, e := range a.Events {
		tr.Events = append(tr.Events, traffic.Event{
			Now: e.Now, Src: e.Src, Dst: e.Dst, VN: e.VN, Kind: e.Kind,
			Size: e.Size, Hint: e.Hint, Delay: e.Delay,
		})
	}
	drv := traffic.NewReplay(tr)
	for net.Now() <= maxCycles && got == nil {
		drv.Tick(net, net.Now())
		net.Step()
	}
	if got == nil {
		return nil, fmt.Errorf("powerpunch: replay reached cycle %d without reproducing a violation (recorded at cycle %d)",
			net.Now(), a.Cycle)
	}
	return got, nil
}
