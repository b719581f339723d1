// Package config holds every knob of the simulated system in one place,
// mirroring the paper's Table 2 plus the power-gating and Power Punch
// parameters of Sections 4-5. A zero Config is not usable; start from
// Default and override.
package config

import (
	"fmt"
	"strings"

	"powerpunch/internal/power"
	"powerpunch/internal/scheme"
	"powerpunch/internal/topo"
)

// Scheme selects the power-management policy under evaluation by its
// registered name (internal/scheme). The zero value (empty string) is
// the No-PG baseline; Validate rejects unregistered names with
// *UnknownSchemeError. Historically this was an int enum — the named
// constants below keep every existing call site compiling.
type Scheme string

// The built-in schemes: the paper's comparison set plus the ablation
// and rival schemes.
const (
	// NoPG: baseline, routers always on.
	NoPG Scheme = scheme.NoPG
	// ConvOptPG: conventional power-gating optimized with an idle timeout
	// and one-hop early wakeup (WU asserted when the output direction is
	// computed at the upstream router).
	ConvOptPG Scheme = scheme.ConvOptPG
	// PowerPunchSignal: multi-hop punch signals only; no use of NI slack.
	PowerPunchSignal Scheme = scheme.PowerPunchSignal
	// PowerPunchPG: the comprehensive scheme with multi-hop and NI
	// (injection-node) punch signals.
	PowerPunchPG Scheme = scheme.PowerPunchPG
	// PlainPG: conventional power-gating exactly as in the paper's
	// Section 2.2 — no idle-timeout filtering beyond the 2-cycle
	// minimum and no early wakeup (WU asserted only when the packet
	// reaches switch allocation). Not part of the paper's four-scheme
	// comparison; used by the ablation to quantify what ConvOpt's
	// optimizations buy.
	PlainPG Scheme = scheme.PlainPG
	// FlyOverPG: FlyOver-style bypass gating — straight-through flits
	// detour around gated routers on a 1-cycle latch path instead of
	// waking them; turning and ejecting traffic wakes routers like
	// ConvOpt. Requires LinkLatency == 1.
	FlyOverPG Scheme = scheme.FlyOverPG
)

// Schemes lists the paper's four evaluated schemes in presentation
// order (the golden suite, figures, and soaks iterate this). The full
// registered set — including Plain-PG and FlyOver-PG — is
// SchemeNames.
var Schemes = []Scheme{NoPG, ConvOptPG, PowerPunchSignal, PowerPunchPG}

// AllSchemes extends Schemes with the FlyOver-style bypass scheme —
// the set the engine soaks, allocation gates, and the full-system
// suite iterate (Plain-PG stays a diagnostics-only scheme).
var AllSchemes = []Scheme{NoPG, ConvOptPG, PowerPunchSignal, PowerPunchPG, FlyOverPG}

// SchemeNames returns every registered scheme name, sorted.
func SchemeNames() []string { return scheme.Names() }

// SchemeByName resolves a registered scheme name (the empty string is
// the No-PG baseline). Unknown names fail with *UnknownSchemeError.
func SchemeByName(name string) (Scheme, error) {
	p, err := scheme.Lookup(name)
	if err != nil {
		return "", err
	}
	return Scheme(p.Name()), nil
}

// String returns the scheme's registered (presentation) name.
func (s Scheme) String() string {
	if s == "" {
		return string(NoPG)
	}
	return string(s)
}

// Policy resolves s in the scheme registry. Unknown names fail with
// *UnknownSchemeError (the same error Validate reports).
func (s Scheme) Policy() (scheme.Policy, error) {
	return scheme.Lookup(string(s))
}

// UnknownSchemeError reports a Scheme name that is not in the scheme
// registry (re-exported from internal/scheme so callers assert on it
// at the config surface, like UnknownPowerPresetError).
type UnknownSchemeError = scheme.UnknownSchemeError

// Config collects all simulation parameters. The defaults reproduce the
// paper's primary configuration (Table 2 and Section 5).
type Config struct {
	// Topology. Topology selects the fabric: "mesh" (default, also the
	// empty string), "torus" (both dimensions wrap; deadlock freedom via
	// a dateline VC class on wrap links, which needs DataVCs >= 2), or
	// "ring" (Width x 1 with a wrapped X dimension).
	Topology string
	Width    int // grid columns
	Height   int // grid rows (1 for a ring)

	// Router microarchitecture.
	RouterStages   int // 3 (speculative SA) or 4 (look-ahead routing only)
	LinkLatency    int // cycles per link traversal (Tlink)
	DataVCs        int // data VCs per virtual network
	CtrlVCs        int // control VCs per virtual network
	DataVCDepth    int // flits per data VC buffer
	CtrlVCDepth    int // flits per control VC buffer
	LinkBandwidth  int // bits per cycle (informational; 1 flit/cycle/link)
	DataPacketSize int // flits per data packet (cache line / link width)
	CtrlPacketSize int // flits per control packet

	// Power gating (Section 2.2, 5).
	Scheme        Scheme
	WakeupLatency int // Twakeup, cycles
	BreakEven     int // BET, cycles
	IdleTimeout   int // idle cycles before gating (min 2)
	// AdaptiveThrottle enables the churn back-off extension: a
	// controller that observes mostly sub-break-even gated periods
	// pauses gating for a window, avoiding the medium-load regime where
	// gating costs more energy than it saves (not in the paper).
	AdaptiveThrottle bool

	// PowerPreset selects the calibrated power-model constants by name
	// (power.Presets lists them). Empty selects power.DefaultPreset
	// (paper-hpca15, the calibration the paper's aggregate numbers and
	// the golden suite are locked against). Unknown names fail Validate
	// with *UnknownPowerPresetError.
	PowerPreset string

	// Power Punch (Section 4).
	PunchHops int // hop-count slack of punch signals (2, 3, or 4)
	// PunchIdleTimeout replaces IdleTimeout under punch schemes: punch
	// signals forewarn arrivals precisely, so only the 2-cycle in-flight
	// minimum remains (Section 4.3).
	PunchIdleTimeout int
	// PunchStrict limits each router to one newly-generated punch per
	// outgoing direction per cycle, matching the single-signal-per-
	// emitter hardware encoding of Table 1 exactly (ablation knob; the
	// default idealized merge is a negligible superset in practice).
	PunchStrict bool

	// Network interface (Section 4.2).
	NILatency int // cycles a packet spends in the NI pipeline
	// ResourceSlack is the paper's "slack 2": the number of cycles before
	// NI entry at which an L2/directory access already guarantees a
	// packet will be generated (L2 access latency, 6 in Table 2).
	ResourceSlack int
	// ResourceSlackValidFrac is the fraction of messages whose generating
	// resource access carries the slack-2 valid bit (L2/directory
	// accesses qualify; L1 accesses do not).
	ResourceSlackValidFrac float64

	// Simulation control.
	Seed          int64
	WarmupCycles  int64 // cycles before statistics collection starts
	MeasureCycles int64 // cycles of measured injection
	DrainCycles   int64 // max cycles to wait for in-flight packets

	// Workers is ignored: every run is single-threaded, and sweeps run
	// their independent points concurrently. Validate still rejects
	// negative values.
	//
	// Deprecated: ignored.
	Workers int

	// RecyclePackets returns ejected packets to a free list so
	// Network.NewPacket allocates nothing in steady state. Off by
	// default because it changes the packet-lifetime contract: a driver
	// that retains *flit.Packet pointers past ejection would observe a
	// later packet's fields once the object is reused (fields stay
	// intact until reuse — recycled packets are zeroed on reacquisition,
	// not on release). Benchmarks and the alloc-pinning tests enable it;
	// recycling changes no simulation state either way. Ignored (no
	// pool exists) when Checks is set, and ejected packets handed to an
	// NI Deliver hook are never recycled.
	RecyclePackets bool

	// FullTick keeps every node in the active-set tick scheduler's set,
	// so no node is ever parked and every phase visits every node (less
	// those its work summary shows it has no work for). The two paths
	// are bit-identical (the golden-metrics tests assert it); FullTick
	// exists as the differential-testing reference and as a bisection aid
	// when a scheduler bug is suspected.
	FullTick bool

	// Correctness checking (internal/check).
	// Checks enables the per-cycle invariant engine: flit/credit
	// conservation, VC state legality, power-gating safety, the punch
	// non-blocking guarantee, and a deadlock watchdog. Off by default;
	// when disabled the tick loop pays no cost.
	Checks bool
	// CheckInterval is the stride, in cycles, of the expensive
	// whole-network sweeps (conservation and credit accounting). The
	// cheap safety invariants run every cycle regardless. 0 selects the
	// default of 8.
	CheckInterval int
	// CheckStallLimit is the deadlock-watchdog threshold: a routed head
	// flit stalled at the front of a VC for more than this many cycles
	// without a gated-downstream excuse is reported. 0 selects the
	// default of 4096.
	CheckStallLimit int
	// Faults injects deliberate defects for exercising the invariant
	// engine and the replay harness. All false in normal operation.
	Faults Faults
}

// Faults enumerates deliberate, switchable defects. Each one disables a
// safety mechanism the invariant engine is supposed to guard, so tests
// (and `noctrace replay-failure`) can confirm the matching invariant
// fires and that the captured artifact reproduces deterministically.
// The struct is part of Config so a failure artifact carries it and a
// replay re-applies the same defect.
type Faults struct {
	// IgnoreWakeups makes gated PG controllers ignore WU and punch-hold
	// inputs: a gated router never wakes. Caught by the pg-wake-handshake
	// invariant (and eventually the watchdog).
	IgnoreWakeups bool
	// DropPunchRelays suppresses multi-hop punch relaying in the fabric,
	// so punch signals reach only one hop. Caught by the punch-nonblocking
	// invariant: routers farther than one hop from the source are still
	// waking when the packet arrives.
	DropPunchRelays bool
	// DropRearms makes the active-set tick scheduler drop every re-arm
	// event (wakeup wants, punch holds, incoming-flit pushes) aimed at a
	// component it already parked; only local NI injections still
	// activate. A dropped re-arm leaves a gated router asleep forever or
	// a delivered flit forever unserved — caught by pg-wake-handshake
	// (power-gating schemes) or scheduler-liveness (No-PG). No-op under
	// FullTick.
	DropRearms bool
	// InvertDatelineClass makes VC allocation on wrapped fabrics (torus,
	// ring) assign every packet the opposite dateline VC class, breaking
	// the deadlock-freedom discipline. Caught by the dateline-legality
	// invariant on the first packet that departs along a wrapped
	// dimension. No-op on the mesh (one class).
	InvertDatelineClass bool
	// BypassIllegalTurn makes routers under a bypass scheme (FlyOver)
	// skip the straight-through routing check at bypass admission, so a
	// head that should turn or eject at the gated neighbor is flung over
	// it anyway. Caught by the bypass-legality invariant on the first
	// illegally tagged flit in flight. No-op for non-bypass schemes.
	BypassIllegalTurn bool
}

// Any reports whether any fault is enabled.
func (f Faults) Any() bool {
	return f.IgnoreWakeups || f.DropPunchRelays || f.DropRearms ||
		f.InvertDatelineClass || f.BypassIllegalTurn
}

// Default returns the paper's primary configuration: 8x8 mesh, XY routing,
// wormhole switching, 3 VNs with 2x3-flit data VCs and 1x1-flit control
// VC, 128-bit links, 3-stage speculative routers, Twakeup=8, BET=10,
// timeout=4, 3-hop punch, 3-cycle NI.
func Default() Config {
	return Config{
		Width:  8,
		Height: 8,

		RouterStages:   3,
		LinkLatency:    1,
		DataVCs:        2,
		CtrlVCs:        1,
		DataVCDepth:    3,
		CtrlVCDepth:    1,
		LinkBandwidth:  128,
		DataPacketSize: 5, // 64B cache line / 128-bit flits + head
		CtrlPacketSize: 1,

		Scheme:        PowerPunchPG,
		WakeupLatency: 8,
		BreakEven:     10,
		IdleTimeout:   4,

		PowerPreset: power.DefaultPreset,

		PunchHops:        3,
		PunchIdleTimeout: 2,
		PunchStrict:      false,

		NILatency:              3,
		ResourceSlack:          6,
		ResourceSlackValidFrac: 0.8,

		Seed:          1,
		WarmupCycles:  10_000,
		MeasureCycles: 50_000,
		DrainCycles:   30_000,
	}
}

// VCsPerVN returns the number of virtual channels per virtual network.
func (c *Config) VCsPerVN() int { return c.DataVCs + c.CtrlVCs }

// TopologyKind returns the parsed fabric kind; invalid names fall back
// to the mesh (Validate reports them as errors).
func (c *Config) TopologyKind() topo.Kind {
	k, _ := topo.ParseKind(c.Topology)
	return k
}

// BuildRouting constructs the configured topology and its canonical
// routing function.
func (c *Config) BuildRouting() (*topo.RoutingFunction, error) {
	return topo.Build(c.Topology, c.Width, c.Height)
}

// DataVCClassRange returns the half-open subrange [lo, hi) of data VC
// indices (within a VN) that dateline class cls may allocate on fabrics
// with wrap links. Class 0 (pre-dateline) gets the lower half, class 1
// the rest; class 1 also carries all never-wrapping traffic, so it gets
// the larger share when DataVCs is odd. On the mesh (one class) the
// router never consults this.
func (c *Config) DataVCClassRange(cls int) (lo, hi int) {
	if cls == 0 {
		return 0, c.DataVCs / 2
	}
	return c.DataVCs / 2, c.DataVCs
}

// CtrlVCClassRange is DataVCClassRange for the control VCs (indices
// after the data VCs). With fewer than two control VCs, class 0's range
// is empty and control packets in class 0 fall back to the class-0 data
// VCs; the whole control range goes to class 1, which is safe because
// the class-1 channel subgraph is acyclic on its own.
func (c *Config) CtrlVCClassRange(cls int) (lo, hi int) {
	base := c.DataVCs
	if c.CtrlVCs >= 2 {
		if cls == 0 {
			return base, base + c.CtrlVCs/2
		}
		return base + c.CtrlVCs/2, base + c.CtrlVCs
	}
	if cls == 0 {
		return base, base
	}
	return base, base + c.CtrlVCs
}

// VCDepth returns the buffer depth of VC index v within a virtual
// network: data VCs come first, control VCs after.
func (c *Config) VCDepth(v int) int {
	if v < c.DataVCs {
		return c.DataVCDepth
	}
	return c.CtrlVCDepth
}

// IsDataVC reports whether VC index v (within a VN) is a data VC.
func (c *Config) IsDataVC(v int) bool { return v < c.DataVCs }

// RouterCycles returns Trouter: pipeline cycles per hop excluding the
// link (3 for the speculative design, 4 for plain look-ahead routing).
func (c *Config) RouterCycles() int { return c.RouterStages }

// PunchSlackCycles returns the wakeup latency a k-hop punch can hide:
// k * Trouter (paper Section 4.1: "hide Twakeup up to 9 cycles for
// 3-stage routers and up to 12 cycles for 4-stage routers").
func (c *Config) PunchSlackCycles() int { return c.PunchHops * c.RouterCycles() }

// UnknownPowerPresetError reports a PowerPreset name that is not in
// the power package's calibration registry. It is a typed error so the
// CLI and the campaign server can reject bad presets loudly and tests
// can assert on it with errors.As.
type UnknownPowerPresetError struct {
	Name  string
	Known []string // valid preset names, sorted
}

func (e *UnknownPowerPresetError) Error() string {
	return fmt.Sprintf("config: unknown power preset %q (known presets: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// MaxVCDepth is the deepest VC buffer Validate accepts: the router
// keeps each VC's ring position and flit count in one byte.
const MaxVCDepth = 255

// VCDepthError reports a VC buffer deeper than MaxVCDepth.
type VCDepthError struct {
	Field string // "DataVCDepth" or "CtrlVCDepth"
	Depth int
}

func (e *VCDepthError) Error() string {
	return fmt.Sprintf("config: %s %d exceeds the maximum VC depth %d", e.Field, e.Depth, MaxVCDepth)
}

// ValidationErrors aggregates every scheme-scoped validation failure
// of one Validate call, so a caller fixing a config sees all of them
// at once instead of peeling one per run. It unwraps to its members,
// so errors.As still finds typed errors inside.
type ValidationErrors []error

func (e ValidationErrors) Error() string {
	msgs := make([]string, len(e))
	for i, err := range e {
		msgs[i] = err.Error()
	}
	return fmt.Sprintf("config: %d invalid parameters: %s", len(e), strings.Join(msgs, "; "))
}

// Unwrap supports errors.Is/As over the aggregated members.
func (e ValidationErrors) Unwrap() []error { return []error(e) }

// Validate reports invalid parameter combinations, or nil. Structural
// errors (topology shape, pipeline depths) report first-wins;
// scheme-scoped violations are aggregated, so a single call reports
// every gating/punch/NI parameter that is out of range for the
// selected scheme (one bare error, or a ValidationErrors when several
// fail together).
func (c *Config) Validate() error {
	kind, err := topo.ParseKind(c.Topology)
	if err != nil {
		return fmt.Errorf("config: %v", err)
	}
	if _, ok := power.PresetByName(c.PowerPreset); !ok {
		return &UnknownPowerPresetError{Name: c.PowerPreset, Known: power.Presets()}
	}
	pol, err := c.Scheme.Policy()
	if err != nil {
		return err
	}
	switch kind {
	case topo.KindRing:
		if c.Height != 1 {
			return fmt.Errorf("config: ring topology needs Height 1, got %dx%d", c.Width, c.Height)
		}
		if c.Width < 2 {
			return fmt.Errorf("config: ring needs at least 2 nodes, got %d", c.Width)
		}
	default:
		if c.Width < 2 || c.Height < 2 {
			return fmt.Errorf("config: %s must be at least 2x2, got %dx%d", kind, c.Width, c.Height)
		}
	}
	switch {
	case c.RouterStages != 3 && c.RouterStages != 4:
		return fmt.Errorf("config: RouterStages must be 3 or 4, got %d", c.RouterStages)
	case c.LinkLatency < 1:
		return fmt.Errorf("config: LinkLatency must be >= 1, got %d", c.LinkLatency)
	case c.DataVCs < 1:
		return fmt.Errorf("config: need at least one data VC per VN, got %d", c.DataVCs)
	case c.CtrlVCs < 0:
		return fmt.Errorf("config: CtrlVCs must be >= 0, got %d", c.CtrlVCs)
	case c.DataVCDepth < 1 || (c.CtrlVCs > 0 && c.CtrlVCDepth < 1):
		return fmt.Errorf("config: VC depths must be >= 1")
	case c.DataVCDepth > MaxVCDepth:
		return &VCDepthError{Field: "DataVCDepth", Depth: c.DataVCDepth}
	case c.CtrlVCs > 0 && c.CtrlVCDepth > MaxVCDepth:
		return &VCDepthError{Field: "CtrlVCDepth", Depth: c.CtrlVCDepth}
	case c.DataPacketSize < 1 || c.CtrlPacketSize < 1:
		return fmt.Errorf("config: packet sizes must be >= 1")
	}
	var errs []error
	if pol.Gates() {
		if c.WakeupLatency < 1 {
			errs = append(errs, fmt.Errorf("config: WakeupLatency must be >= 1, got %d", c.WakeupLatency))
		}
		if c.IdleTimeout < 2 {
			errs = append(errs, fmt.Errorf("config: IdleTimeout must be >= 2 (in-flight flits must land), got %d", c.IdleTimeout))
		}
		if c.BreakEven < 0 {
			errs = append(errs, fmt.Errorf("config: BreakEven must be >= 0, got %d", c.BreakEven))
		}
	}
	if kind != topo.KindMesh && c.DataVCs < 2 {
		// Wrapped fabrics split the data VCs into two dateline classes;
		// each class needs at least one VC or packets on one side of the
		// dateline could never allocate a buffer.
		return fmt.Errorf("config: %s topology needs DataVCs >= 2 for the dateline VC classes, got %d",
			kind, c.DataVCs)
	}
	if pol.Punches() {
		if c.PunchHops < 1 || c.PunchHops > 4 {
			errs = append(errs, fmt.Errorf("config: PunchHops must be in [1,4], got %d", c.PunchHops))
		} else {
			t, err := topo.New(kind, c.Width, c.Height)
			if err != nil {
				return fmt.Errorf("config: %v", err)
			}
			if d := t.Diameter(); c.PunchHops > d {
				errs = append(errs, fmt.Errorf("config: PunchHops %d exceeds the %s diameter %d (no packet travels that far)",
					c.PunchHops, t, d))
			}
		}
		if c.PunchIdleTimeout < 2 {
			errs = append(errs, fmt.Errorf("config: PunchIdleTimeout must be >= 2, got %d", c.PunchIdleTimeout))
		}
	}
	if pol.NISlack() {
		if c.NILatency < 0 || c.ResourceSlack < 0 {
			errs = append(errs, fmt.Errorf("config: NI slack parameters must be >= 0"))
		}
		if c.ResourceSlackValidFrac < 0 || c.ResourceSlackValidFrac > 1 {
			errs = append(errs, fmt.Errorf("config: ResourceSlackValidFrac must be in [0,1], got %g", c.ResourceSlackValidFrac))
		}
	}
	if pol.Bypass() && c.LinkLatency != 1 {
		// The bypass admission check at the upstream router reads the
		// gated router's latch-path state one cycle before delivery;
		// longer links would let two senders over-commit the same latch.
		errs = append(errs, fmt.Errorf("config: bypass scheme %s requires LinkLatency == 1, got %d",
			c.Scheme, c.LinkLatency))
	}
	switch len(errs) {
	case 0:
	case 1:
		return errs[0]
	default:
		return ValidationErrors(errs)
	}
	if c.NILatency < 1 {
		return fmt.Errorf("config: NILatency must be >= 1, got %d", c.NILatency)
	}
	if c.CheckInterval < 0 {
		return fmt.Errorf("config: CheckInterval must be >= 0, got %d", c.CheckInterval)
	}
	if c.CheckStallLimit < 0 {
		return fmt.Errorf("config: CheckStallLimit must be >= 0, got %d", c.CheckStallLimit)
	}
	if c.Workers < 0 {
		return fmt.Errorf("config: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// WithScheme returns a copy of c with the scheme replaced. It is a
// convenience for sweeping the four schemes over one base configuration.
func (c Config) WithScheme(s Scheme) Config {
	c.Scheme = s
	return c
}
