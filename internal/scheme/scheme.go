// Package scheme defines the pluggable power-management policy layer:
// the Policy contract every gating scheme implements, a string-keyed
// registry the configuration layer resolves names through, and the
// built-in policies — the paper's comparison set (No-PG, ConvOpt-PG,
// PowerPunch-Signal, PowerPunch-PG, the ablation-only Plain-PG) plus
// the FlyOver-style bypass scheme.
//
// Before this layer existed, scheme behaviour was an int enum in
// internal/config whose boolean predicates leaked into six packages;
// adding a rival scheme meant touching every layer. Now the network,
// router, NI, and invariant engine consult one Policy
// resolved once at construction, and a new scheme is one Register call
// (see DESIGN.md §15 and the README "Adding a scheme" walkthrough).
//
// The registry is populated in init and read-only afterwards, so
// Lookup is safe for concurrent use.
package scheme

import (
	"fmt"
	"sort"
	"strings"
)

// Policy is the contract a power-management scheme implements. All
// methods are pure: the simulator resolves a Config's policy once at
// network construction and consults these predicates to wire gating,
// wakeup, punch, NI, and bypass behaviour. Implementations must be
// stateless (one registered value serves every concurrent network).
type Policy interface {
	// Name is the scheme's presentation name — the registry key, the
	// Config.Scheme spelling, and the name golden files and CLI flags
	// use (e.g. "PowerPunch-PG").
	Name() string

	// Gates reports whether routers may be power-gated off at all.
	Gates() bool
	// EarlyWakeup reports whether WU levels fire at route-computation
	// time (the ConvOpt optimization, subsumed by the punch schemes);
	// without it WU asserts only when the packet requests the switch.
	EarlyWakeup() bool
	// IdleFilter reports whether the long (BET-oriented) idle timeout
	// applies before gating; without it only the 2-cycle in-flight
	// minimum holds.
	IdleFilter() bool
	// Punches reports whether multi-hop punch signals are active.
	Punches() bool
	// NISlack reports whether injection-node slack (paper Section 4.2)
	// is exploited.
	NISlack() bool
	// Bypass reports whether flits may detour around gated routers on
	// a latch-based bypass path instead of waking them (the FlyOver
	// approach). Bypass schemes require LinkLatency == 1.
	Bypass() bool
}

// Accountant is the narrow slice of the power model a policy's energy
// attribution hooks may charge through (power.Accountant implements
// it).
type Accountant interface {
	// LinkHop charges one link traversal's dynamic energy.
	LinkHop()
}

// BypassEnergy is implemented by bypass policies that charge the
// detour's extra energy. The router invokes it at the granting
// (upstream) router when a flit is sent onto a bypass path.
type BypassEnergy interface {
	// AttributeBypass charges the energy of one bypass hop (the latch
	// path through the gated router).
	AttributeBypass(a Accountant)
}

// UnknownSchemeError reports a scheme name that is not in the
// registry. It is a typed error so the CLIs can exit 2 on it, the
// campaign server can reject bad submissions with the exact message in
// its 400 JSON envelope, and tests can assert on it with errors.As —
// mirroring config's UnknownPowerPresetError contract.
type UnknownSchemeError struct {
	Name  string
	Known []string // registered scheme names, sorted
}

func (e *UnknownSchemeError) Error() string {
	return fmt.Sprintf("config: unknown scheme %q (known schemes: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// registry maps presentation names to policies. Populated in init and
// by Register; read-only after package initialization in practice.
var registry = map[string]Policy{}

// Register adds p to the registry. It panics on a duplicate or empty
// name: registration happens at init time and a collision is a
// programming error, not a runtime condition.
func Register(p Policy) {
	name := p.Name()
	if name == "" {
		panic("scheme: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: duplicate Register(%q)", name))
	}
	registry[name] = p
}

// Lookup resolves a registered scheme by name. The empty string
// resolves to the No-PG baseline (the zero Config.Scheme). Unknown
// names fail with *UnknownSchemeError carrying the known names.
func Lookup(name string) (Policy, error) {
	if name == "" {
		name = NoPG
	}
	p, ok := registry[name]
	if !ok {
		return nil, &UnknownSchemeError{Name: name, Known: Names()}
	}
	return p, nil
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in scheme names (registry keys).
const (
	NoPG             = "No-PG"
	ConvOptPG        = "ConvOpt-PG"
	PowerPunchSignal = "PowerPunch-Signal"
	PowerPunchPG     = "PowerPunch-PG"
	PlainPG          = "Plain-PG"
	FlyOverPG        = "FlyOver-PG"
)

// flat is the stateless predicate-table policy the built-in schemes
// are expressed as.
type flat struct {
	name                                       string
	gates, early, idleFilter, punches, niSlack bool
	bypass                                     bool
}

func (f flat) Name() string      { return f.name }
func (f flat) Gates() bool       { return f.gates }
func (f flat) EarlyWakeup() bool { return f.early }
func (f flat) IdleFilter() bool  { return f.idleFilter }
func (f flat) Punches() bool     { return f.punches }
func (f flat) NISlack() bool     { return f.niSlack }
func (f flat) Bypass() bool      { return f.bypass }

// flyOver is the FlyOver-style bypass policy: routers gate like
// ConvOpt (long idle filter, early wakeup for turning traffic), but
// straight-through flits detour around gated routers on a 1-cycle
// latch path instead of waking them. The detour costs one extra link
// hop of dynamic energy, charged when the upstream router grants it.
type flyOver struct{ flat }

// AttributeBypass implements BypassEnergy: the latch path through the
// gated router is modeled as one additional link traversal.
func (flyOver) AttributeBypass(a Accountant) { a.LinkHop() }

func init() {
	Register(flat{name: NoPG})
	Register(flat{name: ConvOptPG, gates: true, early: true, idleFilter: true})
	Register(flat{name: PowerPunchSignal, gates: true, early: true, punches: true})
	Register(flat{name: PowerPunchPG, gates: true, early: true, punches: true, niSlack: true})
	Register(flat{name: PlainPG, gates: true})
	Register(flyOver{flat{name: FlyOverPG, gates: true, early: true, idleFilter: true, bypass: true}})
}
