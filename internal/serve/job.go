// Package serve implements the noctrace campaign server: simulation
// as a service over HTTP/JSON. Clients submit jobs (scheme + topology
// + traffic + seed + cycles), which run concurrently on a bounded
// worker pool with admission control; finished results are cached by
// a canonical (config, seed) hash, so repeated queries are served
// byte-identically at zero simulation cost — sound because runs are
// seed-deterministic and bit-identical across the active-set and
// full-walk engines. Campaigns fan parameter sweeps out
// over the same pool, report progress, survive graceful shutdown via
// a persisted state file, and export the in-process loadsweep CSV
// bit-for-bit. See DESIGN.md §13.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"powerpunch/internal/config"
	"powerpunch/internal/network"
	"powerpunch/internal/parsec"
	"powerpunch/internal/power"
	"powerpunch/internal/traffic"
)

// JobSpec describes one simulation job. The zero value of every field
// selects the paper's default (8x8 mesh, uniform traffic at 0.02
// flits/node/cycle, PowerPunch-PG, seed 1, 20k measured cycles), so a
// submission needs only the fields it wants to vary. Bench switches
// the job to a full-system CMP/PARSEC workload, which replaces the
// synthetic pattern/rate/warmup knobs.
type JobSpec struct {
	Scheme   string  `json:"scheme,omitempty"`   // any registered scheme name (see config.SchemeNames)
	Topology string  `json:"topology,omitempty"` // mesh|torus|ring
	Width    int     `json:"width,omitempty"`    // grid columns
	Height   int     `json:"height,omitempty"`   // grid rows (1 for a ring)
	Pattern  string  `json:"pattern,omitempty"`  // synthetic pattern (synthetic jobs only)
	Rate     float64 `json:"rate,omitempty"`     // offered load, flits/node/cycle
	Bench    string  `json:"bench,omitempty"`    // PARSEC-like profile name (full-system jobs)
	Instr    int64   `json:"instr,omitempty"`    // instructions per core (bench jobs only)
	Cycles   int64   `json:"cycles,omitempty"`   // measured cycles (bench: safety bound)
	Warmup   int64   `json:"warmup,omitempty"`   // warmup cycles before measurement
	Seed     int64   `json:"seed,omitempty"`     // RNG seed

	// PowerPreset selects the power-model calibration (power.Presets);
	// empty means the paper's calibration. Unknown names are rejected at
	// submission with config's typed error, before any job is queued.
	PowerPreset string `json:"power_preset,omitempty"`
}

// withDefaults fills every zero field with its canonical default, so
// that specs spelling a default explicitly and specs omitting it are
// the same job (and hash to the same cache key).
func (s JobSpec) withDefaults() JobSpec {
	if s.Scheme == "" {
		s.Scheme = config.PowerPunchPG.String()
	}
	if s.Topology == "" {
		s.Topology = "mesh"
	}
	if s.Width == 0 {
		s.Width = 8
	}
	if s.Height == 0 {
		if s.Topology == "ring" {
			s.Height = 1
		} else {
			s.Height = 8
		}
	}
	if s.Bench == "" {
		if s.Pattern == "" {
			s.Pattern = "uniform"
		}
		if s.Rate == 0 {
			s.Rate = 0.02
		}
	} else if s.Instr == 0 {
		s.Instr = 20_000
	}
	if s.Cycles == 0 {
		s.Cycles = 20_000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.PowerPreset == "" {
		s.PowerPreset = power.DefaultPreset
	}
	return s
}

// maxNodes bounds a spec's fabric (Width*Height): 128x128, four times
// the largest fabric the benchmark runs. Normalize rejects larger
// fabrics before anything allocates a node table for them.
const maxNodes = 128 * 128

// Normalize validates the spec and returns its canonical form, the
// only input Run accepts. Field combinations that would otherwise be
// silently ignored (synthetic knobs under bench, instr without bench)
// are rejected, the fabric is bounded by maxNodes, and the assembled
// config must pass config.Validate. The server and the noctrace CLI
// share it, so both apply the same defaults and rules.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.Bench != "" {
		if s.Pattern != "" || s.Rate != 0 || s.Warmup != 0 {
			return s, fmt.Errorf("pattern, rate, and warmup do not apply to bench (full-system) jobs")
		}
	} else if s.Instr != 0 {
		return s, fmt.Errorf("instr applies only to bench (full-system) jobs")
	}
	if s.Cycles < 0 || s.Warmup < 0 || s.Instr < 0 || s.Seed < 0 {
		return s, fmt.Errorf("cycles, warmup, instr, and seed must be >= 0")
	}
	if s.Rate < 0 || s.Rate > 1 {
		return s, fmt.Errorf("rate must be in [0,1], got %g", s.Rate)
	}
	s = s.withDefaults()
	if s.Width > 0 && s.Height > 0 && s.Width > maxNodes/s.Height {
		return s, fmt.Errorf("fabric %dx%d exceeds the %d-node limit", s.Width, s.Height, maxNodes)
	}
	if _, err := config.SchemeByName(s.Scheme); err != nil {
		// The typed *config.UnknownSchemeError carries the known names;
		// its exact message lands in the 400 JSON envelope, mirroring
		// the power-preset contract.
		return s, err
	}
	if s.Bench != "" {
		if _, err := parsec.Profile(s.Bench, s.Instr); err != nil {
			return s, err
		}
	} else if _, err := traffic.ByName(s.Pattern); err != nil {
		return s, err
	}
	cfg, err := s.config()
	if err != nil {
		return s, err
	}
	if err := cfg.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// config assembles the simulation configuration for a normalized spec,
// starting from the paper's defaults exactly like the in-process
// experiment drivers do (which is what keeps API sweeps bit-identical
// to them).
func (s JobSpec) config() (config.Config, error) {
	sch, err := config.SchemeByName(s.Scheme)
	if err != nil {
		return config.Config{}, err
	}
	cfg := config.Default()
	cfg.Scheme = sch
	cfg.Topology = s.Topology
	cfg.Width, cfg.Height = s.Width, s.Height
	cfg.Seed = s.Seed
	cfg.PowerPreset = s.PowerPreset
	if s.Bench != "" {
		// Full-system runs measure from cycle 0 until the protocol
		// drains; Cycles only bounds the run.
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
	} else {
		cfg.WarmupCycles = s.Warmup
		cfg.MeasureCycles = s.Cycles
	}
	return cfg, nil
}

// Key returns the canonical (config, seed) hash of the normalized
// spec: SHA-256 over a versioned, field-tagged rendering with floats
// in exact hexadecimal form.
func (s JobSpec) Key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"noctrace-job-v2|scheme=%s|topo=%s|w=%d|h=%d|pattern=%s|rate=%s|bench=%s|instr=%d|cycles=%d|warmup=%d|seed=%d|preset=%s",
		s.Scheme, s.Topology, s.Width, s.Height, s.Pattern,
		strconv.FormatFloat(s.Rate, 'x', -1, 64),
		s.Bench, s.Instr, s.Cycles, s.Warmup, s.Seed, s.PowerPreset)))
	return hex.EncodeToString(h[:])
}

// JobRecord is the stored (and served) result of one job: the
// normalized spec, its cache key, and the full RunResult including
// the versioned Detail breakdown. Records are marshaled exactly once,
// when the simulation finishes; every later response for the same key
// serves those bytes, so repeated queries are byte-identical.
type JobRecord struct {
	Key  string  `json:"key"`
	Spec JobSpec `json:"spec"`

	Result network.RunResult `json:"result"`

	// Throughput is delivered flits/node/cycle over the measurement
	// window (synthetic jobs; the loadsweep CSV needs it).
	Throughput float64 `json:"throughput_flits_node_cycle,omitempty"`
	// ExecTime is the workload's execution time (bench jobs).
	ExecTime int64 `json:"exec_time_cycles,omitempty"`
}
