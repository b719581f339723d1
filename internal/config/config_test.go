package config

import (
	"errors"
	"strings"
	"testing"

	"powerpunch/internal/power"
	"powerpunch/internal/scheme"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesPaperTable2(t *testing.T) {
	cfg := Default()
	if cfg.Width != 8 || cfg.Height != 8 {
		t.Error("default mesh must be 8x8")
	}
	if cfg.DataVCs != 2 || cfg.CtrlVCs != 1 || cfg.DataVCDepth != 3 || cfg.CtrlVCDepth != 1 {
		t.Error("VC configuration must match Table 2 (2x3-flit data + 1x1-flit control)")
	}
	if cfg.LinkBandwidth != 128 {
		t.Error("link bandwidth must be 128 bits/cycle")
	}
	if cfg.WakeupLatency != 8 || cfg.BreakEven != 10 || cfg.IdleTimeout != 4 {
		t.Error("power-gating parameters must match Section 5 (Twakeup=8, BET=10, timeout=4)")
	}
	if cfg.PunchHops != 3 || cfg.NILatency != 3 || cfg.ResourceSlack != 6 {
		t.Error("punch/NI parameters must match Sections 4-5")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.Width = 1 },
		func(c *Config) { c.RouterStages = 5 },
		func(c *Config) { c.LinkLatency = 0 },
		func(c *Config) { c.DataVCs = 0 },
		func(c *Config) { c.DataVCDepth = 0 },
		func(c *Config) { c.DataPacketSize = 0 },
		func(c *Config) { c.WakeupLatency = 0 },
		func(c *Config) { c.IdleTimeout = 1 },
		func(c *Config) { c.BreakEven = -1 },
		func(c *Config) { c.PunchHops = 0 },
		func(c *Config) { c.PunchHops = 5 },
		func(c *Config) { c.PunchIdleTimeout = 1 },
		func(c *Config) { c.NILatency = 0 },
		func(c *Config) { c.ResourceSlackValidFrac = 1.5 },
		func(c *Config) { c.Topology = "hypercube" },
		func(c *Config) { c.Topology = "ring" }, // ring needs Height == 1
		func(c *Config) { c.Topology = "ring"; c.Height = 1; c.Width = 1 },
		func(c *Config) { c.Topology = "torus"; c.DataVCs = 1 }, // dateline classes need 2
		func(c *Config) { c.Topology = "ring"; c.Height = 1; c.DataVCs = 1 },
		func(c *Config) { c.Width, c.Height = 2, 2 },                       // PunchHops 3 > mesh diameter 2
		func(c *Config) { c.Topology = "torus"; c.Width, c.Height = 2, 2 }, // PunchHops 3 > torus diameter 2
	}
	for i, m := range mut {
		cfg := Default()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// TestOversizedPacketsDoNotBypassValidation: a data packet much longer
// than the VC buffers is legal under wormhole switching, and it must
// not short-circuit the checks that follow the packet-size check. Each
// row pairs such a packet with one later violation and expects that
// violation's error.
func TestOversizedPacketsDoNotBypassValidation(t *testing.T) {
	oversize := func(c *Config) { c.DataPacketSize = c.DataVCDepth*3 + 65 }
	cfg := Default()
	oversize(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("oversized data packet alone rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"WakeupLatency", func(c *Config) { c.WakeupLatency = 0 }, "WakeupLatency must be >= 1"},
		{"IdleTimeout", func(c *Config) { c.IdleTimeout = 1 }, "IdleTimeout must be >= 2"},
		{"BreakEven", func(c *Config) { c.BreakEven = -1 }, "BreakEven must be >= 0"},
		{"TorusDataVCs", func(c *Config) { c.Topology = "torus"; c.DataVCs = 1 }, "needs DataVCs >= 2"},
		{"RingDataVCs", func(c *Config) { c.Topology = "ring"; c.Height = 1; c.DataVCs = 1 }, "needs DataVCs >= 2"},
		{"PunchHopsZero", func(c *Config) { c.PunchHops = 0 }, "PunchHops must be in [1,4]"},
		{"PunchHopsDiameter", func(c *Config) { c.Width, c.Height = 2, 2 }, "exceeds the 2x2 mesh diameter"},
		{"PunchIdleTimeout", func(c *Config) { c.PunchIdleTimeout = 1 }, "PunchIdleTimeout must be >= 2"},
		{"NISlack", func(c *Config) { c.ResourceSlack = -1 }, "NI slack parameters must be >= 0"},
		{"SlackValidFrac", func(c *Config) { c.ResourceSlackValidFrac = 1.5 }, "ResourceSlackValidFrac must be in [0,1]"},
		{"BypassLinkLatency", func(c *Config) { c.Scheme = FlyOverPG; c.LinkLatency = 2 }, "requires LinkLatency == 1"},
		{"NILatency", func(c *Config) { c.NILatency = 0 }, "NILatency must be >= 1"},
		{"CheckInterval", func(c *Config) { c.CheckInterval = -1 }, "CheckInterval must be >= 0"},
		{"CheckStallLimit", func(c *Config) { c.CheckStallLimit = -1 }, "CheckStallLimit must be >= 0"},
		{"Workers", func(c *Config) { c.Workers = -1 }, "Workers must be >= 0"},
	} {
		cfg := Default()
		oversize(&cfg)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with an oversized packet: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsTopologies pins the accepted fabric configurations
// and that diameter-aware punch bounds use the wrapped distance: a 4x4
// torus has diameter 4, so PunchHops 4 passes where the mutation table
// above shows PunchHops 4 failing only past the diameter.
func TestValidateAcceptsTopologies(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Topology = "" },     // default mesh
		func(c *Config) { c.Topology = "mesh" }, // explicit
		func(c *Config) { c.Topology = "torus"; c.Width, c.Height = 4, 4; c.PunchHops = 4 },
		func(c *Config) { c.Topology = "torus"; c.Width, c.Height = 8, 8 },
		func(c *Config) { c.Topology = "ring"; c.Width, c.Height = 8, 1; c.PunchHops = 4 },
		func(c *Config) { c.Topology = "ring"; c.Width, c.Height = 2, 1; c.PunchHops = 1 },
	}
	for i, m := range cases {
		cfg := Default()
		m(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: unexpected validation error: %v", i, err)
		}
	}
}

// TestValidateAcceptsLargeFabrics locks 32x32 and 64x64 meshes and
// tori in as first-class configurations: they must validate under
// every scheme (the punch diameter check, dateline VC split, and
// bypass link gate all have to hold at scale) and their routing
// fabrics must build with the expected node count and diameter.
func TestValidateAcceptsLargeFabrics(t *testing.T) {
	fabrics := []struct {
		topology      string
		width, height int
		diameter      int
	}{
		{"mesh", 32, 32, 62},
		{"mesh", 64, 64, 126},
		{"torus", 32, 32, 32},
		{"torus", 64, 64, 64},
	}
	for _, fab := range fabrics {
		for _, s := range AllSchemes {
			cfg := Default()
			cfg.Scheme = s
			cfg.Topology = fab.topology
			cfg.Width, cfg.Height = fab.width, fab.height
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s %dx%d under %s: unexpected validation error: %v",
					fab.topology, fab.width, fab.height, s, err)
			}
		}
		cfg := Default()
		cfg.Topology = fab.topology
		cfg.Width, cfg.Height = fab.width, fab.height
		rf, err := cfg.BuildRouting()
		if err != nil {
			t.Fatalf("%s %dx%d: BuildRouting: %v", fab.topology, fab.width, fab.height, err)
		}
		top := rf.Topology()
		if got := top.NumNodes(); got != fab.width*fab.height {
			t.Errorf("%s %dx%d: %d nodes, want %d", fab.topology, fab.width, fab.height, got, fab.width*fab.height)
		}
		if got := top.Diameter(); got != fab.diameter {
			t.Errorf("%s %dx%d: diameter %d, want %d", fab.topology, fab.width, fab.height, got, fab.diameter)
		}
	}
}

func TestValidateSchemeScoping(t *testing.T) {
	// Power-gating parameters are not validated under No-PG.
	cfg := Default()
	cfg.Scheme = NoPG
	cfg.WakeupLatency = 0
	cfg.IdleTimeout = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("No-PG must not validate PG params: %v", err)
	}
	// Punch parameters are not validated under ConvOpt.
	cfg = Default()
	cfg.Scheme = ConvOptPG
	cfg.PunchHops = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("ConvOpt must not validate punch params: %v", err)
	}
}

func TestSchemePredicates(t *testing.T) {
	cases := []struct {
		s                Scheme
		pg, punch, slack bool
	}{
		{NoPG, false, false, false},
		{ConvOptPG, true, false, false},
		{PowerPunchSignal, true, true, false},
		{PowerPunchPG, true, true, true},
	}
	for _, c := range cases {
		p := mustPolicy(t, c.s)
		if p.Gates() != c.pg || p.Punches() != c.punch || p.NISlack() != c.slack {
			t.Errorf("%v predicates wrong", c.s)
		}
	}
}

func mustPolicy(t *testing.T, s Scheme) scheme.Policy {
	t.Helper()
	p, err := s.Policy()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVCDepthMapping(t *testing.T) {
	cfg := Default()
	if cfg.VCsPerVN() != 3 {
		t.Fatalf("VCsPerVN = %d", cfg.VCsPerVN())
	}
	if cfg.VCDepth(0) != 3 || cfg.VCDepth(1) != 3 || cfg.VCDepth(2) != 1 {
		t.Error("VC depth mapping: data VCs first (3-flit), control VC last (1-flit)")
	}
	if !cfg.IsDataVC(0) || !cfg.IsDataVC(1) || cfg.IsDataVC(2) {
		t.Error("IsDataVC mapping")
	}
}

func TestPunchSlackCycles(t *testing.T) {
	// Section 4.1: a 3-hop punch hides up to 9 cycles on a 3-stage
	// router and up to 12 on a 4-stage router.
	cfg := Default()
	cfg.RouterStages = 3
	if cfg.PunchSlackCycles() != 9 {
		t.Errorf("3-stage: %d, want 9", cfg.PunchSlackCycles())
	}
	cfg.RouterStages = 4
	if cfg.PunchSlackCycles() != 12 {
		t.Errorf("4-stage: %d, want 12", cfg.PunchSlackCycles())
	}
}

func TestWithScheme(t *testing.T) {
	cfg := Default()
	got := cfg.WithScheme(ConvOptPG)
	if got.Scheme != ConvOptPG || cfg.Scheme != PowerPunchPG {
		t.Error("WithScheme must copy, not mutate")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		NoPG: "No-PG", ConvOptPG: "ConvOpt-PG",
		PowerPunchSignal: "PowerPunch-Signal", PowerPunchPG: "PowerPunch-PG",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%v.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestEarlyWakeupAndTimeoutPredicates(t *testing.T) {
	cases := []struct {
		s       Scheme
		early   bool
		timeout bool
	}{
		{NoPG, false, false},
		{PlainPG, false, false},
		{ConvOptPG, true, true},
		{PowerPunchSignal, true, false},
		{PowerPunchPG, true, false},
	}
	for _, c := range cases {
		p := mustPolicy(t, c.s)
		if p.EarlyWakeup() != c.early {
			t.Errorf("%v EarlyWakeup() = %v", c.s, !c.early)
		}
		if p.IdleFilter() != c.timeout {
			t.Errorf("%v IdleFilter() = %v", c.s, !c.timeout)
		}
	}
	if PlainPG.String() != "Plain-PG" || !mustPolicy(t, PlainPG).Gates() {
		t.Error("PlainPG identity")
	}
}

// TestPowerPresetValidation pins the typed-error contract: every
// registered preset (and the empty default) validates, anything else
// fails with *UnknownPowerPresetError carrying the known names.
func TestPowerPresetValidation(t *testing.T) {
	for _, name := range append([]string{""}, power.Presets()...) {
		cfg := Default()
		cfg.PowerPreset = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q rejected: %v", name, err)
		}
	}

	cfg := Default()
	cfg.PowerPreset = "dsent-9000nm"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown power preset accepted")
	}
	var uerr *UnknownPowerPresetError
	if !errors.As(err, &uerr) {
		t.Fatalf("error is %T, want *UnknownPowerPresetError", err)
	}
	if uerr.Name != "dsent-9000nm" || len(uerr.Known) == 0 {
		t.Errorf("typed error incomplete: %+v", uerr)
	}
	for _, k := range uerr.Known {
		if _, ok := power.PresetByName(k); !ok {
			t.Errorf("Known lists %q, which the registry rejects", k)
		}
	}
}

// TestValidationErrorsAggregate pins the multi-error contract: when
// several scheme-scoped parameters are invalid at once, Validate
// returns one ValidationErrors whose message enumerates every failure
// (count-prefixed, semicolon-joined) and which unwraps to its members
// so callers can still errors.As for typed errors inside.
func TestValidationErrorsAggregate(t *testing.T) {
	cfg := Default()
	cfg.Scheme = ConvOptPG
	cfg.WakeupLatency = 0
	cfg.IdleTimeout = 1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("two invalid PG params validated")
	}
	var verrs ValidationErrors
	if !errors.As(err, &verrs) {
		t.Fatalf("error is %T, want ValidationErrors: %v", err, err)
	}
	if len(verrs) != 2 {
		t.Fatalf("aggregated %d errors, want 2: %v", len(verrs), err)
	}
	msg := err.Error()
	for _, want := range []string{
		"config: 2 invalid parameters",
		"WakeupLatency must be >= 1",
		"IdleTimeout must be >= 2",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated message %q missing %q", msg, want)
		}
	}

	// A single failure stays a bare error — no aggregation wrapper.
	cfg = Default()
	cfg.Scheme = ConvOptPG
	cfg.WakeupLatency = 0
	err = cfg.Validate()
	if err == nil {
		t.Fatal("invalid WakeupLatency validated")
	}
	if errors.As(err, &verrs) {
		t.Errorf("single failure wrapped in ValidationErrors: %v", err)
	}
}
