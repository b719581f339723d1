package network

import (
	"math/rand"
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/power"
)

// fuzzSchemes are the registered schemes and one unknown name.
var fuzzSchemes = []config.Scheme{
	config.NoPG, config.ConvOptPG, config.PowerPunchSignal, config.PowerPunchPG,
	config.PlainPG, config.FlyOverPG, "no-such-scheme",
}

// vcDepth maps a fuzz value to a VC depth: small depths around the
// lower bound, then 10..256 around config.MaxVCDepth.
func vcDepth(v int) int {
	if v < 8 {
		return v - 1
	}
	return v + 2
}

// configFields decode one fuzz byte each into a config.Config field,
// in input order. A zero byte (or a missing one) keeps config.Default's
// value; any other byte b sets the field from v = b-1. The ranges reach
// past each field's valid bounds so both sides of every Validate rule
// are explored, but stay small enough that any fabric builds in
// milliseconds.
var configFields = []func(c *config.Config, v int){
	func(c *config.Config, v int) { c.Scheme = fuzzSchemes[v%len(fuzzSchemes)] },
	func(c *config.Config, v int) { c.Topology = []string{"mesh", "torus", "ring", "cube"}[v%4] },
	func(c *config.Config, v int) { c.Width = v%14 - 1 },
	func(c *config.Config, v int) { c.Height = v%10 - 1 },
	func(c *config.Config, v int) { c.RouterStages = v % 6 },
	func(c *config.Config, v int) { c.LinkLatency = v%5 - 1 },
	func(c *config.Config, v int) { c.DataVCs = v%5 - 1 },
	func(c *config.Config, v int) { c.CtrlVCs = v%4 - 1 },
	func(c *config.Config, v int) { c.DataVCDepth = vcDepth(v) },
	func(c *config.Config, v int) { c.CtrlVCDepth = vcDepth(v) },
	func(c *config.Config, v int) { c.DataPacketSize = v%8 - 1 },
	func(c *config.Config, v int) { c.CtrlPacketSize = v%4 - 1 },
	func(c *config.Config, v int) { c.WakeupLatency = v%20 - 1 },
	func(c *config.Config, v int) { c.BreakEven = v%24 - 1 },
	func(c *config.Config, v int) { c.IdleTimeout = v%8 - 1 },
	func(c *config.Config, v int) { c.PunchHops = v%7 - 1 },
	func(c *config.Config, v int) { c.PunchIdleTimeout = v%6 - 1 },
	func(c *config.Config, v int) { c.PunchStrict = v%2 == 1 },
	func(c *config.Config, v int) { c.NILatency = v%6 - 1 },
	func(c *config.Config, v int) { c.ResourceSlack = v%10 - 1 },
	func(c *config.Config, v int) { c.ResourceSlackValidFrac = float64(v%12-1) / 10 },
	func(c *config.Config, v int) { c.AdaptiveThrottle = v%2 == 1 },
	func(c *config.Config, v int) {
		names := append(power.Presets(), "no-such-preset")
		c.PowerPreset = names[v%len(names)]
	},
	func(c *config.Config, v int) { c.FullTick = v%2 == 1 },
	func(c *config.Config, v int) { c.RecyclePackets = v%2 == 1 },
	func(c *config.Config, v int) { c.CheckInterval = v%4 - 1 },
}

// FuzzConfig decodes bytes into a configuration and holds the whole
// construction path to its contract: Validate either rejects the
// configuration, and then network.New returns an error too, or accepts
// it, and then network.New builds a network that runs 200 cycles of
// uniform traffic with the invariant engine on and no panic. The byte
// after the config fields sets the injection rate.
func FuzzConfig(f *testing.F) {
	// Byte i sets configFields[i] (scheme, topology, width, height,
	// router stages, link latency, data VCs, control VCs, data depth,
	// control depth, ...); see each field's decoding above.
	f.Add([]byte{})                                 // the default 8x8 mesh
	f.Add([]byte{4, 3, 10, 3})                      // PowerPunch-PG on an 8x1 ring
	f.Add([]byte{2, 3, 4, 3})                       // ConvOpt-PG on a 2x1 ring
	f.Add([]byte{4, 1, 6, 6, 0, 0, 0, 0, 254, 254}) // VC depths 255 on a 4x4 mesh
	f.Add([]byte{4, 1, 6, 6, 0, 0, 0, 0, 255})      // data VC depth 256: rejected
	f.Add([]byte{3, 2, 6, 6, 0, 5})                 // PowerPunch-Signal, LinkLatency 3, 4x4 torus
	f.Add([]byte{5, 1, 5, 5, 5, 0, 0, 2})           // Plain-PG, 4-stage routers, no control VCs, 3x3
	f.Add([]byte{6, 1, 6, 6, 0, 3})                 // FlyOver-PG, LinkLatency 1
	f.Add([]byte{6, 1, 6, 6, 0, 4})                 // FlyOver-PG, LinkLatency 2: rejected
	f.Add([]byte{7})                                // an unknown scheme: rejected
	// No-PG, full walk, recycling, rate 0.31.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := config.Default()
		for i, set := range configFields {
			if i < len(data) && data[i] != 0 {
				set(&cfg, int(data[i])-1)
			}
		}
		rate := 0.05
		if k := len(configFields); k < len(data) {
			rate = float64(data[k]%32) / 100
		}
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		cfg.Checks = true
		verr := cfg.Validate()
		n, err := New(cfg)
		if verr != nil {
			if err == nil {
				t.Fatalf("Validate rejected %+v (%v) but New built it", cfg, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted %+v but New failed: %v", cfg, err)
		}
		n.OnViolation = func(a *check.Artifact) {
			t.Fatalf("invariant violation under %+v: %v", cfg, &a.Violation)
		}
		d := &randomDriver{rng: rand.New(rand.NewSource(1)), rate: rate, until: 200}
		for n.Now() < 200 {
			d.Tick(n, n.Now())
			n.Step()
		}
	})
}
