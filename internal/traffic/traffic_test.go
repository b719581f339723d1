package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"powerpunch/internal/config"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/topo"
)

// meshOf returns a w x h mesh.
func meshOf(w, h int) *topo.Topology {
	rf, err := topo.Build("mesh", w, h)
	if err != nil {
		panic(err)
	}
	return rf.Topology()
}

func TestPermutationPatternsAreDeterministic(t *testing.T) {
	m := meshOf(8, 8)
	for _, p := range []Pattern{Transpose{}, BitComplement{}, Tornado{}, Neighbor{}} {
		for src := mesh.NodeID(0); m.Contains(src); src++ {
			d1 := p.Dst(m, src, nil)
			d2 := p.Dst(m, src, nil)
			if d1 != d2 {
				t.Errorf("%s: nondeterministic for src %d", p.Name(), src)
			}
			if !m.Contains(d1) {
				t.Errorf("%s: invalid destination %d for src %d", p.Name(), d1, src)
			}
		}
	}
}

func TestTransposeMirrorsCoordinates(t *testing.T) {
	m := meshOf(8, 8)
	// Node (x=5,y=2) = 21 -> (x=2,y=5) = 42.
	if got := (Transpose{}).Dst(m, 21, nil); got != 42 {
		t.Errorf("transpose(21) = %d, want 42", got)
	}
	// Diagonal nodes map to themselves.
	if got := (Transpose{}).Dst(m, 27, nil); got != 27 {
		t.Errorf("transpose(27) = %d, want 27", got)
	}
}

func TestBitComplementIsInvolution(t *testing.T) {
	m := meshOf(8, 8)
	f := func(raw uint8) bool {
		src := mesh.NodeID(int(raw) % m.NumNodes())
		p := BitComplement{}
		return p.Dst(m, p.Dst(m, src, nil), nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := (BitComplement{}).Dst(m, 0, nil); got != 63 {
		t.Errorf("bit-complement(0) = %d, want 63", got)
	}
}

func TestUniformNeverSelfSends(t *testing.T) {
	m := meshOf(4, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		src := mesh.NodeID(i % 16)
		if d := (UniformRandom{}).Dst(m, src, rng); d == src || !m.Contains(d) {
			t.Fatalf("uniform produced dst %d for src %d", d, src)
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	m := meshOf(4, 4)
	rng := rand.New(rand.NewSource(2))
	seen := map[mesh.NodeID]bool{}
	for i := 0; i < 5000; i++ {
		seen[(UniformRandom{}).Dst(m, 0, rng)] = true
	}
	if len(seen) != 15 {
		t.Errorf("uniform covered %d destinations, want 15", len(seen))
	}
}

func TestHotspotBias(t *testing.T) {
	m := meshOf(4, 4)
	rng := rand.New(rand.NewSource(3))
	h := Hotspot{Node: 5, Frac: 0.5}
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if h.Dst(m, 0, rng) == 5 {
			hits++
		}
	}
	frac := float64(hits) / n
	// 0.5 + uniform leakage (1/15 of the other half) ≈ 0.533.
	if math.Abs(frac-0.533) > 0.05 {
		t.Errorf("hotspot fraction = %.3f, want ~0.53", frac)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bit-complement", "tornado", "neighbor"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown pattern")
	}
}

func TestSyntheticOfferedLoadMatchesRate(t *testing.T) {
	// Delivered throughput at a non-saturating load must track the
	// offered load within ~15%.
	cfg := config.Default()
	cfg.Scheme = config.NoPG
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 10000
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.05
	drv := NewSynthetic(UniformRandom{}, rate, 7)
	res := net.Run(drv)
	if !res.Drained {
		t.Fatal("run did not drain")
	}
	thr := net.Col.Throughput(net.M.NumNodes(), cfg.MeasureCycles)
	if math.Abs(thr-rate)/rate > 0.15 {
		t.Errorf("throughput %.4f vs offered %.4f", thr, rate)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := config.Default()
		cfg.Scheme = config.PowerPunchPG
		cfg.WarmupCycles = 500
		cfg.MeasureCycles = 3000
		net, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := net.Run(NewSynthetic(UniformRandom{}, 0.03, 99))
		return res.Summary.AvgLatency
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestSyntheticZeroRate(t *testing.T) {
	cfg := config.Default()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 100
	cfg.DrainCycles = 100
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(NewSynthetic(UniformRandom{}, 0, 1))
	if res.Summary.Ejected != 0 {
		t.Error("zero rate injected packets")
	}
}

func TestPatternNames(t *testing.T) {
	if (UniformRandom{}).Name() != "uniform" || (Transpose{}).Name() != "transpose" ||
		(BitComplement{}).Name() != "bit-complement" || (Tornado{}).Name() != "tornado" ||
		(Neighbor{}).Name() != "neighbor" {
		t.Error("pattern names")
	}
	if (Hotspot{Node: 3, Frac: 0.25}).Name() == "" {
		t.Error("hotspot name")
	}
}
