package powerpunch

import (
	"testing"

	"powerpunch/internal/traffic"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = PowerPunchPG
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 3000
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewSyntheticTraffic(Uniform(), 0.02, 1)
	res := net.Run(drv)
	if !res.Drained || res.Summary.Ejected == 0 {
		t.Fatalf("quickstart flow failed: %+v", res.Summary)
	}
	if res.StaticSaved <= 0 {
		t.Error("PowerPunch-PG should save static energy")
	}
}

func TestPublicWorkloadFlow(t *testing.T) {
	prof, err := PARSECProfile("swaptions", 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = ConvOptPG
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(prof, net, 1)
	res := net.RunUntil(wl, 300_000)
	if !res.Drained {
		t.Fatal("workload incomplete")
	}
	if wl.ExecutionTime() <= 0 {
		t.Error("no execution time")
	}
}

func TestPublicEncoding(t *testing.T) {
	enc, err := EncodePunchChannel(TopologySpec{}, 27, DirE, 3)
	if err != nil {
		t.Fatal(err)
	}
	if enc == nil || len(enc.Codes) != 22 || enc.WidthBits != 5 {
		t.Fatalf("public encoding API broken: %+v", enc)
	}
	// The zero TopologySpec is the explicit 8x8 mesh.
	explicit, err := EncodePunchChannel(TopologySpec{Topology: "mesh", Width: 8, Height: 8}, 27, DirE, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit.Codes) != len(enc.Codes) || explicit.WidthBits != enc.WidthBits {
		t.Fatalf("zero spec != explicit 8x8 mesh: %d/%d vs %d/%d",
			len(enc.Codes), enc.WidthBits, len(explicit.Codes), explicit.WidthBits)
	}
}

func TestPublicPatterns(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bit-complement"} {
		if _, err := PatternByName(name); err != nil {
			t.Errorf("PatternByName(%q): %v", name, err)
		}
	}
	if Uniform().Name() != "uniform" || TransposeTraffic().Name() != "transpose" ||
		BitComplementTraffic().Name() != "bit-complement" {
		t.Error("pattern constructors")
	}
}

func TestPublicSchemeList(t *testing.T) {
	if len(Schemes) != 4 || Schemes[0] != NoPG || Schemes[3] != PowerPunchPG {
		t.Errorf("Schemes = %v", Schemes)
	}
	if len(PARSECBenchmarks) != 8 {
		t.Errorf("PARSECBenchmarks = %v", PARSECBenchmarks)
	}
}

func TestValidateTrafficTrace(t *testing.T) {
	tr := &TrafficTrace{Events: []traffic.Event{
		{Now: 0, Src: 106, Dst: 323, VN: 0, Size: 5},
	}}
	if err := ValidateTrafficTrace(TopologySpec{Width: 32, Height: 32}, tr); err != nil {
		t.Fatalf("trace valid on its recorded 32x32 shape: %v", err)
	}
	if err := ValidateTrafficTrace(TopologySpec{}, tr); err == nil {
		t.Fatal("node 323 must not validate on the default 8x8 mesh")
	}
	bad := &TrafficTrace{Events: []traffic.Event{{Now: 0, Src: 1, Dst: 2, Size: 0}}}
	if err := ValidateTrafficTrace(TopologySpec{}, bad); err == nil {
		t.Fatal("zero-size event must not validate")
	}
}
