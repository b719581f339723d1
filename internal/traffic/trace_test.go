package traffic

import (
	"bytes"
	"strings"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/network"
)

func smallCfg(s config.Scheme) config.Config {
	cfg := config.Default()
	cfg.Scheme = s
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 2000
	return cfg
}

func recordRun(t *testing.T, cfg config.Config) (*Trace, float64) {
	t.Helper()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(net)
	res := net.Run(NewSynthetic(UniformRandom{}, 0.03, 17))
	if !res.Drained {
		t.Fatal("record run did not drain")
	}
	return rec.Trace(), res.Summary.AvgLatency
}

func TestRecordCapturesAllSubmissions(t *testing.T) {
	cfg := smallCfg(config.NoPG)
	tr, _ := recordRun(t, cfg)
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	if err := tr.Validate(meshOf(4, 4)); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
}

func TestReplayReproducesRunExactly(t *testing.T) {
	cfg := smallCfg(config.PowerPunchPG)
	tr, wantLat := recordRun(t, cfg)

	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(NewReplay(tr))
	if !res.Drained {
		t.Fatal("replay did not drain")
	}
	if res.Summary.AvgLatency != wantLat {
		t.Errorf("replay latency %.4f != recorded run %.4f", res.Summary.AvgLatency, wantLat)
	}
}

func TestReplayAcrossSchemes(t *testing.T) {
	// The same trace replayed under ConvOpt must be slower than under
	// No-PG — the controlled-workload comparison traces exist for.
	tr, _ := recordRun(t, smallCfg(config.NoPG))
	lat := map[config.Scheme]float64{}
	for _, s := range []config.Scheme{config.NoPG, config.ConvOptPG} {
		net, err := network.New(smallCfg(s))
		if err != nil {
			t.Fatal(err)
		}
		res := net.Run(NewReplay(tr))
		if !res.Drained {
			t.Fatalf("%v replay did not drain", s)
		}
		lat[s] = res.Summary.AvgLatency
	}
	if lat[config.ConvOptPG] <= lat[config.NoPG] {
		t.Errorf("trace under ConvOpt (%.2f) should be slower than No-PG (%.2f)",
			lat[config.ConvOptPG], lat[config.NoPG])
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	tr, _ := recordRun(t, smallCfg(config.NoPG))
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("expected parse error")
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	m := meshOf(4, 4)
	cases := []Trace{
		{Events: []Event{{Now: 5}, {Now: 3, Src: 0, Dst: 1, Size: 1}}}, // out of order
		{Events: []Event{{Now: 0, Src: 0, Dst: 99, Size: 1}}},          // off mesh
		{Events: []Event{{Now: 0, Src: 2, Dst: 2, Size: 1}}},           // self send
		{Events: []Event{{Now: 0, Src: 0, Dst: 1, Size: 0}}},           // bad size
		{Events: []Event{{Now: 0, Src: 0, Dst: 1, Size: 1, VN: 7}}},    // bad VN
	}
	for i, tr := range cases {
		if err := tr.Validate(m); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestReplayDone(t *testing.T) {
	tr := &Trace{Events: []Event{{Now: 3, Src: 0, Dst: 1, Size: 1, Delay: 1}}}
	r := NewReplay(tr)
	if r.Done() || r.Remaining() != 1 {
		t.Error("fresh replay state")
	}
	cfg := smallCfg(config.NoPG)
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Tick(net, 0)
	if r.Done() {
		t.Error("event at t=3 submitted at t=0")
	}
	r.Tick(net, 3)
	if !r.Done() {
		t.Error("replay not done after last event")
	}
}
