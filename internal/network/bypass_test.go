package network

import (
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
)

// totalBypassed sums the per-router bypass grant counters.
func totalBypassed(n *Network) int64 {
	var sum int64
	for _, r := range n.Routers {
		sum += r.FlitsBypassed
	}
	return sum
}

// TestFlyOverBypassFires pins that the FlyOver scheme's bypass path is
// actually exercised — not vacuously clean — under low-load traffic
// where routers gate: flits are granted onto the bypass, every grant
// emits a KindBypass event, the full invariant suite stays silent every
// cycle, and the run still drains completely.
func TestFlyOverBypassFires(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.FlyOverPG
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	cfg.Checks = true
	cfg.CheckInterval = 1
	n := mustNew(t, cfg)
	n.OnViolation = func(a *check.Artifact) { t.Errorf("violation: %v", &a.Violation) }
	probe := &obs.Counters{}
	n.Observe(probe)

	res := runWithDriver(t, n, 17, 0.01, 8000)
	if res.Summary.Ejected == 0 {
		t.Fatal("no packets delivered")
	}
	byp := totalBypassed(n)
	if byp == 0 {
		t.Fatal("FlyOver run granted no bypasses — the scheme is not being exercised")
	}
	if got := probe.Total(obs.KindBypass); got != byp {
		t.Errorf("probe saw %d bypass events, routers granted %d", got, byp)
	}
}

// TestFlyOverEngineDifferential is the bypass scheme's bit-identical
// engine guarantee: the same FlyOver traffic produces an identical
// RunResult — and identical per-router bypass counts — on the
// active-set scheduler and the FullTick full walk, on both the open
// mesh and the wrapped torus (whose dateline classes the landing-VC
// allocation must respect).
func TestFlyOverEngineDifferential(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 8, 8},
		{"torus", 4, 4},
	}
	for _, fab := range fabrics {
		fab := fab
		t.Run(fab.topo, func(t *testing.T) {
			t.Parallel()
			base := func() config.Config {
				cfg := config.Default()
				cfg.Scheme = config.FlyOverPG
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				return cfg
			}

			ref := mustNew(t, base())
			want := runWithDriver(t, ref, 23, 0.015, 5000)
			wantByp := totalBypassed(ref)
			if wantByp == 0 {
				t.Fatal("reference run granted no bypasses — differential is vacuous")
			}

			variants := []struct {
				name   string
				mutate func(*config.Config)
			}{
				{"full-tick", func(c *config.Config) { c.FullTick = true }},
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					t.Parallel()
					cfg := base()
					v.mutate(&cfg)
					n := mustNew(t, cfg)
					got := runWithDriver(t, n, 23, 0.015, 5000)
					if got != want {
						t.Errorf("%s diverged from serial reference:\n want %+v\n  got %+v", v.name, want, got)
					}
					if byp := totalBypassed(n); byp != wantByp {
						t.Errorf("%s granted %d bypasses, serial reference %d", v.name, byp, wantByp)
					}
				})
			}
		})
	}
}

// TestFlyOverBypassNeverBlocksNonGatedPath is the metamorphic
// cross-scheme relation behind the scheme's name: FlyOver is ConvOpt
// plus a bypass that only ever REMOVES a reason to stall — it serves
// flits a gated neighbor would otherwise block and suppresses only
// wakeups the bypass itself replaces. Under identical traffic, FlyOver
// must therefore deliver every packet the ConvOpt run delivers, and
// its per-packet blocked-router and wakeup-wait averages must not
// exceed ConvOpt's.
func TestFlyOverBypassNeverBlocksNonGatedPath(t *testing.T) {
	run := func(s config.Scheme) (RunResult, *Network) {
		cfg := config.Default()
		cfg.Scheme = s
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		cfg.Checks = true
		cfg.CheckInterval = 1
		n := mustNew(t, cfg)
		n.OnViolation = func(a *check.Artifact) { t.Errorf("%v: violation: %v", s, &a.Violation) }
		return runWithDriver(t, n, 29, 0.01, 6000), n
	}
	conv, _ := run(config.ConvOptPG)
	fly, fn := run(config.FlyOverPG)

	if totalBypassed(fn) == 0 {
		t.Fatal("FlyOver leg granted no bypasses — relation is vacuous")
	}
	if fly.Summary.Ejected != conv.Summary.Ejected {
		t.Errorf("FlyOver delivered %d packets, ConvOpt %d — identical traffic must deliver identically",
			fly.Summary.Ejected, conv.Summary.Ejected)
	}
	if fly.Summary.AvgBlocked > conv.Summary.AvgBlocked {
		t.Errorf("FlyOver blocked-routers/packet %.4f exceeds ConvOpt %.4f — bypass added blocking",
			fly.Summary.AvgBlocked, conv.Summary.AvgBlocked)
	}
	if fly.Summary.AvgWakeWait > conv.Summary.AvgWakeWait {
		t.Errorf("FlyOver wakeup-wait/packet %.4f exceeds ConvOpt %.4f — bypass added wake stalls",
			fly.Summary.AvgWakeWait, conv.Summary.AvgWakeWait)
	}
}

// TestBypassRequiresUnitLinkLatency pins the config gate: the bypass
// path latches a flit across the flown-over router in a single cycle,
// which is only coherent with LinkLatency 1.
func TestBypassRequiresUnitLinkLatency(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.FlyOverPG
	cfg.LinkLatency = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("FlyOver with LinkLatency=2 validated; want error")
	}
}

// bypassEventSink records every KindBypass event for shape assertions.
type bypassEventSink struct {
	events []obs.Event
}

func (s *bypassEventSink) Event(e *obs.Event) {
	if e.Kind == obs.KindBypass {
		s.events = append(s.events, *e)
	}
}

// TestFlyOverObsEventShape pins the KindBypass event contract: Node is
// the granting router, Src the flown-over neighbor one hop along the
// travel direction, Dst the landing router two hops out.
func TestFlyOverObsEventShape(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.FlyOverPG
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	n := mustNew(t, cfg)
	sink := &bypassEventSink{}
	n.Observe(sink)
	runWithDriver(t, n, 17, 0.01, 6000)
	if len(sink.events) == 0 {
		t.Fatal("no bypass events observed")
	}
	if want := totalBypassed(n); int64(len(sink.events)) != want {
		t.Errorf("observed %d bypass events, routers granted %d", len(sink.events), want)
	}
	for _, ev := range sink.events {
		d := mesh.Direction(ev.Dir)
		over := n.M.Neighbor(mesh.NodeID(ev.Node), d)
		if over == mesh.Invalid || int32(over) != ev.Src {
			t.Fatalf("bypass event %+v: Src %d, want neighbor %d of node %d toward %v", ev, ev.Src, over, ev.Node, d)
		}
		land := n.M.Neighbor(over, d)
		if land == mesh.Invalid || int32(land) != ev.Dst {
			t.Fatalf("bypass event %+v: Dst %d, want landing router %d two hops from node %d toward %v", ev, ev.Dst, land, ev.Node, d)
		}
	}
}

// TestFlyOverSchemeSelectableByName pins the registry path end to end:
// the string name round-trips through config validation into a network
// whose routers bypass, and an unknown name surfaces
// scheme.UnknownSchemeError from Validate.
func TestFlyOverSchemeSelectableByName(t *testing.T) {
	s, err := config.SchemeByName("FlyOver-PG")
	if err != nil {
		t.Fatalf("SchemeByName: %v", err)
	}
	if s != config.FlyOverPG {
		t.Fatalf("SchemeByName returned %v", s)
	}
	cfg := config.Default()
	cfg.Scheme = s
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := config.SchemeByName("NoSuch-PG"); err == nil {
		t.Fatal("unknown scheme name resolved")
	}
}
