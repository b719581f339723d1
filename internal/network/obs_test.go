package network

import (
	"io"
	"math/rand"
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/obs"
)

// finiteDriver bounds a randomDriver: done once the injection window
// has passed, so RunUntil drains and returns.
type finiteDriver struct {
	*randomDriver
	net *Network
}

func (d finiteDriver) Done() bool { return d.net.Now() >= d.until }

// runWithDriver runs a fresh randomDriver (seed-deterministic) on n for
// inject cycles plus drain, and returns the result.
func runWithDriver(t *testing.T, n *Network, seed int64, rate float64, inject int64) RunResult {
	t.Helper()
	d := &randomDriver{rng: rand.New(rand.NewSource(seed)), rate: rate, until: inject}
	res := n.RunUntil(finiteDriver{d, n}, inject+30_000)
	if !res.Drained {
		t.Fatal("run did not drain")
	}
	return res
}

// TestObservedRunIsGoldenIdentical is the tentpole invariant: attaching
// observers must not perturb the simulation. For every scheme, under
// both the active-set scheduler and FullTick, a run with counter,
// sampler, and trace sinks attached produces a RunResult (including the
// Detail breakdowns) bit-identical to the unobserved run.
func TestObservedRunIsGoldenIdentical(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, s := range config.Schemes {
			s, full := s, full
			name := s.String()
			if full {
				name += "/full-tick"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := testConfig(s)
				cfg.FullTick = full

				base := runWithDriver(t, mustNew(t, cfg), 7, 0.015, 4000)

				n := mustNew(t, cfg)
				probe := &obs.Counters{}
				sampler := obs.NewSampler(128)
				tw := obs.NewTraceWriter(io.Discard, obs.MaskAll)
				n.Observe(probe, sampler, tw)
				got := runWithDriver(t, n, 7, 0.015, 4000)

				if got != base {
					t.Errorf("observed run diverged:\n base %+v\n  got %+v", base, got)
				}
				if probe.Latency.Count == 0 {
					t.Error("probe observed nothing")
				}
				if tw.Err() != nil {
					t.Errorf("trace writer: %v", tw.Err())
				}
			})
		}
	}
}

// TestTimelinePowerIsEngineInvariant: a sampler's power columns read
// the same under the active-set scheduler as under FullTick, window for
// window, at a load light enough that nodes park between packets.
func TestTimelinePowerIsEngineInvariant(t *testing.T) {
	for _, s := range config.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			var samples [2][]obs.Sample
			for i, full := range []bool{false, true} {
				cfg := testConfig(s)
				cfg.FullTick = full
				n := mustNew(t, cfg)
				sampler := obs.NewSampler(64)
				n.Observe(sampler)
				runWithDriver(t, n, 7, 0.002, 2000)
				samples[i] = sampler.Samples()
			}
			if len(samples[0]) != len(samples[1]) {
				t.Fatalf("active set sampled %d windows, full walk %d", len(samples[0]), len(samples[1]))
			}
			for w := range samples[0] {
				if samples[0][w] != samples[1][w] {
					t.Fatalf("window %d:\n active %+v\n   full %+v", w, samples[0][w], samples[1][w])
				}
			}
		})
	}
}

// TestDetailStageSumExact pins the RunDetail contract: the four stage
// terms sum to the total latency cycles exactly, and dividing by the
// packet count reproduces Summary.AvgLatency with no drift.
func TestDetailStageSumExact(t *testing.T) {
	for _, s := range config.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res := runWithDriver(t, mustNew(t, testConfig(s)), 11, 0.02, 5000)
			st := res.Detail.Stages
			if res.Detail.Version != DetailVersion {
				t.Fatalf("detail version %d", res.Detail.Version)
			}
			if st.Packets != res.Summary.Ejected {
				t.Fatalf("stage packets %d != ejected %d", st.Packets, res.Summary.Ejected)
			}
			sum := st.NIQueueCycles + st.WakeupNICycles + st.WakeupNetCycles + st.TransitCycles
			if sum != st.LatencyCycles {
				t.Errorf("stage sum %d != latency %d (%+v)", sum, st.LatencyCycles, st)
			}
			if st.Packets > 0 {
				if avg := float64(st.LatencyCycles) / float64(st.Packets); avg != res.Summary.AvgLatency {
					t.Errorf("latency cycles / packets = %v != AvgLatency %v", avg, res.Summary.AvgLatency)
				}
			}
			if st.NIQueueCycles < 0 || st.WakeupNICycles < 0 || st.WakeupNetCycles < 0 || st.TransitCycles < 0 {
				t.Errorf("negative stage term: %+v", st)
			}
			if s == config.NoPG && (st.WakeupNICycles != 0 || st.WakeupNetCycles != 0) {
				t.Errorf("No-PG run has wakeup cycles: %+v", st)
			}
		})
	}
}

// TestProbeCrossChecksCollector cross-validates the event stream
// against the simulator's own accounting: the counters probe must
// independently arrive at the same packet counts, latency sum, wakeup
// counts, and gating-event counts the collectors report.
func TestProbeCrossChecksCollector(t *testing.T) {
	for _, s := range []config.Scheme{config.ConvOptPG, config.PowerPunchPG} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(s)
			n := mustNew(t, cfg)
			probe := &obs.Counters{}
			n.Observe(probe)
			res := runWithDriver(t, n, 13, 0.02, 5000)

			if got := probe.Total(obs.KindInject); got != probe.Total(obs.KindEject) {
				t.Errorf("inject events %d != eject events %d after drain", got, probe.Total(obs.KindEject))
			}
			if probe.Latency.Count != res.Summary.Ejected {
				t.Errorf("probe saw %d ejections, collector %d", probe.Latency.Count, res.Summary.Ejected)
			}
			if probe.Latency.Sum != res.Detail.Stages.LatencyCycles {
				t.Errorf("probe latency sum %d != detail %d", probe.Latency.Sum, res.Detail.Stages.LatencyCycles)
			}
			pg := res.Detail.PG
			// Stats.GatingEvents counts COMPLETED power-off decisions
			// (incremented when the gated period ends in a wake), so
			// routers still gated when the run drains show up in the
			// event stream but not yet in the stat.
			stillGated := int64(n.GatedRouterCount())
			if got := probe.Total(obs.KindPGGate); got != pg.GatingEvents+stillGated {
				t.Errorf("pg_gate events %d != completed gatings %d + still gated %d",
					got, pg.GatingEvents, stillGated)
			}
			if got := probe.Total(obs.KindPGWake); got != pg.WakeupsPunch+pg.WakeupsWU {
				t.Errorf("pg_wake events %d != controller wakeups %d", got, pg.WakeupsPunch+pg.WakeupsWU)
			}
			if got := probe.PunchWakes.Wakeups + probe.ConvWakes.Wakeups; got != probe.Total(obs.KindPGActive) {
				t.Errorf("completed wake windows %d != pg_active events %d", got, probe.Total(obs.KindPGActive))
			}
			if s == config.PowerPunchPG {
				if got := probe.Total(obs.KindPunchEmit); got != res.Detail.Punch.SourceEmissions {
					t.Errorf("punch_emit events %d != fabric emissions %d", got, res.Detail.Punch.SourceEmissions)
				}
				if probe.PunchWakes.Wakeups != pg.WakeupsPunch {
					t.Errorf("probe punch wakes %d != controller %d", probe.PunchWakes.Wakeups, pg.WakeupsPunch)
				}
			}
		})
	}
}

// TestObservedHiddenFractionSeparatesSchemes reproduces the paper's §6
// claim from the event stream alone: Power Punch hides most wakeup
// latency, conventional gating exposes much more of it.
func TestObservedHiddenFractionSeparatesSchemes(t *testing.T) {
	frac := map[config.Scheme]float64{}
	for _, s := range []config.Scheme{config.ConvOptPG, config.PowerPunchPG} {
		cfg := testConfig(s)
		n := mustNew(t, cfg)
		probe := &obs.Counters{}
		n.Observe(probe)
		runWithDriver(t, n, 17, 0.02, 6000)
		if probe.PunchWakes.Wakeups+probe.ConvWakes.Wakeups == 0 {
			t.Fatalf("%v: no wake windows observed", s)
		}
		frac[s] = probe.HiddenFraction()
	}
	if frac[config.PowerPunchPG] <= frac[config.ConvOptPG] {
		t.Errorf("hidden fraction: PowerPunch %.3f <= ConvOpt %.3f",
			frac[config.PowerPunchPG], frac[config.ConvOptPG])
	}
	if frac[config.PowerPunchPG] < 0.5 {
		t.Errorf("PowerPunch hides only %.3f of wakeup cycles", frac[config.PowerPunchPG])
	}
}

// TestObserveRejectsLateAttach pins the API contract: observers attach
// at construction time, before the first cycle.
func TestObserveRejectsLateAttach(t *testing.T) {
	n := mustNew(t, testConfig(config.NoPG))
	n.Step()
	defer func() {
		if recover() == nil {
			t.Error("Observe after Step did not panic")
		}
	}()
	n.Observe(&obs.Counters{})
}

// TestSoakObserved is the obs-enabled variant of the soak gate: every
// scheme with the full invariant engine sweeping every cycle AND all
// three sink types attached, so event emission runs under the checker
// and (in CI) the race detector.
func TestSoakObserved(t *testing.T) {
	for _, s := range config.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(s)
			cfg.Checks = true
			cfg.CheckInterval = 1
			n := mustNew(t, cfg)
			probe := &obs.Counters{}
			sampler := obs.NewSampler(64)
			tw := obs.NewTraceWriter(io.Discard, obs.MaskAll)
			n.Observe(probe, sampler, tw)
			violated := false
			n.OnViolation = func(a *check.Artifact) {
				violated = true
				t.Errorf("%v: %v", s, &a.Violation)
			}
			d := &randomDriver{rng: rand.New(rand.NewSource(99)), rate: 0.012, until: 6_000}
			for cyc := 0; cyc < 6_000 && !violated; cyc++ {
				d.Tick(n, n.Now())
				n.Step()
			}
			for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
				n.Step()
			}
			if !n.Quiesced() {
				t.Fatal("observed soak did not quiesce")
			}
			for _, p := range d.pkts {
				if p.EjectedAt == 0 {
					t.Fatalf("observed soak lost packet %v", p)
				}
			}
			if int(probe.Latency.Count) != len(d.pkts) {
				t.Errorf("probe counted %d ejections, driver injected %d", probe.Latency.Count, len(d.pkts))
			}
			if tw.Err() != nil {
				t.Errorf("trace writer: %v", tw.Err())
			}
			if len(sampler.Samples()) == 0 {
				t.Error("sampler produced no windows")
			}
		})
	}
}
