package traffic

import (
	"strings"
	"testing"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
)

// FuzzReadTrace hardens the trace parser against malformed input: it
// must never panic, and anything it accepts must either validate or be
// rejected by Validate with a clean error.
func FuzzReadTrace(f *testing.F) {
	f.Add(`{"t":0,"src":0,"dst":1,"vn":0,"kind":0,"size":1,"hint":true,"delay":3}` + "\n")
	f.Add(`{"t":5,"src":3,"dst":2,"vn":2,"kind":1,"size":5,"hint":false,"delay":0}` + "\n")
	f.Add("")
	f.Add("{")
	f.Add(`{"t":-1,"src":999}`)
	m := meshOf(4, 4)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		_ = tr.Validate(m) // must not panic
	})
}

// FuzzNetworkEndToEnd turns arbitrary bytes into a bounded workload on
// a small mesh and runs it end to end with the full invariant engine on
// every cycle: whatever submission sequence the fuzzer invents, the
// simulator must satisfy every invariant, quiesce, and deliver every
// packet. The first byte picks the scheme, so the corpus explores all
// gating policies; each subsequent 5-byte record is one submission
// (cycle gap, endpoints, class, slack hint). Each input runs on both
// tick engines, which must eject every packet in the same cycle and
// return equal results.
func FuzzNetworkEndToEnd(f *testing.F) {
	f.Add([]byte{3, 0, 0, 15, 1, 0})
	f.Add([]byte{1, 2, 5, 10, 0, 7, 0, 10, 5, 3, 1})
	f.Add([]byte{0, 9, 1, 2, 2, 2, 9, 2, 1, 0, 5, 9, 3, 0, 1, 1})
	f.Add([]byte{4, 50, 0, 8, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		schemes := []config.Scheme{
			config.NoPG, config.ConvOptPG, config.PowerPunchSignal, config.PowerPunchPG, config.PlainPG,
		}
		var subs []fuzzSub
		var at int64
		for rec := data[1:]; len(rec) >= 5 && len(subs) < 128; rec = rec[5:] {
			at += int64(rec[0] % 32)
			src := mesh.NodeID(rec[1] % 16)
			dst := mesh.NodeID(rec[2] % 16)
			if src == dst {
				continue
			}
			kind, vn := flit.KindControl, flit.VirtualNetwork(rec[3]%uint8(flit.NumVirtualNetworks))
			if rec[3]&0x80 != 0 {
				kind = flit.KindData
			}
			subs = append(subs, fuzzSub{
				at: at, src: src, dst: dst, vn: vn, kind: kind,
				hint: rec[4]&1 != 0, delay: int(rec[4] % 9),
			})
		}
		scheme := schemes[int(data[0])%len(schemes)]
		res, ejected := replayFuzzed(t, scheme, false, subs)
		resFull, ejectedFull := replayFuzzed(t, scheme, true, subs)
		for i := range ejected {
			if ejected[i] != ejectedFull[i] {
				t.Fatalf("packet %d ejected at cycle %d active-set, %d full walk (%v)", i, ejected[i], ejectedFull[i], scheme)
			}
		}
		if res != resFull {
			t.Fatalf("engines disagree (%v):\nactive-set %+v\nfull walk  %+v", scheme, res, resFull)
		}
	})
}

// fuzzSub is one fuzzed submission.
type fuzzSub struct {
	at       int64
	src, dst mesh.NodeID
	vn       flit.VirtualNetwork
	kind     flit.Kind
	hint     bool
	delay    int
}

// fuzzDriver submits each fuzzed message at its cycle and is done once
// all are submitted.
type fuzzDriver struct {
	subs []fuzzSub
	next int
	pkts []*flit.Packet
}

func (d *fuzzDriver) Tick(n *network.Network, now int64) {
	for d.next < len(d.subs) && d.subs[d.next].at <= now {
		s := d.subs[d.next]
		d.next++
		p := n.NewPacket(s.src, s.dst, s.vn, s.kind)
		d.pkts = append(d.pkts, p)
		n.NI(s.src).SubmitDelayed(p, s.hint, s.delay, now)
	}
}

func (d *fuzzDriver) Done() bool { return d.next == len(d.subs) }

// replayFuzzed runs subs on a checked 4x4 mesh under scheme on the
// chosen tick engine until it drains, and returns the run's result and
// every packet's ejection cycle in submission order.
func replayFuzzed(t *testing.T, scheme config.Scheme, fullTick bool, subs []fuzzSub) (network.RunResult, []int64) {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Scheme = scheme
	cfg.FullTick = fullTick
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	cfg.Checks = true
	cfg.CheckInterval = 1
	cfg.CheckStallLimit = 2048
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.OnViolation = func(a *check.Artifact) {
		t.Fatalf("invariant violation under fuzzed traffic (full walk %v): %v", fullTick, &a.Violation)
	}
	d := &fuzzDriver{subs: subs}
	var last int64
	if len(subs) > 0 {
		last = subs[len(subs)-1].at
	}
	res := n.RunUntil(d, last+20_000)
	if !res.Drained {
		t.Fatalf("network did not quiesce after %d fuzzed submissions (%v, full walk %v)", len(subs), scheme, fullTick)
	}
	ejected := make([]int64, len(d.pkts))
	for i, p := range d.pkts {
		if p.EjectedAt == 0 {
			t.Fatalf("fuzzed packet %v lost (%v, full walk %v)", p, scheme, fullTick)
		}
		ejected[i] = p.EjectedAt
	}
	return res, ejected
}
