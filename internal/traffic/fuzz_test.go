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
// (cycle gap, endpoints, class, slack hint).
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
		cfg := config.Default()
		cfg.Width, cfg.Height = 4, 4
		cfg.Scheme = schemes[int(data[0])%len(schemes)]
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
			t.Fatalf("invariant violation under fuzzed traffic: %v", &a.Violation)
		}

		type sub struct {
			at       int64
			src, dst mesh.NodeID
			vn       flit.VirtualNetwork
			kind     flit.Kind
			hint     bool
			delay    int
		}
		var subs []sub
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
			subs = append(subs, sub{
				at: at, src: src, dst: dst, vn: vn, kind: kind,
				hint: rec[4]&1 != 0, delay: int(rec[4] % 9),
			})
		}

		var pkts []*flit.Packet
		i := 0
		for n.Now() <= at {
			for i < len(subs) && subs[i].at <= n.Now() {
				s := subs[i]
				i++
				p := n.NewPacket(s.src, s.dst, s.vn, s.kind)
				pkts = append(pkts, p)
				n.NI(s.src).SubmitDelayed(p, s.hint, s.delay, n.Now())
			}
			n.Step()
		}
		for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
			n.Step()
		}
		if !n.Quiesced() {
			t.Fatalf("network did not quiesce after %d fuzzed submissions (%v)", len(subs), cfg.Scheme)
		}
		for _, p := range pkts {
			if p.EjectedAt == 0 {
				t.Fatalf("fuzzed packet %v lost (%v)", p, cfg.Scheme)
			}
		}
	})
}
