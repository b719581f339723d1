package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powerpunch/internal/network"
	"powerpunch/internal/obs"
)

// TestStreamTimelineMatchesRun: a streamed timeline is the sampler
// timeline of the same spec run through JobSpec.Run — the jobs path —
// sample for sample, power columns included, and every window that
// overlaps the accounted span (after warmup) draws power.
func TestStreamTimelineMatchesRun(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	const interval = 50
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"synthetic", JobSpec{Width: 4, Height: 4, Rate: 0.05, Warmup: 100, Cycles: 300, Seed: 5}},
		// No-PG: a small bench idles long enough for every router of a
		// gating scheme to sleep through a window, drawing 0 W honestly.
		{"bench", JobSpec{Scheme: "No-PG", Width: 4, Height: 4, Bench: "canneal", Instr: 500, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := tc.spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			sampler := obs.NewSampler(interval)
			out, err := spec.Run(func(n *network.Network) { n.Observe(sampler) })
			if err != nil {
				t.Fatal(err)
			}
			want := sampler.Samples()

			code, body := ts.post(t, "/api/v1/stream", StreamSpec{JobSpec: tc.spec, Mode: "timeline", Interval: interval})
			if code != http.StatusOK {
				t.Fatalf("stream = %d (%s)", code, body)
			}
			lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
			var end streamEnd
			mustJSON(t, []byte(lines[len(lines)-1]), &end)
			if !end.StreamEnd || end.Cycles != out.Result.Cycles || end.Samples != len(want) {
				t.Errorf("terminator %+v, want %d cycles and %d samples", end, out.Result.Cycles, len(want))
			}
			got := make([]obs.Sample, len(lines)-1)
			for i := range got {
				mustJSON(t, []byte(lines[i]), &got[i])
			}
			accountedEnd := spec.Warmup + spec.Cycles
			if spec.Bench != "" {
				accountedEnd = out.Result.Cycles // RunUntil accounts every cycle
			}
			powered := 0
			for _, sm := range got {
				start := sm.Cycle + 1 - interval
				if start < spec.Warmup || start >= accountedEnd {
					continue
				}
				var sum float64
				for _, p := range sm.PowerW {
					sum += p
				}
				if sum <= 0 {
					t.Errorf("streamed window closing at cycle %d draws %g W", sm.Cycle, sum)
				}
				powered++
			}
			if powered == 0 {
				t.Errorf("no streamed window lies after warmup")
			}
			if len(got) != len(want) {
				t.Fatalf("streamed %d samples, run sampled %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sample %d: streamed %+v, run %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestHugeFabricRejected: a fabric beyond maxNodes is a 400 on every
// spec-taking endpoint, decided before anything sizes a node table.
// The sizes here are all rejected by that bound, so the test allocates
// nothing for them.
func TestHugeFabricRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	for name, post := range map[string]struct{ path, body string }{
		"job":            {"/api/v1/jobs", `{"width":100000,"height":100000}`},
		"job overflow":   {"/api/v1/jobs", `{"width":4611686018427387904,"height":4}`},
		"job just over":  {"/api/v1/jobs", `{"width":129,"height":128}`},
		"stream":         {"/api/v1/stream", `{"width":100000,"height":100000,"mode":"timeline"}`},
		"campaign":       {"/api/v1/campaigns", `{"base":{"width":100000,"height":100000},"rates":[0.02]}`},
		"bench overflow": {"/api/v1/jobs", `{"bench":"canneal","width":3037000500,"height":3037000500}`},
	} {
		t.Run(name, func(t *testing.T) {
			code, body := ts.post(t, post.path, post.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST %s %s = %d (%s), want 400", post.path, post.body, code, body)
			}
			if msg := errorOf(t, body); !strings.Contains(msg, "node limit") {
				t.Errorf("error %q does not name the fabric bound", msg)
			}
		})
	}
}

// FuzzJobSpec feeds arbitrary request bodies through the jobs API's
// decoding and Normalize: neither may panic, a rejected spec comes back
// as an error, an accepted spec is a fixed point of Normalize, and a
// small accepted spec runs through JobSpec.Run without error. The seeds
// run in the ordinary test suite; `make fuzz` explores further.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"scheme":"PowerPunch-PG","width":4,"height":4,"pattern":"uniform","rate":0.05,"cycles":300,"seed":71}`,
		`{"scheme":"FlyOver-PG","topology":"torus","width":4,"height":4,"pattern":"transpose","rate":0.1,"warmup":50,"cycles":200}`,
		`{"scheme":"ConvOpt-PG","topology":"ring","width":6,"rate":1,"cycles":100}`,
		`{"scheme":"No-PG","width":3,"height":3,"cycles":100,"power_preset":"dsent-22nm"}`,
		`{"bench":"canneal","instr":200,"width":4,"height":4}`,
		`{"bench":"swaptions","instr":100,"width":2,"height":2,"scheme":"Plain-PG"}`,
		`{"width":100000,"height":100000}`,
		`{"width":4611686018427387904,"height":4}`,
		`{"width":-3,"height":4}`,
		`{"scheme":"Turbo-PG"}`,
		`{"rate":7}`,
		`{"bench":"canneal","rate":0.1}`,
		`{"instr":5000}`,
		`{"topology":"ring","height":2}`,
		`{"shceme":"No-PG"}`,
		`{}{"scheme":"No-PG"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		r := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(data))
		if err := decodeStrict(r, &spec); err != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("spec %s rejected with an empty error", data)
			}
			return
		}
		again, err := norm.Normalize()
		if err != nil || again != norm {
			t.Fatalf("Normalize is not idempotent on %s: %+v -> %+v (%v)", data, norm, again, err)
		}
		if norm.Width > 8 || norm.Height > 8 || norm.Instr > 300 ||
			(norm.Bench == "" && (norm.Warmup > 200 || norm.Cycles > 300)) {
			return // valid but too slow to simulate per input
		}
		if _, err := norm.Run(nil); err != nil {
			js, _ := json.Marshal(norm)
			t.Fatalf("accepted spec %s failed to run: %v", js, err)
		}
	})
}
