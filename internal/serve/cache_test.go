package serve

import (
	"bytes"
	"errors"
	"net/http"
	"testing"
)

func TestCanonicalKeyStability(t *testing.T) {
	// A spec spelling every default explicitly and the empty spec are
	// the same job, so they must share a cache key.
	minimal := JobSpec{}
	explicit := JobSpec{
		Scheme:   "PowerPunch-PG",
		Topology: "mesh",
		Width:    8,
		Height:   8,
		Pattern:  "uniform",
		Rate:     0.02,
		Cycles:   20_000,
		Seed:     1,
	}
	nm, err := minimal.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ne, err := explicit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nm.Key() != ne.Key() {
		t.Errorf("minimal key %s != explicit-defaults key %s", nm.Key(), ne.Key())
	}
}

func TestCanonicalKeyFieldSensitivity(t *testing.T) {
	base := quickSpec(1)
	mutations := map[string]func(*JobSpec){
		"scheme":   func(s *JobSpec) { s.Scheme = "No-PG" },
		"topology": func(s *JobSpec) { s.Topology = "torus" },
		"width":    func(s *JobSpec) { s.Width = 6 },
		"height":   func(s *JobSpec) { s.Height = 6 },
		"pattern":  func(s *JobSpec) { s.Pattern = "transpose" },
		"rate":     func(s *JobSpec) { s.Rate = 0.051 },
		"cycles":   func(s *JobSpec) { s.Cycles = 301 },
		"warmup":   func(s *JobSpec) { s.Warmup = 10 },
		"seed":     func(s *JobSpec) { s.Seed = 2 },
	}
	nb, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{nb.Key(): "base"}
	for name, mutate := range mutations {
		sp := base
		mutate(&sp)
		n, err := sp.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[n.Key()]; dup {
			t.Errorf("mutating %s collides with %s on key %s", name, prev, n.Key())
		}
		seen[n.Key()] = name
	}
	// Bench jobs key on bench/instr instead of the synthetic axes.
	b1, err := JobSpec{Bench: "canneal", Instr: 1000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := JobSpec{Bench: "canneal", Instr: 2000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if b1.Key() == b2.Key() {
		t.Error("bench instr change did not change the key")
	}
	if _, dup := seen[b1.Key()]; dup {
		t.Error("bench key collides with a synthetic key")
	}
}

// TestCanonicalKeyIgnoresEngine: specs once carried a "workers" field
// choosing an intra-run tick engine, which never entered the key. A
// stored spec that still carries it decodes leniently (as the state
// file does) to the spec without it, and keeps the key it was stored
// under.
func TestCanonicalKeyIgnoresEngine(t *testing.T) {
	var stored JobSpec
	mustJSON(t, []byte(`{"scheme":"PowerPunch-PG","width":4,"height":4,"pattern":"uniform","rate":0.05,"cycles":300,"seed":91,"workers":8}`), &stored)
	if stored != quickSpec(91) {
		t.Fatalf("lenient decode = %+v, want %+v", stored, quickSpec(91))
	}
	n, err := stored.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Key(); got != retiredWorkersKey91 {
		t.Errorf("key %s, want the key it was stored under, %s", got, retiredWorkersKey91)
	}
}

// TestCacheHitByteIdentical is the PR's core determinism claim over
// the wire: resubmitting the same (config, seed) returns the exact
// bytes of the first run, costs zero additional simulated cycles, and
// increments the hit counter.
func TestCacheHitByteIdentical(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	spec := quickSpec(81)

	first := ts.submit(t, spec, http.StatusAccepted)
	ts.waitJob(t, first.ID)
	_, bytesA := ts.get(t, "/api/v1/jobs/"+first.ID+"/result")
	st := ts.statsOf(t)
	if st["cache_misses"] != 1 || st["cache_hits"] != 0 {
		t.Fatalf("after first run: misses=%v hits=%v", st["cache_misses"], st["cache_hits"])
	}
	// sim_cycles counts the whole run, measurement window plus drain.
	simCycles := st["sim_cycles"]
	if simCycles < float64(spec.Cycles) {
		t.Fatalf("sim_cycles = %v, want >= %d", simCycles, spec.Cycles)
	}

	// Same job again: served from cache without touching the pool
	// (200 with cached=true, not 202).
	second := ts.submit(t, spec, http.StatusOK)
	if !second.Cached || second.Status != "done" {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("resubmission key %s != original %s", second.Key, first.Key)
	}
	_, bytesB := ts.get(t, "/api/v1/jobs/"+second.ID+"/result")
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("cached result differs from original:\nA: %s\nB: %s", bytesA, bytesB)
	}
	st = ts.statsOf(t)
	if st["cache_hits"] != 1 || st["cache_misses"] != 1 {
		t.Errorf("after hit: hits=%v misses=%v", st["cache_hits"], st["cache_misses"])
	}
	if st["sim_cycles"] != simCycles {
		t.Errorf("cache hit simulated cycles: %v -> %v", simCycles, st["sim_cycles"])
	}

	// One field changed -> different key -> a real simulation.
	third := spec
	third.Seed = 82
	tr := ts.submit(t, third, http.StatusAccepted)
	if tr.Key == first.Key {
		t.Fatal("seed change kept the same key")
	}
	ts.waitJob(t, tr.ID)
	st = ts.statsOf(t)
	if st["cache_misses"] != 2 || st["sim_cycles"] <= simCycles {
		t.Errorf("after seed change: misses=%v sim_cycles=%v", st["cache_misses"], st["sim_cycles"])
	}
}

// TestFreshServerByteIdentical locks cross-process determinism: two
// independent servers produce byte-identical records for the same
// spec, which is what makes the cache (and persisted campaign state)
// portable across restarts.
func TestFreshServerByteIdentical(t *testing.T) {
	spec := quickSpec(91)
	var runs [][]byte
	for i := 0; i < 2; i++ {
		ts := newTestServer(t, Options{Workers: 2})
		sr := ts.submit(t, spec, http.StatusAccepted)
		ts.waitJob(t, sr.ID)
		_, body := ts.get(t, "/api/v1/jobs/"+sr.ID+"/result")
		runs = append(runs, body)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("independent servers disagree:\nA: %s\nB: %s", runs[0], runs[1])
	}
}

func TestCacheEviction(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, CacheSize: 1})
	for seed := int64(101); seed <= 103; seed++ {
		sr := ts.submit(t, quickSpec(seed), http.StatusAccepted)
		ts.waitJob(t, sr.ID)
	}
	st := ts.statsOf(t)
	if st["cache_misses"] != 3 {
		t.Errorf("cache_misses = %v, want 3", st["cache_misses"])
	}
	if st["cache_evictions"] != 2 || st["cache_entries"] != 1 {
		t.Errorf("evictions=%v entries=%v, want 2 and 1", st["cache_evictions"], st["cache_entries"])
	}
}

func TestCacheUnit(t *testing.T) {
	c := newResultCache(2)

	// First acquire owns; the second joins as a waiter.
	e1, owner := c.acquire("k1")
	if !owner {
		t.Fatal("first acquire is not the owner")
	}
	e1b, owner2 := c.acquire("k1")
	if owner2 || e1b != e1 {
		t.Fatal("second acquire did not join the in-flight entry")
	}
	if _, ok := c.peek("k1"); ok {
		t.Fatal("peek sees an in-flight entry")
	}
	c.fill(e1, []byte("r1"), nil)
	<-e1b.ready
	if string(e1b.data) != "r1" {
		t.Fatalf("waiter read %q", e1b.data)
	}
	if data, ok := c.peek("k1"); !ok || string(data) != "r1" {
		t.Fatalf("peek after fill = %q, %v", data, ok)
	}

	// A failed fill is forgotten so the next acquire retries.
	ef, _ := c.acquire("bad")
	c.fill(ef, nil, errors.New("boom"))
	if _, ok := c.peek("bad"); ok {
		t.Fatal("failed entry retained")
	}
	if _, owner := c.acquire("bad"); !owner {
		t.Fatal("retry after failure did not own")
	}

	// LRU: touching k1 keeps it resident when k3 evicts the coldest.
	e2, _ := c.acquire("k2")
	c.fill(e2, []byte("r2"), nil)
	c.peek("k1") // k2 is now coldest ("bad" is still in flight and uncounted)
	e3, _ := c.acquire("k3")
	c.fill(e3, []byte("r3"), nil)
	if _, ok := c.peek("k2"); ok {
		t.Error("coldest entry k2 survived eviction")
	}
	if _, ok := c.peek("k1"); !ok {
		t.Error("recently-touched k1 was evicted")
	}
	if c.Evictions() != 1 || c.Len() != 2 {
		t.Errorf("evictions=%d len=%d, want 1 and 2", c.Evictions(), c.Len())
	}
}
