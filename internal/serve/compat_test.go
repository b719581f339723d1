package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Keys of quickSpec(91) and quickSpec(92) with "workers": 2, as the
// server computed them while JobSpec still had a Workers field (the
// field never entered the key).
const (
	retiredWorkersKey91 = "f68fa39054a451b166c1ce73938ceee7088ec320aa3e271b49233f654092cc6b"
	retiredWorkersKey92 = "858416606f5b33bdbedddebc3f170432d4e6b4ec3357883037ce1667c5977344"
)

// TestRetiredWorkersFieldRejected: submissions decode strictly, so a
// job or campaign body that still carries the retired "workers" field
// is a 400 naming the field, and nothing is queued or simulated.
func TestRetiredWorkersFieldRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		path, body, want string
	}{
		{"/api/v1/jobs",
			`{"width":4,"height":4,"cycles":300,"seed":91,"workers":2}`,
			`{"error":"bad job spec: json: unknown field \"workers\""}` + "\n"},
		{"/api/v1/campaigns",
			`{"base":{"width":4,"height":4,"cycles":300,"workers":2},"rates":[0.02,0.04]}`,
			`{"error":"bad campaign spec: json: unknown field \"workers\""}` + "\n"},
	}
	for _, c := range cases {
		code, body := ts.post(t, c.path, c.body)
		if code != http.StatusBadRequest {
			t.Fatalf("POST %s with workers = %d (%s), want 400", c.path, code, body)
		}
		if string(body) != c.want {
			t.Errorf("POST %s error body:\n got %q\nwant %q", c.path, body, c.want)
		}
	}
	st := ts.statsOf(t)
	for _, m := range []string{"jobs_submitted", "campaigns_created", "cache_misses"} {
		if st[m] != 0 {
			t.Errorf("%s = %v after rejected submissions, want 0", m, st[m])
		}
	}
}

// TestResumeStateWithRetiredWorkersField: a campaign state file written
// while specs still carried "workers" loads leniently and resumes. Its
// finished point is served from the seeded cache under the key it was
// stored with — a fresh submission of the same job is a cache hit —
// and only the pending point is simulated, under its stored key.
func TestResumeStateWithRetiredWorkersField(t *testing.T) {
	// storedSpec renders a normalized point spec the way a server that
	// still had the field wrote it into the state file.
	storedSpec := func(seed int64) (JobSpec, string) {
		spec, err := quickSpec(seed).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return spec, strings.Replace(string(js), "{", `{"workers":2,`, 1)
	}
	spec91, js91 := storedSpec(91)
	_, js92 := storedSpec(92)
	done, err := runSpec(spec91)
	if err != nil {
		t.Fatal(err)
	}
	if done.Key != retiredWorkersKey91 {
		t.Fatalf("quickSpec(91) key %s, want %s", done.Key, retiredWorkersKey91)
	}
	record, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	state := fmt.Sprintf(`{"version":1,"next_id":5,"campaigns":[{"id":"c4",`+
		`"spec":{"base":{"width":4,"height":4,"pattern":"uniform","rate":0.05,"cycles":300,"workers":2},"seeds":[91,92]},`+
		`"points":[{"spec":%s,"key":%q,"done":true,"record":%s},{"spec":%s,"key":%q,"done":false}]}]}`,
		js91, retiredWorkersKey91, record, js92, retiredWorkersKey92)
	statePath := filepath.Join(t.TempDir(), "campaigns.json")
	if err := os.WriteFile(statePath, []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, Options{Workers: 1, StatePath: statePath})
	code, body := ts.get(t, "/api/v1/campaigns/c4")
	var prog campaignProgress
	mustJSON(t, body, &prog)
	if code != http.StatusOK || prog.Done != 1 || prog.Pending != 1 {
		t.Fatalf("restored campaign = %d %+v, want 1 done / 1 pending", code, prog)
	}

	hit := ts.submit(t, quickSpec(91), http.StatusOK)
	if !hit.Cached || hit.Key != retiredWorkersKey91 {
		t.Fatalf("finished point not served from its stored key: %+v", hit)
	}

	code, body = ts.post(t, "/api/v1/campaigns/c4/resume", "{}")
	if code != http.StatusOK {
		t.Fatalf("resume = %d (%s)", code, body)
	}
	if final := ts.waitCampaign(t, "c4"); !final.Complete {
		t.Fatalf("resumed campaign did not complete: %+v", final)
	}
	st := ts.statsOf(t)
	if st["cache_misses"] != 1 {
		t.Errorf("resume simulated %v points, want 1", st["cache_misses"])
	}
	miss := ts.submit(t, quickSpec(92), http.StatusOK)
	if !miss.Cached || miss.Key != retiredWorkersKey92 {
		t.Errorf("resumed point not cached under its stored key: %+v", miss)
	}
	code, csv := ts.get(t, "/api/v1/campaigns/c4/result.csv")
	if code != http.StatusOK || strings.Count(string(csv), "\n") != 3 {
		t.Errorf("resumed CSV = %d:\n%s", code, csv)
	}
}
