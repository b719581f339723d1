package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSoakServe hammers the server with concurrent clients over a
// small set of distinct jobs, so most requests race the cache
// (in-flight joins, fast-path hits) under -race. Every response for a
// key must be byte-identical, and the pool must simulate each
// distinct job exactly once.
func TestSoakServe(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4})
	specs := make([]JobSpec, 4)
	keys := make(map[string]bool, len(specs))
	for i := range specs {
		specs[i] = quickSpec(int64(201 + i))
		n, err := specs[i].Normalize()
		if err != nil {
			t.Fatal(err)
		}
		keys[n.Key()] = true
	}

	const clients, rounds = 8, 12
	var (
		mu       sync.Mutex
		byKey    = map[string][]byte{}
		mismatch atomic.Int32
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				spec := specs[(c+i)%len(specs)]
				result, key, err := runJobOverHTTP(ts.ts.URL, spec)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				mu.Lock()
				if prev, ok := byKey[key]; !ok {
					byKey[key] = result
				} else if !bytes.Equal(prev, result) {
					mismatch.Add(1)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if n := mismatch.Load(); n > 0 {
		t.Errorf("%d responses differed from the first bytes of their key", n)
	}
	if len(byKey) != len(keys) {
		t.Errorf("observed %d distinct keys, want %d", len(byKey), len(keys))
	}
	st := ts.statsOf(t)
	if st["cache_misses"] != float64(len(keys)) {
		t.Errorf("cache_misses = %v, want %d (one simulation per distinct job)", st["cache_misses"], len(keys))
	}
	if st["jobs_failed"] != 0 || st["jobs_rejected"] != 0 {
		t.Errorf("failed=%v rejected=%v, want 0", st["jobs_failed"], st["jobs_rejected"])
	}
	if want := float64(clients * rounds); st["jobs_submitted"] != want {
		t.Errorf("jobs_submitted = %v, want %v", st["jobs_submitted"], want)
	}
}

// runJobOverHTTP submits spec, polls to completion, and fetches the
// result bytes. Goroutine-safe (reports by error, never t.Fatal).
func runJobOverHTTP(baseURL string, spec JobSpec) (result []byte, key string, err error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.Post(baseURL+"/api/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	body, err := readAll(resp)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("submit = %d (%s)", resp.StatusCode, body)
	}
	var sr submitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, "", fmt.Errorf("submit response %q: %v", body, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/api/v1/jobs/" + sr.ID)
		if err != nil {
			return nil, "", err
		}
		body, err := readAll(resp)
		if err != nil {
			return nil, "", err
		}
		var js jobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			return nil, "", fmt.Errorf("status response %q: %v", body, err)
		}
		if js.Status == "failed" {
			return nil, "", fmt.Errorf("job %s failed: %s", sr.ID, js.Error)
		}
		if js.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			return nil, "", fmt.Errorf("job %s stuck in state %q", sr.ID, js.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Get(baseURL + "/api/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		return nil, "", err
	}
	body, err = readAll(resp)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("result = %d (%s)", resp.StatusCode, body)
	}
	return body, sr.Key, nil
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestShutdownResume interrupts a campaign mid-flight: graceful
// shutdown drains the in-flight point, persists the completed ones,
// and a restarted server resumes from the state file, re-simulating
// only the never-started point — with a final CSV byte-identical to
// an uninterrupted run.
func TestShutdownResume(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "campaigns.json")
	rates := []float64{0.02, 0.04, 0.06, 0.08}
	campaign := CampaignSpec{
		Base:  JobSpec{Width: 4, Height: 4, Cycles: 300, Seed: 71},
		Rates: rates,
	}

	srvA, err := New(Options{Workers: 1, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	tsA := &testServer{Server: srvA, ts: httptest.NewServer(srvA.Handler())}
	defer tsA.ts.Close()

	// Park the single worker on its third pickup: points 1-2 complete,
	// point 3 is in flight, point 4 is queued but never started.
	var pickups atomic.Int32
	thirdRunning := make(chan struct{})
	release := make(chan struct{})
	srvA.hookRunning = func(*job) {
		if pickups.Add(1) == 3 {
			close(thirdRunning)
			<-release
		}
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	code, body := tsA.post(t, "/api/v1/campaigns", campaign)
	if code != http.StatusAccepted {
		t.Fatalf("campaign create = %d (%s)", code, body)
	}
	var cp campaignProgress
	mustJSON(t, body, &cp)
	<-thirdRunning

	// Shutdown mid-campaign. Wait for quit to close before releasing
	// the worker, so the drained point 3 is deterministically the last
	// work this process does.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srvA.Shutdown(ctx) }()
	<-srvA.quit
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The state file records three completed points and one pending.
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("state file not written: %v", err)
	}
	var st persistedState
	mustJSON(t, raw, &st)
	if st.Version != stateVersion || len(st.Campaigns) != 1 {
		t.Fatalf("persisted state %+v", st)
	}
	var doneN, pendingN int
	for _, p := range st.Campaigns[0].Points {
		switch {
		case p.Done && len(p.Record) > 0:
			doneN++
		case !p.Done && !p.Failed:
			pendingN++
		default:
			t.Errorf("point in unexpected persisted state: %+v", p)
		}
	}
	if doneN != 3 || pendingN != 1 {
		t.Fatalf("persisted %d done / %d pending, want 3 / 1", doneN, pendingN)
	}

	// A restarted server sees the campaign, refuses the CSV while
	// incomplete, and resume finishes only the missing point.
	tsB := newTestServer(t, Options{Workers: 1, StatePath: statePath})
	codeB, bodyB := tsB.get(t, "/api/v1/campaigns/"+cp.ID)
	var progB campaignProgress
	mustJSON(t, bodyB, &progB)
	if codeB != http.StatusOK || progB.Done != 3 || progB.Pending != 1 {
		t.Fatalf("restored campaign progress = %d %+v", codeB, progB)
	}
	if code, _ := tsB.get(t, "/api/v1/campaigns/"+cp.ID+"/result.csv"); code != http.StatusConflict {
		t.Fatalf("incomplete restored CSV = %d, want 409", code)
	}
	code, body = tsB.post(t, "/api/v1/campaigns/"+cp.ID+"/resume", "{}")
	if code != http.StatusOK {
		t.Fatalf("resume = %d (%s)", code, body)
	}
	final := tsB.waitCampaign(t, cp.ID)
	if !final.Complete {
		t.Fatalf("resumed campaign did not complete: %+v", final)
	}
	stB := tsB.statsOf(t)
	if stB["cache_misses"] != 1 {
		t.Errorf("resume simulated %v points, want 1 (rest from persisted state)", stB["cache_misses"])
	}
	if stB["campaigns_resumed"] != 1 {
		t.Errorf("campaigns_resumed = %v, want 1", stB["campaigns_resumed"])
	}
	codeB, csvB := tsB.get(t, "/api/v1/campaigns/"+cp.ID+"/result.csv")
	if codeB != http.StatusOK {
		t.Fatalf("resumed CSV = %d (%s)", codeB, csvB)
	}

	// An uninterrupted control run must produce the same bytes.
	tsC := newTestServer(t, Options{Workers: 2})
	code, body = tsC.post(t, "/api/v1/campaigns", campaign)
	if code != http.StatusAccepted {
		t.Fatalf("control campaign = %d (%s)", code, body)
	}
	var cpC campaignProgress
	mustJSON(t, body, &cpC)
	tsC.waitCampaign(t, cpC.ID)
	codeC, csvC := tsC.get(t, "/api/v1/campaigns/"+cpC.ID+"/result.csv")
	if codeC != http.StatusOK {
		t.Fatalf("control CSV = %d (%s)", codeC, csvC)
	}
	if !bytes.Equal(csvB, csvC) {
		t.Errorf("resumed CSV differs from uninterrupted run:\nresumed:\n%s\ncontrol:\n%s", csvB, csvC)
	}
}
