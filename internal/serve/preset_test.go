package serve

import (
	"net/http"
	"strings"
	"testing"

	"powerpunch/internal/power"
)

// TestSubmitUnknownPowerPresetRejected pins the submission-time
// surface of the typed preset error: an unknown power preset is a 400
// with config's exact message in the JSON error envelope — the known
// presets are spelled out so a client can self-correct.
func TestSubmitUnknownPowerPresetRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	code, body := ts.post(t, "/api/v1/jobs", JobSpec{PowerPreset: "dsent-9000nm"})
	if code != http.StatusBadRequest {
		t.Fatalf("submit with unknown preset = %d (%s), want 400", code, body)
	}
	want := `{"error":"invalid job spec: config: unknown power preset \"dsent-9000nm\" (known presets: ` +
		strings.Join(power.Presets(), ", ") + `)"}` + "\n"
	if string(body) != want {
		t.Errorf("error body:\n got %q\nwant %q", body, want)
	}
}

// TestCampaignUnknownPowerPresetRejected: the campaign path normalizes
// every point at creation, so a bad preset in Base fails the whole
// sweep up front with the same typed message.
func TestCampaignUnknownPowerPresetRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	code, body := ts.post(t, "/api/v1/campaigns", CampaignSpec{
		Base:  JobSpec{PowerPreset: "nope", Cycles: 100},
		Rates: []float64{0.01, 0.02},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("campaign with unknown preset = %d (%s), want 400", code, body)
	}
	msg := errorOf(t, body)
	if !strings.Contains(msg, `config: unknown power preset "nope"`) {
		t.Errorf("campaign error %q does not carry the typed preset message", msg)
	}
}

// TestPowerPresetSplitsCacheKey: the preset changes the physics, so it
// must split the result cache; the default spelled explicitly must
// still hash like the default omitted.
func TestPowerPresetSplitsCacheKey(t *testing.T) {
	base, err := JobSpec{Cycles: 100}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := JobSpec{Cycles: 100, PowerPreset: power.DefaultPreset}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Key() != explicit.Key() {
		t.Errorf("explicit default preset changed the cache key")
	}
	other, err := JobSpec{Cycles: 100, PowerPreset: "dsent-22nm"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if other.Key() == base.Key() {
		t.Errorf("dsent-22nm job hashed to the paper-preset key; cache would serve wrong physics")
	}
}

// TestJobResultCarriesPreset runs one tiny job under a non-default
// preset end to end and checks the energy detail reflects it (the
// dsent-22nm calibration halves dynamic event energies, so the
// per-component totals must differ from a paper-preset run of the
// same job).
func TestJobResultCarriesPreset(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	run := func(preset string) JobRecord {
		spec := quickSpec(77)
		spec.PowerPreset = preset
		sr := ts.submit(t, spec, http.StatusAccepted)
		st := ts.waitJob(t, sr.ID)
		if st.Status != "done" {
			t.Fatalf("job %s finished as %+v", sr.ID, st)
		}
		code, body := ts.get(t, "/api/v1/jobs/"+sr.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result = %d (%s)", code, body)
		}
		var rec JobRecord
		mustJSON(t, body, &rec)
		return rec
	}
	paper := run("")
	dsent := run("dsent-22nm")
	pe := paper.Result.Detail.Energy
	de := dsent.Result.Detail.Energy
	if pe.Total() == 0 || de.Total() == 0 {
		t.Fatalf("empty energy detail: paper=%g dsent=%g", pe.Total(), de.Total())
	}
	if pe == de {
		t.Errorf("paper and dsent-22nm presets produced identical energy breakdowns")
	}
}
