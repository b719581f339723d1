package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"powerpunch/internal/config"
	"powerpunch/internal/experiments"
)

// maxCampaignPoints bounds one campaign's fan-out. Large sweeps should
// shard into several campaigns rather than monopolize the pool.
const maxCampaignPoints = 4096

// CampaignSpec is a parameter sweep: the cross product of the axes,
// each point a copy of Base with that axis value substituted. An empty
// axis keeps Base's value. Axis nesting order is patterns, then rates,
// then schemes, then seeds — the in-process loadsweep's order, so the
// CSV export matches it row for row.
type CampaignSpec struct {
	Base     JobSpec   `json:"base"`
	Patterns []string  `json:"patterns,omitempty"`
	Rates    []float64 `json:"rates,omitempty"`
	Schemes  []string  `json:"schemes,omitempty"`
	Seeds    []int64   `json:"seeds,omitempty"`
}

// expand returns the normalized point specs in sweep order.
func (cs CampaignSpec) expand() ([]JobSpec, error) {
	pats := cs.Patterns
	if len(pats) == 0 {
		pats = []string{cs.Base.Pattern}
	}
	rates := cs.Rates
	if len(rates) == 0 {
		rates = []float64{cs.Base.Rate}
	}
	schemes := cs.Schemes
	if len(schemes) == 0 {
		schemes = []string{cs.Base.Scheme}
	}
	seeds := cs.Seeds
	if len(seeds) == 0 {
		seeds = []int64{cs.Base.Seed}
	}
	total := len(pats) * len(rates) * len(schemes) * len(seeds)
	if total > maxCampaignPoints {
		return nil, fmt.Errorf("campaign expands to %d points, limit %d", total, maxCampaignPoints)
	}
	out := make([]JobSpec, 0, total)
	for _, p := range pats {
		for _, r := range rates {
			for _, sch := range schemes {
				for _, seed := range seeds {
					sp := cs.Base
					sp.Pattern, sp.Rate, sp.Scheme, sp.Seed = p, r, sch, seed
					norm, err := sp.Normalize()
					if err != nil {
						return nil, fmt.Errorf("point (pattern=%q rate=%g scheme=%q seed=%d): %v", p, r, sch, seed, err)
					}
					out = append(out, norm)
				}
			}
		}
	}
	return out, nil
}

// campaignPoint is one sweep point's persistent record. The JSON tags
// are the state-file schema.
type campaignPoint struct {
	Spec   JobSpec         `json:"spec"`
	Key    string          `json:"key"`
	Done   bool            `json:"done"`
	Failed bool            `json:"failed,omitempty"`
	Err    string          `json:"error,omitempty"`
	Record json.RawMessage `json:"record,omitempty"`
}

// campaign is one sweep in flight (or restored from the state file).
type campaign struct {
	id   string
	spec CampaignSpec

	mu       sync.Mutex
	points   []campaignPoint
	enqueued []bool // point dispatched in this process
	doneN    int
	failedN  int
}

// progress snapshots the campaign's counts.
func (c *campaign) progress() campaignProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := len(c.points)
	return campaignProgress{
		ID:       c.id,
		Total:    total,
		Done:     c.doneN,
		Failed:   c.failedN,
		Pending:  total - c.doneN - c.failedN,
		Complete: c.doneN == total,
	}
}

// pendingUndispatched returns the indices of points neither finished
// nor dispatched in this process, marking them dispatched.
func (c *campaign) pendingUndispatched() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var idxs []int
	for i := range c.points {
		if !c.points[i].Done && !c.points[i].Failed && !c.enqueued[i] {
			c.enqueued[i] = true
			idxs = append(idxs, i)
		}
	}
	return idxs
}

type campaignProgress struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Pending  int    `json:"pending"`
	Complete bool   `json:"complete"`
}

// notePoint records a finished campaign job into its point, and
// persists the campaign state when the sweep just completed.
func (s *Server) notePoint(j *job, data []byte, err error) {
	c := j.camp
	c.mu.Lock()
	pt := &c.points[j.point]
	if err != nil {
		pt.Failed, pt.Err = true, err.Error()
		c.failedN++
	} else {
		pt.Done = true
		pt.Record = json.RawMessage(data)
		c.doneN++
	}
	complete := c.doneN == len(c.points)
	c.mu.Unlock()
	if complete && s.opts.StatePath != "" {
		if err := s.saveState(); err != nil {
			s.mPersistFails.Add(1)
		}
	}
}

// dispatch enqueues the given points on a fan-out goroutine. Campaign
// points use blocking sends (a sweep is one admitted unit of work, its
// points are not individually 429'd) but yield to shutdown.
func (s *Server) dispatch(c *campaign, idxs []int) {
	go func() {
		for _, i := range idxs {
			c.mu.Lock()
			spec := c.points[i].Spec
			c.mu.Unlock()
			j := s.newJob(spec, c, i)
			// Completed cache entries answer campaign points without
			// occupying the pool, exactly like ad-hoc fast-path hits.
			if data, ok := s.cache.peek(j.key); ok {
				s.mSubmitted.Add(1)
				s.mHits.Add(1)
				s.mCompleted.Add(1)
				j.complete(data, true)
				s.notePoint(j, data, nil)
				continue
			}
			select {
			case s.jobs <- j:
				s.mSubmitted.Add(1)
			case <-s.quit:
				// Draining: leave the point pending for resume.
				s.mu.Lock()
				delete(s.jobm, j.id)
				s.mu.Unlock()
				c.mu.Lock()
				c.enqueued[i] = false
				c.mu.Unlock()
				return
			}
		}
	}()
}

func (s *Server) handleCampaignCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec CampaignSpec
	if err := decodeStrict(r, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad campaign spec: %v", err)
		return
	}
	specs, err := spec.expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid campaign: %v", err)
		return
	}
	c := &campaign{spec: spec, points: make([]campaignPoint, len(specs)), enqueued: make([]bool, len(specs))}
	idxs := make([]int, len(specs))
	for i, sp := range specs {
		c.points[i] = campaignPoint{Spec: sp, Key: sp.Key()}
		c.enqueued[i] = true
		idxs[i] = i
	}
	s.mu.Lock()
	s.nextID++
	c.id = fmt.Sprintf("c-%d", s.nextID)
	s.camps[c.id] = c
	s.mu.Unlock()
	s.mCampaigns.Add(1)
	s.dispatch(c, idxs)
	writeJSON(w, http.StatusAccepted, c.progress())
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c := s.lookupCampaign(id)
	if c == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, c.progress())
}

// handleCampaignResume re-dispatches every pending point of a
// campaign, typically after a restart from persisted state. Resuming
// a complete (or already fully dispatched) campaign is a no-op that
// reports current progress.
func (s *Server) handleCampaignResume(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := r.PathValue("id")
	c := s.lookupCampaign(id)
	if c == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	if idxs := c.pendingUndispatched(); len(idxs) > 0 {
		s.mResumed.Add(1)
		s.dispatch(c, idxs)
	}
	writeJSON(w, http.StatusOK, c.progress())
}

// handleCampaignCSV exports a completed synthetic sweep campaign in
// the exact format (and byte order) of the in-process loadsweep
// driver's CSV: both funnel through experiments.LoadPointFrom and
// experiments.WriteLoadSweepCSV.
func (s *Server) handleCampaignCSV(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c := s.lookupCampaign(id)
	if c == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	c.mu.Lock()
	points := make([]campaignPoint, len(c.points))
	copy(points, c.points)
	doneN, failedN := c.doneN, c.failedN
	c.mu.Unlock()
	if failedN > 0 {
		httpError(w, http.StatusInternalServerError, "campaign %s has %d failed points", id, failedN)
		return
	}
	if doneN < len(points) {
		httpError(w, http.StatusConflict, "campaign %s incomplete (%d/%d points done)", id, doneN, len(points))
		return
	}
	pts := make([]experiments.LoadPoint, 0, len(points))
	for _, p := range points {
		if p.Spec.Bench != "" {
			httpError(w, http.StatusBadRequest, "csv export applies to synthetic sweep campaigns, not bench campaigns")
			return
		}
		var rec JobRecord
		if err := json.Unmarshal(p.Record, &rec); err != nil {
			httpError(w, http.StatusInternalServerError, "corrupt record for key %s: %v", p.Key, err)
			return
		}
		sch, _ := config.SchemeByName(p.Spec.Scheme)
		pts = append(pts, experiments.LoadPointFrom(p.Spec.Pattern, p.Spec.Rate, sch, rec.Result, rec.Throughput))
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := experiments.WriteLoadSweepCSV(w, pts); err != nil {
		// Headers are gone; nothing better to do than note it.
		s.mPersistFails.Add(1)
	}
}
