package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Server. Zero fields take the defaults noted.
type Options struct {
	Workers    int     // simulation worker pool size (default 4); also bounds concurrent streams
	QueueDepth int     // job queue bound; a full queue rejects with 429 (default 64)
	CacheSize  int     // completed results retained in the LRU cache (default 1024)
	StatePath  string  // campaign state file, persisted on Shutdown ("" = in-memory only)
	RateLimit  float64 // per-client requests/second (0 = unlimited)
	RateBurst  int     // per-client burst (default 16, only with RateLimit > 0)

	// now overrides the limiter's clock (tests).
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.RateBurst == 0 {
		o.RateBurst = 16
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.Workers < 1:
		return fmt.Errorf("serve: Workers must be >= 1, got %d", o.Workers)
	case o.QueueDepth < 1:
		return fmt.Errorf("serve: QueueDepth must be >= 1, got %d", o.QueueDepth)
	case o.CacheSize < 1:
		return fmt.Errorf("serve: CacheSize must be >= 1, got %d", o.CacheSize)
	case o.RateLimit < 0:
		return fmt.Errorf("serve: RateLimit must be >= 0, got %g", o.RateLimit)
	case o.RateBurst < 1:
		return fmt.Errorf("serve: RateBurst must be >= 1, got %d", o.RateBurst)
	}
	return nil
}

// jobState is a job's position in its lifecycle.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	default:
		return fmt.Sprintf("jobState(%d)", int(s))
	}
}

// job is one tracked submission: either ad-hoc (camp nil) or a
// campaign point.
type job struct {
	id    string
	spec  JobSpec // normalized
	key   string
	camp  *campaign
	point int

	mu     sync.Mutex
	state  jobState
	record []byte
	errmsg string
	cached bool
	done   chan struct{}
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = jobRunning
	j.mu.Unlock()
}

func (j *job) complete(record []byte, cached bool) {
	j.mu.Lock()
	j.state = jobDone
	j.record = record
	j.cached = cached
	j.mu.Unlock()
	close(j.done)
}

func (j *job) fail(msg string) {
	j.mu.Lock()
	j.state = jobFailed
	j.errmsg = msg
	j.mu.Unlock()
	close(j.done)
}

// view snapshots the job's externally-visible state.
func (j *job) view() (state jobState, record []byte, errmsg string, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.record, j.errmsg, j.cached
}

// Server is the campaign server. Build one with New, mount Handler on
// an HTTP listener, and call Shutdown to drain in-flight jobs and
// persist campaign state.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *resultCache
	lim   *limiter

	quit      chan struct{}
	jobs      chan *job
	wg        sync.WaitGroup
	draining  atomic.Bool
	closeOnce sync.Once

	streamSem chan struct{}

	mu     sync.Mutex
	jobm   map[string]*job
	camps  map[string]*campaign
	nextID int64

	persistMu sync.Mutex // serializes state-file writes

	metrics       *expvar.Map
	mSubmitted    *expvar.Int // accepted job submissions (ad-hoc + campaign points)
	mCompleted    *expvar.Int
	mFailed       *expvar.Int
	mRejected     *expvar.Int // 429s from the job queue
	mHits         *expvar.Int // cache hits (no simulation ran)
	mMisses       *expvar.Int // cache misses (a simulation ran)
	mSimCycles    *expvar.Int // total cycles actually simulated
	mCampaigns    *expvar.Int
	mResumed      *expvar.Int
	mStreams      *expvar.Int
	mRateLimited  *expvar.Int
	mPersistFails *expvar.Int

	// hookRunning, when set before any submission, is called by a pool
	// worker as it picks up a job — the test seam for freezing the pool
	// deterministically (admission-control and shutdown tests).
	hookRunning func(*job)
}

// New builds a Server, restores campaign state from Options.StatePath
// if the file exists, and starts the worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		cache:     newResultCache(opts.CacheSize),
		lim:       newLimiter(opts.RateLimit, opts.RateBurst, opts.now),
		quit:      make(chan struct{}),
		jobs:      make(chan *job, opts.QueueDepth),
		streamSem: make(chan struct{}, opts.Workers),
		jobm:      make(map[string]*job),
		camps:     make(map[string]*campaign),
	}
	s.initMetrics()
	if opts.StatePath != "" {
		if err := s.loadState(); err != nil {
			return nil, err
		}
	}
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *Server) initMetrics() {
	s.metrics = new(expvar.Map).Init()
	add := func(name string) *expvar.Int {
		v := new(expvar.Int)
		s.metrics.Set(name, v)
		return v
	}
	s.mSubmitted = add("jobs_submitted")
	s.mCompleted = add("jobs_completed")
	s.mFailed = add("jobs_failed")
	s.mRejected = add("jobs_rejected")
	s.mHits = add("cache_hits")
	s.mMisses = add("cache_misses")
	s.mSimCycles = add("sim_cycles")
	s.mCampaigns = add("campaigns_created")
	s.mResumed = add("campaigns_resumed")
	s.mStreams = add("streams")
	s.mRateLimited = add("rate_limited")
	s.mPersistFails = add("persist_failures")
	s.metrics.Set("cache_evictions", expvar.Func(func() any { return s.cache.Evictions() }))
	s.metrics.Set("cache_entries", expvar.Func(func() any { return s.cache.Len() }))
}

// Metrics returns the server's expvar map, for publishing under a
// process-wide name (the CLI exposes it as "serve" in /debug/vars).
func (s *Server) Metrics() expvar.Var { return s.metrics }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleCampaignCreate)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("POST /api/v1/campaigns/{id}/resume", s.handleCampaignResume)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result.csv", s.handleCampaignCSV)
	s.mux.HandleFunc("POST /api/v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns the server's HTTP handler with the per-client rate
// limiter applied to every endpoint except /healthz.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && !s.lim.allow(clientKey(r)) {
			s.mRateLimited.Add(1)
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Shutdown drains the server: new submissions are rejected with 503,
// pool workers finish their in-flight jobs and exit, and campaign
// state (including results of every completed point) is persisted to
// Options.StatePath so a restarted server can resume. Queued-but-not-
// started jobs are not run; campaign points among them stay pending in
// the persisted state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.closeOnce.Do(func() { close(s.quit) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.opts.StatePath != "" {
		return s.saveState()
	}
	return nil
}

// newJob registers a job under a fresh ID. camp is nil for ad-hoc
// submissions.
func (s *Server) newJob(spec JobSpec, camp *campaign, point int) *job {
	j := &job{spec: spec, key: spec.Key(), camp: camp, point: point, done: make(chan struct{})}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j-%d", s.nextID)
	s.jobm[j.id] = j
	s.mu.Unlock()
	return j
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobm[id]
}

func (s *Server) lookupCampaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.camps[id]
}

// enqueue offers j to the pool without blocking; false means the
// queue is full (admission control).
func (s *Server) enqueue(j *job) bool {
	select {
	case s.jobs <- j:
		return true
	default:
		return false
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Prefer quit so a draining pool stops even when the queue is
		// still non-empty.
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			s.runJob(j)
		}
	}
}

// runJob executes one dequeued job through the cache's single-flight
// discipline: the first worker on a key simulates and fills the
// cache; concurrent workers on the same key wait and reuse its bytes.
func (s *Server) runJob(j *job) {
	j.setRunning()
	if h := s.hookRunning; h != nil {
		h(j)
	}
	e, owner := s.cache.acquire(j.key)
	if owner {
		rec, err := runSpec(j.spec)
		var data []byte
		if err == nil {
			data, err = json.Marshal(rec)
		}
		if err == nil {
			s.mMisses.Add(1)
			s.mSimCycles.Add(rec.Result.Cycles)
		}
		s.cache.fill(e, data, err)
	} else {
		s.mHits.Add(1)
		<-e.ready
	}
	if e.err != nil {
		s.mFailed.Add(1)
		j.fail(e.err.Error())
	} else {
		s.mCompleted.Add(1)
		j.complete(e.data, !owner)
	}
	if j.camp != nil {
		s.notePoint(j, e.data, e.err)
	}
}

// --- HTTP plumbing -------------------------------------------------

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeStrict decodes the request body into v, rejecting unknown
// fields and trailing garbage.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("unexpected trailing data after the JSON body")
	}
	return nil
}

// submitResponse answers POST /api/v1/jobs.
type submitResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec JobSpec
	if err := decodeStrict(r, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	j := s.newJob(norm, nil, 0)
	// Fast path: a completed cache entry answers without touching the
	// pool — the hit is free even when the queue is saturated.
	if data, ok := s.cache.peek(j.key); ok {
		s.mSubmitted.Add(1)
		s.mHits.Add(1)
		s.mCompleted.Add(1)
		j.complete(data, true)
		writeJSON(w, http.StatusOK, submitResponse{ID: j.id, Key: j.key, Status: jobDone.String(), Cached: true})
		return
	}
	if !s.enqueue(j) {
		s.mu.Lock()
		delete(s.jobm, j.id)
		s.mu.Unlock()
		s.mRejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "job queue full (depth %d)", s.opts.QueueDepth)
		return
	}
	s.mSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.id, Key: j.key, Status: jobQueued.String()})
}

// jobStatus answers GET /api/v1/jobs/{id}.
type jobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	state, _, errmsg, cached := j.view()
	writeJSON(w, http.StatusOK, jobStatus{ID: j.id, Key: j.key, Status: state.String(), Cached: cached, Error: errmsg})
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	state, record, errmsg, _ := j.view()
	switch state {
	case jobDone:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(record)
	case jobFailed:
		httpError(w, http.StatusInternalServerError, "job %s failed: %s", id, errmsg)
	default:
		httpError(w, http.StatusConflict, "job %s is %s", id, state)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprintln(w, s.metrics.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
