package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	core "hhoudini/internal/hhoudini"
)

// maxBodyBytes bounds a job-spec body; specs are small JSON objects and an
// unbounded read is a trivial memory DoS.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP surface:
//
//	POST /v1/jobs        submit a job (201, or 429/503 under admission control)
//	GET  /v1/jobs/{id}   job status + result + per-job stats
//	GET  /v1/stats       cache / pool / queue gauges
//	GET  /healthz        liveness (200 while the process runs)
//	GET  /readyz         readiness (503 once draining)
//
// Handlers never store a request context: each request's ctx stays on the
// handler stack, and job execution derives its own deadline context in the
// executor (the submitting request returns immediately at admission).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	j, admErr := s.submit(spec)
	if admErr != nil {
		if admErr.retryAfter > 0 {
			secs := int(admErr.retryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeError(w, admErr.status, admErr.msg)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusCreated, j.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// ServerStats is the GET /v1/stats response body: queue, pool, cache and
// runtime gauges for dashboards and the acceptance assertions.
type ServerStats struct {
	UptimeMS   int64 `json:"uptime_ms"`
	Goroutines int   `json:"goroutines"`

	Draining bool `json:"draining"`

	JobsQueued   int   `json:"jobs_queued"`
	JobsRunning  int   `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`

	Accepted     int64 `json:"accepted"`
	RejectedBusy int64 `json:"rejected_busy"` // 429s
	RejectedGone int64 `json:"rejected_gone"` // 503s while draining

	Workers int `json:"workers"`

	// QueueDepth maps each tenant with queued work to its sub-queue depth.
	QueueDepth map[string]int `json:"queue_depth,omitempty"`

	// Cache is the shared verification cache's counter snapshot (hits,
	// evictions, durable footprint, bytes high-water).
	Cache core.CacheCounters `json:"cache"`

	// ProofDB surfaces the bound persistent store's snapshot and
	// append-path health; nil when the server runs without a
	// CacheDir (or the store failed to open and the cache degraded to
	// memory-only).
	ProofDB *ProofDBStats `json:"proofdb,omitempty"`
}

// ProofDBStats is the /v1/stats projection of proofdb.Stats: durability
// gauges for dashboards (are appends keeping up? have they degraded?) and
// the crash-restart assertions in the tests.
type ProofDBStats struct {
	Flushes     int64 `json:"flushes"`
	BytesOnDisk int64 `json:"bytes_on_disk"`

	JournalAppends   int64 `json:"journal_appends"`
	JournalSyncs     int64 `json:"journal_syncs"`
	JournalReplayed  int64 `json:"journal_replayed"`
	JournalTornTails int64 `json:"journal_torn_tails"`
	JournalDegraded  bool  `json:"journal_degraded"`
}

// StatsPayload assembles the gauge snapshot (also used by tests directly).
func (s *Server) StatsPayload() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Draining:     s.draining,
		JobsQueued:   s.queued,
		JobsRunning:  s.running,
		JobsDone:     s.done,
		JobsFailed:   s.failed,
		JobsCanceled: s.canceled,
		Accepted:     s.accepted,
		RejectedBusy: s.rejectedBusy,
		RejectedGone: s.rejectedGone,
		Workers:      s.cfg.Workers,
	}
	if len(s.queues) > 0 {
		st.QueueDepth = make(map[string]int, len(s.queues))
		for tenant, q := range s.queues {
			st.QueueDepth[tenant] = len(q)
		}
	}
	s.mu.Unlock()
	st.Goroutines = runtime.NumGoroutine()
	st.Cache = s.cache.Counters()
	if s.cfg.CacheDir != "" {
		if db, ok := core.ProofDBStatsFor(s.cfg.CacheDir); ok {
			st.ProofDB = &ProofDBStats{
				Flushes:          db.Flushes,
				BytesOnDisk:      db.BytesOnDisk,
				JournalAppends:   db.JournalAppends,
				JournalSyncs:     db.JournalSyncs,
				JournalReplayed:  db.JournalReplayed,
				JournalTornTails: db.JournalTornTails,
				JournalDegraded:  db.JournalDegraded,
			}
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsPayload())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := !s.draining && !s.closed
	s.mu.Unlock()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// A degraded journal is noted but never fails readiness: the store has
	// already fallen back to snapshot-only persistence and learning is
	// unaffected — the daemon must not get restart-looped over a durability
	// downgrade.
	if s.cfg.CacheDir != "" {
		if db, ok := core.ProofDBStatsFor(s.cfg.CacheDir); ok && db.JournalDegraded {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready (journal degraded: snapshot-only persistence)")
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: the client may be gone
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
