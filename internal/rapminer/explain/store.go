package explain

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Store is a bounded, concurrency-safe collection of explain reports keyed
// by trace ID. When full, storing a new report evicts the oldest, so a
// long-lived service keeps the most recent runs inspectable at a fixed
// memory cost.
type Store struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]Report
	order []string // trace IDs, oldest first
	total int
}

// DefaultCapacity bounds the default store: enough for hours of incident
// ticks, small enough to list over HTTP.
const DefaultCapacity = 256

var defaultStore = NewStore(DefaultCapacity)

// Default returns the process-wide store that the HTTP API and the
// pipeline publish into.
func Default() *Store { return defaultStore }

// NewStore builds a store retaining the last capacity reports.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{cap: capacity, byID: make(map[string]Report, capacity)}
}

// Put stores r under its trace ID, evicting the oldest report when full.
// A report with an empty trace ID is dropped; re-storing an existing ID
// replaces the report in place.
func (s *Store) Put(r Report) {
	if r.TraceID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[r.TraceID]; ok {
		s.byID[r.TraceID] = r
		return
	}
	for len(s.order) >= s.cap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, oldest)
	}
	s.byID[r.TraceID] = r
	s.order = append(s.order, r.TraceID)
	s.total++
}

// Get returns the report stored under the trace ID.
func (s *Store) Get(traceID string) (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byID[traceID]
	return r, ok
}

// Len returns the number of retained reports.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Total returns how many reports were ever stored (including evicted).
func (s *Store) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Recent returns the retained reports, newest first.
func (s *Store) Recent() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Report, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.byID[s.order[i]])
	}
	return out
}

// Summary is one run's row in the GET /debug/runs listing.
type Summary struct {
	TraceID         string    `json:"trace_id"`
	Time            time.Time `json:"time"`
	Source          string    `json:"source"`
	Method          string    `json:"method"`
	Leaves          int       `json:"leaves"`
	AnomalousLeaves int       `json:"anomalous_leaves"`
	// Candidates counts the search's candidate set, or the returned
	// patterns of a report without a search journal.
	Candidates   int     `json:"candidates"`
	EarlyStopped bool    `json:"early_stopped"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// summarize projects a report to its listing row.
func summarize(r Report) Summary {
	return Summary{
		TraceID:         r.TraceID,
		Time:            r.Time,
		Source:          r.Source,
		Method:          r.Method,
		Leaves:          r.Leaves,
		AnomalousLeaves: r.AnomalousLeaves,
		Candidates:      len(r.Candidates) + len(r.Patterns),
		EarlyStopped:    r.EarlyStopped,
		ElapsedMS:       r.ElapsedMS,
	}
}

// RunsHandler lists the retained runs as JSON (mount at GET /debug/runs):
// {"total": N, "runs": [...]} with runs newest first.
func (s *Store) RunsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		recent := s.Recent()
		summaries := make([]Summary, 0, len(recent))
		for _, r := range recent {
			summaries = append(summaries, summarize(r))
		}
		writeJSON(w, http.StatusOK, struct {
			Total int       `json:"total"`
			Runs  []Summary `json:"runs"`
		}{Total: s.Total(), Runs: summaries})
	})
}

// RunHandler serves one run's full report (mount at GET /debug/runs/{id});
// unknown IDs get a JSON 404.
func (s *Store) RunHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		report, ok := s.Get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{
				"error": "no run with trace ID " + id,
			})
			return
		}
		writeJSON(w, http.StatusOK, report)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
