package httpapi

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// observeWindow is how many recent ticks GET /v1/observe/continuous
// reports.
const observeWindow = 60

// observeAPI holds the stateful monitoring endpoints around one world per
// server: a pipeline.ContinuousRunner built on the first full snapshot.
//
//   - POST /v1/observe streams snapshots of actuals only; the runner fills
//     in the forecasts from a baseline it learns from quiet ticks. A
//     snapshot on another schema is refused.
//   - POST /v1/observe/snapshot installs a full snapshot that carries its
//     own forecasts; one on another schema replaces the world.
//   - POST /v1/observe/delta patches the world in place with one tick's
//     delta; the runner relabels only the touched leaves.
//   - GET /v1/incidents and GET /v1/observe/continuous read the same
//     monitor.
//
// The last three are mounted only with Options.Continuous.
type observeAPI struct {
	reg  *obs.Registry
	runs *explain.Store

	mu     sync.Mutex
	runner *pipeline.ContinuousRunner
	schema *kpi.Schema
}

func newObserveAPI(reg *obs.Registry, runs *explain.Store) *observeAPI {
	return &observeAPI{reg: reg, runs: runs}
}

// enter prepares snap to become the world's next full snapshot. A snapshot
// on the world's schema is re-homed onto the stored schema instance, so
// cached indexers, interned codes and the runner's forecast tracker keep
// working across requests. The first snapshot, or one on another schema,
// (re)builds the runner: incident state does not survive a schema change —
// the world it described is gone. c.mu is held.
func (c *observeAPI) enter(snap *kpi.Snapshot) (*kpi.Snapshot, error) {
	if c.runner != nil && sameSchema(c.schema, snap.Schema) {
		return &kpi.Snapshot{Schema: c.schema, Leaves: snap.Leaves}, nil
	}
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	cfg.AlarmThreshold = 0.01
	cfg.Registry = c.reg
	cfg.Runs = c.runs
	runner, err := pipeline.NewContinuous(cfg, observeWindow)
	if err != nil {
		return nil, err
	}
	c.runner = runner
	c.schema = snap.Schema
	return snap, nil
}

// observeResponse is the POST /v1/observe reply.
type observeResponse struct {
	Event     string            `json:"event"`
	Tick      int               `json:"tick"`
	Deviation float64           `json:"deviation"`
	Incident  *incidentResponse `json:"incident,omitempty"`
}

type incidentResponse struct {
	ID         int               `json:"id"`
	OpenedAt   time.Time         `json:"opened_at"`
	ResolvedAt *time.Time        `json:"resolved_at,omitempty"`
	Updates    int               `json:"updates"`
	Scopes     []patternResponse `json:"scopes"`
}

// handleObserve processes one snapshot of actuals (JSON or CSV).
func (c *observeAPI) handleObserve(w http.ResponseWriter, r *http.Request) {
	ts, ok := requestTime(w, r)
	if !ok {
		return
	}
	snap := readSnapshot(r.Context(), w, r)
	if snap == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runner != nil && !sameSchema(c.schema, snap.Schema) {
		writeError(w, http.StatusConflict, "observation schema differs from the monitored schema")
		return
	}
	snap, err := c.enter(snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The request's trace context flows into the pipeline, so a tick
	// that localizes journals its run under the request's trace ID.
	ev, err := c.runner.ObserveActuals(r.Context(), ts, snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, observeResponse{
		Event:     ev.Kind.String(),
		Tick:      c.runner.Ticks(),
		Deviation: ev.Deviation,
		Incident:  c.incidentJSON(ev.Incident),
	})
}

func (c *observeAPI) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	type incidentsResponse struct {
		Ticks    int                 `json:"ticks"`
		Current  *incidentResponse   `json:"current,omitempty"`
		Resolved []*incidentResponse `json:"resolved"`
	}
	resp := incidentsResponse{Resolved: []*incidentResponse{}}
	if c.runner != nil {
		mon := c.runner.Monitor()
		resp.Ticks = c.runner.Ticks()
		resp.Current = c.incidentJSON(mon.Current())
		for _, inc := range mon.History() {
			resp.Resolved = append(resp.Resolved, c.incidentJSON(&inc))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// deltaResponse is the POST /v1/observe/delta reply, and the
// POST /v1/observe/snapshot one (same shape, no delta counters).
type deltaResponse struct {
	Event     string            `json:"event"`
	Tick      int               `json:"tick"`
	Deviation float64           `json:"deviation"`
	Leaves    int               `json:"leaves"`
	Removed   int               `json:"removed,omitempty"`
	Updated   int               `json:"updated,omitempty"`
	Added     int               `json:"added,omitempty"`
	Flipped   int               `json:"flipped,omitempty"`
	Patched   bool              `json:"patched"`
	ApplyMS   float64           `json:"apply_ms"`
	Incident  *incidentResponse `json:"incident,omitempty"`
}

// handleSnapshot installs (or replaces) the world from a snapshot carrying
// its own forecasts. A snapshot whose schema differs from the current one
// replaces the world outright — the fresh-snapshot fallback of the delta
// contract — rather than erroring.
func (c *observeAPI) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ts, ok := requestTime(w, r)
	if !ok {
		return
	}
	body, err := readBody(r.Context(), w, r)
	var snap *kpi.Snapshot
	if err == nil {
		snap, err = readSnapshotJSON(r.Context(), body)
	}
	if err != nil {
		writeDecodeError(w, "snapshot", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if snap, err = c.enter(snap); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ev, err := c.runner.ObserveSnapshot(r.Context(), ts, snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, deltaResponse{
		Event:     ev.Kind.String(),
		Tick:      c.runner.Ticks(),
		Deviation: ev.Deviation,
		Leaves:    c.runner.Len(),
		Incident:  c.incidentJSON(ev.Incident),
	})
}

// handleDelta applies one delta tick to the world. The body is read before
// c.mu is taken, so a client that sends its delta slowly holds up no other
// request; only the decode, which resolves names against the world's
// schema, runs under the lock.
func (c *observeAPI) handleDelta(w http.ResponseWriter, r *http.Request) {
	ts, ok := requestTime(w, r)
	if !ok {
		return
	}
	body, err := readBody(r.Context(), w, r)
	if err != nil {
		writeDecodeError(w, "delta", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runner == nil {
		writeError(w, http.StatusConflict, "no baseline snapshot; POST /v1/observe/snapshot or /v1/observe first")
		return
	}
	// Unknown element names are the client's fault (a delta cannot grow
	// the schema), like a malformed document: both answer 400.
	d, err := readDeltaJSON(r.Context(), body, c.schema)
	if err != nil {
		writeDecodeError(w, "delta", err)
		return
	}
	start := time.Now()
	ev, res, err := c.runner.ObserveDelta(r.Context(), ts, d)
	if err != nil {
		// An invalid delta (unknown leaf, duplicate, add of a present leaf)
		// conflicts with the server's state, and left it untouched.
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, deltaResponse{
		Event:     ev.Kind.String(),
		Tick:      c.runner.Ticks(),
		Deviation: ev.Deviation,
		Leaves:    c.runner.Len(),
		Removed:   res.Removed,
		Updated:   res.Updated,
		Added:     res.Added,
		Flipped:   flippedOf(c.runner),
		Patched:   res.PatchedFrame,
		ApplyMS:   float64(time.Since(start).Microseconds()) / 1000,
		Incident:  c.incidentJSON(ev.Incident),
	})
}

// flippedOf reads the latest tick's flipped-label count from the window.
func flippedOf(r *pipeline.ContinuousRunner) int {
	win := r.Window()
	if len(win) == 0 {
		return 0
	}
	return win[len(win)-1].Flipped
}

// continuousStatusResponse is the GET /v1/observe/continuous reply.
type continuousStatusResponse struct {
	Ticks    int               `json:"ticks"`
	Leaves   int               `json:"leaves"`
	Window   []tickJSON        `json:"window"`
	Incident *incidentResponse `json:"incident,omitempty"`
}

type tickJSON struct {
	Time      time.Time `json:"time"`
	Event     string    `json:"event"`
	Deviation float64   `json:"deviation"`
	Delta     bool      `json:"delta"`
	Touched   int       `json:"touched"`
	Flipped   int       `json:"flipped"`
	Patched   bool      `json:"patched"`
	ApplyMS   float64   `json:"apply_ms"`
}

func (c *observeAPI) handleStatus(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := continuousStatusResponse{Window: []tickJSON{}}
	if c.runner != nil {
		resp = continuousStatusResponse{Ticks: c.runner.Ticks(), Leaves: c.runner.Len(), Window: resp.Window}
		for _, st := range c.runner.Window() {
			resp.Window = append(resp.Window, tickJSON{
				Time:      st.Time,
				Event:     st.Kind.String(),
				Deviation: st.Deviation,
				Delta:     st.Delta,
				Touched:   st.Touched,
				Flipped:   st.Flipped,
				Patched:   st.Patched,
				ApplyMS:   float64(st.Apply.Microseconds()) / 1000,
			})
		}
		resp.Incident = c.incidentJSON(c.runner.Monitor().Current())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *observeAPI) incidentJSON(inc *pipeline.Incident) *incidentResponse {
	if inc == nil {
		return nil
	}
	out := &incidentResponse{
		ID:       inc.ID,
		OpenedAt: inc.OpenedAt,
		Updates:  inc.Updates,
		Scopes:   renderPatterns(c.schema, inc.Scopes),
	}
	if !inc.ResolvedAt.IsZero() {
		t := inc.ResolvedAt
		out.ResolvedAt = &t
	}
	return out
}

// sameSchema compares attribute names and element domains.
func sameSchema(a, b *kpi.Schema) bool {
	if a.NumAttributes() != b.NumAttributes() {
		return false
	}
	for i := 0; i < a.NumAttributes(); i++ {
		aa, bb := a.Attribute(i), b.Attribute(i)
		if aa.Name != bb.Name || len(aa.Values) != len(bb.Values) {
			return false
		}
		for j := range aa.Values {
			if aa.Values[j] != bb.Values[j] {
				return false
			}
		}
	}
	return true
}

// requestTime parses the optional ?ts= query parameter (RFC 3339), answering
// 400 itself on a malformed value.
func requestTime(w http.ResponseWriter, r *http.Request) (time.Time, bool) {
	ts := time.Now().UTC()
	if raw := r.URL.Query().Get("ts"); raw != "" {
		parsed, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "ts must be RFC 3339")
			return time.Time{}, false
		}
		ts = parsed
	}
	return ts, true
}
