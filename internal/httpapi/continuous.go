package httpapi

import (
	"errors"
	"fmt"
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

// defaultContinuousWindow is the sliding tick-stats window when the server
// was started without an explicit -window.
const defaultContinuousWindow = 60

// continuousAPI holds the continuous-localization endpoints: clients POST
// one full snapshot to establish the baseline, then stream per-tick deltas
// to POST /v1/observe/delta. The runner patches its long-lived snapshot in
// place, relabels only the touched leaves, and the monitor's debounce
// machinery opens/updates incidents as usual. Unlike the /v1/observe
// tracked monitor, snapshots here carry their own forecasts.
type continuousAPI struct {
	reg    *obs.Registry
	runs   *explain.Store
	window int

	mu     sync.Mutex
	runner *pipeline.ContinuousRunner
	schema *kpi.Schema
}

func newContinuousAPI(reg *obs.Registry, runs *explain.Store, window int) *continuousAPI {
	if window < 1 {
		window = defaultContinuousWindow
	}
	return &continuousAPI{reg: reg, runs: runs, window: window}
}

// init assembles the runner on the first baseline snapshot.
func (c *continuousAPI) init(schema *kpi.Schema) error {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	cfg.AlarmThreshold = 0.01
	cfg.Registry = c.reg
	cfg.Runs = c.runs
	runner, err := pipeline.NewContinuous(cfg, c.window)
	if err != nil {
		return err
	}
	c.runner = runner
	c.schema = schema
	return nil
}

// deltaResponse is the POST /v1/observe/delta reply; snapshotResponse the
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

// handleSnapshot installs (or replaces) the baseline snapshot. A snapshot
// whose schema differs from the current one replaces the world outright —
// the FullRebuild fallback of the delta contract — rather than erroring.
func (c *continuousAPI) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ts, ok := requestTime(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	snap, err := readSnapshotJSON(r.Context(), body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("snapshot exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runner == nil || !sameSchema(c.schema, snap.Schema) {
		// First baseline, or a schema change: (re)build the runner. Incident
		// state does not survive a schema change — the world it described is
		// gone.
		if err := c.init(snap.Schema); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else {
		// Re-home onto the stored schema instance so cached indexers and
		// interned codes keep working across requests.
		snap = &kpi.Snapshot{Schema: c.schema, Leaves: snap.Leaves}
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

// handleDelta applies one delta tick against the baseline snapshot.
func (c *continuousAPI) handleDelta(w http.ResponseWriter, r *http.Request) {
	ts, ok := requestTime(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runner == nil {
		writeError(w, http.StatusConflict, "no baseline snapshot; POST /v1/observe/snapshot first")
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	d, err := readDeltaJSON(r.Context(), body, c.schema)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("delta exceeds %d bytes", tooLarge.Limit))
			return
		}
		// Unknown element names are schema conflicts (a delta cannot grow
		// the schema); everything else is a malformed document.
		writeError(w, http.StatusBadRequest, err.Error())
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

func (c *continuousAPI) handleStatus(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := continuousStatusResponse{Window: []tickJSON{}}
	if c.runner != nil {
		resp.Ticks = c.runner.Ticks()
		resp.Leaves = c.runner.Len()
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

func (c *continuousAPI) incidentJSON(inc *pipeline.Incident) *incidentResponse {
	if inc == nil {
		return nil
	}
	out := &incidentResponse{
		ID:       inc.ID,
		OpenedAt: inc.OpenedAt,
		Updates:  inc.Updates,
		Scopes:   []patternResponse{},
	}
	if !inc.ResolvedAt.IsZero() {
		t := inc.ResolvedAt
		out.ResolvedAt = &t
	}
	for _, p := range inc.Scopes {
		combo := make([]string, len(p.Combo))
		for a, code := range p.Combo {
			if code == kpi.Wildcard {
				combo[a] = kpi.WildcardToken
			} else {
				combo[a] = c.schema.Value(a, code)
			}
		}
		out.Scopes = append(out.Scopes, patternResponse{Combination: combo, Score: p.Score})
	}
	return out
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
