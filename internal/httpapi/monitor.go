package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/leafforecast"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
	"repro/internal/timeseries"
)

// monitorAPI holds the stateful monitoring endpoints: clients stream raw
// observation snapshots to POST /v1/observe and read the incident
// lifecycle from GET /v1/incidents. The tracked monitor learns every
// leaf's baseline from the stream itself, so observations need only carry
// actual values.
type monitorAPI struct {
	reg     *obs.Registry
	runs    *explain.Store
	mu      sync.Mutex
	tracked *pipeline.TrackedMonitor
	schema  *kpi.Schema
	ticks   int
}

// newMonitorAPI builds the endpoints around the default pipeline
// configuration, publishing the monitor's metrics to reg and its explain
// reports to runs.
func newMonitorAPI(reg *obs.Registry, runs *explain.Store) *monitorAPI {
	return &monitorAPI{reg: reg, runs: runs}
}

// init lazily assembles the monitor from the first observation's schema.
func (m *monitorAPI) init(schema *kpi.Schema) error {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig(anomaly.RelativeDeviation{Threshold: 0.3, Eps: 1e-9}, miner)
	cfg.AlarmThreshold = 0.01
	cfg.Registry = m.reg
	cfg.Runs = m.runs
	monitor, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	tracker, err := leafforecast.New(schema, leafforecast.Config{
		Forecaster: timeseries.EWMA{Alpha: 0.3},
		Window:     256,
		MinHistory: 5,
	})
	if err != nil {
		return err
	}
	tracked, err := pipeline.NewTracked(monitor, tracker)
	if err != nil {
		return err
	}
	m.tracked = tracked
	m.schema = schema
	return nil
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

func (m *monitorAPI) handleObserve(w http.ResponseWriter, r *http.Request) {
	ts := time.Now().UTC()
	if raw := r.URL.Query().Get("ts"); raw != "" {
		parsed, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "ts must be RFC 3339")
			return
		}
		ts = parsed
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	var (
		snap *kpi.Snapshot
		err  error
	)
	switch mediaType(r.Header.Get("Content-Type")) {
	case "text/csv":
		snap, err = kpi.ReadCSV(body, nil)
	case "", "application/json":
		snap, err = readSnapshotJSON(r.Context(), body)
	default:
		writeError(w, http.StatusUnsupportedMediaType, "content type must be application/json or text/csv")
		return
	}
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

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tracked == nil {
		if err := m.init(snap.Schema); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else if !sameSchema(m.schema, snap.Schema) {
		writeError(w, http.StatusConflict, "observation schema differs from the monitored schema")
		return
	} else {
		// Re-home the snapshot onto the monitor's schema instance: the
		// tracker compares schema identity.
		snap = &kpi.Snapshot{Schema: m.schema, Leaves: snap.Leaves}
	}
	// The request's trace context flows into the pipeline, so a tick
	// that localizes journals its run under the request's trace ID.
	ev, err := m.tracked.ProcessContext(r.Context(), ts, snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	m.ticks++
	writeJSON(w, http.StatusOK, observeResponse{
		Event:     ev.Kind.String(),
		Tick:      m.ticks,
		Deviation: ev.Deviation,
		Incident:  m.incidentJSON(ev.Incident),
	})
}

func (m *monitorAPI) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	type incidentsResponse struct {
		Ticks    int                 `json:"ticks"`
		Current  *incidentResponse   `json:"current,omitempty"`
		Resolved []*incidentResponse `json:"resolved"`
	}
	resp := incidentsResponse{Ticks: m.ticks, Resolved: []*incidentResponse{}}
	if m.tracked != nil {
		resp.Current = m.incidentJSON(m.tracked.Current())
		for _, inc := range m.tracked.History() {
			in := inc
			resp.Resolved = append(resp.Resolved, m.incidentJSON(&in))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *monitorAPI) incidentJSON(inc *pipeline.Incident) *incidentResponse {
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
				combo[a] = m.schema.Value(a, code)
			}
		}
		out.Scopes = append(out.Scopes, patternResponse{Combination: combo, Score: p.Score})
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
