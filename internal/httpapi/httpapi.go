// Package httpapi exposes anomaly localization as an HTTP service: clients
// POST a KPI snapshot (the Table III layout as JSON or CSV) and receive the
// ranked root anomaly patterns. The service is stateless — every request
// carries its snapshot — so it scales horizontally behind any load
// balancer.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/flight"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// maxBodyBytes bounds request bodies (a dense Table I CDN snapshot in JSON
// is ~2 MB).
const maxBodyBytes = 64 << 20

// maxPreallocBytes caps the buffer readBody reserves from a declared
// Content-Length before the bytes arrive: a client that declares a large
// body and sends little pins at most this much until the server's
// ReadTimeout. A longer body grows its buffer as it arrives. The cap also
// keeps a large body's first allocation small: a 13 MB world install read
// in one piece set off GC cycles that counted the body and the decoded
// rows live, doubling the heap goal and the server's peak RSS (DESIGN.md,
// "One read per body").
const maxPreallocBytes = 4 << 20

// readBody reads the request body whole, under the maxBodyBytes limit and
// an httpapi.read_body span recording its bytes. A body that declares its
// length within the limit is read into one buffer of that length plus one
// byte (at most maxPreallocBytes), so it is never copied; one of unknown
// length starts at 64 KiB and doubles. Any read error fails the body, even
// after a complete document: past the limit the error wraps
// *http.MaxBytesError (writeDecodeError answers 413), and a body cut short
// of its declared length wraps io.ErrUnexpectedEOF (400).
func readBody(ctx context.Context, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	_, span := obs.StartSpan(ctx, "httpapi.read_body")
	defer span.End()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	size := 64 << 10
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		size = int(min(n+1, maxPreallocBytes))
	}
	b := make([]byte, 0, size)
	var err error
	for err == nil {
		if len(b) == cap(b) {
			// Double, but to no more than the one byte past the limit
			// that MaxBytesReader needs to report it.
			grown := make([]byte, len(b), len(b)+min(cap(b), maxBodyBytes+1-len(b)))
			copy(grown, b)
			b = grown
		}
		var n int
		n, err = body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	span.SetAttr("bytes", len(b))
	if err != io.EOF {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return b, nil
}

// lookupMethod resolves a ?method= value against the method table; it is a
// variable so tests can put a stub method in front of the table.
var lookupMethod = methods.Lookup

// methodAndK reads the ?method= (default rapminer) and ?k= (default 3)
// query parameters, answering 400 itself when either is invalid.
func methodAndK(w http.ResponseWriter, r *http.Request) (methods.Method, int, bool) {
	name := r.URL.Query().Get("method")
	if name == "" {
		name = "rapminer"
	}
	m, ok := lookupMethod(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q; see /v1/methods", name))
		return m, 0, false
	}
	k := 3
	if raw := r.URL.Query().Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid k %q", raw))
			return m, 0, false
		}
		k = parsed
	}
	return m, k, true
}

// api carries the service's localization plumbing into the handlers.
type api struct {
	serving pipeline.Serving
	batch   *pipeline.BatchExecutor
	timeout time.Duration
}

// Options configures New. The zero value is valid: default
// registry, shared component logger, GOMAXPROCS batch workers and a queue
// of four items per worker.
type Options struct {
	// Registry receives the service's metrics; nil means obs.Default().
	Registry *obs.Registry
	// Logger is the request logger; nil means the shared "httpapi"
	// component logger.
	Logger *slog.Logger
	// BatchWorkers bounds concurrent localizations across all
	// POST /v1/localize/batch requests; <= 0 means GOMAXPROCS.
	BatchWorkers int
	// BatchQueue is how many batch items may wait beyond the running
	// ones before requests are rejected with 503. 0 means the default
	// (4x workers, minimum 16); negative means no queue at all — items
	// beyond the running ones are rejected immediately.
	BatchQueue int
	// RequestTimeout bounds the localization work of one POST /v1/localize
	// or /v1/localize/batch request via context.WithTimeout. An expired
	// request answers 504 carrying the best-so-far partial result
	// (degraded=true) rather than an empty error — clients keep whatever
	// the deadline's worth of search bought. 0 means no per-request
	// deadline.
	RequestTimeout time.Duration
	// ExemplarThreshold is the request latency (seconds) below which the
	// latency histogram does not retain trace exemplars. 0 keeps an
	// exemplar for every bucket's most recent request.
	ExemplarThreshold float64
	// Continuous mounts the continuous-localization endpoints next to
	// POST /v1/observe and GET /v1/incidents: POST /v1/observe/snapshot
	// (world install), POST /v1/observe/delta (per-tick patches) and
	// GET /v1/observe/continuous (status of the last 60 ticks). All five
	// share the server's one world, whose snapshot deltas mutate in place;
	// the stateless /v1/localize path is unaffected.
	Continuous bool
	// LogMaxPerSec caps per-request log lines emitted per second; excess
	// requests are served silently and counted in
	// rapminer_logs_suppressed_total, so a load test cannot drown the log
	// stream. <= 0 means unlimited.
	LogMaxPerSec float64

	// FlightRules are the flight recorder's automatic triggers (parse flag
	// strings with flight.ParseRules); empty leaves manual captures only.
	// The rules only fire while the recorder's trigger loop runs — start it
	// with `go srv.Flight().Run(ctx)`.
	FlightRules []flight.Rule
	// FlightCooldown, FlightCapacity, FlightSpillDir, FlightCPUProfile and
	// FlightInterval pass through to flight.Config; zero values take the
	// recorder's defaults.
	FlightCooldown   time.Duration
	FlightCapacity   int
	FlightSpillDir   string
	FlightCPUProfile time.Duration
	FlightInterval   time.Duration
}

// New builds the service as a *Server, exposing the flight recorder and
// the /readyz drain switch alongside the routes. The localization
// endpoint is stateless; the observe and incidents endpoints share one
// world per server (see observeAPI).
func New(o Options) *Server {
	reg, log := o.Registry, o.Logger
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.Logger("httpapi")
	}
	workers := o.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := o.BatchQueue
	switch {
	case queue == 0:
		queue = -1 // executor default: 4x workers, minimum 16
	case queue < 0:
		queue = 0 // no waiting beyond the running items
	}
	runs := explain.Default()
	a := &api{
		serving: pipeline.Serving{Source: "httpapi", Registry: reg, Runs: runs},
		batch:   pipeline.NewBatchExecutor(reg, workers, queue),
		timeout: o.RequestTimeout,
	}
	// Expose the full metric schema at zero from the first scrape, before
	// any localization or incident has happened, plus the process identity
	// block (rapminer_build_info, process_start_time_seconds).
	rapminer.RegisterMetrics(reg)
	pipeline.RegisterMetrics(reg)
	obs.RegisterBuildInfo(reg)
	slo := newSLOState(reg, a.batch)
	srv := &Server{slo: slo, batch: a.batch}
	srv.flight = flight.New(flight.Config{
		Registry:   reg,
		Rules:      o.FlightRules,
		Cooldown:   o.FlightCooldown,
		Capacity:   o.FlightCapacity,
		SpillDir:   o.FlightSpillDir,
		CPUProfile: o.FlightCPUProfile,
		Interval:   o.FlightInterval,
		Status:     slo.flightStatus,
		Sources:    flightSources(reg, slo, runs),
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", srv.handleReadyz)
	mux.HandleFunc("GET /v1/methods", handleMethods)
	mux.HandleFunc("POST /v1/localize", a.handleLocalize)
	mux.HandleFunc("POST /v1/localize/batch", a.handleBatch)
	world := newObserveAPI(reg, runs)
	mux.HandleFunc("POST /v1/observe", world.handleObserve)
	mux.HandleFunc("GET /v1/incidents", world.handleIncidents)
	if o.Continuous {
		mux.HandleFunc("POST /v1/observe/snapshot", world.handleSnapshot)
		mux.HandleFunc("POST /v1/observe/delta", world.handleDelta)
		mux.HandleFunc("GET /v1/observe/continuous", world.handleStatus)
	}
	Debug{Registry: reg, Runs: runs, SLO: slo.handler(), Flight: srv.flight}.Mount(mux)
	srv.handler = instrument(reg, log, slo, newLogSampler(reg, o.LogMaxPerSec), o.ExemplarThreshold, mux)
	return srv
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleMethods(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"methods": methods.Keys()})
}

// localizeResponse is the POST /v1/localize reply.
type localizeResponse struct {
	// TraceID keys the run's spans and explain report under /debug.
	TraceID   string            `json:"trace_id"`
	Method    string            `json:"method"`
	K         int               `json:"k"`
	Anomalous int               `json:"anomalous_leaves"`
	Leaves    int               `json:"leaves"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Patterns  []patternResponse `json:"patterns"`
	// Degraded marks a run cut off by the request deadline or the miner's
	// budget: Patterns holds the best-so-far candidates only. A deadline
	// expiry additionally answers with status 504.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

type patternResponse struct {
	Combination []string `json:"combination"`
	Score       float64  `json:"score"`
}

func (a *api) handleLocalize(w http.ResponseWriter, r *http.Request) {
	method, k, ok := methodAndK(w, r)
	if !ok {
		return
	}

	// The per-request deadline covers the whole handler: body read, decode
	// and labeling included, so a slow or large body spends the budget the
	// localization would otherwise get. Decode is not interruptible (the
	// body read is bounded by maxBodyBytes and the server's ReadTimeout);
	// a localizer that starts after the deadline returns its first unit's
	// best-so-far result, answered below as 504 + partial result.
	reqCtx := r.Context()
	if a.timeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, a.timeout)
		defer cancel()
	}

	snap := readSnapshot(reqCtx, w, r)
	if snap == nil {
		return
	}

	// Label with the default detector unless the snapshot already
	// carries labels (or ?relabel=true forces it).
	if snap.NumAnomalous() == 0 || r.URL.Query().Get("relabel") == "true" {
		anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
	}

	m, err := method.New(rapminer.DefaultConfig())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	start := time.Now()
	res, err := a.serving.Localize(reqCtx, "httpapi.localize", m, snap, k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := localizeResponse{
		TraceID:        obs.TraceIDFromContext(reqCtx),
		Method:         m.Name(),
		K:              k,
		Anomalous:      snap.NumAnomalous(),
		Leaves:         snap.Len(),
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
		Patterns:       renderPatterns(snap.Schema, res.Patterns),
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
	}
	// An expired request deadline is a gateway timeout, but the reply still
	// carries the partial result the deadline's worth of search produced.
	// (No Retry-After: unlike the batch queue's 503, retrying the same
	// request under the same deadline would degrade the same way.) The
	// miner's budget can observe the wall deadline slightly before the
	// context timer fires, so the degraded reason — not reqCtx.Err()
	// alone — decides the status.
	status := http.StatusOK
	if res.Degraded && (a.timeout > 0 && res.DegradedReason == localize.DegradedDeadline ||
		errors.Is(reqCtx.Err(), context.DeadlineExceeded)) {
		status = http.StatusGatewayTimeout
	}
	if res.Degraded {
		w.Header().Set(DegradedHeader, degradedHeaderValue(res.DegradedReason))
	}
	writeJSON(w, status, resp)
}

// readSnapshot reads the request's body and decodes its snapshot, CSV or
// JSON by Content-Type. On failure it has answered the request itself (415,
// 413 or 400) and returns nil.
func readSnapshot(ctx context.Context, w http.ResponseWriter, r *http.Request) *kpi.Snapshot {
	csv := false
	switch mediaType(r.Header.Get("Content-Type")) {
	case "text/csv":
		csv = true
	case "", "application/json":
	default:
		writeError(w, http.StatusUnsupportedMediaType, "content type must be application/json or text/csv")
		return nil
	}
	body, err := readBody(ctx, w, r)
	var snap *kpi.Snapshot
	switch {
	case err != nil:
	case csv:
		snap, err = kpi.ReadCSV(bytes.NewReader(body), nil)
	default:
		snap, err = readSnapshotJSON(ctx, body)
	}
	if err != nil {
		writeDecodeError(w, "snapshot", err)
		return nil
	}
	return snap
}

// writeDecodeError answers a request whose body failed to decode: 413
// naming what the body held once the body limit tripped, else 400 with the
// decoder's message.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s exceeds %d bytes", what, tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// readSnapshotJSON decodes a JSON snapshot body, already read, under a
// kpi.read_json span recording the body's bytes, the leaves decoded and
// the parts the leaves array was decoded in.
func readSnapshotJSON(ctx context.Context, body []byte) (*kpi.Snapshot, error) {
	_, span := obs.StartSpan(ctx, "kpi.read_json")
	defer span.End()
	snap, st, err := kpi.ReadJSONStats(body)
	leaves := 0
	if snap != nil {
		leaves = snap.Len()
	}
	setDecodeAttrs(span, st, leaves)
	return snap, err
}

// readDeltaJSON decodes a JSON delta body under a kpi.read_delta_json
// span; its leaves are the delta's removes, updates and adds.
func readDeltaJSON(ctx context.Context, body []byte, schema *kpi.Schema) (kpi.Delta, error) {
	_, span := obs.StartSpan(ctx, "kpi.read_delta_json")
	defer span.End()
	d, st, err := kpi.ReadDeltaJSONStats(body, schema)
	setDecodeAttrs(span, st, len(d.Removes)+len(d.Updates)+len(d.Adds))
	return d, err
}

func setDecodeAttrs(span *obs.Span, st kpi.WireStats, leaves int) {
	span.SetAttr("bytes", st.Bytes)
	span.SetAttr("leaves", leaves)
	span.SetAttr("parts", st.Parts)
}

// degradedHeaderValue renders a degraded reason for the DegradedHeader;
// the header must be non-empty to signal, even without a reason.
func degradedHeaderValue(reason string) string {
	if reason == "" {
		return "degraded"
	}
	return strings.ReplaceAll(reason, "\n", " ")
}

// renderPatterns maps scored patterns back to the schema's attribute
// vocabulary for the wire format.
func renderPatterns(schema *kpi.Schema, patterns []localize.ScoredPattern) []patternResponse {
	out := make([]patternResponse, 0, len(patterns))
	for _, p := range patterns {
		combo := make([]string, len(p.Combo))
		for a, code := range p.Combo {
			if code == kpi.Wildcard {
				combo[a] = kpi.WildcardToken
			} else {
				combo[a] = schema.Value(a, code)
			}
		}
		out = append(out, patternResponse{Combination: combo, Score: p.Score})
	}
	return out
}

// mediaType strips parameters like "; charset=utf-8".
func mediaType(contentType string) string {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.TrimSpace(strings.ToLower(contentType))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
