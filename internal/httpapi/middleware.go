package httpapi

import (
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// TraceparentHeader is the W3C Trace Context header the middleware accepts
// on requests and emits on responses, carrying the request's trace ID so
// clients can fetch the run's spans (/debug/spans?trace=...) and explain
// report (/debug/runs/{trace-id}) afterwards.
const TraceparentHeader = "traceparent"

// DegradedHeader marks responses whose localization result was cut off by a
// deadline or cancellation; the value is the degraded reason. Handlers set
// it, the middleware folds it into the SLO windows, and clients get a cheap
// header-level signal without parsing the body.
const DegradedHeader = "X-Rapminer-Degraded"

// logSampler rate-limits the per-request log line. Up to maxPerSec lines
// pass per one-second window; the rest are counted, not printed, so a
// load-generator run cannot drown the process's log stream. maxPerSec <= 0
// means unlimited.
type logSampler struct {
	maxPerSec  float64
	suppressed *obs.Counter

	mu    sync.Mutex
	epoch int64
	count float64
}

func newLogSampler(reg *obs.Registry, maxPerSec float64) *logSampler {
	return &logSampler{
		maxPerSec: maxPerSec,
		suppressed: reg.Counter("rapminer_logs_suppressed_total",
			"Per-request log lines suppressed by the log sampler."),
	}
}

// allow reports whether this request's log line may print.
func (s *logSampler) allow(now time.Time) bool {
	if s.maxPerSec <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := now.Unix()
	if epoch != s.epoch {
		s.epoch = epoch
		s.count = 0
	}
	s.count++
	if s.count > s.maxPerSec {
		s.suppressed.Inc()
		return false
	}
	return true
}

// instrument wraps the route mux with the service's observability
// middleware: trace propagation (a valid incoming traceparent joins its
// trace, anything else starts a fresh one; the response always carries the
// request's traceparent), one "http.request" root span per request,
// request counting by method/route/status class, a request latency
// histogram carrying trace exemplars (each bucket remembers the most
// recent trace ID at or above the exemplar threshold, so a slow bucket on
// an OpenMetrics /metrics scrape resolves straight to
// /debug/runs/{trace-id}), the rolling SLO
// windows behind GET /debug/slo, an in-flight gauge, and one structured —
// and, under load, sampled — log line per request, which also carries a
// degraded reply's marker and reason (the DegradedHeader). Metric label
// cardinality is bounded by using the matched route pattern (never the raw
// URL path).
func instrument(reg *obs.Registry, log *slog.Logger, slo *sloState, sampler *logSampler, exemplarMin float64, next http.Handler) http.Handler {
	inflight := reg.Gauge("http_inflight_requests",
		"Requests currently being served.")
	// Pre-register the latency family so /metrics shows it before traffic.
	reg.Histogram("http_request_duration_seconds",
		"Request latency by matched route.", nil, "route", "none").
		SetExemplarThreshold(exemplarMin)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Inc()
		defer inflight.Dec()

		tc, err := obs.ParseTraceparent(r.Header.Get(TraceparentHeader))
		if err != nil {
			// Absent or malformed: start a fresh trace rather than
			// rejecting — tracing must never fail a request.
			tc = obs.NewTraceContext()
		}
		ctx, span := obs.StartSpan(obs.ContextWithTrace(r.Context(), tc), "http.request")
		r = r.WithContext(ctx)
		// The response traceparent names this request's root span so a
		// calling service can link its own child spans under it.
		w.Header().Set(TraceparentHeader,
			obs.TraceContext{TraceID: span.TraceID(), SpanID: span.SpanID(), Sampled: true}.Traceparent())

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		// r.Pattern is populated by the mux during routing, so reading it
		// after ServeHTTP yields the matched route ("" on 404/405).
		route := r.Pattern
		if route == "" {
			route = "none"
		}
		degradedReason := rec.Header().Get(DegradedHeader)
		degraded := degradedReason != ""
		span.SetAttr("route", route)
		span.SetAttr("status", rec.status)
		span.End()
		reg.Counter("http_requests_total",
			"Requests served by method, matched route, and status class.",
			"method", r.Method, "route", route, "class", statusClass(rec.status)).Inc()
		h := reg.Histogram("http_request_duration_seconds",
			"Request latency by matched route.", nil, "route", route)
		h.SetExemplarThreshold(exemplarMin)
		h.ObserveExemplar(elapsed.Seconds(), span.TraceID())
		slo.record(route, elapsed, rec.status, degraded)

		if sampler.allow(start) {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("trace_id", span.TraceID()),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("elapsed", elapsed),
			}
			if degraded {
				attrs = append(attrs, slog.Bool("degraded", true), slog.String("degraded_reason", degradedReason))
			}
			log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// statusRecorder captures the status code and body size written downstream.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming support when the underlying writer has it.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass maps 200 -> "2xx" etc.; out-of-range codes report "other".
func statusClass(status int) string {
	switch {
	case status >= 100 && status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	case status < 600:
		return "5xx"
	default:
		return "other"
	}
}
