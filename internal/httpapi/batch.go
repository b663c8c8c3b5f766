package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
)

// batchRequest is the POST /v1/localize/batch body: an array of the same
// JSON snapshot documents POST /v1/localize accepts, localized as one
// admission unit against the shared worker pool.
type batchRequest struct {
	Snapshots []json.RawMessage `json:"snapshots"`
}

// maxBatchItems bounds one request's fan-out so a single client cannot
// reserve the whole queue indefinitely.
const maxBatchItems = 256

// batchResponse is the POST /v1/localize/batch reply. Items are positional:
// item i answers snapshot i of the request.
type batchResponse struct {
	TraceID   string              `json:"trace_id"`
	Method    string              `json:"method"`
	K         int                 `json:"k"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Items     []batchItemResponse `json:"items"`
}

type batchItemResponse struct {
	Anomalous int               `json:"anomalous_leaves"`
	Leaves    int               `json:"leaves"`
	Patterns  []patternResponse `json:"patterns,omitempty"`
	Error     string            `json:"error,omitempty"`
	// Degraded marks an item whose run was cut off by the request deadline
	// or budget; Patterns holds its best-so-far candidates.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// handleBatch localizes many snapshots in one request. Items fan
// out across the handler's BatchExecutor, whose worker slots are shared by
// every in-flight batch; when the queue is full the whole request is
// rejected with 503 and a Retry-After header instead of being buffered.
func (a *api) handleBatch(w http.ResponseWriter, r *http.Request) {
	method, k, ok := methodAndK(w, r)
	if !ok {
		return
	}

	// One deadline bounds the whole batch from the handler's start, body
	// read and decode included, as on /v1/localize: items already running
	// when it expires stop at their next cancellation point with
	// best-so-far results, unstarted items fail with the context error, and
	// the reply is a 504 carrying everything the deadline's worth of work
	// produced.
	reqCtx := r.Context()
	if a.timeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, a.timeout)
		defer cancel()
	}

	decodeStart := time.Now()
	body, err := readBody(reqCtx, w, r)
	var req batchRequest
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		writeDecodeError(w, "request", err)
		return
	}
	if len(req.Snapshots) == 0 {
		writeError(w, http.StatusBadRequest, "snapshots must be a non-empty array")
		return
	}
	if len(req.Snapshots) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d snapshots exceed the per-request limit of %d", len(req.Snapshots), maxBatchItems))
		return
	}
	relabel := r.URL.Query().Get("relabel") == "true"
	snaps := make([]*kpi.Snapshot, len(req.Snapshots))
	for i, raw := range req.Snapshots {
		snap, _, err := kpi.ReadJSONStats(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("snapshot %d: %v", i, err))
			return
		}
		if snap.NumAnomalous() == 0 || relabel {
			anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
		}
		snaps[i] = snap
	}
	a.batch.ObserveDecode(time.Since(decodeStart))

	// The executor already parallelizes across items; cap each item's own
	// RAPMiner fan-out at one worker so a batch does not oversubscribe the
	// CPU with nested parallelism.
	cfg := rapminer.DefaultConfig()
	cfg.Workers = 1
	m, err := method.New(cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, span := obs.StartSpan(reqCtx, "httpapi.localize_batch")
	defer span.End()
	span.SetAttr("method", method.Key)
	span.SetAttr("items", len(snaps))
	start := time.Now()
	results, err := a.batch.Execute(ctx, m, snaps, k)
	if err != nil {
		if errors.Is(err, pipeline.ErrBatchBusy) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("batch queue full (capacity %d items); retry later", a.batch.Capacity()))
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := batchResponse{
		TraceID:   span.TraceID(),
		Method:    m.Name(),
		K:         k,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Items:     make([]batchItemResponse, len(results)),
	}
	var failed, degraded, deadlined int
	for i, br := range results {
		item := batchItemResponse{
			Anomalous: snaps[i].NumAnomalous(),
			Leaves:    snaps[i].Len(),
		}
		if br.Err != nil {
			item.Error = br.Err.Error()
			failed++
			if errors.Is(br.Err, context.DeadlineExceeded) {
				deadlined++
			}
		} else {
			item.Patterns = renderPatterns(snaps[i].Schema, br.Result.Patterns)
			item.Degraded = br.Result.Degraded
			item.DegradedReason = br.Result.DegradedReason
			if br.Result.Degraded {
				degraded++
				if a.timeout > 0 && br.Result.DegradedReason == localize.DegradedDeadline {
					deadlined++
				}
			}
		}
		resp.Items[i] = item
	}
	span.SetAttr("failed", failed)
	span.SetAttr("degraded", degraded)
	// Deadline expiry answers 504 with the partial per-item results; no
	// Retry-After, since a retry under the same deadline fares no better
	// (the 503 busy path above is the transient, retryable condition). Items
	// record the deadline themselves — the miner's budget can observe the
	// wall deadline before the context timer fires, so reqCtx.Err() alone
	// would race the timer.
	status := http.StatusOK
	if deadlined > 0 ||
		errors.Is(reqCtx.Err(), context.DeadlineExceeded) && (failed > 0 || degraded > 0) {
		status = http.StatusGatewayTimeout
	}
	if degraded > 0 {
		w.Header().Set(DegradedHeader, fmt.Sprintf("%d/%d items degraded", degraded, len(results)))
	}
	writeJSON(w, status, resp)
}
