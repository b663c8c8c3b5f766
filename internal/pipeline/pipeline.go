// Package pipeline assembles the repository's pieces into the IT-operations
// service of the paper's Fig. 1: a Monitor consumes per-minute KPI
// snapshots, raises an aggregate anomaly alarm with debouncing, triggers
// anomaly localization only while the alarm is active, and tracks incident
// lifecycle (open → update → resolve) so operators receive one coherent
// incident per failure instead of a per-tick stream of patterns.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
	"repro/internal/rapminer/explain"
)

// Config assembles a Monitor.
type Config struct {
	// Detector labels the leaves before localization. The ContinuousRunner
	// that drives the Monitor labels with it: in full on a snapshot tick,
	// over the touched leaves on a delta tick.
	Detector anomaly.Detector
	// Localizer mines the root anomaly patterns.
	Localizer localize.Localizer
	// K is the number of patterns requested per localization.
	K int
	// AlarmThreshold is the relative deviation of the aggregate KPI
	// (|sum f - sum v| / sum f) that arms the alarm.
	AlarmThreshold float64
	// DebounceTicks is how many consecutive alarming ticks are needed
	// before an incident opens (suppresses single-sample blips).
	DebounceTicks int
	// ResolveTicks is how many consecutive clean ticks close an open
	// incident.
	ResolveTicks int
	// Registry receives the monitor's metrics (event-kind counters,
	// incident counts and durations, stage latencies). Nil means
	// obs.Default().
	Registry *obs.Registry
	// Runs receives one explain report per localization run, keyed by
	// the run's trace ID. Nil means explain.Default().
	Runs *explain.Store
}

// DefaultConfig returns a production-flavored configuration around the
// given localizer: 2% aggregate alarm, 2-tick debounce, 3-tick resolve.
func DefaultConfig(det anomaly.Detector, loc localize.Localizer) Config {
	return Config{
		Detector:       det,
		Localizer:      loc,
		K:              3,
		AlarmThreshold: 0.02,
		DebounceTicks:  2,
		ResolveTicks:   3,
	}
}

// EventKind classifies what a processed tick produced.
type EventKind int

// The event kinds, in lifecycle order.
const (
	// EventTick is a quiet tick: no open incident, no alarm.
	EventTick EventKind = iota + 1
	// EventArming counts an alarming tick still inside the debounce
	// window.
	EventArming
	// EventOpened reports a new incident with its localized scopes.
	EventOpened
	// EventUpdated reports changed scopes on an open incident.
	EventUpdated
	// EventOngoing is an open incident whose scopes did not change.
	EventOngoing
	// EventResolved closes an incident after ResolveTicks clean ticks.
	EventResolved
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventTick:
		return "tick"
	case EventArming:
		return "arming"
	case EventOpened:
		return "opened"
	case EventUpdated:
		return "updated"
	case EventOngoing:
		return "ongoing"
	case EventResolved:
		return "resolved"
	default:
		return fmt.Sprintf("event-%d", int(k))
	}
}

// Incident is one tracked failure.
type Incident struct {
	ID       int
	OpenedAt time.Time
	// ResolvedAt is zero while the incident is open.
	ResolvedAt time.Time
	// Scopes is the latest localization result.
	Scopes []localize.ScoredPattern
	// Updates counts scope changes after opening.
	Updates int
}

// Event is the outcome of one processed tick.
type Event struct {
	Kind      EventKind
	Time      time.Time
	Deviation float64
	// Incident is set for Opened/Updated/Ongoing/Resolved events.
	Incident *Incident
}

// maxHistory bounds the resolved incidents a Monitor retains.
const maxHistory = 64

// Monitor is the stateful alarm-and-localize service. It reads the leaf
// labels its snapshots already carry; the ContinuousRunner that drives it
// labels them. It is not safe for concurrent use.
type Monitor struct {
	cfg     Config
	mx      *metrics
	log     *slog.Logger
	serving Serving

	alarmStreak int
	cleanStreak int
	current     *Incident
	nextID      int
	history     []Incident
}

// New validates the configuration.
func New(cfg Config) (*Monitor, error) {
	if cfg.Detector == nil {
		return nil, errors.New("pipeline: nil detector")
	}
	if cfg.Localizer == nil {
		return nil, errors.New("pipeline: nil localizer")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("pipeline: K %d, want >= 1", cfg.K)
	}
	if cfg.AlarmThreshold <= 0 {
		return nil, fmt.Errorf("pipeline: AlarmThreshold %v, want > 0", cfg.AlarmThreshold)
	}
	if cfg.DebounceTicks < 1 || cfg.ResolveTicks < 1 {
		return nil, fmt.Errorf("pipeline: debounce/resolve ticks (%d, %d), want >= 1",
			cfg.DebounceTicks, cfg.ResolveTicks)
	}
	if cfg.Runs == nil {
		cfg.Runs = explain.Default()
	}
	return &Monitor{
		cfg:     cfg,
		mx:      newMetrics(cfg.Registry),
		log:     obs.Logger("pipeline"),
		serving: Serving{Source: "pipeline", Registry: cfg.Registry, Runs: cfg.Runs},
		nextID:  1,
	}, nil
}

// Current returns the open incident, or nil.
func (m *Monitor) Current() *Incident { return m.current }

// History returns the resolved incidents, oldest first; at most the last
// 64.
func (m *Monitor) History() []Incident {
	return append([]Incident(nil), m.history...)
}

// ProcessContext handles one tick of a labeled snapshot. Every tick
// updates the monitor's metrics, and incident transitions are logged
// through the "pipeline" component logger. Spans and the explain report
// of a localizing tick join the trace ctx carries (e.g. an HTTP
// request's); when ctx carries no trace, the tick that localizes starts a
// fresh one, so every monitor-driven run is traceable by its own ID.
func (m *Monitor) ProcessContext(ctx context.Context, ts time.Time, snap *kpi.Snapshot) (Event, error) {
	ev, err := m.process(ctx, ts, snap)
	if err != nil {
		m.log.Error("tick failed", slog.Time("ts", ts), slog.Any("err", err))
		return ev, err
	}
	m.mx.record(ev)
	switch ev.Kind {
	case EventOpened:
		m.log.Info("incident opened",
			slog.Int("id", ev.Incident.ID), slog.Float64("deviation", ev.Deviation),
			slog.Int("scopes", len(ev.Incident.Scopes)))
	case EventUpdated:
		m.log.Info("incident scope updated",
			slog.Int("id", ev.Incident.ID), slog.Int("updates", ev.Incident.Updates))
	case EventResolved:
		m.history = append(m.history, *ev.Incident)
		if len(m.history) > maxHistory {
			m.history = m.history[len(m.history)-maxHistory:]
		}
		m.log.Info("incident resolved",
			slog.Int("id", ev.Incident.ID),
			slog.Duration("after", ev.Incident.ResolvedAt.Sub(ev.Incident.OpenedAt)))
	}
	return ev, nil
}

func (m *Monitor) process(ctx context.Context, ts time.Time, snap *kpi.Snapshot) (Event, error) {
	if snap == nil {
		return Event{}, errors.New("pipeline: nil snapshot")
	}
	v, f := snap.Sum(kpi.NewRoot(snap.Schema.NumAttributes()))
	dev := 0.0
	switch {
	case f != 0:
		dev = math.Abs(f-v) / math.Abs(f)
	case v != 0:
		// Zero aggregate forecast with nonzero actuals is a total forecast
		// outage, not a clean tick: forcing deviation to 0 here would blind
		// the alarm exactly when the forecasting backend fails. Report the
		// maximal relative deviation (the same value a total actual outage
		// |f-0|/|f| = 1 produces on the other side) so the alarm can arm.
		dev = 1
	}
	alarming := dev > m.cfg.AlarmThreshold

	if alarming {
		m.alarmStreak++
		m.cleanStreak = 0
	} else {
		m.cleanStreak++
		m.alarmStreak = 0
	}

	switch {
	case m.current == nil && alarming && m.alarmStreak >= m.cfg.DebounceTicks:
		scopes, err := m.localize(ctx, snap)
		if err != nil {
			return Event{}, err
		}
		m.current = &Incident{ID: m.nextID, OpenedAt: ts, Scopes: scopes}
		m.nextID++
		return Event{Kind: EventOpened, Time: ts, Deviation: dev, Incident: m.current}, nil

	case m.current == nil && alarming:
		return Event{Kind: EventArming, Time: ts, Deviation: dev}, nil

	case m.current != nil && !alarming && m.cleanStreak >= m.cfg.ResolveTicks:
		incident := m.current
		incident.ResolvedAt = ts
		m.current = nil
		return Event{Kind: EventResolved, Time: ts, Deviation: dev, Incident: incident}, nil

	case m.current != nil && alarming:
		scopes, err := m.localize(ctx, snap)
		if err != nil {
			return Event{}, err
		}
		kind := EventOngoing
		if !sameScopes(m.current.Scopes, scopes) {
			m.current.Scopes = scopes
			m.current.Updates++
			kind = EventUpdated
		}
		return Event{Kind: kind, Time: ts, Deviation: dev, Incident: m.current}, nil

	case m.current != nil:
		// Open incident, clean tick, still inside the resolve window.
		return Event{Kind: EventOngoing, Time: ts, Deviation: dev, Incident: m.current}, nil

	default:
		return Event{Kind: EventTick, Time: ts, Deviation: dev}, nil
	}
}

func (m *Monitor) localize(ctx context.Context, snap *kpi.Snapshot) ([]localize.ScoredPattern, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every localizing tick runs under a trace: inherit the caller's
	// (an HTTP observation request) or start a fresh one, so the run's
	// spans and explain report share one ID.
	if _, ok := obs.TraceFromContext(ctx); !ok {
		ctx = obs.ContextWithTrace(ctx, obs.NewTraceContext())
	}
	// Both stage spans are children of the tick's context, not of each
	// other: detect has ended by the time localize starts.
	// The runner labeled the snapshot as the tick arrived; the anomalous
	// count is already cached on it.
	_, span := obs.StartSpan(ctx, "pipeline.detect")
	start := time.Now()
	n := len(snap.AnomalousLeafSet())
	m.mx.observeStage(stageDetect, time.Since(start))
	span.SetAttr("anomalous", n)
	span.End()

	start = time.Now()
	res, err := m.serving.Localize(ctx, "pipeline.localize", m.cfg.Localizer, snap, m.cfg.K)
	m.mx.observeStage(stageLocalize, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("pipeline: localize: %w", err)
	}
	if res.Degraded {
		m.log.Warn("localization degraded",
			slog.String("method", m.cfg.Localizer.Name()),
			slog.String("reason", res.DegradedReason),
			slog.Int("patterns", len(res.Patterns)))
	}
	return res.Patterns, nil
}

func sameScopes(a, b []localize.ScoredPattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Combo.Equal(b[i].Combo) {
			return false
		}
	}
	return true
}
