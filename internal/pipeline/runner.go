package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/kpi"
)

// Source produces the leaf snapshot to monitor at a timestamp. The CDN
// simulator satisfies it; a production deployment would back it with the
// KPI collection layer.
type Source interface {
	SnapshotAt(ts time.Time) (*kpi.Snapshot, error)
	Schema() *kpi.Schema
}

// Runner drives a ContinuousRunner over a Source on a fixed tick: each
// tick's snapshot is observed in full (ObserveSnapshot), delivering events
// on a channel. It owns one goroutine; Stop signals it and waits for exit
// (the events channel is closed when the goroutine drains).
type Runner struct {
	events chan Event
	errs   chan error
	stop   chan struct{}
	done   chan struct{}
}

// StartRunner launches the monitoring loop: every interval of simulated
// time (stepping `step` per tick starting at `start`, one tick per real
// `interval`), it pulls a snapshot and observes it through c. Passing
// interval = 0 runs ticks back-to-back (useful for simulations and tests);
// `ticks` bounds the run, 0 means run until Stop.
func StartRunner(c *ContinuousRunner, src Source, start time.Time, step, interval time.Duration, ticks int) (*Runner, error) {
	if c == nil || src == nil {
		return nil, errors.New("pipeline: nil runner or source")
	}
	if step <= 0 {
		return nil, fmt.Errorf("pipeline: step %v, want > 0", step)
	}
	if ticks < 0 {
		return nil, fmt.Errorf("pipeline: ticks %d, want >= 0", ticks)
	}
	r := &Runner{
		events: make(chan Event, 1),
		errs:   make(chan error, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.loop(c, src, start, step, interval, ticks)
	return r, nil
}

// Events delivers one Event per processed tick; closed when the runner
// exits.
func (r *Runner) Events() <-chan Event { return r.events }

// Err returns the first error the loop hit, or nil; valid after Events is
// closed (or after Stop).
func (r *Runner) Err() error {
	select {
	case err := <-r.errs:
		return err
	default:
		return nil
	}
}

// Stop signals the loop and waits for it to exit.
func (r *Runner) Stop() {
	select {
	case <-r.stop:
		// already stopped
	default:
		close(r.stop)
	}
	<-r.done
}

func (r *Runner) loop(c *ContinuousRunner, src Source, start time.Time, step, interval time.Duration, ticks int) {
	defer close(r.done)
	defer close(r.events)

	var ticker *time.Ticker
	if interval > 0 {
		ticker = time.NewTicker(interval)
		defer ticker.Stop()
	}
	ts := start
	for i := 0; ticks == 0 || i < ticks; i++ {
		if ticker != nil {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
			}
		} else {
			select {
			case <-r.stop:
				return
			default:
			}
		}
		snap, err := src.SnapshotAt(ts)
		if err != nil {
			r.errs <- fmt.Errorf("pipeline: snapshot at %v: %w", ts, err)
			return
		}
		ev, err := c.ObserveSnapshot(context.Background(), ts, snap)
		if err != nil {
			r.errs <- err
			return
		}
		select {
		case r.events <- ev:
		case <-r.stop:
			return
		}
		ts = ts.Add(step)
	}
}
