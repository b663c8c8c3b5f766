package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// serverChunk is the length of one stretch of a server phase: each ends
// with every op answered, and the server idle while the benchmark
// calibrates before the next.
const serverChunk = time.Second

// coldStarts is how many fresh processes under test one run starts: each is
// timed from exec to its first op, then measures an equal share of the run.
// setup_s is their median, and their samples are pooled, so one slow start
// or one slow stretch of the shared machine weighs a fifth.
const coldStarts = 5

// client posts bodies to one target over at most conns connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// post sends body and decodes a 200 reply into out; any other status, a
// degraded result, or a transport error is a failed op.
func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if resp.Header.Get("X-Rapminer-Degraded") != "" {
		return fmt.Errorf("POST %s: degraded result", path)
	}
	return json.Unmarshal(raw, out)
}

// failures keeps the first few op failures for the run's report.
type failures struct {
	mu    sync.Mutex
	first []string
}

func (f *failures) note(err error) error {
	if err != nil {
		f.mu.Lock()
		if len(f.first) < 5 {
			f.first = append(f.first, err.Error())
		}
		f.mu.Unlock()
	}
	return err
}

// oneshotOp posts the cases in turn and checks each reply against its
// reference. It may be driven by several callers at once.
func oneshotOp(c *client, in *inputs, refs [][]pattern, fails *failures) op {
	var next atomic.Int64
	return func() (time.Duration, error) {
		i := int(next.Add(1)-1) % len(in.cases)
		var reply struct {
			Patterns []pattern `json:"patterns"`
		}
		err := c.post("/v1/localize?method=rapminer&k=3", in.cases[i].body, &reply)
		if err == nil {
			err = samePatterns(reply.Patterns, refs[i])
		}
		if err != nil {
			err = fmt.Errorf("case %d: %w", i, err)
		}
		return 0, fails.note(err)
	}
}

// tickOp posts the ticks of one server instance in order, starting at tick
// 1, and checks each reply against the tick's reference. Ticks are ordered,
// so it must be driven by a single caller.
func tickOp(c *client, in *inputs, refs *tickRefs, fails *failures) op {
	next := 1
	return func() (time.Duration, error) {
		t := next
		next++
		var reply struct {
			Event    string `json:"event"`
			Patched  bool   `json:"patched"`
			Incident *struct {
				Scopes []pattern `json:"scopes"`
			} `json:"incident"`
		}
		err := c.post("/v1/observe/delta", in.ticks[(t-1)%len(in.ticks)], &reply)
		if err == nil {
			want := refs.at(t)
			var scopes []pattern
			if reply.Incident != nil {
				scopes = reply.Incident.Scopes
			}
			switch {
			case !reply.Patched:
				err = fmt.Errorf("delta was not patched in place")
			case reply.Event != want.event:
				err = fmt.Errorf("event %q, reference %q", reply.Event, want.event)
			default:
				err = samePatterns(scopes, want.scopes)
			}
		}
		if err != nil {
			err = fmt.Errorf("tick %d: %w", t, err)
		}
		return 0, fails.note(err)
	}
}

// serverRun is what one server workload run measured, pooled over its
// server instances.
type serverRun struct {
	setup        []float64 // reference seconds from exec to first op, per instance
	open, closed phase
	cpu          time.Duration // server CPU time over both phases
	gcs          int64         // server GC cycles over both phases
	hwmMB        []float64     // peak resident set, per instance
	// Summed /metrics deltas over the open phase, and over both phases.
	openDeltas, deltas exposition
	fails              *failures
	speed              *meter
}

// runServer starts coldStarts fresh server instances. Each is timed from
// exec to its first successful op, warmed up, and then driven by the open
// and the closed loop for its share of seconds; the samples of all
// instances are pooled.
func runServer(w workload, in *inputs, launch launcher, seconds float64, oneRefs [][]pattern, tRefs *tickRefs) (*serverRun, error) {
	run := &serverRun{fails: &failures{}, openDeltas: exposition{}, deltas: exposition{}, speed: newMeter()}
	share := seconds / coldStarts
	openDur := time.Duration(share * w.openShare * float64(time.Second))
	closedDur := time.Duration(share * (1 - w.openShare) * float64(time.Second))
	for i := 0; i < coldStarts; i++ {
		run.speed.calibrate()
		start := time.Now()
		tgt, err := launch(w.kind == ticks)
		if err != nil {
			return nil, err
		}
		err = run.instance(w, in, tgt, start, openDur, closedDur, oneRefs, tRefs)
		if stopErr := tgt.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, fmt.Errorf("server instance %d: %w", i+1, err)
		}
	}
	for _, f := range run.fails.first {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, f)
	}
	return run, nil
}

// instance measures one server, launched at start.
func (run *serverRun) instance(w workload, in *inputs, tgt target, start time.Time, openDur, closedDur time.Duration, oneRefs [][]pattern, tRefs *tickRefs) error {
	cl := newClient(tgt.base(), w.conns)
	var (
		fn  op
		err error
	)
	if w.kind == ticks {
		var reply struct{ Event string }
		if err = cl.post("/v1/observe/snapshot", in.baseline, &reply); err == nil {
			fn = tickOp(cl, in, tRefs, run.fails)
			_, err = fn()
		}
	} else {
		fn = oneshotOp(cl, in, oneRefs, run.fails)
		_, err = fn()
	}
	if err != nil {
		return fmt.Errorf("first op: %w", err)
	}
	// The calibration just before the launch converts set-up time.
	run.setup = append(run.setup, time.Since(start).Seconds()*refKernelMS/run.speed.last)
	// Warm-up: every distinct input once more (one failure period of ticks),
	// so lazy set-up in the server is done before timing.
	warm := len(in.cases)
	if w.kind == ticks {
		warm = in.tick.FailEvery
	}
	for i := 1; i <= warm; i++ {
		if _, err := fn(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The generator shares the machine with the server: collect its own
	// set-up garbage now rather than in the middle of a phase.
	runtime.GC()
	var (
		stats   [3]procStats
		scrapes [3]exposition
	)
	measure := func(i int) error {
		st, err := tgt.stats()
		if err != nil {
			return err
		}
		stats[i] = st
		scrapes[i], err = scrape(cl.http, cl.base)
		return err
	}
	if err := measure(0); err != nil {
		return err
	}
	run.speed.calibrate()
	n, length := chunks(openDur, serverChunk)
	for i := 0; i < n; i++ {
		var p *phase
		speed := run.speed.stretch(func() { p = openLoop(w.rate, length, w.conns, fn) })
		run.open.add(p, speed)
	}
	if err := measure(1); err != nil {
		return err
	}
	n, length = chunks(closedDur, serverChunk)
	for i := 0; i < n; i++ {
		var p *phase
		speed := run.speed.stretch(func() { p = closedLoop(length, w.conns, fn) })
		run.closed.add(p, speed)
	}
	if err := measure(2); err != nil {
		return err
	}
	run.cpu += stats[2].cpu - stats[0].cpu
	run.gcs += stats[2].gcs - stats[0].gcs
	run.hwmMB = append(run.hwmMB, stats[2].hwmMB)
	for series := range scrapes[2] {
		run.openDeltas[series] += delta(scrapes[0], scrapes[1], series)
		run.deltas[series] += delta(scrapes[0], scrapes[2], series)
	}
	return nil
}
