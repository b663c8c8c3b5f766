package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/gendata"
	"repro/internal/kpi"
)

// smallTicks is the ticks workload on a 2,880-leaf world.
func smallTicks() workload {
	w, _ := findWorkload("ticks-115k")
	w.tickWorld = []gendata.StreamAttr{attr("region", 12), attr("isp", 10), attr("proto", 6), attr("tier", 4)}
	return w
}

// The 100 pre-rendered ticks are cycled: applied two and a half times
// through, every delta still applies in place, and each reply past the
// second cycle is the one the references map it to.
func TestCycledTicksApplyCleanlyTwice(t *testing.T) {
	w := smallTicks()
	in, err := w.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ticks) != 100 {
		t.Fatalf("%d tick bodies, want 100", len(in.ticks))
	}
	refs, rc, err := tickReferences(in)
	if err != nil {
		t.Fatal(err)
	}
	if rc <= 0 {
		t.Errorf("RC@3 on failing ticks = %v, want > 0", rc)
	}
	runner, err := newTickRunner()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := kpi.ReadJSON(bytes.NewReader(in.baseline))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := runner.ObserveSnapshot(ctx, time.Now(), snap); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 250; tick++ {
		d, err := kpi.ReadDeltaJSON(bytes.NewReader(in.ticks[(tick-1)%len(in.ticks)]), snap.Schema)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		ev, res, err := runner.ObserveDelta(ctx, time.Now(), d)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if !res.PatchedFrame || res.Updated != len(d.Updates) {
			t.Fatalf("tick %d: patched %v, updated %d of %d", tick, res.PatchedFrame, res.Updated, len(d.Updates))
		}
		var scopes []pattern
		if ev.Incident != nil {
			scopes = render(snap.Schema, ev.Incident.Scopes)
		}
		want := refs.at(tick)
		if ev.Kind.String() != want.event || samePatterns(scopes, want.scopes) != nil {
			t.Fatalf("tick %d: %s %v, reference %s %v", tick, ev.Kind, scopes, want.event, want.scopes)
		}
	}
}

func TestTickPeriodMustDivideTheCycle(t *testing.T) {
	w := smallTicks()
	w.tickBodies = 25
	if _, err := w.generate(1); err == nil {
		t.Fatal("a failure period of 10 over 25 ticks must be refused")
	}
}
