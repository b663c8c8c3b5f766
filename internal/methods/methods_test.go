package methods

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rapminer"
)

func TestTableOrderAndLabels(t *testing.T) {
	wantKeys := []string{"adtributor", "idice", "fpgrowth", "squeeze", "rapminer", "hotspot", "riskloc", "ensemble"}
	if got := Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("Keys() = %v, want %v", got, wantKeys)
	}
	ms := All()
	built, err := Build(rapminer.DefaultConfig(), ms...)
	if err != nil {
		t.Fatal(err)
	}
	var paper []string
	for i, m := range ms {
		if got := built[i].Name(); got != m.Label {
			t.Errorf("%s builds %q, want label %q", m.Key, got, m.Label)
		}
		if m.Paper {
			paper = append(paper, m.Label)
		}
	}
	if want := []string{"Adtributor", "iDice", "FP-growth", "Squeeze", "RAPMiner"}; !reflect.DeepEqual(paper, want) {
		t.Errorf("paper methods = %v, want %v", paper, want)
	}
}

func TestLookupIgnoresCase(t *testing.T) {
	for _, key := range []string{"squeeze", "Squeeze", "RISKLOC"} {
		m, ok := Lookup(key)
		if !ok || m.Key != strings.ToLower(key) {
			t.Errorf("Lookup(%q) = %q, %v", key, m.Key, ok)
		}
	}
	if _, ok := Lookup("all"); ok {
		t.Error(`Lookup("all") found a method`)
	}
}

func TestAllReturnsACopy(t *testing.T) {
	All()[0].Key = "changed"
	if Keys()[0] != "adtributor" {
		t.Fatal("All exposed the table")
	}
}

func TestConfigReachesRAPMinerAndEnsemble(t *testing.T) {
	bad := rapminer.Config{TCP: 2, TConf: 0.8}
	for _, key := range []string{"rapminer", "ensemble"} {
		m, _ := Lookup(key)
		if _, err := m.New(bad); err == nil {
			t.Errorf("%s accepted t_CP 2", key)
		}
	}
	// The baselines ignore the RAPMiner configuration.
	m, _ := Lookup("squeeze")
	if _, err := m.New(bad); err != nil {
		t.Errorf("squeeze rejected a RAPMiner config: %v", err)
	}
}
