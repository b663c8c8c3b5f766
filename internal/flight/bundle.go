package flight

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
)

// Artifact is one named file inside a diagnostic bundle.
type Artifact struct {
	Name string
	Data []byte
}

// Source produces extra bundle artifacts at capture time — the embedding
// service wires in its SLO report, metrics snapshot, recent spans, and
// exemplar-linked explain reports this way, keeping the recorder itself
// free of HTTP-layer dependencies. One source may emit several files
// (e.g. runs/<trace-id>.json per resolved exemplar). A failing source is
// journaled in the manifest's errors map; it never fails the capture.
type Source struct {
	Name  string
	Fetch func(ctx context.Context) ([]Artifact, error)
}

// JSONArtifact renders v as one indented JSON artifact.
func JSONArtifact(name string, v any) ([]Artifact, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return []Artifact{{Name: name, Data: data}}, nil
}

// TelemetrySources are the artifacts every process bundles: a metrics
// snapshot of reg (metrics.prom) and the recent spans grouped by trace
// (spans.json).
func TelemetrySources(reg *obs.Registry) []Source {
	return []Source{
		{Name: "metrics.prom", Fetch: func(context.Context) ([]Artifact, error) {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				return nil, err
			}
			return []Artifact{{Name: "metrics.prom", Data: buf.Bytes()}}, nil
		}},
		{Name: "spans.json", Fetch: func(context.Context) ([]Artifact, error) {
			return JSONArtifact("spans.json", struct {
				Traces []obs.TraceSpans `json:"traces"`
			}{Traces: obs.GroupSpans(obs.RecentSpans())})
		}},
	}
}

// BundleInfo is one bundle's metadata row, served by the /debug/flight
// index and echoed by a manual capture.
type BundleInfo struct {
	ID        string    `json:"id"`
	Time      time.Time `json:"time"`
	Rule      string    `json:"rule"`
	Reason    string    `json:"reason"`
	SizeBytes int       `json:"size_bytes"`
	Artifacts []string  `json:"artifacts"`
	// Spilled is the on-disk path of the archive when a spill directory is
	// configured.
	Spilled string `json:"spilled,omitempty"`
}

// Bundle is one captured diagnostic bundle: its metadata plus the
// in-memory tar.gz archive served at /debug/flight/{id}.
type Bundle struct {
	Info    BundleInfo
	Archive []byte
}

// Manifest is the bundle's manifest.json: trigger provenance, build
// identity, the trigger-time telemetry snapshot, and the artifact list
// with any per-source capture errors.
type Manifest struct {
	ID     string    `json:"id"`
	Time   time.Time `json:"time"`
	Rule   string    `json:"rule"`
	Reason string    `json:"reason"`

	GoVersion     string `json:"go_version"`
	Module        string `json:"module"`
	ModuleVersion string `json:"module_version"`

	CPUProfileSeconds float64 `json:"cpu_profile_seconds"`
	Status            Status  `json:"status"`

	Artifacts []string          `json:"artifacts"`
	Errors    map[string]string `json:"errors,omitempty"`
}

// newManifest fills the identity fields shared by every capture.
func newManifest(id, rule, reason string, at time.Time, st Status, cpuWindow time.Duration) Manifest {
	m := Manifest{
		ID:                id,
		Time:              at.UTC(),
		Rule:              rule,
		Reason:            reason,
		GoVersion:         runtime.Version(),
		Module:            "unknown",
		ModuleVersion:     "unknown",
		CPUProfileSeconds: cpuWindow.Seconds(),
		Status:            st,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			m.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			m.ModuleVersion = bi.Main.Version
		}
	}
	return m
}

// buildArchive renders manifest + artifacts into one tar.gz. The manifest
// is written first so `tar -tzf | head -1` always names it; artifacts
// keep their capture order.
func buildArchive(m Manifest, artifacts []Artifact, at time.Time) ([]byte, error) {
	manifestJSON, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("flight: marshal manifest: %w", err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	files := append([]Artifact{{Name: "manifest.json", Data: manifestJSON}}, artifacts...)
	for _, f := range files {
		hdr := &tar.Header{
			Name:    f.Name,
			Mode:    0o644,
			Size:    int64(len(f.Data)),
			ModTime: at.UTC(),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, fmt.Errorf("flight: tar %s: %w", f.Name, err)
		}
		if _, err := tw.Write(f.Data); err != nil {
			return nil, fmt.Errorf("flight: tar %s: %w", f.Name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortedKeys returns m's keys sorted, for deterministic error journaling.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
