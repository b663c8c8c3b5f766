package obs

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart is when this process's obs package initialized — close
// enough to process start for uptime reporting.
var processStart = time.Now()

// Uptime returns how long the process has been running.
func Uptime() time.Duration { return time.Since(processStart) }

// RegisterBuildInfo exports the process identity block on reg (nil means
// the default registry):
//
//	rapminer_build_info{go_version,module,module_version} 1
//	process_start_time_seconds                            unix seconds
//
// following the Prometheus convention of an always-1 info gauge whose
// labels carry the facts. Module identity comes from
// runtime/debug.ReadBuildInfo; binaries built outside module mode report
// "unknown".
func RegisterBuildInfo(reg *Registry) {
	if reg == nil {
		reg = Default()
	}
	module, version := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
	}
	reg.Gauge("rapminer_build_info",
		"Build identity of this binary; the value is always 1.",
		"go_version", runtime.Version(),
		"module", module,
		"module_version", version,
	).Set(1)
	reg.Gauge("process_start_time_seconds",
		"Unix time the process started.").
		Set(float64(processStart.UnixNano()) / 1e9)
}

// WithUptime wraps a metrics or vars handler so every scrape first
// refreshes the process_uptime_seconds gauge on reg (nil means the default
// registry) — a current uptime reading without a background ticker.
func WithUptime(reg *Registry, next http.Handler) http.Handler {
	if reg == nil {
		reg = Default()
	}
	uptime := reg.Gauge("process_uptime_seconds",
		"Seconds since the process started, refreshed at scrape time.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		uptime.Set(Uptime().Seconds())
		next.ServeHTTP(w, r)
	})
}
