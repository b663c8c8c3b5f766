package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// The shared logging convention: every package logs through
// obs.Logger("<component>"), which stamps a "component" attribute so one
// stream interleaves all layers and stays filterable. Commands configure
// the stream once at startup with ConfigureLogging.

// baseLogger holds the process-wide *slog.Logger.
var baseLogger atomic.Pointer[slog.Logger]

func init() {
	baseLogger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})))
}

// Logger returns the shared logger with the component attribute attached.
// The result is cheap; callers may hold it or re-fetch per call site.
func Logger(component string) *slog.Logger {
	return baseLogger.Load().With(slog.String("component", component))
}

// ConfigureLogging installs a text or JSON slog handler writing to w at the
// given level, and returns the new base logger. Commands call this once
// after flag parsing:
//
//	obs.ConfigureLogging(os.Stderr, obs.ParseLogLevel("info"), false)
func ConfigureLogging(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	baseLogger.Store(l)
	return l
}

// ParseLogLevel maps "debug", "info", "warn", "error" (case-insensitive) to
// slog levels. Unknown names report an error so a typo'd -log-level flag
// fails loudly instead of silently running at info.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}
