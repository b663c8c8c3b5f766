package obs

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerComponentConvention(t *testing.T) {
	var buf bytes.Buffer
	prev := baseLogger.Load()
	defer baseLogger.Store(prev)
	ConfigureLogging(&buf, slog.LevelInfo, false)

	Logger("pipeline").Info("incident opened", "id", 7)
	got := buf.String()
	if !strings.Contains(got, "component=pipeline") || !strings.Contains(got, "id=7") {
		t.Errorf("log line = %q", got)
	}
}

func TestConfigureLoggingJSONAndLevel(t *testing.T) {
	var buf bytes.Buffer
	prev := baseLogger.Load()
	defer baseLogger.Store(prev)
	ConfigureLogging(&buf, slog.LevelWarn, true)

	Logger("api").Info("dropped")
	Logger("api").Warn("kept")
	got := buf.String()
	if strings.Contains(got, "dropped") {
		t.Error("info line passed a warn-level handler")
	}
	if !strings.Contains(got, `"component":"api"`) || !strings.Contains(got, `"msg":"kept"`) {
		t.Errorf("JSON log line = %q", got)
	}
}

func TestSetLoggerNilDiscards(t *testing.T) {
	prev := baseLogger.Load()
	defer baseLogger.Store(prev)
	SetLogger(nil)
	// Must not panic.
	Logger("x").Info("goes nowhere")
}

func TestParseLogLevel(t *testing.T) {
	tests := map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"INFO":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"Error":   slog.LevelError,
		"":        slog.LevelInfo,
	}
	for in, want := range tests {
		got, err := ParseLogLevel(in)
		if err != nil {
			t.Errorf("ParseLogLevel(%q) error: %v", in, err)
		}
		if got != want {
			t.Errorf("ParseLogLevel(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseLogLevel("bogus"); err == nil {
		t.Error("ParseLogLevel(bogus) should error")
	}
}

// SetLogger replaces the process-wide base logger (tests, embedders).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	baseLogger.Store(l)
}
