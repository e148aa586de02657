package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestLoggerTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo)

	tr := NewTracer(4)
	ctx, root := tr.StartRoot(context.Background(), "req")
	log.InfoContext(ctx, "keyword degraded", "keyword", "asthma")
	root.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["trace_id"] != root.TraceID() {
		t.Errorf("trace_id = %v, want %q", rec["trace_id"], root.TraceID())
	}
	if rec["msg"] != "keyword degraded" || rec["keyword"] != "asthma" {
		t.Errorf("record = %v", rec)
	}

	buf.Reset()
	log.InfoContext(context.Background(), "no trace")
	rec = nil
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["trace_id"]; ok {
		t.Error("trace_id present without an active trace")
	}
}

func TestDefaultLogger(t *testing.T) {
	if Default() == nil {
		t.Fatal("default logger nil")
	}
	var buf bytes.Buffer
	SetDefault(NewLogger(&buf, slog.LevelInfo))
	defer SetDefault(nil)
	Default().Info("hello")
	if buf.Len() == 0 {
		t.Fatal("default logger did not write")
	}
	SetDefault(nil)
	if Default() == nil {
		t.Fatal("nil SetDefault should restore discard logger")
	}
	// The discard logger is disabled, not discarding: callers return
	// before a record is built.
	ctx := context.Background()
	if NewDiscardLogger().Enabled(ctx, slog.LevelError) || Default().Enabled(ctx, slog.LevelError) {
		t.Error("discard logger reports Enabled at LevelError")
	}

	// A real logger still writes the server's trace-correlated access
	// record.
	buf.Reset()
	log := NewLogger(&buf, slog.LevelInfo)
	tr := NewTracer(1)
	ctx, root := tr.StartRoot(ctx, "http.request")
	if !log.Enabled(ctx, slog.LevelInfo) {
		t.Fatal("NewLogger not enabled at LevelInfo")
	}
	log.InfoContext(ctx, "request", "method", "GET", "path", "/search", "status", 200)
	root.End()
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "request" || rec["trace_id"] != root.TraceID() {
		t.Errorf("access record = %v, want msg=request trace_id=%s", rec, root.TraceID())
	}
}
