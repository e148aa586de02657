package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
)

// traceHandler decorates a slog.Handler with the trace ID carried by
// the record's context, correlating every log line with the request
// trace that emitted it.
type traceHandler struct{ inner slog.Handler }

func (h traceHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h traceHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := TraceID(ctx); id != "" {
		rec.AddAttrs(slog.String("trace_id", id))
	}
	return h.inner.Handle(ctx, rec)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{inner: h.inner.WithGroup(name)}
}

// NewLogger returns a structured JSON logger writing to w at the given
// level. Records logged through the *Context methods carry a trace_id
// attribute when their context holds an active trace.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(traceHandler{inner: slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})})
}

// discardHandler is disabled at every level, so a logger over it
// returns before a record is built or formatted.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// NewDiscardLogger returns a logger that is disabled at every level
// (tests, library defaults).
func NewDiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// defaultLogger is the process-wide fallback used by packages that are
// not handed an explicit logger (e.g. the core facade's legacy Search
// shim reporting an error the caller's signature cannot surface). It
// starts as a discard logger so libraries stay silent until the command
// layer opts in via SetDefault.
var defaultLogger atomic.Pointer[slog.Logger]

func init() { defaultLogger.Store(NewDiscardLogger()) }

// Default returns the process-wide obs logger.
func Default() *slog.Logger { return defaultLogger.Load() }

// SetDefault installs the process-wide obs logger (nil restores the
// discard logger).
func SetDefault(l *slog.Logger) {
	if l == nil {
		l = NewDiscardLogger()
	}
	defaultLogger.Store(l)
}
