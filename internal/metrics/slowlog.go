package metrics

import (
	"context"
	"log/slog"
	"time"
)

// SlowLogger emits one structured log line per operation that takes at
// least a threshold duration, carrying the request ID so a client
// operation can be correlated across master and worker logs.
//
// It logs operations at or above its threshold, so a zero threshold
// logs every one and a negative threshold none. (The daemons' configs
// read zero as DefaultSlowOpThreshold before they build one.)
type SlowLogger struct {
	logger    *slog.Logger
	threshold time.Duration
	count     *Counter // incremented per emitted line; may be nil
	sink      func(op, reqID string, d time.Duration)
}

// DefaultSlowOpThreshold is the daemons' slow-op threshold when their
// configuration leaves it zero.
const DefaultSlowOpThreshold = 100 * time.Millisecond

// NewSlowLogger builds a slow-op logger. A nil logger disables logging
// regardless of threshold; count (optional) tallies emitted lines.
func NewSlowLogger(logger *slog.Logger, threshold time.Duration, count *Counter) *SlowLogger {
	return &SlowLogger{logger: logger, threshold: threshold, count: count}
}

// SetSink registers a callback invoked for every operation that the
// logger emits (same threshold semantics as the log line). The daemons
// use it to journal slow operations as cluster events with their trace
// ID. Set once during daemon construction, before concurrent use.
func (l *SlowLogger) SetSink(fn func(op, reqID string, d time.Duration)) {
	if l == nil {
		return
	}
	l.sink = fn
}

// Observe logs the operation if it crossed the threshold. attrs are
// extra slog key/value pairs appended to the line.
func (l *SlowLogger) Observe(op, reqID string, d time.Duration, attrs ...any) {
	if l == nil || l.logger == nil || l.threshold < 0 || d < l.threshold {
		return
	}
	if l.count != nil {
		l.count.Inc()
	}
	if l.sink != nil {
		l.sink(op, reqID, d)
	}
	// A logger that drops warnings (the client's discard logger) gets
	// no line built for it.
	if !l.logger.Enabled(context.Background(), slog.LevelWarn) {
		return
	}
	all := make([]any, 0, 8+len(attrs))
	all = append(all, "op", op, "req", reqID, "dur", d.String())
	all = append(all, attrs...)
	// The request ID doubles as the trace ID; emit it under an explicit
	// "trace" key so log pipelines can join slow-op lines with
	// /debug/traces/<id> without knowing the req/trace equivalence.
	all = append(all, "trace", reqID)
	l.logger.Warn("slow op", all...)
}
