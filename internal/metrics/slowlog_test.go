package metrics

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func slowTestLogger(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, nil))
}

func TestSlowLoggerThresholdZeroLogsEverything(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	c := r.Counter("slow_ops_total", "", nil)
	l := NewSlowLogger(slowTestLogger(&buf), 0, c)

	l.Observe("read", "req-abc", time.Microsecond, "block", "b1")
	out := buf.String()
	if !strings.Contains(out, "req=req-abc") || !strings.Contains(out, "op=read") {
		t.Errorf("forced slow log missing fields: %q", out)
	}
	if !strings.Contains(out, "block=b1") {
		t.Errorf("extra attrs dropped: %q", out)
	}
	if c.Value() != 1 {
		t.Errorf("slow counter = %v, want 1", c.Value())
	}
}

// TestSlowLoggerZeroThresholdZeroDuration pins the documented "0 logs
// every op" semantics for the edge the old guard got right only by
// accident: a zero-duration op at threshold 0 (d < threshold is false
// for d == 0, but the behaviour is now explicit, not incidental).
func TestSlowLoggerZeroThresholdZeroDuration(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLogger(slowTestLogger(&buf), 0, nil)
	l.Observe("write", "req-zero", 0)
	if !strings.Contains(buf.String(), "req=req-zero") {
		t.Fatalf("zero-duration op not logged at threshold 0: %q", buf.String())
	}
}

// TestSlowLoggerEmitsTraceID verifies every slow-op line carries the
// request ID again under the "trace" key, joining logs to the trace
// store's /debug/traces/<id> endpoint.
func TestSlowLoggerEmitsTraceID(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLogger(slowTestLogger(&buf), 0, nil)
	l.Observe("read", "deadbeef00c0ffee", time.Millisecond, "tier", "SSD")
	out := buf.String()
	if !strings.Contains(out, "trace=deadbeef00c0ffee") {
		t.Errorf("slow log missing trace attribute: %q", out)
	}
	if !strings.Contains(out, "tier=SSD") {
		t.Errorf("extra attrs dropped: %q", out)
	}
}

func TestSlowLoggerThresholdFilters(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLogger(slowTestLogger(&buf), 100*time.Millisecond, nil)
	l.Observe("read", "r1", 10*time.Millisecond)
	if buf.Len() != 0 {
		t.Errorf("fast op logged: %q", buf.String())
	}
	l.Observe("read", "r2", 150*time.Millisecond)
	if !strings.Contains(buf.String(), "req=r2") {
		t.Errorf("slow op not logged: %q", buf.String())
	}
}

func TestSlowLoggerDisabled(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLogger(slowTestLogger(&buf), -1, nil)
	l.Observe("read", "r1", time.Hour)
	if buf.Len() != 0 {
		t.Errorf("disabled logger emitted: %q", buf.String())
	}
	var nilLogger *SlowLogger
	nilLogger.Observe("read", "r1", time.Hour) // must not panic
}

// TestSlowLoggerDiscardBuildsNothing: a logger that drops every line
// (the client's) still counts each op and feeds the sink, but formats
// nothing, so observing an op allocates nothing.
func TestSlowLoggerDiscardBuildsNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("slow_ops_total", "", nil)
	l := NewSlowLogger(slog.New(slog.DiscardHandler), 0, c)
	if allocs := testing.AllocsPerRun(100, func() { l.Observe("GetFileInfo", "req-1", time.Millisecond) }); allocs != 0 {
		t.Errorf("Observe on a discard logger allocates %v per op, want 0", allocs)
	}
	if c.Value() == 0 {
		t.Error("slow-op counter did not move")
	}
	sunk := 0
	l.SetSink(func(op, reqID string, d time.Duration) { sunk++ })
	l.Observe("GetFileInfo", "req-2", time.Millisecond)
	if sunk != 1 {
		t.Errorf("sink called %d times, want 1", sunk)
	}
}
