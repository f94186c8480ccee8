package storage

import (
	"io"
	"sync"
	"time"
)

// RateLimiter paces bytes at a sustained rate to emulate the
// throughput of a storage media on hardware that is actually faster.
// A nil limiter imposes no limit.
//
// The limiter uses virtual-time pacing: it tracks the absolute time at
// which the last accounted byte is "due" and sleeps until then. This
// self-corrects OS timer overshoot (a sleep that runs long simply
// leaves the schedule ahead of wall-clock), which matters on machines
// with coarse tick granularity when emulating multi-GB/s media.
type RateLimiter struct {
	mu          sync.Mutex
	bytesPerSec float64
	next        time.Time // when the last accounted byte is due
	lastCall    time.Time // for idle detection

	totalBytes int64         // cumulative bytes accounted
	totalWait  time.Duration // cumulative time spent sleeping
}

const (
	// minSleep batches sleep debt to amortise timer slack.
	minSleep = time.Millisecond
	// idleReset is the gap between Wait calls after which the
	// schedule restarts, so one transfer's unused allowance does not
	// become a burst for the next.
	idleReset = 10 * time.Millisecond
)

// NewRateLimiter builds a limiter sustaining bytesPerSec.
// A non-positive rate returns nil, meaning unlimited.
func NewRateLimiter(bytesPerSec float64) *RateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	now := time.Now()
	return &RateLimiter{bytesPerSec: bytesPerSec, next: now, lastCall: now}
}

// Wait accounts for n bytes and blocks until they are due, returning
// the time this caller was actually made to sleep so per-stream
// telemetry can attribute throttle wait exactly. It is safe for
// concurrent use; concurrent callers share the rate, which is
// exactly the bandwidth-splitting behaviour of a real device under
// concurrent I/O.
func (l *RateLimiter) Wait(n int) time.Duration {
	if l == nil || n <= 0 {
		return 0
	}
	l.mu.Lock()
	now := time.Now()
	// Restart the schedule after idleness; within a transfer, being
	// behind schedule (e.g. from sleep overshoot) carries over as
	// allowance so the long-run rate converges to the target.
	if now.Sub(l.lastCall) > idleReset && l.next.Before(now) {
		l.next = now
	}
	l.lastCall = now
	l.next = l.next.Add(time.Duration(float64(n) / l.bytesPerSec * float64(time.Second)))
	sleep := l.next.Sub(now)
	l.totalBytes += int64(n)
	if sleep >= minSleep {
		l.totalWait += sleep
	}
	l.mu.Unlock()
	if sleep >= minSleep {
		time.Sleep(sleep)
		return sleep
	}
	return 0
}

// Stats returns the cumulative bytes accounted by the limiter and the
// total time callers were made to wait, for throttling telemetry. A
// nil (unlimited) limiter reports zeros.
func (l *RateLimiter) Stats() (bytes int64, waited time.Duration) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalBytes, l.totalWait
}

// Rate returns the sustained rate in bytes per second (0 = unlimited).
func (l *RateLimiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return l.bytesPerSec
}

// limitedReader throttles an io.Reader through a RateLimiter,
// optionally accumulating this stream's own sleep time into waitNs.
type limitedReader struct {
	r      io.Reader
	l      *RateLimiter
	waitNs *int64
}

// LimitReader wraps r so reads are throttled by l. A nil limiter
// returns r unchanged.
func LimitReader(r io.Reader, l *RateLimiter) io.Reader {
	return LimitReaderStats(r, l, nil)
}

// LimitReaderStats is LimitReader accumulating the stream's own
// throttle sleep (exact, unlike the limiter's cross-stream Stats
// total) into *waitNs. waitNs may be nil.
func LimitReaderStats(r io.Reader, l *RateLimiter, waitNs *int64) io.Reader {
	if l == nil {
		return r
	}
	return &limitedReader{r: r, l: l, waitNs: waitNs}
}

func (lr *limitedReader) Read(p []byte) (int, error) {
	// Cap chunk size so the limiter smooths rather than bursts.
	if len(p) > 256<<10 {
		p = p[:256<<10]
	}
	n, err := lr.r.Read(p)
	slept := lr.l.Wait(n)
	if lr.waitNs != nil && slept > 0 {
		*lr.waitNs += slept.Nanoseconds()
	}
	return n, err
}

// limitedReadCloser is LimitReader plus pass-through Close.
type limitedReadCloser struct {
	limitedReader
	c io.Closer
}

// LimitReadCloser wraps rc so reads are throttled by l.
func LimitReadCloser(rc io.ReadCloser, l *RateLimiter) io.ReadCloser {
	if l == nil {
		return rc
	}
	return &limitedReadCloser{limitedReader{r: rc, l: l}, rc}
}

func (lrc *limitedReadCloser) Close() error { return lrc.c.Close() }
