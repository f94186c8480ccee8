package storage

import (
	"math"
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
	lastCall    time.Time // for idle detection; zero until the first Wait

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
// A non-positive rate returns nil, meaning unlimited. The limiter has no
// schedule until its first Wait, which starts one at its own call, so
// the time between opening a media and its first transfer is no
// allowance.
func NewRateLimiter(bytesPerSec float64) *RateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	return &RateLimiter{bytesPerSec: bytesPerSec}
}

// Burst returns the bytes a caller may move before Wait can make it
// sleep: a Wait never sleeps below minSleep of debt, so bytes sent in
// steps smaller than rate × minSleep are paced no more finely. A nil
// (unlimited) limiter has no cap and returns math.MaxInt.
func (l *RateLimiter) Burst() int {
	if l == nil {
		return math.MaxInt
	}
	return int(l.bytesPerSec * minSleep.Seconds())
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
	// Start the schedule at the first call, and restart it after
	// idleness; within a transfer, being behind schedule (e.g. from
	// sleep overshoot) carries over as allowance so the long-run rate
	// converges to the target.
	if now.Sub(l.lastCall) > idleReset && l.next.Before(now) {
		l.next = now
	}
	l.lastCall = now
	l.next = l.next.Add(time.Duration(float64(n) / l.bytesPerSec * float64(time.Second)))
	sleep := l.next.Sub(now)
	l.totalBytes += int64(n)
	l.mu.Unlock()
	if sleep < minSleep {
		return 0
	}
	// Timer overshoot is part of the wait the caller paid, so the
	// sleep is measured, not taken as requested.
	start := time.Now()
	time.Sleep(sleep)
	slept := time.Since(start)
	l.mu.Lock()
	l.totalWait += slept
	l.mu.Unlock()
	return slept
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
