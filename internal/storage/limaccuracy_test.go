package storage

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRateLimiterAccuracyAcrossRates paces 16 MiB a chunk at a time,
// as a replica's reads are, and checks, from HDD to memory speed, the
// two things a throttle promises whatever the host's speed: the wall
// rate never exceeds the target, and the limiter never schedules more
// waiting than the target demands (bytes ÷ waited >= target; a host
// slower than the target is not made to wait at all). How close to the
// target a loaded host gets is the benchmark's storage.put_mbps.* to
// report, not tier-1's to judge.
func TestRateLimiterAccuracyAcrossRates(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const tolerance = 1.6
	const size = 16 << 20
	for _, rateMBps := range []float64{126.3, 340.6, 1897.4, 3224.8} {
		l := NewRateLimiter(rateMBps * 1e6)
		t0 := time.Now()
		for range size / core.ChunkSize {
			l.Wait(core.ChunkSize)
		}
		measured := float64(size) / 1e6 / time.Since(t0).Seconds()
		accounted, waited := l.Stats()
		t.Logf("target %7.1f MB/s -> measured %7.1f MB/s, %v scheduled wait", rateMBps, measured, waited)
		if measured > rateMBps*tolerance {
			t.Errorf("target %.1f: measured %.1f MB/s, above the throttle", rateMBps, measured)
		}
		if accounted != size {
			t.Errorf("target %.1f: limiter accounted %d bytes of %d", rateMBps, accounted, size)
		}
		if sched := float64(accounted) / 1e6 / waited.Seconds(); waited > 0 && sched < rateMBps/tolerance {
			t.Errorf("target %.1f: limiter scheduled %v of waiting for %d bytes (%.1f MB/s)", rateMBps, waited, accounted, sched)
		}
	}
}

// TestRateLimiterWaitReturnsSleptTime checks that Wait reports the
// time it slept, overshoot included: never less than the debt it was
// asked to pay, never more than the call took, and exactly what Stats
// adds up.
func TestRateLimiterWaitReturnsSleptTime(t *testing.T) {
	const (
		rate = 1e6  // bytes per second
		n    = 5000 // 5 ms of debt at rate
		debt = 5 * time.Millisecond
	)
	l := NewRateLimiter(rate)
	var total time.Duration
	for i := 0; i < 3; i++ {
		// Idle past idleReset, so the schedule restarts at the call and
		// the debt is exactly n bytes' worth.
		time.Sleep(2 * idleReset)
		start := time.Now()
		got := l.Wait(n)
		wall := time.Since(start)
		if got < debt || got > wall {
			t.Errorf("Wait(%d) = %v, want between the debt %v and the call's wall time %v", n, got, debt, wall)
		}
		total += got
	}
	if _, waited := l.Stats(); waited != total {
		t.Errorf("Stats waited %v, want the sum of Wait's returns %v", waited, total)
	}
}

// TestRateLimiterBurst checks the bytes a caller may move before Wait
// can make it sleep: rate × minSleep, and no cap without a limiter.
func TestRateLimiterBurst(t *testing.T) {
	var unlimited *RateLimiter
	if got := unlimited.Burst(); got != math.MaxInt {
		t.Errorf("nil limiter Burst = %d, want no cap (math.MaxInt)", got)
	}
	if got := NewRateLimiter(64e6).Burst(); got != 64000 {
		t.Errorf("64 MB/s Burst = %d, want 64000", got)
	}
}

// TestRateLimiterFirstWaitStartsSchedule waits on a limiter some time
// after making it, but sooner than idleReset: the first Wait still pays
// its whole debt, because the schedule starts at that call, not when
// the limiter was made.
func TestRateLimiterFirstWaitStartsSchedule(t *testing.T) {
	const (
		rate = 1e6  // bytes per second
		n    = 5000 // 5 ms of debt at rate
	)
	l := NewRateLimiter(rate)
	time.Sleep(idleReset / 2)
	start := time.Now()
	l.Wait(n)
	if got, floor := time.Since(start), 5*time.Millisecond-minSleep; got < floor {
		t.Errorf("first Wait(%d) at %g B/s took %v, want at least %v", n, rate, got, floor)
	}
}
