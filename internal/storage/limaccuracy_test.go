package storage

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestRateLimiterAccuracyAcrossRates checks, from HDD to memory speed,
// the two things a throttle promises whatever the host's speed: the wall
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
	data := make([]byte, 16<<20)
	for _, rateMBps := range []float64{126.3, 340.6, 1897.4, 3224.8} {
		l := NewRateLimiter(rateMBps * 1e6)
		t0 := time.Now()
		io.Copy(io.Discard, LimitReader(bytes.NewReader(data), l))
		measured := float64(len(data)) / 1e6 / time.Since(t0).Seconds()
		accounted, waited := l.Stats()
		t.Logf("target %7.1f MB/s -> measured %7.1f MB/s, %v scheduled wait", rateMBps, measured, waited)
		if measured > rateMBps*tolerance {
			t.Errorf("target %.1f: measured %.1f MB/s, above the throttle", rateMBps, measured)
		}
		if accounted != int64(len(data)) {
			t.Errorf("target %.1f: limiter accounted %d bytes of %d", rateMBps, accounted, len(data))
		}
		if sched := float64(accounted) / 1e6 / waited.Seconds(); waited > 0 && sched < rateMBps/tolerance {
			t.Errorf("target %.1f: limiter scheduled %v of waiting for %d bytes (%.1f MB/s)", rateMBps, waited, accounted, sched)
		}
	}
}
