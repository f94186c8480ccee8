package storage

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
)

func testMedia(t *testing.T, tier core.StorageTier, capBytes int64, writeMBps, readMBps float64) *Media {
	t.Helper()
	cfg := MediaConfig{
		ID:        "w1:test0",
		Tier:      tier,
		Capacity:  capBytes,
		WriteMBps: writeMBps,
		ReadMBps:  readMBps,
	}
	if tier != core.TierMemory {
		cfg.Dir = t.TempDir()
	}
	m, err := OpenMedia(cfg)
	if err != nil {
		t.Fatalf("OpenMedia: %v", err)
	}
	return m
}

func TestOpenMediaValidation(t *testing.T) {
	if _, err := OpenMedia(MediaConfig{Tier: core.TierMemory, Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := OpenMedia(MediaConfig{Tier: core.TierHDD, Capacity: 100}); err == nil {
		t.Error("disk media without directory accepted")
	}
}

func TestMediaCapacityAccounting(t *testing.T) {
	m := testMedia(t, core.TierMemory, 1000, 0, 0)
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: 600}
	if _, err := m.Put(b, bytes.NewReader(make([]byte, 600))); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := m.Used(); got != 600 {
		t.Errorf("Used = %d, want 600", got)
	}
	if got := m.Remaining(); got != 400 {
		t.Errorf("Remaining = %d, want 400", got)
	}
	// Second block over capacity must be rejected up front.
	b2 := core.Block{ID: 2, GenStamp: 1, NumBytes: 600}
	if _, err := m.Put(b2, bytes.NewReader(make([]byte, 600))); !errors.Is(err, core.ErrNoSpace) {
		t.Errorf("over-capacity Put err = %v, want ErrNoSpace", err)
	}
	if m.Has(b2) {
		t.Error("rejected block was stored")
	}
}

func TestMediaRejectsUnderdeclaredSize(t *testing.T) {
	m := testMedia(t, core.TierMemory, 1000, 0, 0)
	// Block claims 100 bytes but streams 2000: must be rolled back.
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: 100}
	if _, err := m.Put(b, bytes.NewReader(make([]byte, 2000))); !errors.Is(err, core.ErrNoSpace) {
		t.Errorf("lying Put err = %v, want ErrNoSpace", err)
	}
	if m.Used() != 0 {
		t.Errorf("Used = %d after rollback, want 0", m.Used())
	}
}

func TestMediaConnectionTracking(t *testing.T) {
	m := testMedia(t, core.TierMemory, 1<<20, 0, 0)
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: 10}
	if _, err := m.Put(b, bytes.NewReader(make([]byte, 10))); err != nil {
		t.Fatal(err)
	}
	if got := m.Connections(); got != 0 {
		t.Fatalf("idle Connections = %d, want 0", got)
	}
	rc1, err := m.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := m.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Connections(); got != 2 {
		t.Errorf("Connections with 2 open readers = %d, want 2", got)
	}
	rc1.Close()
	rc1.Close() // double close must not double-decrement
	if got := m.Connections(); got != 1 {
		t.Errorf("Connections after closing one = %d, want 1", got)
	}
	rc2.Close()
	if got := m.Connections(); got != 0 {
		t.Errorf("Connections after closing all = %d, want 0", got)
	}
}

func TestMediaThrottledThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// 8 MB/s write throttle, 2 MB payload => ~250ms minimum.
	m := testMedia(t, core.TierMemory, 64<<20, 8, 0)
	payload := make([]byte, 2<<20)
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(payload))}
	start := time.Now()
	if _, err := m.Put(b, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	rate := float64(len(payload)) / 1e6 / elapsed.Seconds()
	if rate > 12 { // generous upper bound: throttle must bite
		t.Errorf("throttled write ran at %.1f MB/s, want ~8", rate)
	}
}

func TestMediaProbeMeasuresThrottleRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	m := testMedia(t, core.TierMemory, 64<<20, 20, 40)
	w, r, err := m.Probe(4 << 20)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	// A throttle promises two things whatever the host's speed: the wall
	// rate never exceeds the target, and the limiter never makes callers
	// wait longer than the target demands (bytes ÷ waited >= target; a
	// host that falls behind is made to wait less, so there is no upper
	// bound to assert). How far below the target a loaded host lands is
	// the benchmark's storage.put_mbps.* to report, not tier-1's to judge.
	const tolerance = 1.5
	for _, c := range []struct {
		op           string
		wall, target float64
		limit        *RateLimiter
	}{{"write", w, 20, m.WriteLimit()}, {"read", r, 40, m.ReadLimit()}} {
		if c.wall > c.target*tolerance {
			t.Errorf("probed %s throughput = %.1f MB/s, above the %.0f MB/s throttle", c.op, c.wall, c.target)
		}
		bytes, waited := c.limit.Stats()
		if sched := float64(bytes) / 1e6 / waited.Seconds(); waited == 0 || sched < c.target/tolerance {
			t.Errorf("%s limiter scheduled %d bytes over %v of waiting (%.1f MB/s), want >= ~%.0f MB/s and some wait",
				c.op, bytes, waited, sched, c.target)
		}
	}
	if got := m.WriteThruMBps(); math.Abs(got-w) > 1e-9 {
		t.Errorf("WriteThruMBps = %v, want stored probe value %v", got, w)
	}
	// Probe must clean up after itself.
	if m.Used() != 0 {
		t.Errorf("Used = %d after probe, want 0", m.Used())
	}
}

func TestMediaProbeTooSmall(t *testing.T) {
	m := testMedia(t, core.TierMemory, 1<<16, 0, 0)
	if _, _, err := m.Probe(1 << 20); err == nil {
		t.Error("Probe on tiny media: got nil error")
	}
}

func TestMediaDiskBacked(t *testing.T) {
	m := testMedia(t, core.TierHDD, 1<<20, 0, 0)
	data := []byte("on disk")
	b := core.Block{ID: 3, GenStamp: 7, NumBytes: int64(len(data))}
	if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	rc, err := m.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, data) {
		t.Errorf("disk media content = %q, want %q", got, data)
	}
	if err := m.Delete(b); err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks()) != 0 {
		t.Error("Blocks() non-empty after delete")
	}
}

func TestRateLimiterSharedAcrossConcurrentWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Two concurrent 1MB transfers, paced a chunk at a time through
	// one 8 MB/s limiter, must take about 2MB/8MBps = 250ms total, i.e.
	// the rate is shared.
	l := NewRateLimiter(8e6)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range (1 << 20) / core.ChunkSize {
				l.Wait(core.ChunkSize)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	aggregate := 2.0 * (1 << 20) / 1e6 / elapsed.Seconds()
	if aggregate > 12 {
		t.Errorf("aggregate rate %.1f MB/s exceeds shared 8 MB/s limit", aggregate)
	}
}

func TestNilRateLimiterIsUnlimited(t *testing.T) {
	var l *RateLimiter
	l.Wait(1 << 30) // must not block or panic
	if l.Rate() != 0 {
		t.Error("nil limiter Rate() != 0")
	}
}

// TestReplicaReadCountsFreshBuffers reads two chunks of a disk replica
// into buffers the replica holds, with an emptied buffer pool: the
// stream's AllocBytes is exactly the bytes the pool had to allocate, so
// a worker read's record shows a pool regression.
func TestReplicaReadCountsFreshBuffers(t *testing.T) {
	m := testMedia(t, core.TierHDD, 1<<20, 0, 0)
	data := randomData(2*core.ChunkSize, 3)
	b := core.Block{ID: 5, GenStamp: 1, NumBytes: int64(len(data))}
	if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var st IOStats
	r, err := m.OpenReplica(b, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Two collections empty a sync.Pool, so the first read allocates.
	runtime.GC()
	runtime.GC()
	before := bufpool.Snapshot().Misses
	for i := range 2 {
		p, err := r.Chunk(i, nil)
		if err != nil || !bytes.Equal(p, data[i*core.ChunkSize:(i+1)*core.ChunkSize]) {
			t.Fatalf("chunk %d: %d bytes, err %v", i, len(p), err)
		}
	}
	misses := int64(bufpool.Snapshot().Misses - before)
	if misses == 0 || st.AllocBytes != misses*core.ChunkSize {
		t.Errorf("AllocBytes = %d after %d fresh %d-byte buffers", st.AllocBytes, misses, core.ChunkSize)
	}
}
