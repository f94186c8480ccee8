package storage

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// MediaConfig describes one storage media attached to a worker.
type MediaConfig struct {
	// ID uniquely identifies the media within the cluster, e.g.
	// "worker1:hdd0". The worker prefixes its own ID when empty.
	ID core.StorageID

	// Tier is the media's storage tier.
	Tier core.StorageTier

	// Capacity is the number of bytes OctopusFS may use on this media
	// (paper §7: e.g. 4 GB memory, 64 GB SSD, 400 GB HDD per worker).
	Capacity int64

	// Dir is the backing directory for non-memory tiers. Memory-tier
	// media ignore it and use an in-memory store.
	Dir string

	// WriteMBps / ReadMBps optionally throttle the media to emulate a
	// device with these sustained throughputs. Zero means unthrottled.
	WriteMBps float64
	ReadMBps  float64

	// AdvertiseWriteMBps / AdvertiseReadMBps seed the throughput the
	// media reports before (or instead of) a startup probe. When zero,
	// the throttle rates are advertised. Useful for unthrottled test
	// media that should still expose realistic tier speeds to the
	// policies.
	AdvertiseWriteMBps float64
	AdvertiseReadMBps  float64
}

// Media is one storage media instance managed by a worker: a block
// store plus capacity accounting, connection tracking, and measured
// throughput.
type Media struct {
	id    core.StorageID
	tier  core.StorageTier
	cap   int64
	store Store

	writeLimit *RateLimiter
	readLimit  *RateLimiter

	conns atomic.Int64

	// measured sustained throughputs from the startup probe, MB/s
	writeMBps atomic.Uint64 // math.Float64bits
	readMBps  atomic.Uint64
}

// OpenMedia builds a Media from its configuration: an in-memory store
// for the memory tier, a directory store otherwise.
func OpenMedia(cfg MediaConfig) (*Media, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("storage: media %s: capacity must be positive", cfg.ID)
	}
	var store Store
	if cfg.Tier == core.TierMemory {
		store = NewMemStore()
	} else {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("storage: media %s: tier %v requires a directory", cfg.ID, cfg.Tier)
		}
		ds, err := NewDiskStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		store = ds
	}
	m := &Media{
		id:         cfg.ID,
		tier:       cfg.Tier,
		cap:        cfg.Capacity,
		store:      store,
		writeLimit: NewRateLimiter(cfg.WriteMBps * 1e6),
		readLimit:  NewRateLimiter(cfg.ReadMBps * 1e6),
	}
	advW, advR := cfg.AdvertiseWriteMBps, cfg.AdvertiseReadMBps
	if advW == 0 {
		advW = cfg.WriteMBps
	}
	if advR == 0 {
		advR = cfg.ReadMBps
	}
	m.setThroughput(advW, advR)
	return m, nil
}

// ID returns the media's cluster-unique identifier.
func (m *Media) ID() core.StorageID { return m.id }

// Tier returns the media's storage tier.
func (m *Media) Tier() core.StorageTier { return m.tier }

// Capacity returns the bytes OctopusFS may store on this media.
func (m *Media) Capacity() int64 { return m.cap }

// Used returns the bytes currently stored.
func (m *Media) Used() int64 { return m.store.Used() }

// Remaining returns Capacity − Used, floored at zero.
func (m *Media) Remaining() int64 {
	r := m.cap - m.store.Used()
	if r < 0 {
		return 0
	}
	return r
}

// Connections returns the number of active I/O connections, the
// NrConn[m] statistic reported in heartbeats (paper §3.2).
func (m *Media) Connections() int { return int(m.conns.Load()) }

// WriteThruMBps returns the measured sustained write throughput.
func (m *Media) WriteThruMBps() float64 {
	return float64FromBits(m.writeMBps.Load())
}

// ReadThruMBps returns the measured sustained read throughput.
func (m *Media) ReadThruMBps() float64 {
	return float64FromBits(m.readMBps.Load())
}

func (m *Media) setThroughput(w, r float64) {
	m.writeMBps.Store(float64Bits(w))
	m.readMBps.Store(float64Bits(r))
}

// IOStats receives one stream's media I/O attribution, for the
// transfer flight recorder. All fields are nanoseconds on the
// stream's own critical path — unlike the limiter's cross-stream
// Stats total, these are exact per stream. ThrottleWaitNs is time
// the emulated pacing slept this stream. DeviceNs is store device
// time: read time under a throttled Open, or time inside the store's
// chunk writes and commit. SourceNs (Put only) is time spent waiting
// on the supplied reader — the network or local replica feeding the
// write.
type IOStats struct {
	ThrottleWaitNs int64
	DeviceNs       int64
	SourceNs       int64
}

// timedReader accumulates time spent inside Read into *ns.
type timedReader struct {
	r  io.Reader
	ns *int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	*t.ns += time.Since(start).Nanoseconds()
	return n, err
}

// Create starts a replica of b, received chunk by chunk: the media's
// one write path. ErrNoSpace is returned when the declared content
// would exceed the media's capacity, and again at Commit when the
// written content does. The writer counts as an active connection
// until it commits or aborts, each chunk is throttled at the media's
// write rate, and the stream's throttle and device time land in st
// (which may be nil).
func (m *Media) Create(b core.Block, st *IOStats) (ChunkWriter, error) {
	if st == nil {
		st = &IOStats{}
	}
	if b.NumBytes > 0 && b.NumBytes > m.Remaining() && !m.store.Has(b) {
		return nil, fmt.Errorf("storage: media %s: %w", m.id, core.ErrNoSpace)
	}
	cw, err := m.store.Create(b)
	if err != nil {
		return nil, err
	}
	m.conns.Add(1)
	return &mediaWriter{m: m, b: b, cw: cw, st: st}, nil
}

// mediaWriter wraps a store's chunk writer with the media's pacing,
// accounting and capacity check.
type mediaWriter struct {
	m  *Media
	b  core.Block
	cw ChunkWriter
	st *IOStats
}

func (w *mediaWriter) WriteChunk(p []byte, crc uint32) error {
	w.st.ThrottleWaitNs += w.m.writeLimit.Wait(len(p)).Nanoseconds()
	start := time.Now()
	err := w.cw.WriteChunk(p, crc)
	w.st.DeviceNs += time.Since(start).Nanoseconds()
	return err
}

func (w *mediaWriter) Commit() (int64, error) {
	defer w.m.conns.Add(-1)
	start := time.Now()
	n, err := w.cw.Commit()
	w.st.DeviceNs += time.Since(start).Nanoseconds()
	if err != nil {
		return 0, err
	}
	if w.m.store.Used() > w.m.cap {
		// The writer lied about NumBytes; roll back.
		w.m.store.Delete(w.b)
		return 0, fmt.Errorf("storage: media %s: %w", w.m.id, core.ErrNoSpace)
	}
	return n, nil
}

func (w *mediaWriter) Abort() {
	w.cw.Abort()
	w.m.conns.Add(-1)
}

// Put stores a block replica, throttled at the media's write rate, and
// counted as an active connection for its duration. ErrNoSpace is
// returned when the content would exceed the media's capacity.
func (m *Media) Put(b core.Block, r io.Reader) (int64, error) {
	return m.PutStats(b, r, nil)
}

// PutStats is Put recording the stream's throttle, device, and
// source-wait attribution into st (which may be nil): Create fed with
// chunks it checksums itself.
func (m *Media) PutStats(b core.Block, r io.Reader, st *IOStats) (int64, error) {
	if st == nil {
		st = &IOStats{}
	}
	cw, err := m.Create(b, st)
	if err != nil {
		return 0, err
	}
	return putChunks(b, cw, &timedReader{r: r, ns: &st.SourceNs})
}

// Sums returns the replica's stored chunk checksums (see Store.Sums).
func (m *Media) Sums(b core.Block) ([]uint32, error) { return m.store.Sums(b) }

// Open returns a throttled reader over a stored replica. The media's
// connection count stays elevated until the reader is closed.
func (m *Media) Open(b core.Block) (io.ReadCloser, error) {
	return m.OpenStats(b, nil)
}

// OpenStats is Open recording the stream's device read time and
// throttle sleep into st (which may be nil) as the replica is
// consumed.
func (m *Media) OpenStats(b core.Block, st *IOStats) (io.ReadCloser, error) {
	return m.OpenRangeStats(b, 0, st)
}

// OpenRangeStats is OpenStats starting at offset bytes into the
// replica. When the store's reader can seek (disk files, memory
// readers), the skipped prefix is never read — and thus neither
// throttled nor charged as device time; otherwise it is discarded on
// the raw store reader before the throttle wrapper is applied.
func (m *Media) OpenRangeStats(b core.Block, offset int64, st *IOStats) (io.ReadCloser, error) {
	if st == nil {
		st = &IOStats{}
	}
	rc, err := m.store.Open(b)
	if err != nil {
		return nil, err
	}
	if offset > 0 {
		if sk, ok := rc.(io.Seeker); ok {
			_, err = sk.Seek(offset, io.SeekStart)
		} else {
			_, err = io.CopyN(io.Discard, rc, offset)
		}
		if err != nil {
			rc.Close()
			return nil, fmt.Errorf("storage: block %s: seeking to %d: %w", b.ID, offset, err)
		}
	}
	m.conns.Add(1)
	r := LimitReaderStats(&timedReader{r: rc, ns: &st.DeviceNs}, m.readLimit, &st.ThrottleWaitNs)
	return &connTrackingReadCloser{
		ReadCloser: readerWithCloser{r, rc},
		conns:      &m.conns,
	}, nil
}

// readerWithCloser pairs a wrapped read path with the store reader's
// Close.
type readerWithCloser struct {
	io.Reader
	io.Closer
}

// WriteLimit returns the media's write-side throttle (nil when
// unthrottled), so telemetry can surface emulated-device pacing.
func (m *Media) WriteLimit() *RateLimiter { return m.writeLimit }

// ReadLimit returns the media's read-side throttle (nil when
// unthrottled).
func (m *Media) ReadLimit() *RateLimiter { return m.readLimit }

// Verify re-reads a stored replica against the chunk checksums
// recorded at write time, returning core.ErrCorrupt on mismatch.
// Verification bypasses the throughput throttle and connection
// accounting: it models a local scrub, not a served read.
func (m *Media) Verify(b core.Block) error { return m.store.Verify(b) }

// Delete removes a stored replica.
func (m *Media) Delete(b core.Block) error { return m.store.Delete(b) }

// Has reports whether the media holds a replica of the block.
func (m *Media) Has(b core.Block) bool { return m.store.Has(b) }

// Blocks lists the stored replicas.
func (m *Media) Blocks() []core.Block { return m.store.Blocks() }

// Close shuts the media down.
func (m *Media) Close() error { return m.store.Close() }

// connTrackingReadCloser decrements the connection counter once on
// Close, tolerating double-Close.
type connTrackingReadCloser struct {
	io.ReadCloser
	conns  *atomic.Int64
	closed atomic.Bool
}

func (c *connTrackingReadCloser) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.conns.Add(-1)
	}
	return c.ReadCloser.Close()
}

// Probe measures the media's sustained write and read throughput by
// writing and reading back a probe block of the given size, mirroring
// the short I/O-intensive test each worker runs at launch (paper
// §3.2). The measured values are stored on the media and returned in
// MB/s. The probe block is deleted afterwards.
func (m *Media) Probe(probeBytes int64) (writeMBps, readMBps float64, err error) {
	if probeBytes <= 0 {
		probeBytes = 4 << 20
	}
	if probeBytes > m.Remaining() {
		probeBytes = m.Remaining() / 2
	}
	if probeBytes < 1<<16 {
		return 0, 0, fmt.Errorf("storage: media %s: not enough space to probe", m.id)
	}
	probe := core.Block{ID: 0, GenStamp: 0, NumBytes: probeBytes}
	data, _ := bufpool.Get(int(probeBytes))
	defer bufpool.Put(data)
	// Fill with a non-trivial pattern quickly (doubling copy).
	for i := 0; i < 256; i++ {
		data[i] = byte(i*31 + 7)
	}
	for filled := 256; filled < len(data); filled *= 2 {
		copy(data[filled:], data[:filled])
	}

	start := time.Now()
	if _, err := m.Put(probe, bytes.NewReader(data)); err != nil {
		return 0, 0, fmt.Errorf("storage: probe write: %w", err)
	}
	writeMBps = float64(probeBytes) / 1e6 / time.Since(start).Seconds()

	start = time.Now()
	rc, err := m.Open(probe)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: probe read: %w", err)
	}
	_, err = io.Copy(io.Discard, rc)
	rc.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("storage: probe read: %w", err)
	}
	readMBps = float64(probeBytes) / 1e6 / time.Since(start).Seconds()

	if err := m.Delete(probe); err != nil {
		return 0, 0, fmt.Errorf("storage: probe cleanup: %w", err)
	}
	m.setThroughput(writeMBps, readMBps)
	return writeMBps, readMBps, nil
}

func float64Bits(f float64) uint64     { return math.Float64bits(f) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
