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
	return math.Float64frombits(m.writeMBps.Load())
}

// ReadThruMBps returns the measured sustained read throughput.
func (m *Media) ReadThruMBps() float64 {
	return math.Float64frombits(m.readMBps.Load())
}

func (m *Media) setThroughput(w, r float64) {
	m.writeMBps.Store(math.Float64bits(w))
	m.readMBps.Store(math.Float64bits(r))
}

// IOStats receives one stream's media I/O attribution, for the
// transfer flight recorder. The Ns fields are nanoseconds on the
// stream's own critical path — unlike the limiter's cross-stream
// Stats total, these are exact per stream. ThrottleWaitNs is time
// the emulated pacing slept this stream. DeviceNs is store device
// time: opening a replica to serve it and reading its bytes, or time
// inside the store's chunk writes and commit. SendNs (Replica.Send
// only) is time spent handing bytes to the destination, the device
// read included when the kernel does both at once. AllocBytes (Replica
// reads only) counts the buffer bytes the pool freshly allocated for
// the stream.
type IOStats struct {
	ThrottleWaitNs int64
	DeviceNs       int64
	SendNs         int64
	AllocBytes     int64
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

// Put stores a block replica from content that arrives without sums:
// Create fed with chunks it checksums itself, throttled at the media's
// write rate and counted as an active connection for its duration.
// ErrNoSpace is returned when the content would exceed the media's
// capacity.
func (m *Media) Put(b core.Block, r io.Reader) (int64, error) {
	cw, err := m.Create(b, nil)
	if err != nil {
		return 0, err
	}
	return putChunks(b, cw, r)
}

// Open returns a reader over a stored replica's bytes, read a chunk at
// a time through Replica.Chunk: each chunk is checked against its
// stored sum (core.ErrCorrupt on a mismatch) and paced at the media's
// read rate. The media's connection count stays elevated until the
// reader is closed.
func (m *Media) Open(b core.Block) (io.ReadCloser, error) {
	r, err := m.OpenReplica(b, nil)
	if err != nil {
		return nil, err
	}
	buf, _ := bufpool.Get(core.ChunkSize)
	return &replicaReader{r: r, buf: buf}, nil
}

// replicaReader reads a replica's chunks in order into one pooled
// buffer.
type replicaReader struct {
	r    *Replica
	buf  []byte
	rest []byte // the current chunk's unread bytes
	next int    // the chunk after it
}

func (rr *replicaReader) Read(p []byte) (int, error) {
	if len(rr.rest) == 0 {
		if rr.next == len(rr.r.sums) {
			return 0, io.EOF
		}
		c, err := rr.r.Chunk(rr.next, rr.buf)
		if err != nil {
			return 0, err
		}
		rr.rest, rr.next = c, rr.next+1
	}
	n := copy(p, rr.rest)
	rr.rest = rr.rest[n:]
	return n, nil
}

func (rr *replicaReader) Close() error {
	if rr.buf != nil {
		bufpool.Put(rr.buf)
		rr.buf, rr.rest = nil, nil
	}
	return rr.r.Close()
}

// WriteLimit returns the media's write-side throttle (nil when
// unthrottled), so telemetry can surface emulated-device pacing.
func (m *Media) WriteLimit() *RateLimiter { return m.writeLimit }

// ReadLimit returns the media's read-side throttle (nil when
// unthrottled).
func (m *Media) ReadLimit() *RateLimiter { return m.readLimit }

// Verify re-reads a stored replica against the chunk checksums
// recorded at write time, returning core.ErrCorrupt on mismatch
// (HDFS's .meta check). Verification bypasses the throughput throttle
// and connection accounting: it models a local scrub, not a served
// read.
func (m *Media) Verify(b core.Block) error {
	r, err := m.store.OpenReplica(b)
	if err != nil {
		return err
	}
	defer r.Close()
	buf, _ := bufpool.Get(core.ChunkSize)
	defer bufpool.Put(buf)
	for i := range r.sums {
		if _, err := r.chunk(i, buf); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a stored replica.
func (m *Media) Delete(b core.Block) error { return m.store.Delete(b) }

// Has reports whether the media holds a replica of the block.
func (m *Media) Has(b core.Block) bool { return m.store.Has(b) }

// Blocks lists the stored replicas.
func (m *Media) Blocks() []core.Block { return m.store.Blocks() }

// Close shuts the media down.
func (m *Media) Close() error { return m.store.Close() }

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
