// Package integration provides an in-process OctopusFS cluster —
// master, workers, and clients wired over real TCP on localhost — for
// integration tests, examples, and the namespace benchmarks. Media can
// be throttled to emulate the heterogeneous devices of the paper's
// evaluation cluster.
package integration

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/master"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/worker"
)

// ClusterConfig shapes a test cluster.
type ClusterConfig struct {
	// NumWorkers and NumRacks lay out the topology (workers are
	// assigned to racks round-robin).
	NumWorkers int
	NumRacks   int

	// MemCapacity, SSDCapacity, HDDCapacity size each worker's media;
	// HDDs are split across NumHDDs devices. RemoteCapacity, when
	// positive, attaches a remote-tier media to every worker
	// (integrated mode, paper §2.4) emulating network-attached
	// storage.
	MemCapacity    int64
	SSDCapacity    int64
	HDDCapacity    int64
	NumHDDs        int
	RemoteCapacity int64

	// Throttle applies the paper's Table 2 throughputs (scaled by
	// ThrottleScale) to every media, making a laptop behave like the
	// evaluation cluster. Unthrottled clusters run at native speed.
	Throttle      bool
	ThrottleScale float64

	// BlockSize is the default file block size.
	BlockSize int64

	// Placement overrides the master's placement policy (nil = MOOP).
	Placement policy.PlacementPolicy

	// Retrieval overrides the retrieval policy (nil = OctopusFS).
	Retrieval policy.RetrievalPolicy

	// MetaDir persists the master namespace (""= volatile).
	MetaDir string

	// EditLogSync fsyncs the master edit log after every append, so
	// audit/observability tests see a non-zero fsync phase.
	EditLogSync bool

	// Dir is the root directory for worker block storage.
	Dir string

	// MasterLogger and WorkerLogger capture daemon logs (nil =
	// discard); SlowOpThreshold is forwarded to both daemons so tests
	// can force slow-op logging with a zero threshold.
	MasterLogger    *slog.Logger
	WorkerLogger    *slog.Logger
	SlowOpThreshold time.Duration

	// TraceSample is the fraction of fast traces each daemon retains
	// (slow traces are always kept). Forwarded to master and workers;
	// with the default zero SlowOpThreshold every trace counts as slow,
	// so tests see all spans regardless.
	TraceSample float64

	// WorkerTimeout overrides how long the master waits without
	// heartbeats before declaring a worker dead (0 = 10s). Failover
	// tests shrink it so killed workers deregister quickly.
	WorkerTimeout time.Duration

	// HistoryInterval paces the master's telemetry sampling (0 =
	// default; negative disables sampling).
	HistoryInterval time.Duration

	// HeatHalfLife is the master's access-heat decay half-life (0 =
	// default 60s).
	HeatHalfLife time.Duration

	// MoverInterval enables the master's background tier mover at this
	// cadence. Unlike on a production master, zero keeps the mover
	// DISABLED in test clusters, so heat-plane tests can observe
	// misplacements without the mover fixing them underneath.
	MoverInterval time.Duration

	// MoverMaxMoves, MoverBytesPerSec, and MoverCooldown forward the
	// mover governors to the master (0 = master defaults).
	MoverMaxMoves    int
	MoverBytesPerSec int64
	MoverCooldown    time.Duration
}

// DefaultClusterConfig mirrors the paper's worker shape at laptop
// scale: 3 racks, memory + SSD + 3 HDDs per worker.
func DefaultClusterConfig(dir string) ClusterConfig {
	return ClusterConfig{
		NumWorkers:  4,
		NumRacks:    2,
		MemCapacity: 64 << 20,
		SSDCapacity: 256 << 20,
		HDDCapacity: 768 << 20,
		NumHDDs:     3,
		BlockSize:   4 << 20,
		Dir:         dir,
	}
}

// Cluster is a running in-process OctopusFS deployment.
type Cluster struct {
	Master  *master.Master
	Workers []*worker.Worker
	cfg     ClusterConfig
}

// Table 2 throughputs (MB/s) used when throttling is enabled; the
// remote tier (not in Table 2) emulates network-attached storage
// bottlenecked by a shared 1 Gbps uplink.
const (
	MemWriteMBps    = 1897.4
	MemReadMBps     = 3224.8
	SSDWriteMBps    = 340.6
	SSDReadMBps     = 419.5
	HDDWriteMBps    = 126.3
	HDDReadMBps     = 177.1
	RemoteWriteMBps = 110.0
	RemoteReadMBps  = 115.0
)

// StartCluster boots a master and its workers and waits for every
// worker to register.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("integration: NumWorkers must be positive")
	}
	if cfg.NumRacks <= 0 {
		cfg.NumRacks = 1
	}
	if cfg.NumHDDs <= 0 {
		cfg.NumHDDs = 1
	}
	if cfg.ThrottleScale <= 0 {
		cfg.ThrottleScale = 1
	}
	if cfg.WorkerTimeout <= 0 {
		cfg.WorkerTimeout = 10 * time.Second
	}
	moverInterval := cfg.MoverInterval
	if moverInterval == 0 {
		moverInterval = -1 // disabled unless a test opts in
	}
	m, err := master.New(master.Config{
		ListenAddr:       "127.0.0.1:0",
		MetaDir:          cfg.MetaDir,
		EditLogSync:      cfg.EditLogSync,
		Placement:        cfg.Placement,
		Retrieval:        cfg.Retrieval,
		BlockSize:        cfg.BlockSize,
		WorkerTimeout:    cfg.WorkerTimeout,
		MonitorInterval:  50 * time.Millisecond,
		Seed:             1,
		Logger:           cfg.MasterLogger,
		SlowOpThreshold:  cfg.SlowOpThreshold,
		TraceSample:      cfg.TraceSample,
		HistoryInterval:  cfg.HistoryInterval,
		HeatHalfLife:     cfg.HeatHalfLife,
		MoverInterval:    moverInterval,
		MoverMaxMoves:    cfg.MoverMaxMoves,
		MoverBytesPerSec: cfg.MoverBytesPerSec,
		MoverCooldown:    cfg.MoverCooldown,
	})
	if err != nil {
		return nil, err
	}
	// The observability documents are read from the master's HTTP
	// endpoints, so every test cluster serves them.
	if _, err := m.ServeHTTP("127.0.0.1:0"); err != nil {
		m.Close()
		return nil, err
	}
	c := &Cluster{Master: m, cfg: cfg}
	for i := 0; i < cfg.NumWorkers; i++ {
		w, err := c.startWorker(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}
	if err := c.awaitWorkers(cfg.NumWorkers, 5*time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) startWorker(i int) (*worker.Worker, error) {
	cfg := c.cfg
	node := fmt.Sprintf("node%d", i+1)
	rack := fmt.Sprintf("/rack%d", i%cfg.NumRacks+1)
	scale := cfg.ThrottleScale

	var media []storage.MediaConfig
	// Unthrottled media still advertise the paper's tier speeds so the
	// policies see realistic relative performance.
	throttle := func(w, r float64) (float64, float64) {
		if !cfg.Throttle {
			return 0, 0
		}
		return w * scale, r * scale
	}
	if cfg.MemCapacity > 0 {
		w, r := throttle(MemWriteMBps, MemReadMBps)
		media = append(media, storage.MediaConfig{
			ID: core.StorageID(node + ":mem0"), Tier: core.TierMemory,
			Capacity: cfg.MemCapacity, WriteMBps: w, ReadMBps: r,
			AdvertiseWriteMBps: MemWriteMBps, AdvertiseReadMBps: MemReadMBps,
		})
	}
	if cfg.SSDCapacity > 0 {
		w, r := throttle(SSDWriteMBps, SSDReadMBps)
		media = append(media, storage.MediaConfig{
			ID: core.StorageID(node + ":ssd0"), Tier: core.TierSSD,
			Capacity: cfg.SSDCapacity, WriteMBps: w, ReadMBps: r,
			AdvertiseWriteMBps: SSDWriteMBps, AdvertiseReadMBps: SSDReadMBps,
			Dir: filepath.Join(cfg.Dir, node, "ssd0"),
		})
	}
	for d := 0; d < cfg.NumHDDs && cfg.HDDCapacity > 0; d++ {
		w, r := throttle(HDDWriteMBps, HDDReadMBps)
		media = append(media, storage.MediaConfig{
			ID:        core.StorageID(fmt.Sprintf("%s:hdd%d", node, d)),
			Tier:      core.TierHDD,
			Capacity:  cfg.HDDCapacity / int64(cfg.NumHDDs),
			WriteMBps: w, ReadMBps: r,
			AdvertiseWriteMBps: HDDWriteMBps, AdvertiseReadMBps: HDDReadMBps,
			Dir: filepath.Join(cfg.Dir, node, fmt.Sprintf("hdd%d", d)),
		})
	}
	if cfg.RemoteCapacity > 0 {
		w, r := throttle(RemoteWriteMBps, RemoteReadMBps)
		media = append(media, storage.MediaConfig{
			ID: core.StorageID(node + ":remote0"), Tier: core.TierRemote,
			Capacity: cfg.RemoteCapacity, WriteMBps: w, ReadMBps: r,
			AdvertiseWriteMBps: RemoteWriteMBps, AdvertiseReadMBps: RemoteReadMBps,
			Dir: filepath.Join(cfg.Dir, node, "remote0"),
		})
	}
	return worker.New(worker.Config{
		ID:                core.WorkerID(node),
		Node:              node,
		Rack:              rack,
		MasterAddr:        c.Master.Addr(),
		DataAddr:          "127.0.0.1:0",
		Media:             media,
		HeartbeatInterval: 50 * time.Millisecond,
		Logger:            cfg.WorkerLogger,
		SlowOpThreshold:   cfg.SlowOpThreshold,
		TraceSample:       cfg.TraceSample,
	})
}

// awaitWorkers blocks until n workers are registered.
func (c *Cluster) awaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.Master.NumWorkers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("integration: only %d of %d workers registered", c.Master.NumWorkers(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// Client dials a client handle; node may name one of the worker nodes
// for locality or be empty for an off-cluster client. Extra options
// (e.g. client.WithReadahead, client.WithWriteWindow) are forwarded.
func (c *Cluster) Client(node string, extra ...client.Option) (*client.FileSystem, error) {
	opts := []client.Option{client.WithOwner("it")}
	if node != "" {
		opts = append(opts, client.WithNode(node))
	}
	opts = append(opts, extra...)
	return client.Dial(c.Master.Addr(), opts...)
}

// KillWorker stops one worker without deregistering it, simulating a
// node failure.
func (c *Cluster) KillWorker(i int) error {
	return c.Workers[i].Close()
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	// Idle pooled conns point at this cluster's workers; drop them so
	// they don't linger (or get picked up by a later in-process
	// cluster that happens to land on a reused port).
	rpc.ResetDataPool()
	for _, w := range c.Workers {
		if w != nil {
			w.Close()
		}
	}
	c.Master.Close()
}

// TempDir builds a disposable directory for standalone callers
// (examples); tests should pass t.TempDir() instead.
func TempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "octopusfs-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
