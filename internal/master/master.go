// Package master implements the OctopusFS Primary and Backup Masters
// (paper §2.1): the directory namespace service, the block-location
// map, worker registration and heartbeating, tier statistics, and the
// replication monitor that keeps every block at its intended per-tier
// replica counts (paper §5). Placement and retrieval decisions are
// delegated to the pluggable policies of internal/policy.
package master

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/namespace"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Config configures a Master.
type Config struct {
	// ListenAddr is the RPC endpoint ("host:port"; ":0" for tests).
	ListenAddr string

	// MetaDir persists the namespace (fsimage + edit log). Empty runs
	// the namespace in memory only.
	MetaDir string

	// EditLogSync fsyncs the edit log after every append, trading
	// mutation latency for durability of each acknowledged operation.
	// Off by default (matching HDFS's default hflush semantics); the
	// audit log and metrics record the fsync cost when enabled.
	EditLogSync bool

	// Placement chooses replica locations; nil selects the default
	// MOOP policy (paper §3.3).
	Placement policy.PlacementPolicy

	// Retrieval orders replica locations for readers; nil selects the
	// default OctopusFS rate-based policy (paper §4.2).
	Retrieval policy.RetrievalPolicy

	// BlockSize is the default block size for new files.
	BlockSize int64

	// WorkerTimeout expires workers that stop heartbeating.
	WorkerTimeout time.Duration

	// MonitorInterval paces the replication monitor.
	MonitorInterval time.Duration

	// LeaseTimeout abandons under-construction files whose writer has
	// gone silent (simplified HDFS lease recovery).
	LeaseTimeout time.Duration

	// Seed seeds the randomness used for placement tie-breaking.
	Seed int64

	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger

	// SlowOpThreshold is the latency above which an RPC operation is
	// logged as slow with its request ID. Zero logs every operation;
	// negative disables slow-op logging. Daemons default it to 100ms
	// via their -slowop flag.
	SlowOpThreshold time.Duration

	// TraceSample is the fraction of non-slow traces the in-memory
	// trace store retains; slow traces (per SlowOpThreshold) are
	// always kept. Zero selects the default (trace.DefaultSample);
	// negative keeps only slow traces.
	TraceSample float64

	// HistoryInterval paces telemetry history sampling; zero selects
	// the default (2s). Negative disables sampling (GetClusterHistory
	// then returns only a live sample).
	HistoryInterval time.Duration

	// HeatHalfLife is the decay half-life of the access-heat counters;
	// zero selects heat.DefaultHalfLife (60s).
	HeatHalfLife time.Duration

	// MoverInterval paces the background tier mover that acts on the
	// tier-fitness findings; zero selects the default (2s), negative
	// disables the mover. The mover runs from the monitor loop, so its
	// effective cadence is at least MonitorInterval.
	MoverInterval time.Duration

	// MoverMaxMoves caps concurrent in-flight tier moves; zero selects
	// the default (4).
	MoverMaxMoves int

	// MoverBytesPerSec budgets the replication traffic the mover may
	// generate; zero selects the default (64 MiB/s), negative removes
	// the budget.
	MoverBytesPerSec int64

	// MoverCooldown is the per-block hysteresis window after any
	// completed or expired move, so flapping heat cannot thrash a
	// block between tiers; zero selects the default (30s).
	MoverCooldown time.Duration

	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// endpoint. Off by default: profiling endpoints should be opted
	// into on production daemons.
	Pprof bool
}

func (c *Config) fillDefaults() {
	if c.Placement == nil {
		c.Placement = policy.NewMOOPPolicy(policy.DefaultMOOPConfig())
	}
	if c.Retrieval == nil {
		c.Retrieval = policy.NewOctopusRetrievalPolicy()
	}
	if c.BlockSize <= 0 {
		c.BlockSize = core.DefaultBlockSize
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 10 * time.Second
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 500 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// workerState is the master-side record of one live worker.
type workerState struct {
	id       core.WorkerID
	node     string
	rack     string
	dataAddr string
	httpAddr string
	netMBps  float64
	netConns int
	media    map[core.StorageID]rpc.MediaStat
	lastSeen time.Time
}

// Master is a Primary Master instance.
type Master struct {
	cfg    Config
	ns     *namespace.Namespace
	blocks *blockmgmt.Manager
	topo   *topology.Map

	mu      sync.RWMutex
	workers map[core.WorkerID]*workerState
	pending map[core.WorkerID][]rpc.Command
	// membership counts the entries workers has gained or lost; a cached
	// policy snapshot taken at another count is not served.
	membership atomic.Uint64

	started time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	snapMu    sync.Mutex
	snapshot_ *policy.Snapshot
	snapTime  time.Time
	snapAt    uint64 // membership when snapshot_ was taken

	metrics *masterMetrics
	traces  *trace.Store
	tracer  *trace.Tracer
	journal *events.Journal
	audit   *audit.Log
	xfers   *xfer.Log

	// decommissioned workers may not re-register; guarded by mu.
	decommissioned map[core.WorkerID]struct{}
	// httpAddr is the bound debug HTTP endpoint (set by ServeHTTP);
	// guarded by mu.
	httpAddr string

	histMu    sync.Mutex
	history   []rpc.ClusterSample // telemetry ring, len == historyCapacity
	histStart int
	histN     int

	placeMu    sync.Mutex
	placements map[core.BlockID]rpc.BlockExplanation
	placeOrder []core.BlockID // FIFO eviction order

	// heat is the access-heat plane: decayed per-block/per-file
	// counters and each block's owning file (see heat.go).
	heat *heatPlane

	// mover is the background tier mover acting on the heat plane's
	// tier-fitness findings (see mover.go).
	mover *mover

	ln     net.Listener
	srv    *rpc.Server
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// New starts a Master listening on cfg.ListenAddr.
func New(cfg Config) (*Master, error) {
	cfg.fillDefaults()
	loadStart := time.Now()
	ns, err := namespace.OpenWithOptions(cfg.MetaDir, namespace.Options{
		SyncEdits: cfg.EditLogSync,
	})
	if err != nil {
		return nil, err
	}
	loadDur := time.Since(loadStart)
	m := &Master{
		cfg:            cfg,
		ns:             ns,
		blocks:         blockmgmt.NewManager(),
		topo:           topology.NewMap(),
		workers:        make(map[core.WorkerID]*workerState),
		pending:        make(map[core.WorkerID][]rpc.Command),
		decommissioned: make(map[core.WorkerID]struct{}),
		history:        make([]rpc.ClusterSample, historyCapacity),
		placements:     make(map[core.BlockID]rpc.BlockExplanation),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		done:           make(chan struct{}),
		started:        time.Now(),
	}
	m.journal = events.NewJournal(0)
	m.audit = audit.New(0)
	m.xfers = xfer.New(0)
	// A persistent namespace journals its recovery cost: how big the
	// checkpoint was, how long it took to load, and how many edits
	// replayed on top — the numbers that decide when to re-checkpoint.
	if cfg.MetaDir != "" {
		rec := ns.Recovery()
		m.journal.Publish(events.Info, evImageLoaded,
			"namespace image loaded and edit log replayed",
			"image_bytes", strconv.FormatInt(rec.ImageBytes, 10),
			"image_load_ms", formatMillis(rec.ImageLoadNs),
			"edits_replayed", strconv.Itoa(rec.EditsReplayed),
			"replay_ms", formatMillis(rec.ReplayNs),
			"open_ms", formatMillis(loadDur.Nanoseconds()))
	}
	m.heat = newHeatPlane(cfg.HeatHalfLife)
	m.mover = newMover(cfg)
	m.traces = trace.NewStore(trace.DefaultCapacity, cfg.SlowOpThreshold, cfg.TraceSample)
	m.tracer = trace.NewTracer("master", m.traces)
	m.metrics = newMasterMetrics(m)
	m.metrics.slow.SetSink(func(op, reqID string, d time.Duration) {
		m.journal.PublishTraced(events.Warn, evSlowOp, reqID,
			"slow operation on master", "op", op, "dur", d.String())
	})
	// Rebuild the block map from the recovered namespace; replica
	// locations arrive via the workers' block listings.
	ns.ForEachFile(func(file namespace.FileID, _ string, blocks []core.Block, rv core.ReplicationVector) {
		for _, b := range blocks {
			m.blocks.AddBlock(b, rv)
			// Recovered blocks are committed: release them to the
			// replication monitor right away.
			m.blocks.CommitBlock(b)
			m.heat.setOwner(b.ID, file)
		}
	})

	m.srv = rpc.NewServer(m.metrics.rpcInflight)
	(&Service{m: m}).register(m.srv)
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		ns.Close()
		return nil, fmt.Errorf("master: listening on %s: %w", cfg.ListenAddr, err)
	}
	m.ln = ln
	m.wg.Add(2)
	go func() {
		defer m.wg.Done()
		m.srv.Serve(ln)
	}()
	go m.monitor()
	m.cfg.Logger.Info("master started", "addr", ln.Addr().String())
	dirs, files, blocks := ns.Stats()
	m.journal.Publish(events.Info, evMasterStarted,
		"master started and serving RPC",
		"addr", ln.Addr().String(),
		"directories", strconv.Itoa(dirs),
		"files", strconv.Itoa(files),
		"blocks", strconv.Itoa(blocks),
		"edits_replayed", strconv.Itoa(ns.Recovery().EditsReplayed))
	return m, nil
}

// formatMillis renders a nanosecond duration as fractional
// milliseconds for journal attributes.
func formatMillis(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64)
}

// Addr returns the master's RPC address.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Namespace exposes the namespace for checkpoint orchestration.
func (m *Master) Namespace() *namespace.Namespace { return m.ns }

// Close shuts the master down.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	// Closing the RPC connections too, not just the listener, makes
	// clients and workers notice the shutdown at once instead of talking
	// to a dead master over surviving TCP connections; the namespace
	// closes only after the calls in hand have finished.
	m.srv.Close()
	m.wg.Wait()
	return m.ns.Close()
}

// withRand runs fn with the master's seeded rng under its lock.
func (m *Master) withRand(fn func(*rand.Rand)) {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	fn(m.rng)
}

// snapshotTTL bounds how stale a cached policy snapshot may be. Worker
// statistics only change on heartbeats anyway, so a short cache keeps
// the per-request cost of read-path policy decisions near zero (the
// paper's §7.4 finding that tier management adds <1%% overhead).
const snapshotTTL = 20 * time.Millisecond

// snapshot returns the policy view of the current cluster state,
// cached for snapshotTTL or until a worker joins or leaves. Callers must
// not hold m.mu.
func (m *Master) snapshot() *policy.Snapshot {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	members := m.membership.Load()
	if m.snapshot_ != nil && m.snapAt == members && time.Since(m.snapTime) < snapshotTTL {
		return m.snapshot_
	}
	m.mu.RLock()
	snap := m.snapshotLocked()
	m.mu.RUnlock()
	m.snapshot_ = snap
	m.snapTime = time.Now()
	m.snapAt = members
	return snap
}

func (m *Master) snapshotLocked() *policy.Snapshot {
	s := &policy.Snapshot{
		Workers:  make(map[core.WorkerID]policy.WorkerInfo, len(m.workers)),
		NumRacks: m.topo.NumRacks(),
	}
	for id, w := range m.workers {
		s.Workers[id] = policy.WorkerInfo{
			ID:          id,
			Node:        w.node,
			Rack:        w.rack,
			NetThruMBps: w.netMBps,
			Connections: w.netConns,
		}
		for sid, ms := range w.media {
			s.Media = append(s.Media, policy.Media{
				ID:            sid,
				Worker:        id,
				Node:          w.node,
				Tier:          ms.Tier,
				Rack:          w.rack,
				Capacity:      ms.Capacity,
				Remaining:     ms.Remaining,
				Connections:   ms.Connections + m.blocks.PendingAdds(sid),
				WriteThruMBps: ms.WriteMBps,
				ReadThruMBps:  ms.ReadMBps,
			})
		}
	}
	policy.SortMediaStable(s.Media)
	return s
}

// locationFor converts a block-map replica into a client-visible
// BlockLocation; ok=false if the hosting worker is gone.
func (m *Master) locationFor(r blockmgmt.Replica) (core.BlockLocation, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	w, ok := m.workers[r.Worker]
	if !ok {
		return core.BlockLocation{}, false
	}
	return core.BlockLocation{
		Worker:  r.Worker,
		Address: w.dataAddr,
		Storage: r.Storage,
		Tier:    r.Tier,
		Rack:    w.rack,
	}, true
}

// mediaFor converts replicas into policy.Media descriptors with
// live statistics for the retrieval policy.
func (m *Master) mediaFor(replicas []blockmgmt.Replica) []policy.Media {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]policy.Media, 0, len(replicas))
	for _, r := range replicas {
		w, ok := m.workers[r.Worker]
		if !ok {
			continue
		}
		ms, ok := w.media[r.Storage]
		if !ok {
			continue
		}
		out = append(out, policy.Media{
			ID:            r.Storage,
			Worker:        r.Worker,
			Node:          w.node,
			Tier:          r.Tier,
			Rack:          w.rack,
			Capacity:      ms.Capacity,
			Remaining:     ms.Remaining,
			Connections:   ms.Connections,
			WriteThruMBps: ms.WriteMBps,
			ReadThruMBps:  ms.ReadMBps,
		})
	}
	return out
}

// enqueue appends a command for a worker to pick up on its next
// heartbeat.
func (m *Master) enqueue(w core.WorkerID, cmd rpc.Command) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending[w] = append(m.pending[w], cmd)
}

// enqueueDeletes orders the replicas a block-map transition condemned
// deleted on their workers. A known block's replica goes only this way:
// already tombstoned, so no report brings it back mid-command.
func (m *Master) enqueueDeletes(deletes []blockmgmt.BlockReplica) {
	for _, d := range deletes {
		m.enqueue(d.Worker, rpc.Command{Kind: rpc.CmdDelete, Block: d.Block, Target: d.Storage})
	}
}

// Expiry of an unconfirmed pending-add: after it the work is forgotten
// and the next scan (or mover pass) may issue it anew.
const (
	repairExpiryTicks = 5  // monitor ticks
	moverExpiryTicks  = 20 // mover passes; startMoveLocked converts to ticks
)

// monitor is the background loop that expires dead workers and repairs
// under- and over-replicated blocks (paper §5).
func (m *Master) monitor() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.MonitorInterval)
	defer ticker.Stop()
	histEvery := m.cfg.HistoryInterval
	if histEvery == 0 {
		histEvery = defaultHistoryInterval
	}
	var lastSample time.Time
	var misplaced map[core.BlockID]string // what scanMisplaced last journaled
	// The first mover pass waits a full interval: at boot there is no
	// heat history worth acting on yet.
	lastMove := time.Now()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			m.expireWorkers()
			m.recoverLeases()
			m.blocks.Tick()
			m.repairBlocks()
			if m.mover.enabled() && time.Since(lastMove) >= m.mover.interval {
				m.moverPass()
				lastMove = time.Now()
			}
			if histEvery > 0 && time.Since(lastSample) >= histEvery {
				m.sampleHistory()
				misplaced = m.scanMisplaced(misplaced)
				lastSample = time.Now()
			}
		}
	}
}

// recoverLeases abandons under-construction files whose writer went
// silent, invalidating any blocks they allocated (simplified HDFS
// lease recovery).
func (m *Master) recoverLeases() {
	cutoff := time.Now().Add(-m.cfg.LeaseTimeout).UnixNano()
	for _, path := range m.ns.StaleOpenFiles(cutoff) {
		removed, err := m.ns.Abandon(path)
		if err != nil {
			continue // e.g. completed concurrently
		}
		m.cfg.Logger.Warn("lease expired; abandoned file", "path", path)
		m.journal.Publish(events.Warn, evLeaseExpired,
			"writer lease expired; file abandoned", "path", path)
		m.invalidate(removed)
	}
}

func (m *Master) expireWorkers() {
	cutoff := time.Now().Add(-m.cfg.WorkerTimeout)
	var expired []*workerState
	m.mu.Lock()
	for _, w := range m.workers {
		if w.lastSeen.Before(cutoff) {
			expired = append(expired, w)
			m.dropWorkerLocked(w)
		}
	}
	m.mu.Unlock()
	for _, w := range expired {
		m.cfg.Logger.Warn("worker expired", "worker", w.id)
		m.journal.Publish(events.Warn, evWorkerExpired,
			"worker heartbeat expired", "worker", string(w.id), "node", w.node)
		m.blocks.RemoveWorker(w.id)
	}
}

// repairBlocks scans for unhealthy blocks and issues replication or
// deletion commands. Outstanding work is a pending-add, so the scan does
// not report it again until it expires; a repair that could not start
// recorded nothing and retries next tick.
func (m *Master) repairBlocks() {
	snap := m.snapshot()
	if len(snap.Media) == 0 {
		return
	}
	m.blocks.ScanUnhealthy(func(info blockmgmt.BlockInfo, st blockmgmt.ReplicationState) {
		if st.MissingTotal() > 0 && len(info.Replicas) > 0 {
			m.replicateBlock(snap, info, st)
		}
		if st.Excess > 0 {
			m.removeExcess(snap, info, st)
		}
	})
}

// dropWorkerLocked takes a worker out of service: its record, its
// queued commands, and its node's rack mapping once the node's last
// worker has left (co-hosted workers share one fault domain). The
// caller follows, outside m.mu, with blocks.RemoveWorker, which cancels
// the replicas those commands were to create or delete.
func (m *Master) dropWorkerLocked(w *workerState) {
	delete(m.workers, w.id)
	m.membership.Add(1)
	delete(m.pending, w.id)
	for _, other := range m.workers {
		if other.node == w.node {
			return
		}
	}
	m.topo.Remove(w.node)
}

// replicateBlock selects targets for the missing replicas via the
// placement policy (with the surviving replicas as context, paper §5)
// and instructs the chosen workers to copy the block from the most
// efficient source.
func (m *Master) replicateBlock(snap *policy.Snapshot, info blockmgmt.BlockInfo, st blockmgmt.ReplicationState) {
	missing := core.ReplicationVector(0)
	for tier, n := range st.MissingPerTier {
		missing = missing.WithTier(tier, n)
	}
	missing = missing.WithTier(core.TierUnspecified, st.MissingAny)

	existing := m.mediaFor(info.Replicas)
	if len(existing) == 0 {
		return // nothing to copy from
	}
	var targets []policy.Media
	var err error
	m.withRand(func(rng *rand.Rand) {
		targets, err = m.cfg.Placement.PlaceReplicas(policy.PlacementRequest{
			Snapshot:  snap,
			RepVector: missing,
			BlockSize: info.Block.NumBytes,
			Existing:  existing,
			Rand:      rng,
		})
	})
	if err != nil && len(targets) == 0 {
		m.cfg.Logger.Warn("re-replication placement failed", "block", info.Block.ID, "err", err)
		return
	}

	sources := m.copySources(snap, existing)
	for _, tgt := range targets {
		if !m.scheduleCopy(info.Block, tgt, sources, repairExpiryTicks, "") {
			continue
		}
		m.cfg.Logger.Info("scheduled re-replication",
			"block", info.Block.ID, "target", tgt.ID)
		m.journal.Publish(events.Warn, evBlockRereplicated,
			"under-replicated block scheduled for re-replication",
			"block", formatBlockID(info.Block.ID),
			"target", string(tgt.ID),
			"worker", string(tgt.Worker),
			"tier", tgt.Tier.String())
	}
}

// copySources orders a block's live replicas with the retrieval policy:
// a worker told to copy the block tries them best first.
func (m *Master) copySources(snap *policy.Snapshot, existing []policy.Media) []core.BlockLocation {
	var ordered []policy.Media
	m.withRand(func(rng *rand.Rand) {
		ordered = m.cfg.Retrieval.Order(policy.RetrievalRequest{Snapshot: snap, Replicas: existing, Rand: rng})
	})
	sources := make([]core.BlockLocation, 0, len(ordered))
	for _, src := range ordered {
		if loc, ok := m.locationFor(blockmgmt.Replica{Worker: src.Worker, Storage: src.ID, Tier: src.Tier}); ok {
			sources = append(sources, loc)
		}
	}
	return sources
}

// scheduleCopy records target as a pending-add of the block and orders
// its worker to make the copy. False: the block already has a record on
// that medium (in flight, or a tombstone not yet cleared); try later.
func (m *Master) scheduleCopy(b core.Block, target policy.Media, sources []core.BlockLocation, ttl int, retire core.StorageID) bool {
	if !m.blocks.Schedule(b.ID, blockmgmt.Replica{Worker: target.Worker, Storage: target.ID, Tier: target.Tier}, ttl, retire) {
		return false
	}
	m.enqueue(target.Worker, rpc.Command{Kind: rpc.CmdReplicate, Block: b, Target: target.ID, Sources: sources})
	return true
}

// removeExcess picks the replicas whose removal leaves the
// best-scoring remaining set (paper §5) and instructs their workers to
// delete them.
func (m *Master) removeExcess(snap *policy.Snapshot, info blockmgmt.BlockInfo, st blockmgmt.ReplicationState) {
	replicas := append([]blockmgmt.Replica(nil), info.Replicas...)
	for n := 0; n < st.Excess; n++ {
		media := m.mediaFor(replicas)
		if len(media) == 0 {
			return
		}
		// Restrict removal to the tiers with surplus replicas if any has
		// a candidate.
		idx, ok := -1, false
		for _, tier := range append(st.ExcessTiers, core.TierUnspecified) {
			if idx, ok = policy.SelectExcessReplica(snap, info.Block.NumBytes, media, tier); ok {
				break
			}
		}
		if !ok {
			return
		}
		victim := media[idx]
		deletes := m.blocks.Retire(info.Block.ID, victim.ID)
		if len(deletes) == 0 {
			return // the block changed under the scan; look again next tick
		}
		m.enqueueDeletes(deletes)
		m.cfg.Logger.Info("scheduled excess removal",
			"block", info.Block.ID, "storage", victim.ID)
		m.journal.Publish(events.Info, evBlockExcessRemoved,
			"over-replicated block scheduled for replica removal",
			"block", formatBlockID(info.Block.ID),
			"storage", string(victim.ID),
			"worker", string(victim.Worker))
		replicas = slices.DeleteFunc(replicas, func(r blockmgmt.Replica) bool { return r.Storage == victim.ID })
	}
}

// tierReports aggregates per-tier statistics for the
// getStorageTierReports API (paper Table 1).
func (m *Master) tierReports() []core.StorageTierReport {
	m.mu.RLock()
	defer m.mu.RUnlock()
	type agg struct {
		report  core.StorageTierReport
		workers map[core.WorkerID]struct{}
		wSum    float64
		rSum    float64
	}
	aggs := make(map[core.StorageTier]*agg)
	for id, w := range m.workers {
		for _, ms := range w.media {
			a, ok := aggs[ms.Tier]
			if !ok {
				a = &agg{workers: make(map[core.WorkerID]struct{})}
				a.report.Tier = ms.Tier
				aggs[ms.Tier] = a
			}
			a.report.NumMedia++
			a.report.Capacity += ms.Capacity
			a.report.Remaining += ms.Remaining
			a.wSum += ms.WriteMBps
			a.rSum += ms.ReadMBps
			a.workers[id] = struct{}{}
		}
	}
	out := make([]core.StorageTierReport, 0, len(aggs))
	for _, a := range aggs {
		a.report.NumWorkers = len(a.workers)
		if a.report.NumMedia > 0 {
			a.report.WriteThruMBps = a.wSum / float64(a.report.NumMedia)
			a.report.ReadThruMBps = a.rSum / float64(a.report.NumMedia)
		}
		out = append(out, a.report)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tier < out[j].Tier })
	return out
}

// NumWorkers returns the number of live workers.
func (m *Master) NumWorkers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.workers)
}

// CheckReplicas runs the block map's invariant check against the live
// worker set; tests call it once the cluster has quiesced.
func (m *Master) CheckReplicas() []string {
	m.mu.RLock()
	alive := make(map[core.WorkerID]bool, len(m.workers))
	for id := range m.workers {
		alive[id] = true
	}
	m.mu.RUnlock()
	return m.blocks.Check(func(w core.WorkerID) bool { return alive[w] })
}
