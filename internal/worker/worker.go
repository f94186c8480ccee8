// Package worker implements the OctopusFS Worker (paper §2.2): it
// manages the heterogeneous storage media attached to one node, serves
// pipelined block writes and streamed block reads on its data port,
// and executes replication and deletion commands delivered by the
// master through heartbeats.
package worker

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/heat"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Config configures a Worker.
type Config struct {
	// ID is the worker's cluster identity; defaults to the data
	// address after listen.
	ID core.WorkerID

	// Node and Rack place the worker in the network topology.
	Node string
	Rack string

	// MasterAddr is the master's RPC endpoint.
	MasterAddr string

	// DataAddr is the data-transfer listen address (":0" for tests).
	DataAddr string

	// Media lists the storage media to manage. Media IDs are
	// prefixed with the node name when not cluster-unique already.
	Media []storage.MediaConfig

	// NetMBps advertises the node's network throughput for the
	// retrieval policy's rate estimates (paper Eq. 12).
	NetMBps float64

	// HeartbeatInterval paces heartbeats; every listingEvery-th one
	// carries the full block listing.
	HeartbeatInterval time.Duration

	// ProbeBytes sizes the startup throughput probe per media
	// (paper §3.2). Zero skips probing and trusts the configured
	// throttle rates.
	ProbeBytes int64

	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger

	// SlowOpThreshold is the latency above which a data-port operation
	// is logged as slow with its request ID. Zero logs every
	// operation; negative disables slow-op logging. Daemons default it
	// to 100ms via their -slowop flag.
	SlowOpThreshold time.Duration

	// TraceSample is the fraction of non-slow traces the in-memory
	// trace store retains; slow traces (per SlowOpThreshold) are
	// always kept. Zero selects the default (trace.DefaultSample);
	// negative keeps only slow traces.
	TraceSample float64

	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP
	// endpoint. Off by default.
	Pprof bool
}

func (c *Config) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.NetMBps <= 0 {
		c.NetMBps = 1250 // 10 Gbps
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Worker is one running worker daemon.
type Worker struct {
	cfg   Config
	id    core.WorkerID
	media map[core.StorageID]*storage.Media

	master *rpc.MasterClient

	ln       net.Listener
	netConns atomic.Int64
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}

	metrics *workerMetrics
	traces  *trace.Store
	tracer  *trace.Tracer
	journal *events.Journal
	heat    *heat.Collector
	xfers   *xfer.Log

	unhookDial func() // deregisters the repeated-dial-failure journal hook

	// received holds the copies made on master command that no
	// successful heartbeat has confirmed yet; a finished copy also puts
	// a token in copied, waking the heartbeat loop.
	recvMu   sync.Mutex
	received []rpc.StoredBlock
	copied   chan struct{}
	// relist makes the next heartbeat carry the full listing; set by
	// every registration, owned by the heartbeat loop after New.
	relist bool
	// shipped is the transfer-log cursor the master has acknowledged:
	// the next beat ships the records after it. Owned by the heartbeat
	// loop.
	shipped uint64

	httpMu   sync.Mutex
	httpAddr string // bound debug HTTP endpoint ("" until ServeHTTP)

	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a Worker: it opens its media, probes their throughput,
// registers with the master, and begins serving data requests and
// heartbeating.
func New(cfg Config) (*Worker, error) {
	cfg.fillDefaults()
	ln, err := net.Listen("tcp", cfg.DataAddr)
	if err != nil {
		return nil, fmt.Errorf("worker: listening on %s: %w", cfg.DataAddr, err)
	}
	id := cfg.ID
	if id == "" {
		id = core.WorkerID(ln.Addr().String())
	}
	w := &Worker{
		cfg:    cfg,
		id:     id,
		media:  make(map[core.StorageID]*storage.Media, len(cfg.Media)),
		ln:     ln,
		master: rpc.NewMasterClient(cfg.MasterAddr),
		conns:  make(map[net.Conn]struct{}),
		copied: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for _, mc := range cfg.Media {
		if mc.ID == "" {
			return nil, fmt.Errorf("worker %s: media config missing ID", id)
		}
		m, err := storage.OpenMedia(mc)
		if err != nil {
			ln.Close()
			return nil, err
		}
		if cfg.ProbeBytes > 0 {
			if _, _, err := m.Probe(cfg.ProbeBytes); err != nil {
				w.cfg.Logger.Warn("media probe failed", "media", mc.ID, "err", err)
			}
		}
		w.media[mc.ID] = m
	}
	w.journal = events.NewJournal(0)
	w.heat = heat.NewCollector()
	w.xfers = xfer.New(0)
	// Repeated data-dial failures to one peer (e.g. a dead pipeline
	// stage this worker keeps forwarding to) become a warn-severity
	// cluster event instead of just per-request error tags.
	w.unhookDial = rpc.OnRepeatedDialFailure(func(addr string, consecutive int) {
		w.journal.Publish(events.Warn, "worker_unreachable",
			"repeated data-connection dial failures to peer",
			"addr", addr, "consecutive", fmt.Sprintf("%d", consecutive),
			"worker", string(id))
	})
	w.traces = trace.NewStore(trace.DefaultCapacity, cfg.SlowOpThreshold, cfg.TraceSample)
	w.tracer = trace.NewTracer("worker", w.traces)
	w.metrics = newWorkerMetrics(w)
	w.metrics.slow.SetSink(func(op, reqID string, d time.Duration) {
		w.journal.PublishTraced(events.Warn, "slow_op", reqID,
			"slow operation on worker", "op", op, "dur", d.String(),
			"worker", string(w.id))
	})

	if err := w.register(); err != nil {
		ln.Close()
		return nil, err
	}
	w.wg.Add(2)
	go w.serveData()
	go w.heartbeatLoop()
	w.cfg.Logger.Info("worker started", "id", id, "data", ln.Addr().String())
	return w, nil
}

// ID returns the worker's cluster identity.
func (w *Worker) ID() core.WorkerID { return w.id }

// DataAddr returns the data-transfer endpoint address.
func (w *Worker) DataAddr() string { return w.ln.Addr().String() }

// Media returns the managed media keyed by storage ID (for tests).
func (w *Worker) Media() map[core.StorageID]*storage.Media { return w.media }

// Journal exposes the worker's event journal (for the HTTP handler and
// tests).
func (w *Worker) Journal() *events.Journal { return w.journal }

// TransferLog exposes the worker's transfer flight recorder (for the
// HTTP handler, benchmarks, and tests).
func (w *Worker) TransferLog() *xfer.Log { return w.xfers }

// HTTPAddr returns the bound debug HTTP endpoint ("" until ServeHTTP
// runs). Heartbeats advertise it to the master so admin tools can fan
// out health checks.
func (w *Worker) HTTPAddr() string {
	w.httpMu.Lock()
	defer w.httpMu.Unlock()
	return w.httpAddr
}

// Close shuts the worker down.
func (w *Worker) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.done)
	if w.unhookDial != nil {
		w.unhookDial()
	}
	w.ln.Close()
	// Sever in-flight data transfers so Close behaves like a node
	// failure instead of draining them: clients detect the broken
	// stream and fail over or retry elsewhere.
	w.connMu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.connMu.Unlock()
	w.wg.Wait()
	w.master.Close()
	for _, m := range w.media {
		m.Close()
	}
	return nil
}

// mediaStats snapshots every media's statistics for registration and
// heartbeats.
func (w *Worker) mediaStats() []rpc.MediaStat {
	stats := make([]rpc.MediaStat, 0, len(w.media))
	for id, m := range w.media {
		stats = append(stats, rpc.MediaStat{
			ID:          id,
			Tier:        m.Tier(),
			Capacity:    m.Capacity(),
			Remaining:   m.Remaining(),
			Connections: m.Connections(),
			WriteMBps:   m.WriteThruMBps(),
			ReadMBps:    m.ReadThruMBps(),
		})
	}
	return stats
}

func (w *Worker) register() error {
	args := &rpc.RegisterArgs{
		ReqHeader: rpc.ReqHeader{ReqID: rpc.NewRequestID()},
		ID:        w.id,
		Node:      w.cfg.Node,
		Rack:      w.cfg.Rack,
		DataAddr:  w.ln.Addr().String(),
		HTTPAddr:  w.HTTPAddr(),
		NetMBps:   w.cfg.NetMBps,
		Media:     w.mediaStats(),
	}
	var reply rpc.RegisterReply
	if err := w.master.Call("Master.Register", args, &reply); err != nil {
		return fmt.Errorf("worker %s: registration failed: %w", w.id, err)
	}
	w.relist = true // a fresh registration knows none of our replicas
	return nil
}

// listingEvery is how many ticks apart the heartbeats carrying the full
// block listing are: every 2 s at the default 250 ms interval.
const listingEvery = 8

// maxBeatRecords caps the transfer records one heartbeat ships; a
// larger backlog drains over the following beats.
const maxBeatRecords = 512

// heartbeatLoop beats on every tick, and at once after a finished copy
// so the master hears of it one RPC later; wake-ups do not count
// toward the listing cadence.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for tick := 1; ; {
		select {
		case <-w.done:
			return
		case <-w.copied:
			w.heartbeat(false)
		case <-ticker.C:
			w.heartbeat(tick%listingEvery == 0)
			tick++
		}
	}
}

// heartbeat sends the worker's one state message: statistics, heat
// deltas, the transfer records after the shipping cursor with their
// spans, the copies finished since the last successful beat and, when
// listing is set or after a registration, the full block listing.
func (w *Worker) heartbeat(listing bool) {
	args := &rpc.HeartbeatArgs{
		ReqHeader: rpc.ReqHeader{ReqID: rpc.NewRequestID()},
		ID:        w.id,
		Media:     w.mediaStats(),
		NetConns:  int(w.netConns.Load()),
		NetMBps:   w.cfg.NetMBps,
		HTTPAddr:  w.HTTPAddr(),
		Heat:      w.heat.Drain(),
	}
	// Every worker span has exactly one transfer record, so looking up
	// each record's span ships every span the store kept, once.
	page := w.xfers.Since(w.shipped, "", maxBeatRecords)
	args.Transfers = page.Entries
	for _, r := range page.Entries {
		if sp, ok := w.traces.Span(r.TraceID, r.SpanID); ok {
			args.Spans = append(args.Spans, sp)
		}
	}
	// Drain the confirmations before snapshotting the listing, so a
	// listing never omits a replica its own beat confirms.
	w.recvMu.Lock()
	args.Received, w.received = w.received, nil
	w.recvMu.Unlock()
	if args.Listing = listing || w.relist; args.Listing {
		for id, m := range w.media {
			for _, b := range m.Blocks() {
				args.Blocks = append(args.Blocks, rpc.StoredBlock{Storage: id, Block: b})
			}
		}
	}
	w.metrics.heartbeats.Inc()
	var reply rpc.HeartbeatReply
	if err := w.master.Call("Master.Heartbeat", args, &reply); err != nil {
		// The master may have expired us (e.g. after its restart):
		// re-register and retry on the next tick. Put the drained heat
		// deltas and confirmations back for that beat; the telemetry
		// cursor has not moved, so that beat re-reads the same records.
		w.heat.Restore(args.Heat)
		w.recvMu.Lock()
		w.received = append(args.Received, w.received...)
		w.recvMu.Unlock()
		w.metrics.hbErrs.Inc()
		w.cfg.Logger.Warn("heartbeat failed", "req", args.ReqID, "err", err)
		if err := w.register(); err != nil {
			w.cfg.Logger.Warn("re-registration failed", "err", err)
		}
		return
	}
	w.relist = false // any listing owed went out with this beat
	w.shipped = page.Next
	w.metrics.unshipped.Add(float64(page.Missed))
	for _, cmd := range reply.Commands {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.execute(cmd)
		}()
	}
}

// execute runs one master command.
func (w *Worker) execute(cmd rpc.Command) {
	switch cmd.Kind {
	case rpc.CmdDelete:
		w.metrics.commands.With("delete").Inc()
		m, ok := w.media[cmd.Target]
		if !ok {
			return
		}
		if err := m.Delete(cmd.Block); err != nil {
			w.cfg.Logger.Warn("delete command failed", "block", cmd.Block.ID, "err", err)
			return
		}
		w.heat.Forget(cmd.Block.ID)
		w.journal.Publish(events.Info, "block_deleted",
			"replica deleted on master command",
			"block", fmt.Sprintf("%d", cmd.Block.ID),
			"storage", string(cmd.Target))
		// No acknowledgement: the tombstone clears when listings stop
		// showing the replica, which, unlike an ack overtaking a listing
		// built before this delete ran, cannot resurrect it.
	case rpc.CmdReplicate:
		// Command-driven replications get a fresh request ID so their
		// slow-op lines are traceable like client-driven ops.
		w.metrics.commands.With("replicate").Inc()
		reqID := rpc.NewRequestID()
		start := time.Now()
		sp := w.tracer.Start(reqID, "", "worker.replicate")
		sp.Annotate("worker", string(w.id)).AnnotateInt("block", int64(cmd.Block.ID))
		rec := xfer.Record{
			Op:      "replicate",
			Source:  "worker:" + string(w.id),
			Block:   uint64(cmd.Block.ID),
			TraceID: reqID,
			SpanID:  sp.ID(),
		}
		n, tier, err := w.replicate(reqID, sp, cmd.Block, cmd.Target, cmd.Sources, &rec)
		sp.Annotate("tier", tier).AnnotateInt("bytes", n)
		rec.Tier = tier
		rec.Bytes = n
		rec.Result = "ok"
		if err != nil {
			rec.Result = err.Error()
		}
		annotatePhases(sp, &rec)
		sp.SetError(err)
		sp.End()
		w.metrics.observeOp("replicate", reqID, start, n, tier, err != nil)
		w.metrics.observeDisk(tier, "replicate", rec.DiskNs)
		rec.TotalNs = time.Since(start).Nanoseconds()
		w.xfers.Append(rec)
		if err != nil {
			w.cfg.Logger.Warn("replication command failed",
				"block", cmd.Block.ID, "target", cmd.Target, "req", reqID, "err", err)
			w.journal.PublishTraced(events.Warn, "block_replicate_failed", reqID,
				"replication command failed",
				"block", fmt.Sprintf("%d", cmd.Block.ID),
				"target", string(cmd.Target), "err", err.Error())
		} else {
			w.heat.Touch(cmd.Block.ID, heat.Write, n)
			// The next heartbeat, woken now, confirms the copy.
			w.recvMu.Lock()
			w.received = append(w.received, rpc.StoredBlock{Storage: cmd.Target, Block: cmd.Block})
			w.recvMu.Unlock()
			select {
			case w.copied <- struct{}{}:
			default:
			}
			w.journal.PublishTraced(events.Info, "block_replicated", reqID,
				"replica copied on master command",
				"block", fmt.Sprintf("%d", cmd.Block.ID),
				"target", string(cmd.Target), "tier", tier)
		}
	}
}
