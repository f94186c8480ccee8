package master

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// moopScoreBuckets spans the Eq. 11 scalarised scores, which are norm
// distances from the ideal vector and land in [0, ~2] in practice.
var moopScoreBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4}

// contentionBuckets resolve the short waits that matter for lock and
// queue contention: an uncontended mutex acquires in well under a
// microsecond, so the low end must distinguish "free" from "queued"
// while the top still captures pathological multi-second stalls.
var contentionBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1, 1,
}

// editBatchBuckets size edit-log append batches (always 1 today; the
// range leaves room for group commit).
var editBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// masterMetrics bundles the master's instruments under one registry,
// exposed at /metrics as octopus_master_* families.
type masterMetrics struct {
	reg *metrics.Registry

	ops    *metrics.CounterVec   // octopus_master_ops_total{op}
	opErrs *metrics.CounterVec   // octopus_master_op_errors_total{op}
	opDur  *metrics.HistogramVec // octopus_master_op_duration_seconds{op}

	placements *metrics.CounterVec   // octopus_master_placements_total{tier}
	retrievals *metrics.CounterVec   // octopus_master_retrievals_total{tier}
	moopScore  *metrics.HistogramVec // octopus_master_policy_moop_score{tier}

	// Contention plane: where metadata operations spend their time
	// when the master is loaded.
	nsLockWait   *metrics.HistogramVec // octopus_master_ns_lock_wait_seconds{mode}
	editAppend   *metrics.Histogram    // octopus_master_editlog_append_seconds
	editFsync    *metrics.Histogram    // octopus_master_editlog_fsync_seconds
	editBatch    *metrics.Histogram    // octopus_master_editlog_batch_records
	rpcQueueWait *metrics.Histogram    // octopus_master_rpc_queue_wait_seconds
	rpcInflight  *metrics.Gauge        // octopus_master_rpc_inflight

	slow *metrics.SlowLogger
}

// newMasterMetrics builds the registry and wires the gauges that read
// live master state on scrape.
func newMasterMetrics(m *Master) *masterMetrics {
	reg := metrics.NewRegistry()
	mm := &masterMetrics{
		reg:    reg,
		ops:    reg.CounterVec("octopus_master_ops_total", "RPC operations served, by operation.", "op"),
		opErrs: reg.CounterVec("octopus_master_op_errors_total", "RPC operations that returned an error, by operation.", "op"),
		opDur: reg.HistogramVec("octopus_master_op_duration_seconds",
			"RPC operation latency in seconds, by operation.", metrics.DefLatencyBuckets, "op"),
		placements: reg.CounterVec("octopus_master_placements_total",
			"Block replicas placed by the placement policy, by storage tier.", "tier"),
		retrievals: reg.CounterVec("octopus_master_retrievals_total",
			"First-choice read locations handed to clients, by storage tier.", "tier"),
		moopScore: reg.HistogramVec("octopus_master_policy_moop_score",
			"Scalarised MOOP objective score of each placement decision, by chosen tier.",
			moopScoreBuckets, "tier"),
		nsLockWait: reg.HistogramVec("octopus_master_ns_lock_wait_seconds",
			"Namespace mutex acquisition wait in seconds, by lock mode (read/write).",
			contentionBuckets, "mode"),
		editAppend: reg.Histogram("octopus_master_editlog_append_seconds",
			"Edit-log append latency in seconds.", contentionBuckets, nil),
		editFsync: reg.Histogram("octopus_master_editlog_fsync_seconds",
			"Edit-log fsync latency in seconds (sync mode only).", contentionBuckets, nil),
		editBatch: reg.Histogram("octopus_master_editlog_batch_records",
			"Records per edit-log append batch.", editBatchBuckets, nil),
		rpcQueueWait: reg.Histogram("octopus_master_rpc_queue_wait_seconds",
			"Wait between RPC request decode and handler start, in seconds.",
			contentionBuckets, nil),
		rpcInflight: reg.Gauge("octopus_master_rpc_inflight",
			"RPC requests read but not yet responded to.", nil),
		slow: metrics.NewSlowLogger(m.cfg.Logger, m.cfg.SlowOpThreshold,
			reg.Counter("octopus_master_slow_ops_total", "Operations slower than the slow-op threshold.", nil)),
	}
	reg.GaugeFunc("octopus_master_workers", "Live registered workers.", nil,
		func() float64 { return float64(m.NumWorkers()) })
	reg.GaugeFunc("octopus_master_namespace_directories", "Directories in the namespace.", nil,
		func() float64 { d, _, _ := m.ns.Stats(); return float64(d) })
	reg.GaugeFunc("octopus_master_namespace_files", "Files in the namespace.", nil,
		func() float64 { _, f, _ := m.ns.Stats(); return float64(f) })
	reg.GaugeFunc("octopus_master_namespace_blocks", "Blocks tracked by the block map.", nil,
		func() float64 { _, _, b := m.ns.Stats(); return float64(b) })
	for t := core.TierMemory; t < core.StorageTier(core.NumTiers); t++ {
		tier := t
		labels := metrics.Labels{"tier": tier.String()}
		reg.GaugeFunc("octopus_master_tier_capacity_bytes",
			"Aggregate capacity reported by workers, by storage tier.", labels,
			func() float64 { return float64(m.tierBytes(tier, false)) })
		reg.GaugeFunc("octopus_master_tier_remaining_bytes",
			"Aggregate remaining space reported by workers, by storage tier.", labels,
			func() float64 { return float64(m.tierBytes(tier, true)) })
	}
	reg.GaugeFunc("octopus_master_recovery_image_bytes",
		"Size of the fsimage loaded at the last namespace open.", nil,
		func() float64 { return float64(m.ns.Recovery().ImageBytes) })
	reg.GaugeFunc("octopus_master_recovery_image_load_seconds",
		"Time spent loading the fsimage at the last namespace open.", nil,
		func() float64 { return float64(m.ns.Recovery().ImageLoadNs) / 1e9 })
	reg.GaugeFunc("octopus_master_recovery_edits_replayed",
		"Edit records replayed at the last namespace open.", nil,
		func() float64 { return float64(m.ns.Recovery().EditsReplayed) })
	reg.GaugeFunc("octopus_master_recovery_replay_seconds",
		"Time spent replaying edits at the last namespace open.", nil,
		func() float64 { return float64(m.ns.Recovery().ReplayNs) / 1e9 })
	metrics.RegisterRuntimeGauges(reg, "octopus_master", m.started)
	// The namespace reports every mutex wait and edit-log append here;
	// these observers are the sole feed for the contention histograms,
	// so per-op audit stats never double count.
	m.ns.SetLockObserver(func(wait time.Duration, read bool) {
		mode := "write"
		if read {
			mode = "read"
		}
		mm.nsLockWait.With(mode).Observe(wait.Seconds())
	})
	m.ns.SetEditObserver(func(appendD, fsyncD time.Duration, records int) {
		mm.editAppend.Observe(appendD.Seconds())
		if fsyncD > 0 {
			mm.editFsync.Observe(fsyncD.Seconds())
		}
		mm.editBatch.Observe(float64(records))
	})
	return mm
}

// tierBytes sums capacity or remaining space over one tier's media.
func (m *Master) tierBytes(tier core.StorageTier, remaining bool) int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum int64
	for _, w := range m.workers {
		for _, ms := range w.media {
			if ms.Tier != tier {
				continue
			}
			if remaining {
				sum += ms.Remaining
			} else {
				sum += ms.Capacity
			}
		}
	}
	return sum
}

// Metrics returns the master's metric registry for exposition.
func (m *Master) Metrics() *metrics.Registry { return m.metrics.reg }

// trackOp instruments one client RPC operation that the audit log does
// not record: count it, time it, log it if slow, stamp the request ID
// onto any wire error, and record a "master.<op>" span parented under
// the caller's span. Audited ops build their span from the audit entry
// instead (opAudit). Use as
//
//	defer s.m.trackOp("reportBadBlock", args.ReqHeader)(&err)
//
// on a method with a named error return.
func (m *Master) trackOp(op string, h rpc.ReqHeader) func(*error) {
	sp := m.tracer.Start(h.ReqID, h.SpanID, "master."+op)
	done := m.trackOpUntraced(op, h.ReqID)
	return func(errp *error) {
		if *errp != nil {
			sp.SetError(*errp)
		}
		sp.End()
		done(errp)
	}
}

// trackOpUntraced instruments an operation without recording a span.
// The worker-protocol handlers (register, heartbeat) use it: at
// heartbeat rates their per-call traces would churn the bounded trace
// store out of every client trace worth keeping, and the trace-service
// RPCs themselves must not recursively mint trace entries.
func (m *Master) trackOpUntraced(op, reqID string) func(*error) {
	start := time.Now()
	m.metrics.ops.With(op).Inc()
	return func(errp *error) { m.endOp(op, reqID, time.Since(start), errp) }
}

// endOp closes the metrics of an op that took d: time it, count its
// error and stamp the request ID onto the wire form, and log it if
// slow.
func (m *Master) endOp(op, reqID string, d time.Duration, errp *error) {
	mm := m.metrics
	mm.opDur.With(op).Observe(d.Seconds())
	if *errp != nil {
		mm.opErrs.With(op).Inc()
		*errp = errors.New(rpc.WithReqID((*errp).Error(), reqID))
	}
	mm.slow.Observe(op, reqID, d)
}
