package worker

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// workerMetrics bundles the worker's instruments under one registry,
// exposed at /metrics as octopus_worker_* families.
type workerMetrics struct {
	reg *metrics.Registry

	ops     *metrics.CounterVec   // octopus_worker_ops_total{op}
	opErrs  *metrics.CounterVec   // octopus_worker_op_errors_total{op}
	opDur   *metrics.HistogramVec // octopus_worker_op_duration_seconds{op}
	bytes   *metrics.CounterVec   // octopus_worker_bytes_total{op,tier}
	diskDur *metrics.HistogramVec // octopus_worker_disk_seconds{tier,op}

	heartbeats *metrics.Counter
	hbErrs     *metrics.Counter
	unshipped  *metrics.Counter
	commands   *metrics.CounterVec // octopus_worker_commands_total{kind}

	slow *metrics.SlowLogger
}

func newWorkerMetrics(w *Worker) *workerMetrics {
	reg := metrics.NewRegistry()
	wm := &workerMetrics{
		reg:    reg,
		ops:    reg.CounterVec("octopus_worker_ops_total", "Data-port operations served, by operation.", "op"),
		opErrs: reg.CounterVec("octopus_worker_op_errors_total", "Data-port operations that failed, by operation.", "op"),
		opDur: reg.HistogramVec("octopus_worker_op_duration_seconds",
			"Data-port operation latency in seconds, by operation.", metrics.DefLatencyBuckets, "op"),
		bytes: reg.CounterVec("octopus_worker_bytes_total",
			"Block bytes moved by data-port operations, by operation and storage tier.", "op", "tier"),
		diskDur: reg.HistogramVec("octopus_worker_disk_seconds",
			"Media device time on a transfer's critical path, by storage tier and operation.",
			metrics.DefLatencyBuckets, "tier", "op"),
		heartbeats: reg.Counter("octopus_worker_heartbeats_total", "Heartbeats sent to the master.", nil),
		hbErrs:     reg.Counter("octopus_worker_heartbeat_failures_total", "Heartbeats that failed.", nil),
		commands:   reg.CounterVec("octopus_worker_commands_total", "Master commands executed, by kind.", "kind"),
		unshipped: reg.Counter("octopus_worker_transfers_unshipped_total",
			"Transfer records evicted from the flight recorder before a heartbeat shipped them.", nil),
		slow: metrics.NewSlowLogger(w.cfg.Logger, w.cfg.SlowOpThreshold,
			reg.Counter("octopus_worker_slow_ops_total", "Operations slower than the slow-op threshold.", nil)),
	}
	for id, m := range w.media {
		media := m
		labels := metrics.Labels{"media": string(id), "tier": media.Tier().String()}
		reg.GaugeFunc("octopus_worker_media_capacity_bytes",
			"Configured capacity of the media.", labels,
			func() float64 { return float64(media.Capacity()) })
		reg.GaugeFunc("octopus_worker_media_used_bytes",
			"Bytes currently stored on the media.", labels,
			func() float64 { return float64(media.Used()) })
		reg.GaugeFunc("octopus_worker_media_connections",
			"Active I/O connections on the media.", labels,
			func() float64 { return float64(media.Connections()) })
		wm.limiterGauges(media.WriteLimit(), "write", labels)
		wm.limiterGauges(media.ReadLimit(), "read", labels)
	}
	reg.GaugeFunc("octopus_worker_net_connections", "Active data-port connections.", nil,
		func() float64 { return float64(w.netConns.Load()) })
	// Outbound data-connection lifecycle. The counters live in the rpc
	// package and are process-wide, so in-process multi-daemon tests
	// (and octopus-bench) see one shared view.
	reg.GaugeFunc("octopus_worker_data_dials_total", "Outbound data-connection dial attempts (process-wide).", nil,
		func() float64 { return float64(rpc.DataConnStats().Dials) })
	reg.GaugeFunc("octopus_worker_data_dial_failures_total", "Outbound data-connection dials that failed (process-wide).", nil,
		func() float64 { return float64(rpc.DataConnStats().DialFailures) })
	reg.GaugeFunc("octopus_worker_data_handshakes_total", "Outbound data-connection header handshakes completed (process-wide).", nil,
		func() float64 { return float64(rpc.DataConnStats().Handshakes) })
	reg.GaugeFunc("octopus_worker_data_open_conns", "Outbound data connections currently open (process-wide).", nil,
		func() float64 { return float64(rpc.DataConnStats().OpenConns) })
	reg.GaugeFunc("octopus_worker_data_pool_hits_total", "Outbound data-connection checkouts served from the pool (process-wide).", nil,
		func() float64 { return float64(rpc.DataPoolStats().Hits) })
	reg.GaugeFunc("octopus_worker_data_pool_misses_total", "Outbound data-connection checkouts that had to dial (process-wide).", nil,
		func() float64 { return float64(rpc.DataPoolStats().Misses) })
	reg.GaugeFunc("octopus_worker_data_pool_idle_conns", "Idle data connections currently pooled (process-wide).", nil,
		func() float64 { return float64(rpc.DataPoolStats().Idle) })
	metrics.RegisterRuntimeGauges(reg, "octopus_worker", time.Now())
	return wm
}

// limiterGauges surfaces one token-bucket throttle: its configured
// rate, the bytes it has paced, and the cumulative time it made
// callers wait. Unthrottled media export no throttle series.
func (wm *workerMetrics) limiterGauges(l *storage.RateLimiter, dir string, media metrics.Labels) {
	if l == nil {
		return
	}
	labels := metrics.Labels{"media": media["media"], "tier": media["tier"], "dir": dir}
	wm.reg.GaugeFunc("octopus_worker_throttle_rate_bytes_per_second",
		"Configured throughput throttle of the media.", labels,
		func() float64 { return l.Rate() })
	wm.reg.GaugeFunc("octopus_worker_throttle_bytes",
		"Cumulative bytes paced through the throttle.", labels,
		func() float64 { b, _ := l.Stats(); return float64(b) })
	wm.reg.GaugeFunc("octopus_worker_throttle_wait_seconds",
		"Cumulative time the throttle made I/O wait.", labels,
		func() float64 { _, d := l.Stats(); return d.Seconds() })
}

// observeOp records one data-port operation: count, latency, moved
// bytes by tier, errors, and a slow-op log line carrying the request
// ID for cross-node correlation.
func (wm *workerMetrics) observeOp(op, reqID string, start time.Time, n int64, tier string, errored bool) {
	d := time.Since(start)
	wm.ops.With(op).Inc()
	wm.opDur.With(op).Observe(d.Seconds())
	if n > 0 {
		wm.bytes.With(op, tier).Add(float64(n))
	}
	if errored {
		wm.opErrs.With(op).Inc()
	}
	wm.slow.Observe(op, reqID, d, "bytes", n, "tier", tier)
}

// observeDisk records the device time a transfer spent on a media, in
// the per-tier latency histogram backing octopus_worker_disk_seconds.
// Zero device time (e.g. a memory-tier serve too fast to measure, or a
// failed op that never reached the media) is not observed.
func (wm *workerMetrics) observeDisk(tier, op string, ns int64) {
	if ns <= 0 || tier == "UNKNOWN" {
		return
	}
	wm.diskDur.With(tier, op).Observe(float64(ns) / 1e9)
}

// Metrics returns the worker's metric registry for exposition.
func (w *Worker) Metrics() *metrics.Registry { return w.metrics.reg }
