package client

import (
	"log/slog"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
)

// clientMetrics bundles the client's instruments under one registry,
// exposed via FileSystem.Metrics() as octopus_client_* families.
type clientMetrics struct {
	reg *metrics.Registry

	rpcs    *metrics.CounterVec   // octopus_client_rpcs_total{method}
	rpcErrs *metrics.CounterVec   // octopus_client_rpc_errors_total{method}
	rpcDur  *metrics.HistogramVec // octopus_client_rpc_duration_seconds{method}

	readBytes      *metrics.CounterVec // octopus_client_read_bytes_total{tier,source}
	writeBytes     *metrics.Counter    // octopus_client_write_bytes_total
	failovers      *metrics.Counter    // octopus_client_read_failovers_total
	badReports     *metrics.Counter    // octopus_client_bad_block_reports_total
	retries        *metrics.Counter    // octopus_client_block_retries_total
	readaheadOpens *metrics.Counter    // octopus_client_readahead_opens_total
	writeStalls    *metrics.Counter    // octopus_client_write_window_stalls_total

	slow *metrics.SlowLogger
}

// slowOpThreshold is the client's slow-op threshold. Zero counts every
// master RPC in octopus_client_slow_ops_total; the slow-op lines
// themselves go to a discard logger.
const slowOpThreshold time.Duration = 0

func newClientMetrics() *clientMetrics {
	reg := metrics.NewRegistry()
	return &clientMetrics{
		reg:     reg,
		rpcs:    reg.CounterVec("octopus_client_rpcs_total", "Master RPCs issued, by method.", "method"),
		rpcErrs: reg.CounterVec("octopus_client_rpc_errors_total", "Master RPCs that failed, by method.", "method"),
		rpcDur: reg.HistogramVec("octopus_client_rpc_duration_seconds",
			"Master RPC latency in seconds, by method.", metrics.DefLatencyBuckets, "method"),
		readBytes: reg.CounterVec("octopus_client_read_bytes_total",
			"Block bytes read, by storage tier and local/remote source.", "tier", "source"),
		writeBytes: reg.Counter("octopus_client_write_bytes_total", "Block bytes written into pipelines.", nil),
		failovers:  reg.Counter("octopus_client_read_failovers_total", "Reads that failed over to another replica.", nil),
		badReports: reg.Counter("octopus_client_bad_block_reports_total", "Corrupt or missing replicas reported to the master.", nil),
		retries:    reg.Counter("octopus_client_block_retries_total", "Blocks retried on a fresh pipeline.", nil),
		readaheadOpens: reg.Counter("octopus_client_readahead_opens_total",
			"Replica streams opened by background block readahead.", nil),
		writeStalls: reg.Counter("octopus_client_write_window_stalls_total",
			"Writes that blocked on a pipeline ack because the write window was full.", nil),
		slow: metrics.NewSlowLogger(slog.New(slog.DiscardHandler), slowOpThreshold,
			reg.Counter("octopus_client_slow_ops_total", "RPCs slower than the slow-op threshold.", nil)),
	}
}

// Metrics returns the client's metric registry for exposition.
func (fs *FileSystem) Metrics() *metrics.Registry { return fs.metrics.reg }

// DataPathStats is a point-in-time snapshot of the client's
// cumulative data-path counters, for tests and tooling that assert on
// failover and retry behaviour.
type DataPathStats struct {
	WriteBytes     float64 // bytes accepted into write pipelines (retries not re-counted)
	Failovers      float64 // reads that switched to another replica
	Retries        float64 // blocks retried on a fresh pipeline
	BadReports     float64 // corrupt/missing replicas reported to the master
	ReadaheadOpens float64 // replica streams opened by block readahead
	WriteStalls    float64 // writes that blocked on a full write window
}

// DataPathStats snapshots the data-path counters.
func (fs *FileSystem) DataPathStats() DataPathStats {
	return DataPathStats{
		WriteBytes:     fs.metrics.writeBytes.Value(),
		Failovers:      fs.metrics.failovers.Value(),
		Retries:        fs.metrics.retries.Value(),
		BadReports:     fs.metrics.badReports.Value(),
		ReadaheadOpens: fs.metrics.readaheadOpens.Value(),
		WriteStalls:    fs.metrics.writeStalls.Value(),
	}
}

// callReq invokes a master RPC under the given request ID: a batch of
// one.
func (fs *FileSystem) callReq(reqID, method string, args, reply any) error {
	calls := [1]rpc.Call{{Method: method, Args: args, Reply: reply}}
	fs.callsReq(reqID, calls[:])
	return calls[0].Err
}

// callsReq invokes master RPCs as one pipelined batch under the given
// request ID: the ID is stamped into each call's args header (so master
// logs and error strings carry it) and each call is counted, timed to
// its own reply, and slow-logged.
func (fs *FileSystem) callsReq(reqID string, calls []rpc.Call) {
	for _, call := range calls {
		if id, ok := call.Args.(rpc.Identified); ok && id.RequestID() == "" {
			id.SetRequestID(reqID)
		}
	}
	start := time.Now()
	fs.master.Batch(calls)
	for _, call := range calls {
		op := strings.TrimPrefix(call.Method, "Master.")
		d := call.Done.Sub(start)
		fs.metrics.rpcs.With(op).Inc()
		fs.metrics.rpcDur.With(op).Observe(d.Seconds())
		if call.Err != nil {
			fs.metrics.rpcErrs.With(op).Inc()
		}
		fs.metrics.slow.Observe(op, reqID, d)
	}
}
