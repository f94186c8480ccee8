package client

import (
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// This file holds the administrative/observability client surface:
// the cluster event journal, the telemetry history, placement
// explanations, and worker decommissioning. octopus-cli builds its
// events/top/explain/health/decommission subcommands on it.

// Events fetches one page of the cluster event journal. since is an
// exclusive sequence cursor (0 = oldest retained); polling with
// since = Page.Next is exactly-once over retained events. typ filters
// by event type ("" = all); limit caps the page (<= 0 = no cap). The
// second result carries the per-type lifetime counters.
func (fs *FileSystem) Events(since uint64, typ string, limit int) (events.Page, map[string]uint64, error) {
	var reply rpc.LogReply[events.Event]
	err := fs.call("Master.GetEvents", &rpc.LogArgs{Since: since, Key: typ, Limit: limit}, &reply)
	return reply.Page, reply.Counts, err
}

// Audit fetches one page of the master's namespace audit log: one
// entry per namespace RPC with its result and per-phase latency
// breakdown. Cursor semantics match Events; op filters by operation
// name ("" = all); the second result carries the per-op lifetime
// counters.
func (fs *FileSystem) Audit(since uint64, op string, limit int) (audit.Page, map[string]uint64, error) {
	var reply rpc.LogReply[audit.Entry]
	err := fs.call("Master.GetAudit", &rpc.LogArgs{Since: since, Key: op, Limit: limit}, &reply)
	return reply.Page, reply.Counts, err
}

// Transfers fetches one page of the master's transfer log, which holds
// the flight-recorder records every client and worker pushed. Cursor
// semantics match Audit; op filters by transfer kind ("" = all); the
// second result carries the per-kind lifetime counters.
func (fs *FileSystem) Transfers(since uint64, op string, limit int) (xfer.Page, map[string]uint64, error) {
	var reply rpc.LogReply[xfer.Record]
	err := fs.call("Master.GetTransfers", &rpc.LogArgs{Since: since, Key: op, Limit: limit}, &reply)
	return reply.Page, reply.Counts, err
}

// ClusterHistory fetches the master's sampled telemetry history,
// oldest first, always ending with a fresh live sample. last trims to
// the trailing n samples (<= 0 = all retained).
func (fs *FileSystem) ClusterHistory(last int) ([]rpc.ClusterSample, error) {
	var reply rpc.GetClusterHistoryReply
	err := fs.call("Master.GetClusterHistory", &rpc.GetClusterHistoryArgs{Last: last}, &reply)
	return reply.Samples, err
}

// Explain fetches the retained placement decisions for a file: for
// every replica of every block, the winning (worker, tier) with its
// four-objective score vector plus the rejected candidates' scores.
func (fs *FileSystem) Explain(path string) (rpc.ExplainReply, error) {
	var reply rpc.ExplainReply
	err := fs.call("Master.Explain", &rpc.ExplainArgs{Path: path}, &reply)
	return reply, err
}

// Decommission removes a worker from service: its replicas are
// re-replicated elsewhere and the worker may not re-register.
func (fs *FileSystem) Decommission(id core.WorkerID) error {
	return fs.call("Master.Decommission", &rpc.DecommissionArgs{ID: id}, &rpc.DecommissionReply{})
}

// Heat fetches the cluster access-heat report: the hottest files and
// blocks (decayed read/write counters) plus the tier-fitness report
// of misplaced blocks. top caps each list (<= 0 = server default);
// file restricts the block list to one file's blocks ("" = all);
// misplacedOnly omits the rankings and returns only the fitness
// report.
func (fs *FileSystem) Heat(top int, file string, misplacedOnly bool) (rpc.HeatReport, error) {
	var reply rpc.GetHeatReply
	err := fs.call("Master.GetHeat", &rpc.GetHeatArgs{
		Top: top, File: file, Misplaced: misplacedOnly,
	}, &reply)
	return reply.Report, err
}

// Mover returns the background tier mover's status: governors,
// in-flight moves, recently finished moves, and counters.
func (fs *FileSystem) Mover() (rpc.MoverStatus, error) {
	var reply rpc.GetMoverReply
	err := fs.call("Master.GetMover", &rpc.GetMoverArgs{}, &reply)
	return reply.Status, err
}

// ClusterReport returns the full worker-reports reply, including each
// worker's debug HTTP endpoint and the master's own, so admin tools
// can fan out health checks without extra configuration.
func (fs *FileSystem) ClusterReport() (rpc.WorkerReportsReply, error) {
	var reply rpc.WorkerReportsReply
	err := fs.call("Master.GetWorkerReports", &rpc.WorkerReportsArgs{}, &reply)
	return reply, err
}
