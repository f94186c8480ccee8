package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/httpjson"
	"repro/internal/ringlog"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// This file holds the administrative/observability client surface.
// The observability documents — the event journal, the audit and
// transfer logs, traces, the telemetry history, placement explanations,
// heat and the mover — are read from the master's HTTP endpoints, so
// the master must serve one (octopus-master -http). Worker reports and
// decommissioning are master RPCs. octopus-cli builds its
// events/audit/transfers/trace/top/heat/mover/explain/health/
// decommission subcommands on it.

// Events fetches one page of the cluster event journal. since is an
// exclusive sequence cursor (0 = oldest retained); polling with
// since = Page.Next is exactly-once over retained events. typ filters
// by event type ("" = all); limit caps the page (<= 0 = no cap). The
// second result carries the per-type lifetime counters.
func (fs *FileSystem) Events(since uint64, typ string, limit int) (events.Page, map[string]uint64, error) {
	return getLog[events.Event](fs, "/debug/events", "type", since, typ, limit)
}

// Audit fetches one page of the master's namespace audit log: one
// entry per namespace RPC with its result and per-phase latency
// breakdown. Cursor semantics match Events; op filters by operation
// name ("" = all); the second result carries the per-op lifetime
// counters.
func (fs *FileSystem) Audit(since uint64, op string, limit int) (audit.Page, map[string]uint64, error) {
	return getLog[audit.Entry](fs, "/debug/audit", "op", since, op, limit)
}

// Transfers fetches one page of the master's transfer log, which holds
// the flight-recorder records every client and worker pushed. Cursor
// semantics match Audit; op filters by transfer kind ("" = all); the
// second result carries the per-kind lifetime counters.
func (fs *FileSystem) Transfers(since uint64, op string, limit int) (xfer.Page, map[string]uint64, error) {
	return getLog[xfer.Record](fs, "/debug/transfers", "op", since, op, limit)
}

// getLog reads one page of the cursor endpoint path. limit is always
// sent, since the endpoint's own default caps the page.
func getLog[T any](fs *FileSystem, path, filter string, since uint64, key string, limit int) (ringlog.Page[T], map[string]uint64, error) {
	q := url.Values{"since": {strconv.FormatUint(since, 10)}, "limit": {strconv.Itoa(limit)}}
	if key != "" {
		q.Set(filter, key)
	}
	var doc httpjson.LogDoc[T]
	err := fs.getJSON(path, q, &doc)
	return doc.Page, doc.Counts, err
}

// Trace fetches the cluster-wide span timeline for one request ID from
// the master, which holds what the client, the master itself and every
// worker recorded for it. An unretained trace is core.ErrNotFound.
func (fs *FileSystem) Trace(reqID string) ([]trace.Span, error) {
	var spans []trace.Span
	err := fs.getJSON("/debug/traces/"+url.PathEscape(reqID), nil, &spans)
	return spans, err
}

// ClusterHistory fetches the master's sampled telemetry history,
// oldest first, always ending with a fresh live sample. last trims to
// the trailing n samples (<= 0 = all retained).
func (fs *FileSystem) ClusterHistory(last int) ([]rpc.ClusterSample, error) {
	var doc struct {
		Samples []rpc.ClusterSample `json:"samples"`
	}
	err := fs.getJSON("/debug/history", url.Values{"last": {strconv.Itoa(last)}}, &doc)
	return doc.Samples, err
}

// Explain fetches the retained placement decisions for a file: for
// every replica of every block, the winning (worker, tier) with its
// four-objective score vector plus the rejected candidates' scores.
func (fs *FileSystem) Explain(path string) (rpc.ExplainReply, error) {
	var doc rpc.ExplainReply
	err := fs.getJSON("/debug/explain", url.Values{"path": {path}}, &doc)
	return doc, err
}

// Heat fetches the cluster access-heat report: the hottest files and
// blocks (decayed read/write counters) plus the tier-fitness report
// of misplaced blocks. top caps each list (<= 0 = server default);
// file restricts the block list to one file's blocks ("" = all);
// misplacedOnly omits the rankings and returns only the fitness
// report.
func (fs *FileSystem) Heat(top int, file string, misplacedOnly bool) (rpc.HeatReport, error) {
	var doc rpc.HeatReport
	err := fs.getJSON("/debug/heat", url.Values{
		"top": {strconv.Itoa(top)}, "file": {file}, "misplaced": {strconv.FormatBool(misplacedOnly)},
	}, &doc)
	return doc, err
}

// Mover returns the background tier mover's status: governors,
// in-flight moves, recently finished moves, and counters.
func (fs *FileSystem) Mover() (rpc.MoverStatus, error) {
	var doc rpc.MoverStatus
	err := fs.getJSON("/debug/mover", nil, &doc)
	return doc, err
}

// Decommission removes a worker from service: its replicas are
// re-replicated elsewhere and the worker may not re-register.
func (fs *FileSystem) Decommission(id core.WorkerID) error {
	return fs.call("Master.Decommission", &rpc.DecommissionArgs{ID: id}, &rpc.DecommissionReply{})
}

// ClusterReport returns the full worker-reports reply, including each
// worker's debug HTTP endpoint and the master's own, so admin tools
// can fan out health checks without extra configuration.
func (fs *FileSystem) ClusterReport() (rpc.WorkerReportsReply, error) {
	var reply rpc.WorkerReportsReply
	err := fs.call("Master.GetWorkerReports", &rpc.WorkerReportsArgs{}, &reply)
	return reply, err
}

// httpClient reads the master's HTTP endpoints.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// getJSON reads the master's HTTP endpoint path with query q into v. A
// non-200 answer is an error carrying the body; a 404 wraps
// core.ErrNotFound. It first ships the client's queued telemetry, so a
// client always reads its own finished operations back.
func (fs *FileSystem) getJSON(path string, q url.Values, v any) error {
	fs.ship()
	addr, err := fs.masterHTTP()
	if err != nil {
		return err
	}
	u := "http://" + addr + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := httpClient.Get(u)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return fmt.Errorf("client: reading %s: %w", path, err)
	case resp.StatusCode == http.StatusNotFound:
		msg := strings.TrimSuffix(string(bytes.TrimSpace(body)), ": "+core.ErrNotFound.Error())
		return fmt.Errorf("client: %s: %s: %w", path, msg, core.ErrNotFound)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("client: %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return nil
}

// masterHTTP returns the master's HTTP address, which it advertises in
// its worker reports; the first answer that names one is kept.
func (fs *FileSystem) masterHTTP() (string, error) {
	fs.httpMu.Lock()
	defer fs.httpMu.Unlock()
	if fs.httpAddr == "" {
		rep, err := fs.ClusterReport()
		if err != nil {
			return "", err
		}
		if rep.MasterHTTP == "" {
			return "", errors.New("client: the master serves no HTTP endpoint; start octopus-master with -http")
		}
		fs.httpAddr = rep.MasterHTTP
	}
	return fs.httpAddr, nil
}
