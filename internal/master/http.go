package master

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// StatusReport is the JSON document served at /status — the moral
// equivalent of the HDFS NameNode web UI's overview page, extended
// with per-tier statistics (paper Table 1's getStorageTierReports).
type StatusReport struct {
	Address     string            `json:"address"`
	Uptime      string            `json:"uptime"`
	Directories int               `json:"directories"`
	Files       int               `json:"files"`
	Blocks      int               `json:"blocks"`
	Workers     []StatusWorker    `json:"workers"`
	Tiers       []StatusTier      `json:"tiers"`
	Policies    map[string]string `json:"policies"`
}

// StatusWorker summarises one live worker for /status.
type StatusWorker struct {
	ID       core.WorkerID `json:"id"`
	Node     string        `json:"node"`
	Rack     string        `json:"rack"`
	Media    int           `json:"media"`
	LastSeen string        `json:"lastSeen"`
}

// StatusTier summarises one storage tier for /status.
type StatusTier struct {
	Tier             string  `json:"tier"`
	Media            int     `json:"media"`
	Workers          int     `json:"workers"`
	CapacityMB       int64   `json:"capacityMB"`
	RemainingMB      int64   `json:"remainingMB"`
	RemainingPercent float64 `json:"remainingPercent"`
	WriteMBps        float64 `json:"writeMBps"`
	ReadMBps         float64 `json:"readMBps"`
}

// ServeHTTP starts an HTTP status server on addr and returns its bound
// address. Endpoints: /status (JSON), /metrics (Prometheus text, or
// JSON with ?format=json), /healthz, the /debug/* observability
// documents (the only way they are read), and / (plain-text overview).
// The server stops when the master closes.
func (m *Master) ServeHTTP(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, m.statusReport())
	})
	// /debug/traces lists the retained traces, newest first, and
	// /debug/traces/<id> serves one cluster-wide timeline: the store
	// holds every span clients pushed and the span of every traced
	// record workers shipped, and a span stored twice is served once.
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		list := m.traces.List()
		if list == nil {
			list = []trace.Summary{}
		}
		httpjson.Write(w, list)
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
		if id == "" || strings.Contains(id, "/") {
			http.NotFound(w, r)
			return
		}
		spans := trace.Merge(m.traces.Get(id))
		if len(spans) == 0 {
			http.Error(w, "trace not retained: "+id, http.StatusNotFound)
			return
		}
		httpjson.Write(w, spans)
	})
	// The cursor logs: /debug/events serves the cluster event journal
	// (?type filters), /debug/audit the namespace audit log and
	// /debug/transfers (mounted by httpjson.Serve) the transfer records
	// clients and workers pushed (?op filters).
	mux.Handle("/debug/audit", httpjson.LogHandler(m.audit, "op", nil))
	// /debug/history serves the sampled telemetry ring.
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		last, ok := httpjson.IntParam(w, r, "last", 0)
		if !ok {
			return
		}
		httpjson.Write(w, struct {
			Samples []rpc.ClusterSample `json:"samples"`
		}{m.clusterHistory(last)})
	})
	// /debug/heat serves the cluster heat map and tier-fitness report;
	// ?top= caps the lists, ?file= restricts to one file's blocks,
	// ?misplaced omits the rankings and returns only the fitness report.
	mux.HandleFunc("/debug/heat", func(w http.ResponseWriter, r *http.Request) {
		top, ok := httpjson.IntParam(w, r, "top", 0)
		if !ok {
			return
		}
		misplaced, ok := httpjson.BoolParam(w, r, "misplaced", false)
		if !ok {
			return
		}
		httpjson.Write(w, m.heatReport(top, r.URL.Query().Get("file"), misplaced))
	})
	// /debug/mover serves the tier mover's status: governors,
	// in-flight moves, the recent-move ring, and counters. ?limit=
	// trims the recent-move ring (newest first).
	mux.HandleFunc("/debug/mover", func(w http.ResponseWriter, r *http.Request) {
		limit, ok := httpjson.IntParam(w, r, "limit", 0)
		if !ok {
			return
		}
		st := m.moverStatus()
		if limit > 0 && len(st.Recent) > limit {
			st.Recent = st.Recent[:limit]
		}
		httpjson.Write(w, st)
	})
	// /debug/explain?path= serves why each replica of a file's blocks
	// landed where it did: 400 without a path, 404 for an unknown one.
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Query().Get("path")
		if path == "" {
			http.Error(w, "missing path parameter", http.StatusBadRequest)
			return
		}
		doc, err := m.explain(path)
		switch {
		case errors.Is(err, core.ErrNotFound):
			http.Error(w, err.Error(), http.StatusNotFound)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			httpjson.Write(w, doc)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		st := m.statusReport()
		fmt.Fprintf(w, "OctopusFS master %s — up %s\n\n", st.Address, st.Uptime)
		fmt.Fprintf(w, "namespace: %d directories, %d files, %d blocks\n\n",
			st.Directories, st.Files, st.Blocks)
		fmt.Fprintf(w, "%-10s%8s%10s%14s%14s%10s\n",
			"tier", "media", "workers", "capacity MB", "remaining MB", "rem %")
		for _, t := range st.Tiers {
			fmt.Fprintf(w, "%-10s%8d%10d%14d%14d%9.1f%%\n",
				t.Tier, t.Media, t.Workers, t.CapacityMB, t.RemainingMB, t.RemainingPercent)
		}
		fmt.Fprintf(w, "\n%d live workers:\n", len(st.Workers))
		for _, wk := range st.Workers {
			fmt.Fprintf(w, "  %-12s rack=%-10s media=%d last-seen=%s\n",
				wk.ID, wk.Rack, wk.Media, wk.LastSeen)
		}
	})
	bound, err := httpjson.Serve(addr, mux, m.metrics.reg, m.journal.Log(), m.xfers,
		func() any { return rpc.DataConnStats() }, m.cfg.Pprof, m.done, &m.wg)
	if err != nil {
		return "", fmt.Errorf("master: %w", err)
	}
	m.mu.Lock()
	m.httpAddr = bound
	m.mu.Unlock()
	return bound, nil
}

// HTTPAddr returns the bound debug HTTP endpoint ("" until ServeHTTP).
func (m *Master) HTTPAddr() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.httpAddr
}

// statusReport assembles the current /status document.
func (m *Master) statusReport() StatusReport {
	dirs, files, blocks := m.ns.Stats()
	st := StatusReport{
		Address:     m.Addr(),
		Uptime:      time.Since(m.started).Round(time.Second).String(),
		Directories: dirs,
		Files:       files,
		Blocks:      blocks,
		Policies: map[string]string{
			"placement": m.cfg.Placement.Name(),
			"retrieval": m.cfg.Retrieval.Name(),
		},
	}
	m.mu.RLock()
	for _, w := range m.workers {
		st.Workers = append(st.Workers, StatusWorker{
			ID: w.id, Node: w.node, Rack: w.rack,
			Media:    len(w.media),
			LastSeen: time.Since(w.lastSeen).Round(time.Millisecond).String() + " ago",
		})
	}
	m.mu.RUnlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, r := range m.tierReports() {
		st.Tiers = append(st.Tiers, StatusTier{
			Tier:             r.Tier.String(),
			Media:            r.NumMedia,
			Workers:          r.NumWorkers,
			CapacityMB:       r.Capacity >> 20,
			RemainingMB:      r.Remaining >> 20,
			RemainingPercent: r.PercentRemaining(),
			WriteMBps:        r.WriteThruMBps,
			ReadMBps:         r.ReadThruMBps,
		})
	}
	return st
}
