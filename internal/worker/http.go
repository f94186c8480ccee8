package worker

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// WorkerStatus is the JSON document served at /status.
type WorkerStatus struct {
	ID       core.WorkerID `json:"id"`
	Node     string        `json:"node"`
	Rack     string        `json:"rack"`
	DataAddr string        `json:"dataAddr"`
	Media    []MediaStatus `json:"media"`
}

// MediaStatus summarises one media for /status.
type MediaStatus struct {
	ID          core.StorageID `json:"id"`
	Tier        string         `json:"tier"`
	CapacityMB  int64          `json:"capacityMB"`
	UsedMB      int64          `json:"usedMB"`
	Connections int            `json:"connections"`
	WriteMBps   float64        `json:"writeMBps"`
	ReadMBps    float64        `json:"readMBps"`
}

// ServeHTTP starts an HTTP status server on addr and returns its bound
// address. Endpoints: /status (JSON), /metrics (Prometheus text, or
// JSON with ?format=json), and /healthz. The server stops when the
// worker closes.
func (w *Worker) ServeHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("worker: http listen on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(rw http.ResponseWriter, r *http.Request) {
		httpjson.Write(rw, w.status())
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			rw.Header().Set("Content-Type", "application/json")
			w.metrics.reg.WriteJSON(rw)
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.metrics.reg.WritePrometheus(rw)
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	trace.RegisterDebugHandlers(mux, w.traces)
	mux.Handle("/debug/events", httpjson.LogHandler(w.journal.Log(), "type", nil))
	mux.Handle("/debug/transfers", httpjson.LogHandler(w.xfers, "op", func() any { return rpc.DataConnStats() }))
	if w.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	// Record the bound address so subsequent heartbeats advertise it to
	// the master (Register usually runs before ServeHTTP).
	w.httpMu.Lock()
	w.httpAddr = ln.Addr().String()
	w.httpMu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		srv.Serve(ln)
	}()
	go func() {
		<-w.done
		srv.Close()
	}()
	return ln.Addr().String(), nil
}

func (w *Worker) status() WorkerStatus {
	st := WorkerStatus{
		ID: w.id, Node: w.cfg.Node, Rack: w.cfg.Rack,
		DataAddr: w.DataAddr(),
	}
	for id, m := range w.media {
		st.Media = append(st.Media, MediaStatus{
			ID:          id,
			Tier:        m.Tier().String(),
			CapacityMB:  m.Capacity() >> 20,
			UsedMB:      m.Used() >> 20,
			Connections: m.Connections(),
			WriteMBps:   m.WriteThruMBps(),
			ReadMBps:    m.ReadThruMBps(),
		})
	}
	sort.Slice(st.Media, func(i, j int) bool { return st.Media[i].ID < st.Media[j].ID })
	return st
}
