package worker

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/rpc"
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
// JSON with ?format=json), /healthz, and the /debug/events and
// /debug/transfers cursor logs. The server stops when the worker
// closes.
func (w *Worker) ServeHTTP(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(rw http.ResponseWriter, r *http.Request) {
		httpjson.Write(rw, w.status())
	})
	bound, err := httpjson.Serve(addr, mux, w.metrics.reg, w.journal.Log(), w.xfers,
		func() any { return rpc.DataConnStats() }, w.cfg.Pprof, w.done, &w.wg)
	if err != nil {
		return "", fmt.Errorf("worker: %w", err)
	}
	// Record the bound address so subsequent heartbeats advertise it to
	// the master (Register usually runs before ServeHTTP).
	w.httpMu.Lock()
	w.httpAddr = bound
	w.httpMu.Unlock()
	return bound, nil
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
