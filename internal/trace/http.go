package trace

import (
	"net/http"
	"strings"

	"repro/internal/httpjson"
)

// RegisterDebugHandlers mounts a trace store on mux at /debug/traces
// (JSON list of retained traces, newest first) and
// /debug/traces/<traceID> (the trace's spans as JSON, a span stored
// twice served once).
func RegisterDebugHandlers(mux *http.ServeMux, store *Store) {
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		list := store.List()
		if list == nil {
			list = []Summary{}
		}
		httpjson.Write(w, list)
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
		if id == "" || strings.Contains(id, "/") {
			http.NotFound(w, r)
			return
		}
		spans := Merge(store.Get(id))
		if len(spans) == 0 {
			http.Error(w, "trace not retained: "+id, http.StatusNotFound)
			return
		}
		httpjson.Write(w, spans)
	})
}
