// Package httpjson bundles the JSON plumbing shared by every debug
// endpoint (/debug/events, /debug/history, /debug/traces,
// /debug/heat, /status): one Write helper that always sets the
// Content-Type header, query-parameter parsers with a consistent
// 400-on-bad-param contract, and the cursor handler every ringlog
// endpoint is served by.
package httpjson

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/ringlog"
)

// Write encodes v as indented JSON with the Content-Type header set.
func Write(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// IntParam parses the named integer query parameter, returning def
// when absent. A malformed value writes a 400 response and returns
// ok=false; callers must stop handling the request.
func IntParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		badParam(w, name, s)
		return 0, false
	}
	return v, true
}

// Uint64Param parses the named uint64 query parameter (decimal or
// 0x-prefixed hex), returning def when absent. Malformed values write
// a 400 and return ok=false.
func Uint64Param(w http.ResponseWriter, r *http.Request, name string, def uint64) (uint64, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		badParam(w, name, s)
		return 0, false
	}
	return v, true
}

// BoolParam parses the named boolean query parameter. A bare
// occurrence ("?misplaced") counts as true; absence returns def;
// malformed values write a 400 and return ok=false.
func BoolParam(w http.ResponseWriter, r *http.Request, name string, def bool) (bool, bool) {
	q := r.URL.Query()
	if !q.Has(name) {
		return def, true
	}
	s := q.Get(name)
	if s == "" {
		return true, true
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		badParam(w, name, s)
		return false, false
	}
	return v, true
}

func badParam(w http.ResponseWriter, name, val string) {
	http.Error(w, "bad "+name+" parameter: "+strconv.Quote(val), http.StatusBadRequest)
}

// LogDoc is the document every cursor endpoint serves (and
// `octopus-cli events|audit -json` prints): one page, the per-key
// lifetime counts, and, when the daemon supplies one, its
// connection-lifecycle snapshot.
type LogDoc[T any] struct {
	ringlog.Page[T]
	Counts map[string]uint64 `json:"counts"`
	Conns  any               `json:"conns,omitempty"`
}

// LogHandler serves l as a cursor endpoint. Query parameters:
// ?since=<seq> resumes a cursor (default 0 = from the oldest retained
// record), ?<filter>=<key> restricts the page to one key (the event
// type, the op), and ?limit=<n> caps the page size (default 1000). The
// document carries the next cursor and the eviction/drop counters, so
// pollers can page through churn without re-delivery or silent gaps.
// conns, when non-nil, is called per request to attach the daemon's
// connection-lifecycle counters.
func LogHandler[T any](l *ringlog.Log[T], filter string, conns func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		since, ok := Uint64Param(w, r, "since", 0)
		if !ok {
			return
		}
		limit, ok := IntParam(w, r, "limit", 1000)
		if !ok {
			return
		}
		doc := LogDoc[T]{Page: l.Since(since, r.URL.Query().Get(filter), limit), Counts: l.Counts()}
		if conns != nil {
			doc.Conns = conns()
		}
		Write(w, doc)
	}
}
