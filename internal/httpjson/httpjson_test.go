package httpjson

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ringlog"
)

func TestWriteSetsContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, map[string]int{"a": 1})
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got["a"] != 1 {
		t.Errorf("body = %q err=%v", rec.Body.String(), err)
	}
}

func TestIntParam(t *testing.T) {
	r := httptest.NewRequest("GET", "/x?top=5", nil)
	w := httptest.NewRecorder()
	if v, ok := IntParam(w, r, "top", 10); !ok || v != 5 {
		t.Errorf("got %d ok=%v", v, ok)
	}
	if v, ok := IntParam(w, r, "missing", 10); !ok || v != 10 {
		t.Errorf("default: got %d ok=%v", v, ok)
	}
	r = httptest.NewRequest("GET", "/x?top=abc", nil)
	w = httptest.NewRecorder()
	if _, ok := IntParam(w, r, "top", 10); ok {
		t.Error("bad value should fail")
	}
	if w.Code != 400 {
		t.Errorf("status = %d, want 400", w.Code)
	}
}

func TestUint64Param(t *testing.T) {
	r := httptest.NewRequest("GET", "/x?since=0x10", nil)
	w := httptest.NewRecorder()
	if v, ok := Uint64Param(w, r, "since", 0); !ok || v != 16 {
		t.Errorf("got %d ok=%v", v, ok)
	}
	r = httptest.NewRequest("GET", "/x?since=-3", nil)
	w = httptest.NewRecorder()
	if _, ok := Uint64Param(w, r, "since", 0); ok || w.Code != 400 {
		t.Errorf("negative should 400, code=%d", w.Code)
	}
}

func TestBoolParam(t *testing.T) {
	for _, c := range []struct {
		url  string
		def  bool
		want bool
		ok   bool
	}{
		{"/x", false, false, true},
		{"/x?misplaced", false, true, true},
		{"/x?misplaced=true", false, true, true},
		{"/x?misplaced=0", true, false, true},
		{"/x?misplaced=banana", false, false, false},
	} {
		r := httptest.NewRequest("GET", c.url, nil)
		w := httptest.NewRecorder()
		v, ok := BoolParam(w, r, "misplaced", c.def)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("%s: got %v ok=%v, want %v ok=%v", c.url, v, ok, c.want, c.ok)
		}
		if !c.ok && w.Code != 400 {
			t.Errorf("%s: status = %d, want 400", c.url, w.Code)
		}
	}
}

type logRec struct {
	Seq  uint64 `json:"seq"`
	Time int64  `json:"time_ns"`
	Kind string `json:"kind"`
}

// TestLogHandler drives the one cursor handler: the full page, the
// named filter parameter, since and limit, the optional conns field,
// and the 400s.
func TestLogHandler(t *testing.T) {
	l := ringlog.New(8, func(r *logRec) (*uint64, *int64, string) { return &r.Seq, &r.Time, r.Kind })
	for _, kind := range []string{"a", "b", "a"} {
		l.Append(logRec{Kind: kind})
	}
	mux := http.NewServeMux()
	mux.Handle("/plain", LogHandler(l, "kind", nil))
	mux.Handle("/conns", LogHandler(l, "kind", func() any { return map[string]int{"dials": 7} }))
	get := func(url string) (int, LogDoc[logRec], map[string]json.RawMessage) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var doc LogDoc[logRec]
		var raw map[string]json.RawMessage
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("GET %s: %v in %s", url, err, rec.Body)
			}
			json.Unmarshal(rec.Body.Bytes(), &raw)
		}
		return rec.Code, doc, raw
	}

	code, doc, raw := get("/plain")
	if code != http.StatusOK || len(doc.Entries) != 3 || doc.Next != 3 || doc.Counts["a"] != 2 || doc.Counts["b"] != 1 {
		t.Fatalf("full page: code %d doc %+v", code, doc)
	}
	if _, ok := raw["conns"]; ok || len(raw) != 6 {
		t.Errorf("document keys = %v, want the five page fields and counts", raw)
	}
	if _, doc, _ = get("/plain?kind=b"); len(doc.Entries) != 1 || doc.Entries[0].Seq != 2 || doc.Next != 3 {
		t.Errorf("?kind=b: %+v", doc)
	}
	if _, doc, _ = get("/plain?since=1&limit=1"); len(doc.Entries) != 1 || doc.Entries[0].Seq != 2 || doc.Next != 2 {
		t.Errorf("?since=1&limit=1: %+v", doc)
	}
	if _, _, raw = get("/plain?since=3"); string(raw["entries"]) != "[]" {
		t.Errorf("empty page entries = %s, want []", raw["entries"])
	}
	if _, _, raw = get("/conns"); string(raw["conns"]) == "" {
		t.Errorf("conns hook not served: %v", raw)
	}
	for _, bad := range []string{"/plain?since=bogus", "/plain?limit=bogus"} {
		if code, _, _ := get(bad); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, code)
		}
	}
}
