package trace

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func span(traceID, spanID, parentID, op string, start, end int64) Span {
	return Span{TraceID: traceID, SpanID: spanID, ParentID: parentID,
		Service: "test", Op: op, Start: start, End: end}
}

// TestNewSpanID: IDs drawn concurrently are 16 lowercase hex and never
// repeat.
func TestNewSpanID(t *testing.T) {
	const goroutines, each = 4, 25000
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ids[g] = append(ids[g], NewSpanID())
			}
		}(g)
	}
	wg.Wait()
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool, goroutines*each)
	for _, list := range ids {
		for _, id := range list {
			if !hex16.MatchString(id) {
				t.Fatalf("span ID %q not 16-hex", id)
			}
			if seen[id] {
				t.Fatalf("duplicate span ID %q", id)
			}
			seen[id] = true
		}
	}
}

func TestTracerRecordsSpan(t *testing.T) {
	st := NewStore(0, 0, 1.0)
	tr := NewTracer("client", st)
	sp := tr.Start("trace1", "", "client.write")
	sp.Annotate("path", "/f").AnnotateInt("bytes", 42)
	sp.SetError(errors.New("boom"))
	child := tr.Start("trace1", sp.ID(), "client.rpc.Create")
	child.End()
	sp.End()
	sp.End() // idempotent

	got := st.Get("trace1")
	if len(got) != 2 {
		t.Fatalf("got %d spans, want 2", len(got))
	}
	root := got[0]
	if root.Op != "client.write" || root.Service != "client" {
		t.Errorf("root span = %+v", root)
	}
	if root.Attrs["path"] != "/f" || root.Attrs["bytes"] != "42" {
		t.Errorf("annotations = %v", root.Attrs)
	}
	if root.Error != "boom" {
		t.Errorf("error = %q", root.Error)
	}
	if got[1].ParentID != root.SpanID {
		t.Errorf("child parent = %q, want %q", got[1].ParentID, root.SpanID)
	}
	if root.End < root.Start {
		t.Errorf("span end %d before start %d", root.End, root.Start)
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("id", "", "op")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// All methods on a nil span must be no-ops.
	sp.Annotate("k", "v").AnnotateInt("n", 1)
	sp.SetError(errors.New("x"))
	sp.End()
	if sp.ID() != "" {
		t.Error("nil span has identity")
	}
	// A tracer with a store but empty trace ID also yields nil.
	if s := NewTracer("x", NewStore(0, 0, 1)).Start("", "", "op"); s != nil {
		t.Error("empty trace ID produced a span")
	}
	var st *Store
	st.Add(Span{TraceID: "x"})
	if st.Get("x") != nil || st.List() != nil {
		t.Error("nil store not inert")
	}
}

func TestStoreSlowRetentionSurvivesEviction(t *testing.T) {
	// threshold 1ms, sample 1.0 so fast traces are admitted but
	// evictable; slow traces must survive arbitrary churn.
	st := NewStore(4, time.Millisecond, 1.0)
	slowEnd := int64(2 * time.Millisecond)
	st.Add(span("slow1", "s1", "", "op", 0, slowEnd))
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("fast%d", i)
		st.Add(span(id, "f", "", "op", 0, 10)) // 10ns: fast
	}
	if st.Get("slow1") == nil {
		t.Fatal("slow trace evicted by fast churn")
	}
	if len(st.List()) > 4 {
		t.Fatalf("store holds %d traces, capacity 4", len(st.List()))
	}
	// The earliest fast traces must be gone.
	if st.Get("fast0") != nil {
		t.Error("oldest fast trace survived eviction")
	}
}

func TestStoreSampledOutFastTracesDropped(t *testing.T) {
	// sample < 0 (normalised to 0) keeps only slow traces.
	st := NewStore(8, time.Millisecond, -1)
	st.Add(span("fast", "f", "", "op", 0, 10))
	if st.Get("fast") != nil {
		t.Fatal("sampled-out fast trace retained")
	}
	st.Add(span("slow", "s", "", "op", 0, int64(time.Second)))
	if st.Get("slow") == nil {
		t.Fatal("slow trace dropped despite zero sample")
	}
	// A later slow span admits a previously rejected trace (tail
	// sampling) and marks it slow.
	st.Add(span("fast", "f2", "", "op2", 0, int64(time.Second)))
	if st.Get("fast") == nil {
		t.Fatal("late slow span did not admit trace")
	}
}

func TestStoreSamplingDeterministic(t *testing.T) {
	a := NewStore(0, -1, 0.5) // slow disabled: sampling decides alone
	b := NewStore(0, -1, 0.5)
	var kept, dropped int
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("%016x", i*2654435761)
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("stores disagree on %s", id)
		}
		if a.Sampled(id) {
			kept++
		} else {
			dropped++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("degenerate sampling: kept=%d dropped=%d", kept, dropped)
	}
}

func TestStoreZeroThresholdKeepsEverything(t *testing.T) {
	// Threshold 0 mirrors SlowLogger: every op is slow, so even with
	// a negative sample every trace is retained (bounded FIFO).
	st := NewStore(4, 0, -1)
	for i := 0; i < 10; i++ {
		st.Add(span(fmt.Sprintf("t%d", i), "s", "", "op", 0, 1))
	}
	if len(st.List()) != 4 {
		t.Fatalf("len = %d, want capacity 4", len(st.List()))
	}
	if st.Get("t9") == nil || st.Get("t0") != nil {
		t.Error("all-slow eviction should drop oldest overall")
	}
}

func TestStorePerTraceSpanCap(t *testing.T) {
	st := NewStore(0, 0, 1)
	for i := 0; i < maxSpansPerTrace+25; i++ {
		st.Add(span("big", fmt.Sprintf("s%d", i), "", "op", int64(i), int64(i+1)))
	}
	if got := len(st.Get("big")); got != maxSpansPerTrace {
		t.Fatalf("stored %d spans, want cap %d", got, maxSpansPerTrace)
	}
	list := st.List()
	if len(list) != 1 || list[0].Dropped != 25 {
		t.Fatalf("summary = %+v, want 25 dropped", list)
	}
}

func TestStoreList(t *testing.T) {
	st := NewStore(0, time.Millisecond, 1)
	st.Add(span("t1", "a", "", "client.write", 100, 200))
	st.Add(span("t1", "b", "a", "master.create", 110, 150))
	st.Add(span("t2", "c", "", "client.open", 300, int64(time.Second)))
	list := st.List()
	if len(list) != 2 {
		t.Fatalf("list len = %d", len(list))
	}
	// Newest first.
	if list[0].TraceID != "t2" || !list[0].Slow {
		t.Errorf("list[0] = %+v, want slow t2", list[0])
	}
	if list[1].TraceID != "t1" || list[1].Root != "client.write" ||
		list[1].Spans != 2 || list[1].Duration != 100 {
		t.Errorf("list[1] = %+v", list[1])
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a := []Span{span("t", "s1", "", "root", 0, 100)}
	b := []Span{span("t", "s1", "", "root", 0, 100), span("t", "s2", "s1", "child", 10, 20)}
	merged := Merge(a, b)
	if len(merged) != 2 {
		t.Fatalf("merged %d spans, want 2", len(merged))
	}
	if merged[0].SpanID != "s1" || merged[1].SpanID != "s2" {
		t.Errorf("merge order: %+v", merged)
	}
}

func TestRenderTree(t *testing.T) {
	root := span("t", "r", "", "client.write", 0, int64(3*time.Millisecond))
	rpcSpan := span("t", "m", "r", "master.create", int64(time.Millisecond), int64(2*time.Millisecond))
	wk := span("t", "w", "m", "worker.write", int64(time.Millisecond), int64(2*time.Millisecond))
	wk.Attrs = map[string]string{"tier": "ssd", "bytes": "4096"}
	orphan := span("t", "o", "missing-parent", "worker.read", int64(2*time.Millisecond), int64(3*time.Millisecond))
	orphan.Error = "gone"

	var b strings.Builder
	if err := RenderTree(&b, []Span{wk, orphan, root, rpcSpan}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "client.write 3ms (test)") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  master.create") {
		t.Errorf("child not indented: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    worker.write") ||
		!strings.Contains(lines[2], "bytes=4096 tier=ssd") {
		t.Errorf("grandchild line = %q", lines[2])
	}
	// Orphan renders as a root with its error.
	if strings.HasPrefix(lines[3], " ") || !strings.Contains(lines[3], "[ERROR: gone]") {
		t.Errorf("orphan line = %q", lines[3])
	}

	var empty strings.Builder
	if err := RenderTree(&empty, nil); err != nil || !strings.Contains(empty.String(), "no spans") {
		t.Errorf("empty render = %q, %v", empty.String(), err)
	}
}

// TestStoreBoundedUnderChurn hammers a store from many goroutines
// (run under -race in CI) and asserts the trace count stays bounded.
func TestStoreBoundedUnderChurn(t *testing.T) {
	st := NewStore(64, time.Millisecond, 0.5)
	tr := NewTracer("churn", st)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("%08x%08x", g, i)
				sp := tr.Start(id, "", "op")
				sp.AnnotateInt("i", int64(i))
				sp.End()
				st.Get(id)
				if i%100 == 0 {
					st.List()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(st.List()) > 64 {
		t.Fatalf("store grew to %d traces, capacity 64", len(st.List()))
	}
}

// BenchmarkStoreAddAtCapacity adds new traces to a full store in which
// every retained trace is slow — the state of every store built with
// threshold 0, as integration.StartCluster's are: each add evicts the
// oldest trace, and must not cost a walk or a copy of the whole order.
func BenchmarkStoreAddAtCapacity(b *testing.B) {
	st := NewStore(0, 0, 1.0)
	ids := make([]string, DefaultCapacity+b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("trace%d", i)
	}
	for _, id := range ids[:DefaultCapacity] {
		st.Add(span(id, "s", "", "op", 0, 10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, id := range ids[DefaultCapacity:] {
		st.Add(span(id, "s", "", "op", 0, 10))
	}
}
