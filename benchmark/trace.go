package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/xfer"
)

// callKind names a call into the client library; the per-call metrics
// are client.<kind>.*. write and read are the whole Write loop and the
// whole Read-to-EOF loop of one file, so a file's block transfers nest
// inside one span.
type callKind int

const (
	callCreate callKind = iota
	callWrite
	callClose
	callOpen
	callRead
	callStat
	callList
	callRename
	callDelete
	numCallKinds
)

var callNames = [numCallKinds]string{"create", "write", "close", "open", "read", "stat", "list", "rename", "delete"}

// auditOps lists, per call kind, the master operations one such call
// makes that the audit log records (Create also stats the new file).
// The join adjusts two: write makes addBlock + commitBlock per block,
// and only a Writer's close makes complete.
var auditOps = [numCallKinds][]string{
	callCreate: {"create", "getFileInfo"},
	callClose:  {"complete"},
	callOpen:   {"getBlockLocations"},
	callStat:   {"getFileInfo"},
	callList:   {"list"},
	callRename: {"rename"},
	callDelete: {"delete"},
}

// span is one recorded interval. Spans of one iteration share Op (the
// iteration's root span ID); Parent is 0 for the root. Times are Unix
// nanoseconds so benchmark spans and the daemons' records line up.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Path   string `json:"path,omitempty"`
	Req    string `json:"req,omitempty"`

	kind   callKind
	blocks int
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps one client's spans in memory. It is owned by that
// client's goroutine during a pass.
type recorder struct {
	client int
	spans  []span
	root   int // index of the current iteration's root span
	nextID int64
}

func (r *recorder) newID() int64 {
	r.nextID++
	return int64(r.client+1)<<40 | r.nextID
}

func (r *recorder) beginIteration() {
	id := r.newID()
	r.root = len(r.spans)
	r.spans = append(r.spans, span{ID: id, Op: id, Name: "iteration", Start: time.Now().UnixNano(), kind: -1})
}

func (r *recorder) endIteration() { r.spans[r.root].End = time.Now().UnixNano() }

func (r *recorder) begin(kind callKind, path string) int {
	root := &r.spans[r.root]
	r.spans = append(r.spans, span{
		ID: r.newID(), Parent: root.ID, Op: root.ID,
		Name: "client." + callNames[kind], Path: path, kind: kind,
		Start: time.Now().UnixNano(),
	})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = time.Now().UnixNano() }

// tag stamps the iteration with the request ID of its Writer or
// Reader (every workload opens at most one per iteration) and the
// number of blocks that file has, which is how many transfer records
// the join should find.
func (r *recorder) tag(req string, blocks int) {
	root := &r.spans[r.root]
	root.Req, root.blocks = req, blocks
}

// poller drains the bounded rings — the master's audit log, every
// worker's and every client's flight recorder — while a traced pass
// runs, so that no record is evicted before it is joined, and samples
// the heap. It reads the daemons' public accessors in-process and
// issues no RPC, so it adds nothing to the counts it collects.
type poller struct {
	e        *env
	stop     chan struct{}
	done     chan struct{}
	audit    []audit.Entry
	client   []xfer.Record
	worker   []xfer.Record
	missed   uint64
	peakHeap uint64
	heap     []metrics.Sample

	auditCur  uint64
	clientCur []uint64
	workerCur []uint64
}

func startPoller(e *env) *poller {
	p := &poller{
		e: e, stop: make(chan struct{}), done: make(chan struct{}),
		clientCur: make([]uint64, len(e.clients)),
		workerCur: make([]uint64, len(e.cluster.Workers)),
		heap:      []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	// Skip everything recorded before tracing started.
	p.drain(false)
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.drain(true)
				return
			case <-tick.C:
				p.drain(true)
			}
		}
	}()
	return p
}

func (p *poller) drain(keep bool) {
	ap := p.e.cluster.Master.AuditLog().Since(p.auditCur, "", 0)
	p.auditCur = ap.Next
	if keep {
		p.audit = append(p.audit, ap.Entries...)
		p.missed += ap.Missed
	}
	for i, c := range p.e.clients {
		page := c.fs.TransferLog().Since(p.clientCur[i], "", 0)
		p.clientCur[i] = page.Next
		if keep {
			p.client = append(p.client, page.Entries...)
			p.missed += page.Missed
		}
	}
	for i, w := range p.e.cluster.Workers {
		page := w.TransferLog().Since(p.workerCur[i], "", 0)
		p.workerCur[i] = page.Next
		if keep {
			p.worker = append(p.worker, page.Entries...)
			p.missed += page.Missed
		}
	}
	metrics.Read(p.heap)
	if p.heap[0].Value.Kind() == metrics.KindUint64 {
		p.peakHeap = max(p.peakHeap, p.heap[0].Value.Uint64())
	}
}

func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// joined is the outcome of joining the benchmark's spans with the
// daemons' records: the full span tree and how many iterations found
// every record they should have.
type joined struct {
	spans      []span
	iterations int
	complete   int
}

// join synthesises child spans under the client call spans from the
// audit and transfer records the poller collected:
//
//	client.<call>
//	  master.<op>            audit entry, by (op, path) within the call
//	    namespace.lock_wait  } durations from the entry, laid out back
//	    namespace.apply      } to back from the handler's start
//	    namespace.editlog    }
//	  rpc.write | rpc.read   client flight record, by request ID
//	    rpc.dial, rpc.header
//	    worker.write | worker.read   first hop's record, by request ID + block
//	      worker.net, worker.disk.<TIER>, worker.throttle,
//	      worker.forward, worker.downstream
//
// Only the first pipeline hop is nested: later hops overlap it in
// time, and a budget must not count one interval twice. Their cost is
// what worker.downstream (the first hop's ack wait) and the
// rpc.direct_block_write probes measure.
func join(recs []*recorder, p *poller, workerAddr map[string]string) joined {
	type key struct{ op, path string }
	auditBy := make(map[key][]int)
	for i, e := range p.audit {
		k := key{e.Op, e.Path}
		auditBy[k] = append(auditBy[k], i)
	}
	auditUsed := make([]bool, len(p.audit))
	clientBy := make(map[string][]int)
	for i, r := range p.client {
		clientBy[r.TraceID] = append(clientBy[r.TraceID], i)
	}
	type hopKey struct {
		trace  string
		block  uint64
		source string
	}
	workerBy := make(map[hopKey]int)
	for i, r := range p.worker {
		workerBy[hopKey{r.TraceID, r.Block, r.Source}] = i
	}

	var out joined
	var nextID int64
	add := func(parent *span, name string, start, end int64) span {
		nextID++
		// Clip to the parent: a child never claims time outside it.
		start, end = max(start, parent.Start), min(end, parent.End)
		return span{ID: int64(1)<<50 | nextID, Parent: parent.ID, Op: parent.Op, Name: name, Start: start, End: max(start, end)}
	}
	// leaves lays durations back to back from the parent's start.
	leaves := func(parent *span, names []string, durs []int64) []span {
		var ss []span
		at := parent.Start
		for i, d := range durs {
			if d <= 0 {
				continue
			}
			ss = append(ss, add(parent, names[i], at, at+d))
			at += d
		}
		return ss
	}

	for _, rec := range recs {
		var root *span
		want, got := 0, 0
		writing := false // the iteration's Close is a Writer's
		flush := func() {
			if root != nil {
				out.iterations++
				if got == want {
					out.complete++
				}
			}
		}
		for i := range rec.spans {
			s := &rec.spans[i]
			if s.Parent == 0 {
				flush()
				root, want, got, writing = s, 0, 0, false
				out.spans = append(out.spans, *s)
				continue
			}
			out.spans = append(out.spans, *s)
			// Master operations, matched by what they were done to and when.
			ops := auditOps[s.kind]
			switch s.kind {
			case callCreate:
				writing = true
			case callWrite:
				ops = nil
				for b := 0; b < root.blocks; b++ {
					ops = append(ops, "addBlock", "commitBlock")
				}
			case callClose:
				if !writing {
					ops = nil // a Reader's Close seals nothing
				}
			}
			for _, op := range ops {
				want++
				for _, ai := range auditBy[key{op, s.Path}] {
					e := &p.audit[ai]
					if auditUsed[ai] || e.Time < s.Start || e.Time > s.End {
						continue
					}
					auditUsed[ai] = true
					got++
					ms := add(s, "master."+op, e.Time-e.TotalNs, e.Time)
					out.spans = append(out.spans, ms)
					out.spans = append(out.spans, leaves(&ms,
						[]string{"namespace.lock_wait", "namespace.apply", "namespace.editlog"},
						[]int64{e.LockWaitNs, e.ApplyNs, e.AppendNs + e.FsyncNs})...)
					break
				}
			}
			// Block transfers, matched by the Writer's/Reader's request ID.
			if (s.kind != callWrite && s.kind != callRead) || root.Req == "" {
				continue
			}
			want += 2 * root.blocks
			for _, ci := range clientBy[root.Req] {
				r := &p.client[ci]
				// By its start: a file's last block is only recorded when
				// the Reader is closed, after the read loop's span ended.
				if start := r.Time - r.TotalNs; start < s.Start || start > s.End {
					continue
				}
				got++
				rs := add(s, "rpc."+r.Op, r.Time-r.TotalNs, r.Time)
				out.spans = append(out.spans, rs)
				out.spans = append(out.spans, leaves(&rs,
					[]string{"rpc.dial", "rpc.header"}, []int64{r.DialNs, r.HeaderEncodeNs})...)
				wi, ok := workerBy[hopKey{r.TraceID, r.Block, workerAddr[r.Peer]}]
				if !ok {
					continue
				}
				got++
				wr := &p.worker[wi]
				ws := add(&rs, "worker."+wr.Op, wr.Time-wr.TotalNs, wr.Time)
				out.spans = append(out.spans, ws)
				out.spans = append(out.spans, leaves(&ws,
					[]string{"worker.net", "worker.disk." + wr.Tier, "worker.throttle", "worker.forward", "worker.downstream"},
					[]int64{wr.HeaderDecodeNs + wr.NetNs, wr.DiskNs, wr.ThrottleWaitNs, wr.DialNs + wr.HeaderEncodeNs + wr.ForwardNs, wr.AckWaitNs})...)
			}
		}
		flush()
	}
	return out
}

// budgetCategory maps a span name to the budget line its self time
// belongs to.
func budgetCategory(name string, kind callKind) string {
	switch {
	case name == "iteration":
		return "generator"
	case strings.HasPrefix(name, "client."):
		if kind == callWrite || kind == callRead {
			return "client"
		}
		// What is left of a metadata call once the master's handler is
		// subtracted is socket, net/rpc and gob on both sides.
		return "master_rpc"
	case strings.HasPrefix(name, "master."):
		return "master"
	case strings.HasPrefix(name, "namespace."):
		return "namespace"
	case strings.HasPrefix(name, "worker.disk."):
		return "disk." + strings.TrimPrefix(name, "worker.disk.")
	case name == "worker.throttle":
		return "throttle"
	case name == "worker.downstream":
		return "pipeline"
	case name == "worker.write" || name == "worker.read":
		return "worker"
	}
	return "net" // rpc.*, worker.net, worker.forward
}

// budget attributes every iteration's wall time to categories by self
// time: a span's duration minus the part its children cover. Siblings
// are made disjoint in start order first, so the shares sum to exactly
// the iterations' wall time and never above it.
func budget(spans []span) (shares map[string]float64, total int64) {
	children := make(map[int64][]int)
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	self := make(map[string]int64)
	var walk func(i int, start, end int64)
	walk = func(i int, start, end int64) {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, at := int64(0), start
		for _, k := range kids {
			ks, ke := max(spans[k].Start, at), min(spans[k].End, end)
			if ke <= ks {
				continue
			}
			walk(k, ks, ke)
			covered += ke - ks
			at = ke
		}
		self[budgetCategory(s.Name, s.kind)] += (end - start) - covered
	}
	for i := range spans {
		if spans[i].Parent == 0 {
			walk(i, spans[i].Start, spans[i].End)
			total += spans[i].dur()
		}
	}
	shares = make(map[string]float64, len(self))
	for c, ns := range self {
		if total > 0 {
			shares[c] = float64(ns) / float64(total)
		}
	}
	return shares, total
}
