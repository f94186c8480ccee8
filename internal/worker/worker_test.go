package worker

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/master"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/xfer"
)

// testWorker boots a master and one worker with a memory and an HDD
// media, returning both.
func testWorker(t *testing.T) (*master.Master, *Worker) {
	t.Helper()
	m, err := master.New(master.Config{
		ListenAddr:      "127.0.0.1:0",
		BlockSize:       1 << 20,
		MonitorInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	w, err := New(Config{
		ID:         "wtest",
		Node:       "wtest",
		Rack:       "/r1",
		MasterAddr: m.Addr(),
		DataAddr:   "127.0.0.1:0",
		Media: []storage.MediaConfig{
			{ID: "wtest:mem0", Tier: core.TierMemory, Capacity: 64 << 20},
			{ID: "wtest:hdd0", Tier: core.TierHDD, Capacity: 64 << 20, Dir: t.TempDir()},
		},
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return m, w
}

// hddBlock allocates a one-block file on the worker's HDD through the
// test master. A block the master never allocated is ordered deleted at
// the first listing that shows it, which can come one RPC after a write
// or a copy; this one the master knows.
func hddBlock(t *testing.T, m *master.Master, path string, size int64) core.Block {
	t.Helper()
	c := rpc.NewMasterClient(m.Addr())
	defer c.Close()
	if err := c.Call("Master.Create", &rpc.CreateArgs{
		Path: path, RepVector: core.NewReplicationVector(0, 0, 1, 0, 0),
	}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	var reply rpc.AddBlockReply
	if err := c.Call("Master.AddBlock", &rpc.AddBlockArgs{Path: path}, &reply); err != nil {
		t.Fatal(err)
	}
	if locs := reply.Located.Locations; len(locs) != 1 || locs[0].Storage != "wtest:hdd0" {
		t.Fatalf("pipeline = %+v, want wtest:hdd0", locs)
	}
	blk := reply.Located.Block
	blk.NumBytes = size
	return blk
}

func TestWriteAndReadBlockDirectly(t *testing.T) {
	m, w := testWorker(t)
	blk := hddBlock(t, m, "/direct", 1<<20)
	payload := bytes.Repeat([]byte("octo"), 1<<18)

	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Commit(); err != nil {
		t.Fatalf("pipeline ack: %v", err)
	}

	// Full read.
	rc, length, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || length != int64(len(payload)) {
		t.Fatalf("read: %v len=%d", err, length)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content mismatch")
	}

	// Ranged read.
	rc, length, err = rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", 100, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(rc)
	rc.Close()
	if length != 256 || !bytes.Equal(got, payload[100:356]) {
		t.Fatalf("ranged read wrong: len=%d", length)
	}
}

func TestReadUnknownMediaAndBlock(t *testing.T) {
	_, w := testWorker(t)
	_, _, err := rpc.OpenBlockReader(w.DataAddr(), core.Block{ID: 9, GenStamp: 1}, "wtest:nope", 0, -1)
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown media err = %v, want ErrNotFound", err)
	}
	_, _, err = rpc.OpenBlockReader(w.DataAddr(), core.Block{ID: 9, GenStamp: 1}, "wtest:hdd0", 0, -1)
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unknown block err = %v, want ErrNotFound", err)
	}
}

func TestWriteToUnknownMediaFails(t *testing.T) {
	_, w := testWorker(t)
	bw, err := rpc.OpenBlockWriter(core.Block{ID: 2, GenStamp: 1}, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:nope"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	bw.Write([]byte("data"))
	if err := bw.Commit(); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("ack err = %v, want ErrNotFound", err)
	}
}

func TestReplicateViaDataPort(t *testing.T) {
	m, w := testWorker(t)
	// Store a block on hdd0 over the data port, then have the worker run
	// the master's replicate command for it onto mem0 from itself.
	blk := hddBlock(t, m, "/copied", 4096)
	payload := bytes.Repeat([]byte{7}, 4096)
	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	bw.Write(payload)
	if err := bw.Commit(); err != nil {
		t.Fatal(err)
	}

	w.execute(rpc.Command{
		Kind:   rpc.CmdReplicate,
		Block:  blk,
		Target: "wtest:mem0",
		Sources: []core.BlockLocation{{
			Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0", Tier: core.TierHDD,
		}},
	})
	// The master may retire the surplus copy as soon as the woken
	// heartbeat confirms it, so assert on what no later delete undoes.
	evs := w.Journal().Since(0, "block_replicated", 0).Entries
	if len(evs) != 1 || evs[0].Attrs["target"] != "wtest:mem0" {
		t.Errorf("block_replicated events = %+v, want one onto wtest:mem0", evs)
	}
	if n := len(w.Journal().Since(0, "block_replicate_failed", 0).Entries); n != 0 {
		t.Errorf("block_replicate_failed events = %d, want 0", n)
	}
}

func TestWorkerRegistersAndHeartbeats(t *testing.T) {
	m, _ := testWorker(t)
	if m.NumWorkers() != 1 {
		t.Fatalf("workers = %d, want 1", m.NumWorkers())
	}
}

func TestMediaStats(t *testing.T) {
	_, w := testWorker(t)
	stats := w.mediaStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d media, want 2", len(stats))
	}
	for _, s := range stats {
		if s.Capacity != 64<<20 {
			t.Errorf("%s capacity = %d", s.ID, s.Capacity)
		}
		if s.Remaining > s.Capacity {
			t.Errorf("%s remaining > capacity", s.ID)
		}
	}
}

// fakeMaster serves Register and Heartbeat, records every heartbeat, and
// refuses the ones it is told to.
type fakeMaster struct {
	mu            sync.Mutex
	registrations int
	beats         []rpc.HeartbeatArgs
	refused       []bool
	refuse        int // heartbeats still to refuse
}

func (f *fakeMaster) Register(*rpc.RegisterArgs, *rpc.RegisterReply) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.registrations++
	return nil
}

func (f *fakeMaster) Heartbeat(args *rpc.HeartbeatArgs, _ *rpc.HeartbeatReply) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.beats = append(f.beats, *args)
	f.refused = append(f.refused, f.refuse > 0)
	if f.refuse > 0 {
		f.refuse--
		return errors.New(rpc.EncodeError(core.ErrNotFound))
	}
	return nil
}

func startFakeMaster(t *testing.T) (*fakeMaster, string) {
	t.Helper()
	fm := &fakeMaster{}
	srv := rpc.NewServer(nil)
	rpc.Handle(srv, "Master.Register", fm.Register)
	rpc.Handle(srv, "Master.Heartbeat", fm.Heartbeat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return fm, ln.Addr().String()
}

// A heartbeat the master refuses keeps its copy confirmations and heat
// for the next beat, and the re-registration it triggers makes that
// next beat carry the full listing.
func TestFailedHeartbeatKeepsConfirmationsAndRelists(t *testing.T) {
	fm, addr := startFakeMaster(t)
	w, err := New(Config{
		ID: "wfake", Node: "wfake", MasterAddr: addr, DataAddr: "127.0.0.1:0",
		Media:             []storage.MediaConfig{{ID: "wfake:mem0", Tier: core.TierMemory, Capacity: 1 << 20}},
		HeartbeatInterval: time.Hour, // beats are driven by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	blk := core.Block{ID: 7, GenStamp: 1, NumBytes: 4}
	if _, err := w.Media()["wfake:mem0"].Put(blk, strings.NewReader("octo")); err != nil {
		t.Fatal(err)
	}
	listed := func(a rpc.HeartbeatArgs) bool {
		return a.Listing && len(a.Blocks) == 1 && a.Blocks[0].Block.ID == blk.ID
	}

	w.heartbeat(false) // the first beat after registering lists
	w.heartbeat(false)
	copied := rpc.StoredBlock{Storage: "wfake:mem0", Block: blk}
	w.recvMu.Lock()
	w.received = append(w.received, copied)
	w.recvMu.Unlock()
	w.heat.Touch(blk.ID, heat.Write, 4)
	fm.mu.Lock()
	fm.refuse = 1
	fm.mu.Unlock()
	w.heartbeat(false) // refused: the worker re-registers
	w.heartbeat(false)

	fm.mu.Lock()
	defer fm.mu.Unlock()
	b := fm.beats
	if len(b) != 4 || !fm.refused[2] || fm.refused[3] {
		t.Fatalf("beats = %d refused %v, want 4 with the third refused", len(b), fm.refused)
	}
	if !listed(b[0]) || b[1].Listing {
		t.Errorf("listings: first beat %v (%d blocks), second %v; want only the first", b[0].Listing, len(b[0].Blocks), b[1].Listing)
	}
	for i := 2; i < 4; i++ {
		if len(b[i].Received) != 1 || b[i].Received[0] != copied {
			t.Errorf("beat %d received = %+v, want [%+v]", i, b[i].Received, copied)
		}
		if len(b[i].Heat) != 1 || b[i].Heat[0].Block != blk.ID || b[i].Heat[0].WriteBytes != 4 {
			t.Errorf("beat %d heat = %+v, want the block's one write", i, b[i].Heat)
		}
	}
	if fm.registrations != 2 || !listed(b[3]) {
		t.Errorf("after %d registrations the next beat listed %v (%d blocks), want a listing after the second", fm.registrations, b[3].Listing, len(b[3].Blocks))
	}
}

// A heartbeat the master refuses leaves the telemetry cursor where it
// was: the next beat ships the same transfer records with the spans the
// store kept for them, and the beat after that ships nothing again.
func TestFailedHeartbeatReshipsTelemetry(t *testing.T) {
	fm, addr := startFakeMaster(t)
	w, err := New(Config{
		ID: "wfake", Node: "wfake", MasterAddr: addr, DataAddr: "127.0.0.1:0",
		Media:             []storage.MediaConfig{{ID: "wfake:mem0", Tier: core.TierMemory, Capacity: 1 << 20}},
		HeartbeatInterval: time.Hour, // beats are driven by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.heartbeat(false)
	sp := w.tracer.Start("feedfacefeedface", "", "worker.read")
	sp.End()
	w.xfers.Append(xfer.Record{Op: "read", Source: "worker:wfake", Block: 7, TraceID: "feedfacefeedface", SpanID: sp.ID(), Result: "ok"})
	w.xfers.Append(xfer.Record{Op: "read", Source: "worker:wfake", Block: 8, Result: "ok"}) // untraced: no span
	fm.mu.Lock()
	fm.refuse = 1
	fm.mu.Unlock()
	w.heartbeat(false) // refused
	w.heartbeat(false)
	w.heartbeat(false)

	fm.mu.Lock()
	defer fm.mu.Unlock()
	b := fm.beats
	if len(b) != 4 || !fm.refused[1] {
		t.Fatalf("beats = %d refused %v, want 4 with the second refused", len(b), fm.refused)
	}
	for _, i := range []int{0, 3} {
		if len(b[i].Transfers) != 0 || len(b[i].Spans) != 0 {
			t.Errorf("beat %d shipped %d records and %d spans, want none", i, len(b[i].Transfers), len(b[i].Spans))
		}
	}
	for _, i := range []int{1, 2} {
		recs, spans := b[i].Transfers, b[i].Spans
		if len(recs) != 2 || recs[0].Block != 7 || recs[1].Block != 8 {
			t.Errorf("beat %d shipped records %+v, want blocks 7 and 8", i, recs)
		}
		if len(spans) != 1 || spans[0].SpanID != sp.ID() || spans[0].Op != "worker.read" {
			t.Errorf("beat %d shipped spans %+v, want the one worker.read span %s", i, spans, sp.ID())
		}
	}
}
