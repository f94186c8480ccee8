package worker

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/master"
	"repro/internal/rpc"
	"repro/internal/storage"
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
		HeartbeatInterval:   50 * time.Millisecond,
		BlockReportInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return m, w
}

func TestWriteAndReadBlockDirectly(t *testing.T) {
	_, w := testWorker(t)
	blk := core.Block{ID: 1, GenStamp: 1, NumBytes: 1 << 20}
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
	rc, length, err := rpc.OpenBlockReader(w.DataAddr(), core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(payload))}, "wtest:hdd0", 0, -1)
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
	rc, length, err = rpc.OpenBlockReader(w.DataAddr(), core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(payload))}, "wtest:hdd0", 100, 256)
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
	_, w := testWorker(t)
	// Store a block on hdd0 over the data port, then have the worker run
	// the master's replicate command for it onto mem0 from itself.
	blk := core.Block{ID: 3, GenStamp: 1, NumBytes: 4096}
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
	if !w.Media()["wtest:mem0"].Has(blk) {
		t.Error("replica not present on memory media")
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
