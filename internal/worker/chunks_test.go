package worker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// writeHDDBlock streams payload into the test worker's HDD through the
// data port.
func writeHDDBlock(t *testing.T, w *Worker, blk core.Block, payload []byte) {
	t.Helper()
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
}

// TestRangedReadChunkEdges reads ranges that start and end inside
// chunks, on chunk boundaries and in the short last chunk. Then it
// corrupts one chunk on disk: a range with that chunk at its edge is
// refused as corrupt before any data, a range streaming it whole fails
// at the reader's packet check, and a range that does not touch it is
// still served.
func TestRangedReadChunkEdges(t *testing.T) {
	m, w := testWorker(t)
	const C = core.ChunkSize
	size := int64(3*C + 100)
	blk := hddBlock(t, m, "/ranged", size)
	payload := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(payload)
	writeHDDBlock(t, w, blk, payload)

	read := func(off, length int64) ([]byte, error) {
		rc, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", off, length)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}
	ranges := [][2]int64{
		{0, -1}, {1, 10}, {C - 1, 2}, {C + 5, C}, {100, 2*C + 50},
		{C, C}, {3 * C, 100}, {3*C + 1, 99}, {5, size - 5}, {0, C + 1}, {size, -1},
	}
	for _, r := range ranges {
		off, length := r[0], r[1]
		end := size
		if length >= 0 {
			end = off + length
		}
		got, err := read(off, length)
		if err != nil || !bytes.Equal(got, payload[off:end]) {
			t.Errorf("range [%d,%d): %d bytes, err %v", off, end, len(got), err)
		}
	}

	// Flip one byte of chunk 1 in the replica file.
	path := filepath.Join(w.cfg.Media[1].Dir, fmt.Sprintf("blk_%d_%d", uint64(blk.ID), uint64(blk.GenStamp)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[C+40] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", C+5, 10); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("edge chunk corrupt: open err = %v, want ErrCorrupt", err)
	}
	if _, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", 5, C); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("tail edge chunk corrupt: open err = %v, want ErrCorrupt", err)
	}
	if _, err := read(0, -1); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("whole corrupt chunk: read err = %v, want ErrCorrupt", err)
	}
	if got, err := read(2*C+3, C); err != nil || !bytes.Equal(got, payload[2*C+3:3*C+3]) {
		t.Errorf("range clear of the corrupt chunk: %d bytes, err %v", len(got), err)
	}
	if n := len(w.Journal().Since(0, "block_corrupt", 0).Entries); n != 2 {
		t.Errorf("block_corrupt events = %d, want 2 (one per refused edge)", n)
	}
}

// rawPacket frames payload as one wire packet.
func rawPacket(payload []byte) []byte {
	raw := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(raw[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(raw[4:8], core.ChunkSum(payload))
	copy(raw[8:], payload)
	return raw
}

// TestPipelineRefusesChunkAfterShortPacket sends a write stream whose
// short packet is followed by another: every packet verifies, but the
// stream breaks the chunk layout, so the write fails and no replica
// is left behind.
func TestPipelineRefusesChunkAfterShortPacket(t *testing.T) {
	m, w := testWorker(t)
	blk := hddBlock(t, m, "/short", 4)
	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ab", "cd"} {
		if err := bw.WriteRaw(rawPacket([]byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Commit(); err == nil {
		t.Fatal("a short packet followed by another was stored")
	}
	if w.Media()["wtest:hdd0"].Has(blk) {
		t.Error("the refused replica is present")
	}
}
