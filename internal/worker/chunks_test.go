package worker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// writeBlock streams payload into the test worker's media on through
// the data port.
func writeBlock(t testing.TB, w *Worker, blk core.Block, on core.StorageID, payload []byte) {
	t.Helper()
	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: on},
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

// flipHDDByte flips the byte at off in the test worker's HDD replica
// file of blk.
func flipHDDByte(t testing.TB, w *Worker, blk core.Block, off int) {
	t.Helper()
	path := filepath.Join(w.cfg.Media[1].Dir, fmt.Sprintf("blk_%d_%d", uint64(blk.ID), uint64(blk.GenStamp)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rawRead runs one read exchange by hand, returning the response frame
// and the bytes that follow it.
func rawRead(t *testing.T, addr string, hdr rpc.ReadBlockHeader) (rpc.ReadBlockResponse, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var resp rpc.ReadBlockResponse
	if _, err := conn.Write([]byte{rpc.OpReadBlock}); err != nil {
		t.Fatal(err)
	}
	if err := rpc.WriteFrame(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if err := rpc.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, max(resp.Length, 0))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading %d bytes after the response: %v", resp.Length, err)
	}
	return resp, got
}

// TestRangedReadChunkEdges reads ranges that start on, just before and
// just after chunk boundaries and in the short last chunk, short and to
// the end of the block, from memory and from disk: the bytes and the
// response's piece sums must be exactly those of the range. Then it
// corrupts one chunk on disk: a range with that chunk at its edge is
// refused as corrupt before any data, a range streaming it whole fails
// at the reader's piece check, and a range that does not touch it is
// still served.
func TestRangedReadChunkEdges(t *testing.T) {
	m, w := testWorker(t)
	const C = core.ChunkSize
	size := int64(3*C + 100)
	payload := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(payload)
	blocks := make(map[core.StorageID]core.Block)
	for _, on := range []core.StorageID{"wtest:mem0", "wtest:hdd0"} {
		blocks[on] = allocBlock(t, m, "/ranged-"+string(on), size, on)
		writeBlock(t, w, blocks[on], on, payload)
	}
	read := func(on core.StorageID, off, length int64) ([]byte, error) {
		rc, _, err := rpc.OpenBlockReader(w.DataAddr(), blocks[on], on, off, length)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}
	// Every offset with a short, a chunk-crossing and an open length,
	// the last two offsets being the short last chunk and the end of
	// the block (an empty read); then ranges that end inside, on and at
	// the end of chunks.
	var ranges [][2]int64
	for _, off := range []int64{0, 1, C - 1, C, C + 1, size - 1, 3 * C, size} {
		for _, length := range []int64{10, C + 2, -1} {
			ranges = append(ranges, [2]int64{off, length})
		}
	}
	ranges = append(ranges, [][2]int64{
		{C - 1, 2}, {C + 5, C}, {100, 2*C + 50}, {C, C},
		{3 * C, 100}, {3*C + 1, 99}, {5, size - 5}, {0, C + 1},
	}...)
	for on, blk := range blocks {
		for _, r := range ranges {
			off, length := r[0], r[1]
			end := size
			if length >= 0 {
				end = min(off+length, size)
			}
			want := payload[off:end]
			resp, got := rawRead(t, w.DataAddr(), rpc.ReadBlockHeader{Block: blk, Storage: on, Offset: off, Length: length})
			if resp.Err != "" || !bytes.Equal(got, want) {
				t.Errorf("%s [%d,%d): %d bytes, err %q", on, off, end, len(got), resp.Err)
			}
			if wantSums := rpc.PieceSums(want, off); fmt.Sprint(resp.Sums) != fmt.Sprint(wantSums) {
				t.Errorf("%s [%d,%d): piece sums %x, want %x", on, off, end, resp.Sums, wantSums)
			}
			// A clean exchange, an empty one included, returns the
			// client's connection to the pool.
			returns := rpc.DataPoolStats().Returns
			if got, err := read(on, off, length); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s [%d,%d) through the client: %d bytes, err %v", on, off, end, len(got), err)
			}
			if rpc.DataPoolStats().Returns != returns+1 {
				t.Errorf("%s [%d,%d) through the client: connection not pooled", on, off, end)
			}
		}
		// A header claiming 10 bytes more than the replica holds makes
		// the last chunk's edge longer than the chunk: refused, not
		// served past the chunk's end.
		long := blk
		long.NumBytes += 10
		if resp, _ := rawRead(t, w.DataAddr(), rpc.ReadBlockHeader{Block: long, Storage: on, Offset: 3*C + 5, Length: 100}); resp.Err == "" {
			t.Errorf("%s: a read past the replica's last byte was served", on)
		}
	}

	// Flip one byte of chunk 1 in the disk replica's file.
	blk := blocks["wtest:hdd0"]
	flipHDDByte(t, w, blk, C+40)
	if _, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", C+5, 10); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("edge chunk corrupt: open err = %v, want ErrCorrupt", err)
	}
	if _, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", 5, C); !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("tail edge chunk corrupt: open err = %v, want ErrCorrupt", err)
	}
	if got, err := read("wtest:hdd0", 0, -1); !errors.Is(err, core.ErrCorrupt) || !bytes.Equal(got, payload[:C]) {
		t.Errorf("whole corrupt chunk: read %d bytes, err = %v, want the first chunk and ErrCorrupt", len(got), err)
	}
	if got, err := read("wtest:hdd0", 2*C+3, C); err != nil || !bytes.Equal(got, payload[2*C+3:3*C+3]) {
		t.Errorf("range clear of the corrupt chunk: %d bytes, err %v", len(got), err)
	}
	if n := len(w.Journal().Since(0, "block_corrupt", 0).Entries); n != 2 {
		t.Errorf("block_corrupt events = %d, want 2 (one per refused edge)", n)
	}
}

// TestThrottledReadIsPaced reads a 4 MiB block from a throttled disk,
// slow enough to send one chunk per call and fast enough to send
// several: its whole chunks leave by sendfile in steps of the media's
// pacing burst, yet the read takes at least all but one step's worth of
// time at the media's rate, and the worker's transfer record carries
// the pacing sleeps. The read comes straight after the write, so the
// limiter's schedule must start at the read, not when the media opened.
func TestThrottledReadIsPaced(t *testing.T) {
	for _, mbps := range []float64{32, 400} {
		t.Run(fmt.Sprintf("%gMBps", mbps), func(t *testing.T) {
			m, w := testWorkerWith(t, mbps)
			size := int64(4 << 20)
			blk := hddBlock(t, m, "/paced", size)
			payload := make([]byte, size)
			rand.New(rand.NewSource(4)).Read(payload)
			writeBlock(t, w, blk, "wtest:hdd0", payload)

			start := time.Now()
			rc, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, "wtest:hdd0", 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			elapsed := time.Since(start)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read %d bytes, err %v", len(got), err)
			}
			// Each step is paced after it is sent, so the last one's
			// wait is not on the reader's clock; and the limiter lets a
			// caller go up to one millisecond (its minimum sleep) ahead
			// of schedule.
			step := max(core.ChunkSize, w.Media()["wtest:hdd0"].ReadLimit().Burst())
			floor := time.Duration(float64(size-int64(step))/(mbps*1e6)*float64(time.Second)) - time.Millisecond
			if elapsed < floor {
				t.Errorf("a %d-byte read at %g MB/s took %v, want at least %v", size, mbps, elapsed, floor)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				recs := w.TransferLog().Since(0, "read", 0).Entries
				if len(recs) == 1 {
					if recs[0].ThrottleWaitNs <= 0 || recs[0].NetNs <= 0 {
						t.Errorf("read record: throttle %d ns, net %d ns, want both > 0", recs[0].ThrottleWaitNs, recs[0].NetNs)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d read records on the worker, want 1", len(recs))
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// BenchmarkReadBlock serves one 4 MiB block from a real worker over
// loopback into a 1 MiB client buffer, from memory and from disk. Its
// allocs/op cover both ends of the exchange.
func BenchmarkReadBlock(b *testing.B) {
	for _, on := range []core.StorageID{"wtest:mem0", "wtest:hdd0"} {
		b.Run(strings.TrimPrefix(string(on), "wtest:"), func(b *testing.B) {
			m, w := testWorker(b)
			size := int64(4 << 20)
			blk := allocBlock(b, m, "/bench", size, on)
			payload := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(payload)
			writeBlock(b, w, blk, on, payload)
			buf := make([]byte, 1<<20)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc, _, err := rpc.OpenBlockReader(w.DataAddr(), blk, on, 0, -1)
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				for err == nil {
					var m int
					m, err = rc.Read(buf)
					n += int64(m)
				}
				rc.Close()
				if err != io.EOF || n != size {
					b.Fatalf("read %d of %d bytes: %v", n, size, err)
				}
			}
		})
	}
}

// window encodes p as one window of a write stream at block offset
// off: its header frame, and p.
func window(t *testing.T, off int64, p []byte) rpc.Packet {
	t.Helper()
	var hdr bytes.Buffer
	if err := rpc.WriteFrame(&hdr, rpc.ReadBlockResponse{Length: int64(len(p)), Sums: rpc.PieceSums(p, off)}); err != nil {
		t.Fatal(err)
	}
	return rpc.Packet{Header: hdr.Bytes(), Payload: p}
}

// TestPipelineRefusesChunkAfterShortPacket sends a write stream whose
// short first window is followed by another, which so starts inside a
// chunk: every piece verifies, but the stream breaks the chunk layout,
// so the write fails with ErrCorrupt and no replica is left behind. The
// stage refuses with the second window's bytes unread, and the writer
// sends its end window only after that: it still reads the refusal, not
// a reset connection.
func TestPipelineRefusesChunkAfterShortPacket(t *testing.T) {
	m, w := testWorker(t)
	blk := hddBlock(t, m, "/short", 4)
	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	for off, p := range []string{"ab", "cd"} {
		if err := bw.WriteRaw(window(t, int64(2*off), []byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(w.TransferLog().Since(0, "write", 0).Entries) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stage never ended the exchange")
		}
	}
	// A stage that closed instead of draining resets the connection
	// right after its record; give that reset time to land, so the
	// Commit below would see it.
	time.Sleep(10 * time.Millisecond)
	if err := bw.Commit(); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Commit = %v; want ErrCorrupt for a window starting inside a chunk", err)
	}
	if w.Media()["wtest:hdd0"].Has(blk) {
		t.Error("the refused replica is present")
	}
}

// TestPipelineRefusesCorruptWindow sends a two-stage pipeline (HDD,
// then memory on the same worker) a hand-built window of two chunks
// whose second chunk has one byte flipped in transit, then the end
// window. The head stage forwards the first chunk, finds the second bad
// before forwarding or storing it, and acks ErrCorrupt, which reaches
// the writer; neither stage keeps a replica, and the downstream stage
// commits nothing.
func TestPipelineRefusesCorruptWindow(t *testing.T) {
	m, w := testWorker(t)
	const C = core.ChunkSize
	blk := hddBlock(t, m, "/corrupt-window", 2*C)
	content := bytes.Repeat([]byte("octopus!"), 2*C/8)
	win := window(t, 0, content)
	win.Payload = bytes.Clone(content)
	win.Payload[C+40] ^= 0x01

	bw, err := rpc.OpenBlockWriter(blk, []rpc.PipelineTarget{
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:hdd0"},
		{Worker: w.ID(), Address: w.DataAddr(), Storage: "wtest:mem0"},
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteRaw(win); err != nil {
		t.Fatal(err)
	}
	if err := bw.Commit(); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Commit = %v; want ErrCorrupt", err)
	}

	// The downstream stage ends when the head stage drops its stream;
	// its transfer record is appended once it has.
	var recs []xfer.Record
	for deadline := time.Now().Add(5 * time.Second); len(recs) < 2 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		recs = w.TransferLog().Since(0, "write", 0).Entries
	}
	if len(recs) != 2 {
		t.Fatalf("%d write transfer records, want one per stage", len(recs))
	}
	for _, r := range recs {
		if r.Bytes != 0 || r.Result == "ok" {
			t.Errorf("%s stage: %d bytes stored, result %q; want none and a failure", r.Tier, r.Bytes, r.Result)
		}
	}
	for _, on := range []core.StorageID{"wtest:hdd0", "wtest:mem0"} {
		if w.Media()[on].Has(blk) {
			t.Errorf("%s holds a replica of the corrupt stream", on)
		}
	}
}
