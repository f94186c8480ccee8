package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// The data-path tests run the real client against a stub master (an
// rpc.Server that enforces the namespace's block-commit rules)
// and a fake worker speaking the wire transfer protocol, with fault
// injection: aborted write streams, error acks, and replica streams
// that die mid-block.

// stubFile mirrors the master-side state of one file.
type stubFile struct {
	blocks    []core.Block // allocation order; NumBytes filled in on commit
	committed map[core.BlockID]bool
	sealed    bool
}

type stubMaster struct {
	mu        sync.Mutex
	blockSize int64
	nextID    int
	files     map[string]*stubFile
	locate    func(core.Block) []core.BlockLocation // replica locations per block
	deadAddrs int                                   // AddBlocks that point at an unreachable address

	abandonedBlocks []core.BlockID
	badReports      int
}

func (s *stubMaster) file(path string) *stubFile {
	f, ok := s.files[path]
	if !ok {
		f = &stubFile{committed: make(map[core.BlockID]bool)}
		s.files[path] = f
	}
	return f
}

func (s *stubMaster) Create(args *rpc.CreateArgs, _ *rpc.CreateReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[args.Path] = &stubFile{committed: make(map[core.BlockID]bool)}
	return nil
}

func (s *stubMaster) GetFileInfo(args *rpc.GetFileInfoArgs, reply *rpc.GetFileInfoReply) error {
	reply.Status = rpc.FileStatus{Path: args.Path, BlockSize: s.blockSize}
	return nil
}

func (s *stubMaster) AddBlock(args *rpc.AddBlockArgs, reply *rpc.AddBlockReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(args.Path)
	s.nextID++
	blk := core.Block{ID: core.BlockID(s.nextID), GenStamp: 1}
	f.blocks = append(f.blocks, blk)
	var offset int64
	for _, b := range f.blocks[:len(f.blocks)-1] {
		offset += b.NumBytes
	}
	locs := s.locate(blk)
	if s.deadAddrs > 0 {
		s.deadAddrs--
		locs = []core.BlockLocation{{Worker: "dead", Address: "127.0.0.1:1", Storage: "dead:s0", Tier: core.TierHDD}}
	}
	reply.Located = core.LocatedBlock{Block: blk, Offset: offset, Locations: locs}
	return nil
}

func (s *stubMaster) CommitBlock(args *rpc.CommitBlockArgs, _ *rpc.CommitBlockReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(args.Path)
	for i, b := range f.blocks {
		if b.ID == args.Block.ID {
			f.blocks[i] = args.Block
			f.committed[args.Block.ID] = true
			return nil
		}
	}
	return fmt.Errorf("commit of unknown block %d", args.Block.ID)
}

// AbandonBlock enforces the real namespace's rules: only the last
// block can be abandoned, and a committed block never can. A client
// regression that abandons the wrong (possibly durable) block fails
// loudly here.
func (s *stubMaster) AbandonBlock(args *rpc.AbandonBlockArgs, _ *rpc.AbandonBlockReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(args.Path)
	if f.committed[args.Block.ID] {
		return fmt.Errorf("abandoning committed block %d", args.Block.ID)
	}
	if len(f.blocks) == 0 || f.blocks[len(f.blocks)-1].ID != args.Block.ID {
		return fmt.Errorf("block %d is not the last block", args.Block.ID)
	}
	f.blocks = f.blocks[:len(f.blocks)-1]
	s.abandonedBlocks = append(s.abandonedBlocks, args.Block.ID)
	return nil
}

func (s *stubMaster) Complete(args *rpc.CompleteArgs, _ *rpc.CompleteReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(args.Path)
	for _, b := range f.blocks {
		if !f.committed[b.ID] {
			return fmt.Errorf("complete with uncommitted block %d", b.ID)
		}
	}
	f.sealed = true
	return nil
}

func (s *stubMaster) Abandon(args *rpc.AbandonArgs, _ *rpc.AbandonReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, args.Path)
	return nil
}

func (s *stubMaster) GetBlockLocations(args *rpc.GetBlockLocationsArgs, reply *rpc.GetBlockLocationsReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.file(args.Path)
	var offset int64
	for _, b := range f.blocks {
		reply.Blocks = append(reply.Blocks, core.LocatedBlock{
			Block: b, Offset: offset, Locations: s.locate(b),
		})
		offset += b.NumBytes
	}
	reply.FileLength = offset
	return nil
}

func (s *stubMaster) ReportBadBlock(args *rpc.ReportBadBlockArgs, _ *rpc.ReportBadBlockReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.badReports++
	return nil
}

// fakeWorker speaks the data-transfer wire protocol with injectable
// faults.
type fakeWorker struct {
	ln net.Listener
	wg sync.WaitGroup

	mu           sync.Mutex
	blocks       map[core.BlockID][]byte
	abortWrites  int                     // write streams to sever mid-stream
	ackErrWrites int                     // write streams to accept fully, then nack
	dieReads     map[core.StorageID]bool // storages whose read streams die halfway
	corruptReads map[core.StorageID]bool // storages whose second packet carries a bad CRC
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeWorker{ln: ln, blocks: make(map[core.BlockID][]byte), dieReads: make(map[core.StorageID]bool), corruptReads: make(map[core.StorageID]bool)}
	f.wg.Add(1)
	go f.serve()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeWorker) serve() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer conn.Close()
			var op [1]byte
			if _, err := io.ReadFull(conn, op[:]); err != nil {
				return
			}
			switch op[0] {
			case rpc.OpWriteBlock:
				f.handleWrite(conn)
			case rpc.OpReadBlock:
				f.handleRead(conn)
			}
		}()
	}
}

func (f *fakeWorker) handleWrite(conn net.Conn) {
	var hdr rpc.WriteBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		return
	}
	f.mu.Lock()
	abort := f.abortWrites > 0
	if abort {
		f.abortWrites--
	}
	nack := false
	if !abort && f.ackErrWrites > 0 {
		f.ackErrWrites--
		nack = true
	}
	f.mu.Unlock()

	pr := rpc.NewPacketReader(conn)
	if abort {
		// Consume a little, then sever the connection mid-stream.
		io.CopyN(io.Discard, pr, 512)
		return
	}
	data, err := io.ReadAll(pr)
	if err != nil {
		return
	}
	if nack {
		rpc.WriteFrame(conn, rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("injected media failure"))})
		return
	}
	f.mu.Lock()
	f.blocks[hdr.Block.ID] = data
	f.mu.Unlock()
	rpc.WriteFrame(conn, rpc.WriteBlockAck{Stored: int64(len(data))})
}

func (f *fakeWorker) handleRead(conn net.Conn) {
	var hdr rpc.ReadBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		return
	}
	f.mu.Lock()
	data, ok := f.blocks[hdr.Block.ID]
	die := f.dieReads[hdr.Storage]
	corrupt := f.corruptReads[hdr.Storage]
	f.mu.Unlock()
	if !ok {
		rpc.WriteFrame(conn, rpc.ReadBlockResponse{Err: rpc.EncodeError(core.ErrNotFound)})
		return
	}
	length := hdr.Length
	if length < 0 || hdr.Offset+length > int64(len(data)) {
		length = int64(len(data)) - hdr.Offset
	}
	if err := rpc.WriteFrame(conn, rpc.ReadBlockResponse{Length: length}); err != nil {
		return
	}
	if die {
		// Deliver half the range as one well-formed packet written
		// straight to the conn (the PacketWriter buffers), then sever
		// the connection without the end packet.
		chunk := data[hdr.Offset : hdr.Offset+length/2]
		var phdr [8]byte
		binary.BigEndian.PutUint32(phdr[0:4], uint32(len(chunk)))
		binary.BigEndian.PutUint32(phdr[4:8], crc32.Checksum(chunk, crc32.MakeTable(crc32.Castagnoli)))
		conn.Write(phdr[:])
		conn.Write(chunk)
		conn.Close()
		return
	}
	pw := rpc.NewPacketWriter(conn)
	defer pw.Release()
	if corrupt {
		// A good first half, then a packet whose stored sum no longer
		// matches its content, as a replica with a flipped bit serves it.
		half, rest := data[hdr.Offset:hdr.Offset+length/2], data[hdr.Offset+length/2:hdr.Offset+length]
		pw.WriteChunk(bytes.NewReader(half), len(half), core.ChunkSum(half))
		pw.WriteChunk(bytes.NewReader(rest), len(rest), core.ChunkSum(rest)^1)
		pw.Close()
		return
	}
	if _, err := pw.Write(data[hdr.Offset : hdr.Offset+length]); err != nil {
		return
	}
	pw.Close()
}

// startStub wires a stub master + fake worker and returns a connected
// client. locations lists the replica storages tried in order; all
// point at the one fake worker.
func startStub(t *testing.T, blockSize int64, storages ...core.StorageID) (*FileSystem, *stubMaster, *fakeWorker) {
	t.Helper()
	if len(storages) == 0 {
		storages = []core.StorageID{"w1:s0"}
	}
	fw := newFakeWorker(t)
	sm := &stubMaster{blockSize: blockSize, files: make(map[string]*stubFile)}
	sm.locate = func(core.Block) []core.BlockLocation {
		locs := make([]core.BlockLocation, len(storages))
		for i, st := range storages {
			locs[i] = core.BlockLocation{Worker: "w1", Address: fw.ln.Addr().String(), Storage: st, Tier: core.TierHDD}
		}
		return locs
	}
	srv := rpc.NewServer(nil)
	rpc.Handle(srv, "Master.Create", sm.Create)
	rpc.Handle(srv, "Master.GetFileInfo", sm.GetFileInfo)
	rpc.Handle(srv, "Master.AddBlock", sm.AddBlock)
	rpc.Handle(srv, "Master.CommitBlock", sm.CommitBlock)
	rpc.Handle(srv, "Master.AbandonBlock", sm.AbandonBlock)
	rpc.Handle(srv, "Master.Complete", sm.Complete)
	rpc.Handle(srv, "Master.Abandon", sm.Abandon)
	rpc.Handle(srv, "Master.GetBlockLocations", sm.GetBlockLocations)
	rpc.Handle(srv, "Master.ReportBadBlock", sm.ReportBadBlock)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	fs, err := Dial(ln.Addr().String(), WithOwner("test"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, sm, fw
}

func testPattern(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// writeReadBack writes data, closes, and verifies the read-back.
func writeReadBack(t *testing.T, fs *FileSystem, path string, data []byte) {
	t.Helper()
	w, err := fs.Create(path, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, want %d, content mismatch", len(got), len(data))
	}
}

// TestWriterRetrySingleCountedBytes forces a mid-stream pipeline
// failure and asserts the retry replays the block without
// double-counting accepted bytes (the old path re-added the replay to
// the write-bytes counter and re-incremented written).
func TestWriterRetrySingleCountedBytes(t *testing.T) {
	const blockSize = 64 << 10
	fs, sm, fw := startStub(t, blockSize)
	fw.mu.Lock()
	fw.abortWrites = 1
	fw.mu.Unlock()

	data := testPattern(blockSize*3+blockSize/2, 1)
	writeReadBack(t, fs, "/f", data)

	stats := fs.DataPathStats()
	if stats.WriteBytes != float64(len(data)) {
		t.Errorf("writeBytes = %.0f, want %d (accepted bytes must be counted exactly once across retries)",
			stats.WriteBytes, len(data))
	}
	if stats.Retries < 1 {
		t.Errorf("retries = %.0f, want >= 1", stats.Retries)
	}
	sm.mu.Lock()
	f := sm.files["/f"]
	var total int64
	for _, b := range f.blocks {
		if !f.committed[b.ID] {
			t.Errorf("block %d left uncommitted", b.ID)
		}
		total += b.NumBytes
	}
	sealed := f.sealed
	sm.mu.Unlock()
	if total != int64(len(data)) {
		t.Errorf("committed %d bytes at master, want %d", total, len(data))
	}
	if !sealed {
		t.Error("file not sealed")
	}
}

// TestWriterOverlappedAckFailure nacks a pipeline ack while later
// blocks are already streaming under a write window, exercising the
// abandon-newest-first + replay-in-order recovery.
func TestWriterOverlappedAckFailure(t *testing.T) {
	const blockSize = 32 << 10
	fs, sm, fw := startStub(t, blockSize)
	fs.writeWindow = 2
	fw.mu.Lock()
	fw.ackErrWrites = 1
	fw.mu.Unlock()

	data := testPattern(blockSize*5+100, 2)
	writeReadBack(t, fs, "/f", data)

	stats := fs.DataPathStats()
	if stats.WriteBytes != float64(len(data)) {
		t.Errorf("writeBytes = %.0f, want %d", stats.WriteBytes, len(data))
	}
	if stats.Retries < 1 {
		t.Errorf("retries = %.0f, want >= 1", stats.Retries)
	}
	sm.mu.Lock()
	sealed := sm.files["/f"].sealed
	sm.mu.Unlock()
	if !sealed {
		t.Error("file not sealed")
	}
}

// TestWriterAllocFailureAbandonsOnlyFreshBlock makes the second
// AddBlock return an unreachable pipeline: the writer must abandon
// only that fresh allocation — never the committed first block, which
// the old retry path dropped via the stale curBlock field (the stub
// master rejects such an abandon, failing the write).
func TestWriterAllocFailureAbandonsOnlyFreshBlock(t *testing.T) {
	const blockSize = 16 << 10
	fs, sm, _ := startStub(t, blockSize)

	w, err := fs.Create("/f", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := testPattern(blockSize*2, 3)
	// Fill exactly one block so it flushes, acks, and commits.
	if _, err := w.Write(data[:blockSize]); err != nil {
		t.Fatal(err)
	}
	sm.mu.Lock()
	sm.deadAddrs = 1
	sm.mu.Unlock()
	if _, err := w.Write(data[blockSize:]); err != nil {
		t.Fatalf("write after dead allocation: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back mismatch (err=%v)", err)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, id := range sm.abandonedBlocks {
		if sm.files["/f"].committed[id] {
			t.Errorf("abandoned block %d is committed", id)
		}
	}
	if len(sm.abandonedBlocks) == 0 {
		t.Error("dead allocation was never abandoned")
	}
}

// TestReaderReadaheadSequential streams a multi-block file through
// the prefetch window and checks content and that readahead actually
// opened streams in the background.
func TestReaderReadaheadSequential(t *testing.T) {
	const blockSize = 16 << 10
	fs, _, _ := startStub(t, blockSize)
	data := testPattern(blockSize*6+50, 4)
	writeReadBack(t, fs, "/f", data)

	fs.readahead = 3
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatalf("readahead read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readahead read content mismatch")
	}
	if stats := fs.DataPathStats(); stats.ReadaheadOpens < 1 {
		t.Errorf("readaheadOpens = %.0f, want >= 1", stats.ReadaheadOpens)
	}
}

// TestReaderMidStreamFailover kills the first replica's stream
// halfway through every block: the reader must resume at the current
// position on the second replica, excluding the dead one, without
// surfacing an error — with and without readahead.
func TestReaderMidStreamFailover(t *testing.T) {
	for _, readahead := range []int{0, 2} {
		t.Run(fmt.Sprintf("readahead=%d", readahead), func(t *testing.T) {
			const blockSize = 16 << 10
			fs, _, fw := startStub(t, blockSize, "w1:bad", "w1:good")
			data := testPattern(blockSize*4, 5)
			writeReadBack(t, fs, "/f", data)

			fw.mu.Lock()
			fw.dieReads["w1:bad"] = true
			fw.mu.Unlock()

			fs.readahead = readahead
			got, err := fs.ReadFile("/f")
			if err != nil {
				t.Fatalf("read with dying replica: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("failover read content mismatch")
			}
			if stats := fs.DataPathStats(); stats.Failovers < 1 {
				t.Errorf("failovers = %.0f, want >= 1", stats.Failovers)
			}
		})
	}
}

// TestReaderCorruptLastReplicaReturnsErrCorrupt serves the only
// replica with a bad CRC mid-stream: with nowhere to fail over, Read
// returns the stream's ErrCorrupt (not "no live replicas"), after
// reporting the replica exactly once.
func TestReaderCorruptLastReplicaReturnsErrCorrupt(t *testing.T) {
	const blockSize = 16 << 10
	fs, sm, fw := startStub(t, blockSize)
	data := testPattern(blockSize*2, 7)
	writeReadBack(t, fs, "/f", data)

	fw.mu.Lock()
	fw.corruptReads["w1:s0"] = true
	fw.mu.Unlock()
	if _, err := fs.ReadFile("/f"); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("read of a corrupt single replica: err = %v, want ErrCorrupt", err)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.badReports != 1 {
		t.Errorf("ReportBadBlock calls = %d, want 1", sm.badReports)
	}
}

// TestReaderSeekCancelsReadahead seeks around a prefetching reader
// and verifies positions stay correct.
func TestReaderSeekCancelsReadahead(t *testing.T) {
	const blockSize = 16 << 10
	fs, _, _ := startStub(t, blockSize)
	data := testPattern(blockSize*5, 6)
	writeReadBack(t, fs, "/f", data)

	fs.readahead = 2
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, blockSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[:blockSize]) {
		t.Fatal("first block mismatch")
	}
	// Jump backwards to a mid-block offset, then forwards.
	for _, off := range []int64{100, int64(blockSize)*3 + 7, 0, int64(blockSize) * 4} {
		if _, err := r.Seek(off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, buf[:512]); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if !bytes.Equal(buf[:512], data[off:off+512]) {
			t.Fatalf("content mismatch at offset %d", off)
		}
	}
}
