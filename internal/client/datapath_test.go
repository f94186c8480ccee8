package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
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
	spanOf          map[string]string // the caller's span ID of the last call, by method

	reports     int           // Master.Report calls received, failed ones too
	failReports int           // Reports to refuse before accepting again
	spans       []trace.Span  // spans of the accepted Reports
	records     []xfer.Record // transfer records of the accepted Reports
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
	s.spanOf["Create"] = args.SpanID
	if _, ok := s.files[args.Path]; ok && !args.Overwrite {
		return errors.New(rpc.EncodeError(core.ErrExists))
	}
	s.files[args.Path] = &stubFile{committed: make(map[core.BlockID]bool)}
	return nil
}

func (s *stubMaster) GetFileInfo(args *rpc.GetFileInfoArgs, reply *rpc.GetFileInfoReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spanOf["GetFileInfo"] = args.SpanID
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

func (s *stubMaster) Report(args *rpc.ReportArgs, _ *rpc.ReportReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reports++
	if s.failReports > 0 {
		s.failReports--
		return errors.New("injected report failure")
	}
	s.spans = append(s.spans, args.Spans...)
	s.records = append(s.records, args.Transfers...)
	return nil
}

// shipped returns what the accepted Reports delivered so far and how
// many Reports arrived.
func (s *stubMaster) shipped() (spans []trace.Span, records []xfer.Record, reports int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]trace.Span(nil), s.spans...), append([]xfer.Record(nil), s.records...), s.reports
}

// fakeWorker speaks the data-transfer wire protocol with injectable
// faults.
type fakeWorker struct {
	ln net.Listener
	wg sync.WaitGroup

	mu           sync.Mutex
	conns        map[net.Conn]bool // open connections, severed at cleanup
	blocks       map[core.BlockID][]byte
	abortWrites  int                     // write streams to sever mid-stream
	ackErrWrites int                     // write streams to accept fully, then nack
	dieReads     map[core.StorageID]bool // storages whose read streams die halfway
	corruptReads map[core.StorageID]bool // storages whose second piece carries a bad sum
	refuseReads  map[core.StorageID]bool // storages that refuse reads as missing replicas
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeWorker{ln: ln, conns: make(map[net.Conn]bool), blocks: make(map[core.BlockID][]byte), dieReads: make(map[core.StorageID]bool), corruptReads: make(map[core.StorageID]bool), refuseReads: make(map[core.StorageID]bool)}
	f.wg.Add(1)
	go f.serve()
	t.Cleanup(func() {
		ln.Close()
		f.mu.Lock()
		for conn := range f.conns {
			conn.Close() // a pooled idle connection would hold its handler
		}
		f.mu.Unlock()
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
		f.mu.Lock()
		f.conns[conn] = true
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				f.mu.Lock()
				delete(f.conns, conn)
				f.mu.Unlock()
				conn.Close()
			}()
			// Exchanges follow one another on the connection, as on a
			// real worker, until one leaves it unclean or the client
			// closes it.
			for keep := true; keep; {
				var op [1]byte
				if _, err := io.ReadFull(conn, op[:]); err != nil {
					return
				}
				switch op[0] {
				case rpc.OpWriteBlock:
					keep = f.handleWrite(conn)
				case rpc.OpReadBlock:
					keep = f.handleRead(conn)
				default:
					return
				}
			}
		}()
	}
}

// handleWrite serves one write exchange and reports whether the
// connection is clean for the next.
func (f *fakeWorker) handleWrite(conn net.Conn) bool {
	var hdr rpc.WriteBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		return false
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
	defer pr.Release()
	if abort {
		// Consume a little, then sever the connection mid-stream.
		io.CopyN(io.Discard, pr, 512)
		return false
	}
	data, err := io.ReadAll(pr)
	if err != nil {
		return false
	}
	if nack {
		return rpc.WriteFrame(conn, rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("injected media failure"))}) == nil
	}
	f.mu.Lock()
	f.blocks[hdr.Block.ID] = data
	f.mu.Unlock()
	return rpc.WriteFrame(conn, rpc.WriteBlockAck{Stored: int64(len(data))}) == nil
}

// handleRead serves one read exchange and reports whether the
// connection is clean for the next.
func (f *fakeWorker) handleRead(conn net.Conn) bool {
	var hdr rpc.ReadBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		return false
	}
	f.mu.Lock()
	data, ok := f.blocks[hdr.Block.ID]
	die := f.dieReads[hdr.Storage]
	corrupt := f.corruptReads[hdr.Storage]
	refuse := f.refuseReads[hdr.Storage]
	f.mu.Unlock()
	if !ok || refuse {
		return rpc.WriteFrame(conn, rpc.ReadBlockResponse{Err: rpc.EncodeError(core.ErrNotFound)}) == nil
	}
	length := hdr.Length
	if length < 0 || hdr.Offset+length > int64(len(data)) {
		length = int64(len(data)) - hdr.Offset
	}
	content := data[hdr.Offset : hdr.Offset+length]
	sums := rpc.PieceSums(content, hdr.Offset)
	if corrupt && len(sums) > 0 {
		// The second piece's stored sum (the only one's, in a one-piece
		// range) no longer matches its content, as a replica with a
		// flipped bit serves it.
		sums[min(1, len(sums)-1)] ^= 1
	}
	if err := rpc.WriteFrame(conn, rpc.ReadBlockResponse{Length: length, Sums: sums}); err != nil {
		return false
	}
	if die {
		// Deliver half the range, then sever the connection.
		conn.Write(content[:length/2])
		return false
	}
	_, err := conn.Write(content)
	return err == nil
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
	sm := &stubMaster{blockSize: blockSize, files: make(map[string]*stubFile), spanOf: make(map[string]string)}
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
	rpc.Handle(srv, "Master.Report", sm.Report)
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

// noRetries fails a test that injected no fault if any block was
// retried: the fake worker keeps pooled connections open, so nothing
// but a fault may make the client retry.
func noRetries(t *testing.T, fs *FileSystem) {
	t.Helper()
	if retries := fs.DataPathStats().Retries; retries != 0 {
		t.Errorf("%.0f blocks retried with no fault injected", retries)
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
	noRetries(t, fs)
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

// TestReaderReportsRefusedReplica refuses every read of the first
// replica as missing: each block fails over to the second and reports
// the first exactly once, whether the foreground open or a readahead
// prefetch opened it.
func TestReaderReportsRefusedReplica(t *testing.T) {
	for _, readahead := range []int{0, 2} {
		t.Run(fmt.Sprintf("readahead=%d", readahead), func(t *testing.T) {
			const blockSize, blocks = 16 << 10, 4
			fs, sm, fw := startStub(t, blockSize, "w1:missing", "w1:good")
			data := testPattern(blockSize*blocks, 8)
			writeReadBack(t, fs, "/f", data)

			fw.mu.Lock()
			fw.refuseReads["w1:missing"] = true
			fw.mu.Unlock()
			fs.readahead = readahead
			got, err := fs.ReadFile("/f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read with a missing first replica: %d bytes, err %v", len(got), err)
			}
			sm.mu.Lock()
			defer sm.mu.Unlock()
			if sm.badReports != blocks {
				t.Errorf("ReportBadBlock calls = %d, want %d", sm.badReports, blocks)
			}
			if stats := fs.DataPathStats(); stats.Failovers != blocks || stats.BadReports != blocks {
				t.Errorf("failovers = %.0f, bad reports = %.0f, want %d each", stats.Failovers, stats.BadReports, blocks)
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
	noRetries(t, fs)
}

// createClose creates path, writes data into it (none if empty) and
// closes it, returning the write's request ID.
func createClose(t testing.TB, fs *FileSystem, path string, data []byte) string {
	t.Helper()
	w, err := fs.Create(path, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
	return w.ReqID()
}

// TestCreateReturnsCreateError: a create of an existing path without
// Overwrite fails with the create's ErrExists, though the block-size
// lookup batched behind it succeeds, and hands back no writer.
func TestCreateReturnsCreateError(t *testing.T) {
	fs, _, _ := startStub(t, 4<<10)
	createClose(t, fs, "/taken", nil)
	w, err := fs.Create("/taken", CreateOptions{})
	if !errors.Is(err, core.ErrExists) || w != nil {
		t.Fatalf("create of an existing path: writer %v, err %v, want ErrExists", w, err)
	}
	if got := fs.metrics.rpcErrs.With("GetFileInfo").Value(); got != 0 {
		t.Errorf("%v failed lookups, want 0: the error is the create's", got)
	}
}

// TestCreateCarriesBlockSize: a created writer carries the block size
// the master's lookup returned, and the create and the lookup, though
// sent as one batch, each have their own client span, named in their
// own request header.
func TestCreateCarriesBlockSize(t *testing.T) {
	const blockSize = 12 << 10
	fs, sm, _ := startStub(t, blockSize)
	w, err := fs.Create("/sized", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.blockSize != blockSize {
		t.Fatalf("writer block size %d, want the master's %d", w.blockSize, blockSize)
	}
	spans := make(map[string]string)
	for _, sp := range fs.traces.Get(w.ReqID()) {
		spans[sp.Op] = sp.SpanID
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, method := range []string{"Create", "GetFileInfo"} {
		id := spans["client.rpc."+method]
		if id == "" || sm.spanOf[method] != id {
			t.Errorf("%s: client span %q, header names %q", method, id, sm.spanOf[method])
		}
	}
	if sm.spanOf["Create"] == sm.spanOf["GetFileInfo"] {
		t.Errorf("create and lookup share span %q", sm.spanOf["Create"])
	}
}

// TestReportsShipInBatches: finished operations share Master.Reports,
// one per shipTraces of them, instead of sending one each.
func TestReportsShipInBatches(t *testing.T) {
	fs, sm, _ := startStub(t, 64<<10)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		createClose(t, fs, fmt.Sprintf("/f%d", i), nil)
	}
	elapsed := time.Since(start)
	_, _, reports := sm.shipped()
	// The ship timer adds at most one Report per shipDelay the loop ran.
	if limit := (n+shipTraces-1)/shipTraces + int(elapsed/shipDelay); reports > limit {
		t.Errorf("%d create+close cycles sent %d Reports in %v, want at most %d", n, reports, elapsed, limit)
	}
	if reports < n/shipTraces {
		t.Errorf("%d create+close cycles sent %d Reports, want at least %d: a full batch did not ship", n, reports, n/shipTraces)
	}
	noRetries(t, fs)
}

// TestCloseShipsAllTelemetry runs three times as many writes as the
// client's span store holds traces, each leaving four transfer records
// (three times the flight recorder's capacity in all), and checks that
// after Close the master holds every trace's spans and every record,
// each exactly once.
func TestCloseShipsAllTelemetry(t *testing.T) {
	const blockSize = 1 << 10
	fs, sm, _ := startStub(t, blockSize)
	const ops = 3 * traceCapacity
	data := testPattern(4*blockSize, 9)
	ids := make(map[string]bool, ops)
	for i := 0; i < ops; i++ {
		ids[createClose(t, fs, fmt.Sprintf("/f%d", i), data)] = true
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	spans, records, _ := sm.shipped()

	noRetries(t, fs)
	if len(records) != 4*ops {
		t.Errorf("master holds %d transfer records, want %d", len(records), 4*ops)
	}
	seqs := make(map[uint64]bool, len(records))
	good := make(map[string]int)
	for _, r := range records {
		if !ids[r.TraceID] || seqs[r.Seq] {
			t.Fatalf("record %d of trace %q: unknown trace or shipped twice", r.Seq, r.TraceID)
		}
		seqs[r.Seq] = true
		if r.Result == "ok" {
			good[r.TraceID]++
		}
	}
	for id := range ids {
		if good[id] != 4 {
			t.Fatalf("trace %s shipped %d good records, want 4", id, good[id])
		}
	}

	seen := make(map[string]bool, len(spans))
	opsOf := make(map[string]map[string]bool, ops)
	for _, sp := range spans {
		if seen[sp.SpanID] {
			t.Fatalf("span %s/%s shipped twice", sp.TraceID, sp.Op)
		}
		seen[sp.SpanID] = true
		if opsOf[sp.TraceID] == nil {
			opsOf[sp.TraceID] = make(map[string]bool)
		}
		opsOf[sp.TraceID][sp.Op] = true
	}
	for id := range ids {
		for _, op := range []string{"client.write", "client.rpc.Create", "client.rpc.GetFileInfo", "client.rpc.AddBlock", "client.block", "client.rpc.CommitBlock", "client.rpc.Complete"} {
			if !opsOf[id][op] {
				t.Fatalf("trace %s: no %s span reached the master (got %v)", id, op, opsOf[id])
			}
		}
	}
}

// TestFailedReportKeepsTelemetry: a Report the master refuses leaves
// the queued traces and the record cursor in place, and the next
// shipment delivers them.
func TestFailedReportKeepsTelemetry(t *testing.T) {
	const blockSize = 4 << 10
	fs, sm, _ := startStub(t, blockSize)
	sm.mu.Lock()
	sm.failReports = 1
	sm.mu.Unlock()
	id := createClose(t, fs, "/f", testPattern(blockSize, 3))
	fs.ship()
	if spans, records, reports := sm.shipped(); reports != 1 || len(spans) != 0 || len(records) != 0 {
		t.Fatalf("after the refused Report: %d reports, %d spans, %d records", reports, len(spans), len(records))
	}
	fs.ship()
	spans, records, reports := sm.shipped()
	if reports != 2 || len(records) != 1 || records[0].TraceID != id {
		t.Fatalf("retry: %d reports, records %+v", reports, records)
	}
	var root bool
	for _, sp := range spans {
		root = root || (sp.TraceID == id && sp.Op == "client.write")
	}
	if !root {
		t.Fatalf("retry shipped %d spans without the write's root", len(spans))
	}
	noRetries(t, fs)
}

// TestIdleClientShips: an operation followed by silence still reaches
// the master, from the ship timer, about shipDelay later.
func TestIdleClientShips(t *testing.T) {
	fs, sm, _ := startStub(t, 4<<10)
	start := time.Now()
	id := createClose(t, fs, "/idle", nil)
	for {
		spans, _, _ := sm.shipped()
		if len(spans) > 0 {
			if spans[0].TraceID != id {
				t.Fatalf("shipped trace %s, want %s", spans[0].TraceID, id)
			}
			t.Logf("shipped %v after the operation began", time.Since(start))
			noRetries(t, fs)
			return
		}
		if time.Since(start) > shipDelay+time.Second {
			t.Fatalf("nothing shipped %v after an idle client's operation", time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
