package rpc

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// One block stream runs on the data port: the checksums first, then
// the bytes. A window is one ReadBlockResponse frame, whose Sums hold
// one CRC-32C per piece of the Length raw bytes that follow it, and
// those bytes, unframed. Pieces are the window cut at the block's
// core.ChunkSize boundaries, so both sides derive the cut from the
// window's block offset and Length, and the piece of a whole chunk
// carries the sum its writer computed and the replica stores.
//
// A read response is one window at the requested offset (or a refusal,
// with Err set and nothing after it); only a ranged read's edge pieces
// carry sums computed when served. A write stream is windows at running
// block offsets 0, L₁, … and ends with an empty window. Every window
// but the empty one starts on a chunk boundary, so only the last ends
// inside a chunk and no chunk travels, or is stored, as two pieces.

// windowChunks is the most chunks a PacketWriter puts in one window.
const windowChunks = 16

// pieceLen is the length of the piece that starts at block offset off
// when left bytes of the range remain.
func pieceLen(off, left int64) int {
	return int(min(left, core.ChunkSize-off%core.ChunkSize))
}

// pieceCount is the number of pieces in length bytes at block offset
// offset.
func pieceCount(offset, length int64) int {
	if length <= 0 {
		return 0
	}
	return int((offset+length-1)/core.ChunkSize - offset/core.ChunkSize + 1)
}

// PieceSums returns the piece sums of p, a range that starts at block
// offset offset: the Sums of the window that carries it.
func PieceSums(p []byte, offset int64) []uint32 {
	return appendPieceSums(make([]uint32, 0, pieceCount(offset, int64(len(p)))), p, offset)
}

func appendPieceSums(sums []uint32, p []byte, offset int64) []uint32 {
	for len(p) > 0 {
		n := pieceLen(offset, int64(len(p)))
		sums = append(sums, core.ChunkSum(p[:n]))
		p, offset = p[n:], offset+int64(n)
	}
	return sums
}

// sumsPool recycles the slices windows decode their sums into: one per
// open stream, back at Release.
var sumsPool = sync.Pool{New: func() any { return new([]uint32) }}

// Packet is one verified piece as Next returns it: Payload is the
// content and Sum its CRC-32C. Header is the frame of the write-stream
// window the piece opens, as it arrived (nil for a window's later
// pieces and for a read response's), so a pipeline stage can forward
// the stream verbatim. The slices are valid until the next call.
type Packet struct {
	Header  []byte
	Payload []byte
	Sum     uint32
}

// PacketReader decodes a block stream: a read response, as
// OpenBlockReader returns it, or a write stream. It hands out no byte
// of a piece before the whole piece has matched its sum: Read copies
// verified bytes out, Next hands out whole pieces. Its buffers come
// from pools; Release (or Close) returns them.
type PacketReader struct {
	r       io.Reader
	off     int64    // block offset of the next unread piece
	left    int64    // bytes of the current window not yet read
	sums    []uint32 // sums of the window's unread pieces
	buf     []byte   // pooled piece buffer, for reads smaller than a piece
	pending []byte   // verified bytes of buf not yet returned
	err     error    // the first failure, returned by every later call
	alloc   int64

	// A write stream reads window after window, none past size, until
	// an empty one; a read response is one window, so it starts done.
	size   int64
	done   bool    // no window follows the current one
	frame  *[]byte // the current window's frame, from frameScratch
	opened bool    // Next has not yet handed out the current frame

	conn    *deadlineConn // a read response's connection, settled by Close
	pooled  *[]uint32     // the sums' slice, from sumsPool
	poolHit bool
}

// NewPacketReader decodes a write stream of any length from r.
func NewPacketReader(r io.Reader) *PacketReader { return NewBlockReceiver(r, math.MaxInt64) }

// NewBlockReceiver decodes the write stream of a block declared to
// hold at most size bytes; a window past it is refused as corrupt.
func NewBlockReceiver(r io.Reader, size int64) *PacketReader {
	return &PacketReader{r: r, size: size}
}

// newBlockStream checks resp against the request hdr and returns a
// stream over the bytes that follow it on r. A response longer than
// the range asked for, or whose sum count does not match its length,
// is refused with core.ErrCorrupt.
func newBlockStream(r io.Reader, hdr ReadBlockHeader, resp ReadBlockResponse) (*PacketReader, error) {
	limit := max(hdr.Block.NumBytes-hdr.Offset, 0)
	if hdr.Length >= 0 {
		limit = min(limit, hdr.Length)
	}
	if resp.Length < 0 || resp.Length > limit || len(resp.Sums) != pieceCount(hdr.Offset, resp.Length) {
		return nil, fmt.Errorf("rpc: block %s: response of %d bytes with %d sums to a read of [%d,+%d): %w",
			hdr.Block.ID, resp.Length, len(resp.Sums), hdr.Offset, hdr.Length, core.ErrCorrupt)
	}
	return &PacketReader{r: r, off: hdr.Offset, left: resp.Length, sums: resp.Sums, done: true}, nil
}

// more readies the next piece: it returns the first failure, or io.EOF
// at the end of the stream, reading a write stream's next window
// header once the current window is spent.
func (b *PacketReader) more() error {
	for b.err == nil && b.left == 0 {
		if b.done {
			return io.EOF
		}
		b.err = b.nextWindow()
	}
	return b.err
}

// nextWindow reads a write stream's next window header. A window whose
// sum count does not match its length, that runs past the declared
// size, or that has bytes but starts inside a chunk is refused with
// core.ErrCorrupt.
func (b *PacketReader) nextWindow() error {
	if b.frame == nil {
		b.frame = getScratch()
		b.pooled = sumsPool.Get().(*[]uint32)
	}
	resp := ReadBlockResponse{Sums: (*b.pooled)[:0]}
	err := readBlockFrame(b.r, b.frame, &resp)
	*b.pooled = resp.Sums[:0]
	switch {
	case err == io.EOF:
		return fmt.Errorf("rpc: write stream ended without its end window: %w", io.ErrUnexpectedEOF)
	case err != nil:
		return fmt.Errorf("rpc: reading window header: %w", err)
	case resp.Err != "":
		return DecodeError(resp.Err)
	case resp.Length < 0 || resp.Length > b.size-b.off || len(resp.Sums) != pieceCount(b.off, resp.Length) ||
		resp.Length > 0 && b.off%core.ChunkSize != 0:
		return fmt.Errorf("rpc: window of %d bytes with %d sums at block offset %d of at most %d: %w",
			resp.Length, len(resp.Sums), b.off, b.size, core.ErrCorrupt)
	}
	b.left, b.sums, b.done, b.opened = resp.Length, resp.Sums, resp.Length == 0, true
	return nil
}

// Read implements io.Reader. Every whole piece of the window that fits
// in p is read straight into p with one io.ReadFull and verified there;
// a p smaller than the next piece is served from the piece buffer. On a
// mismatch or a failed read it returns the verified prefix with the
// error: core.ErrCorrupt for a piece that does not match its sum.
func (b *PacketReader) Read(p []byte) (int, error) {
	if len(b.pending) > 0 {
		n := copy(p, b.pending)
		b.pending = b.pending[n:]
		return n, nil
	}
	if err := b.more(); err != nil {
		return 0, err
	}
	b.opened = false
	n := 0
	for off, left := b.off, b.left; left > 0; {
		l := pieceLen(off, left)
		if n+l > len(p) {
			break
		}
		n, off, left = n+l, off+int64(l), left-int64(l)
	}
	if n > 0 {
		return b.fill(p[:n])
	}
	if len(p) == 0 {
		return 0, nil
	}
	pkt, err := b.Next()
	if err != nil {
		return 0, err
	}
	n = copy(p, pkt.Payload)
	b.pending = pkt.Payload[n:]
	return n, nil
}

// Next reads the next piece into the piece buffer and verifies it,
// returning it with its sum, or io.EOF after the last piece. Bytes a
// Read left pending are dropped.
func (b *PacketReader) Next() (Packet, error) {
	b.pending = nil
	if err := b.more(); err != nil {
		return Packet{}, err
	}
	var hdr []byte
	if b.opened {
		hdr, b.opened = *b.frame, false
	}
	if b.buf == nil {
		var fresh bool
		b.buf, fresh = bufpool.Get(core.ChunkSize)
		if fresh {
			b.alloc += core.ChunkSize
		}
	}
	sum, piece := b.sums[0], b.buf[:pieceLen(b.off, b.left)]
	if _, err := b.fill(piece); err != nil {
		return Packet{}, err
	}
	return Packet{Header: hdr, Payload: piece, Sum: sum}, nil
}

// fill reads len(p) bytes, a whole number of pieces, into p and
// verifies them piece by piece, returning how many bytes verified.
// Any failure sticks.
func (b *PacketReader) fill(p []byte) (int, error) {
	m, err := io.ReadFull(b.r, p)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		err = fmt.Errorf("rpc: reading block stream: %w", err)
	}
	v := 0
	for l := pieceLen(b.off, b.left); v+l <= m && l > 0; l = pieceLen(b.off, b.left) {
		if got := core.ChunkSum(p[v : v+l]); got != b.sums[0] {
			err = fmt.Errorf("rpc: piece at block offset %d: checksum %08x, want %08x: %w", b.off, got, b.sums[0], core.ErrCorrupt)
			break
		}
		v, b.off, b.left, b.sums = v+l, b.off+int64(l), b.left-int64(l), b.sums[1:]
	}
	b.err = err
	return v, err
}

// Release returns the reader's buffers to their pools; later calls
// fail with core.ErrFileClosed. A second call does nothing.
func (b *PacketReader) Release() {
	if b.buf != nil {
		bufpool.Put(b.buf)
		b.buf, b.pending = nil, nil
	}
	if b.pooled != nil {
		sumsPool.Put(b.pooled)
		b.pooled, b.sums = nil, nil
	}
	if b.frame != nil {
		putScratch(b.frame)
		b.frame = nil
	}
	b.left, b.err = 0, core.ErrFileClosed
}

// PoolHit reports whether the stream's connection was reused from the
// pool; flight-recorder entries surface it per transfer.
func (b *PacketReader) PoolHit() bool { return b.poolHit }

// AllocBytes reports the stream's transfer-local buffer allocations,
// for the flight recorder's churn accounting.
func (b *PacketReader) AllocBytes() int64 { return b.alloc }

// Close releases the reader. A read response's connection goes back
// to the pool when every byte of the response was read and verified,
// the one state in which it is clean, and is closed otherwise: an
// abandoned stream would poison the next exchange.
func (b *PacketReader) Close() error {
	clean := b.err == nil && b.left == 0 && b.done
	b.Release()
	conn := b.conn
	b.conn = nil
	switch {
	case conn == nil:
		return nil
	case clean:
		releaseData(conn)
		return nil
	}
	return conn.Close()
}

// PacketWriter encodes a write stream. Write sends the whole chunks of
// its input straight from the caller's slice, up to windowChunks of
// them per window, each window's header and bytes in one write; only a
// partial trailing chunk is staged, in one pooled chunk buffer, until
// the next Write completes it or Close sends it. WriteRaw forwards a
// decoded stream instead. Release returns the buffer once the stream
// is settled.
type PacketWriter struct {
	w     io.Writer
	off   int64             // block offset of the next window
	stage []byte            // the partial trailing chunk; pooled, nil until needed
	hdr   []byte            // the window frames of one send
	resp  ReadBlockResponse // the window being encoded
	iov   [4][]byte         // backs bufs, so a send allocates nothing
	bufs  net.Buffers
	alloc int64
}

// NewPacketWriter wraps w for write-stream output.
func NewPacketWriter(w io.Writer) *PacketWriter { return &PacketWriter{w: w} }

// AllocBytes reports the buffer bytes this writer freshly allocated —
// the per-transfer churn cost the flight recorder tracks. Pool reuse
// makes it zero in steady state.
func (pw *PacketWriter) AllocBytes() int64 { return pw.alloc }

// Release returns the staging buffer to the pool. The stream must be
// settled first (Close sent it, or the transfer aborted and the staged
// tail is being dropped with the connection). Double release is a
// no-op.
func (pw *PacketWriter) Release() {
	if pw.stage != nil {
		bufpool.Put(pw.stage)
		pw.stage = nil
	}
}

// Write implements io.Writer. n counts the bytes sent or staged.
func (pw *PacketWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		var head []byte
		if len(pw.stage) > 0 || len(p) < core.ChunkSize {
			if pw.stage == nil {
				var fresh bool
				pw.stage, fresh = bufpool.Get(core.ChunkSize)
				pw.stage = pw.stage[:0]
				if fresh {
					pw.alloc += core.ChunkSize
				}
			}
			c := copy(pw.stage[len(pw.stage):core.ChunkSize], p)
			pw.stage, p, total = pw.stage[:len(pw.stage)+c], p[c:], total+c
			if len(pw.stage) < core.ChunkSize {
				return total, nil
			}
			head = pw.stage
		}
		body := p[:min(len(p)/core.ChunkSize, windowChunks-len(head)/core.ChunkSize)*core.ChunkSize]
		if err := pw.send(head, body, false); err != nil {
			return total, err
		}
		pw.stage = pw.stage[:0]
		p, total = p[len(body):], total+len(body)
	}
	return total, nil
}

// WriteRaw forwards one piece of a decoded write stream verbatim: the
// frame of the window it opens, if any, then its bytes, so a pipeline
// stage passes the writer's sums on without recomputing them. A stage
// forwards every piece Next returns and then Closes; it does not mix
// WriteRaw with Write.
func (pw *PacketWriter) WriteRaw(p Packet) error {
	if err := pw.write(p.Header, p.Payload); err != nil {
		return fmt.Errorf("rpc: forwarding window: %w", err)
	}
	return nil
}

// Close ends the stream: the staged partial chunk, if any, and the
// empty window go out in one write.
func (pw *PacketWriter) Close() error {
	err := pw.send(pw.stage, nil, true)
	pw.stage = pw.stage[:0]
	return err
}

// send writes head and body, whole chunks but for a short last head,
// as one window, followed by the empty window when end is set.
func (pw *PacketWriter) send(head, body []byte, end bool) error {
	n := len(head) + len(body)
	hdr := pw.hdr[:0]
	var err error
	if n > 0 {
		sums := appendPieceSums(pw.resp.Sums[:0], head, pw.off)
		pw.resp = ReadBlockResponse{Length: int64(n), Sums: appendPieceSums(sums, body, pw.off+int64(len(head)))}
		hdr, err = appendFrame(hdr, &pw.resp)
	}
	mark := len(hdr)
	if end && err == nil {
		hdr, err = appendFrame(hdr, &ReadBlockResponse{})
	}
	pw.hdr = hdr
	if err == nil {
		err = pw.write(hdr[:mark], head, body, hdr[mark:])
	}
	if err != nil {
		return fmt.Errorf("rpc: writing window: %w", err)
	}
	pw.off += int64(n)
	return nil
}

// write sends parts in order, with one writev on a data connection.
func (pw *PacketWriter) write(parts ...[]byte) (err error) {
	pw.bufs = append(pw.iov[:0], parts...)
	if dc, ok := pw.w.(*deadlineConn); ok {
		_, err = dc.writeBuffers(&pw.bufs)
	} else {
		_, err = pw.bufs.WriteTo(pw.w)
	}
	return err
}
