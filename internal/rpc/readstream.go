package rpc

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// A read stream sends the checksums first, then the bytes. The
// worker's ReadBlockResponse carries one CRC-32C per piece of the
// range it serves, and exactly Length raw bytes follow it: no packet
// headers and no end marker, so the exchange is clean once Length
// bytes are read. Pieces are the range cut at the block's
// core.ChunkSize boundaries, so the piece of a whole chunk carries the
// sum stored with the replica and only a ranged read's edge pieces
// carry sums computed when served. Both sides derive the cut from the
// request's Offset and the response's Length.

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
// offset offset: the Sums of the ReadBlockResponse that serves it.
func PieceSums(p []byte, offset int64) []uint32 {
	sums := make([]uint32, 0, pieceCount(offset, int64(len(p))))
	for len(p) > 0 {
		n := pieceLen(offset, int64(len(p)))
		sums = append(sums, core.ChunkSum(p[:n]))
		p, offset = p[n:], offset+int64(n)
	}
	return sums
}

// sumsPool recycles the slices read responses decode their sums into:
// one per open stream, back at Close.
var sumsPool = sync.Pool{New: func() any { return new([]uint32) }}

// blockReadCloser is the client end of a read exchange. It reads the
// bytes of the response and hands out no byte of a piece before the
// whole piece has matched its sum.
type blockReadCloser struct {
	r       io.Reader
	off     int64    // block offset of the next unread piece
	left    int64    // response bytes not yet read
	sums    []uint32 // sums of the unread pieces
	buf     []byte   // pooled piece buffer, for reads smaller than a piece
	pending []byte   // verified bytes of buf not yet returned
	err     error    // the first failure, returned by every later call
	alloc   int64

	conn     *deadlineConn
	pooled   *[]uint32 // the sums' slice, from sumsPool
	released bool
	poolHit  bool
}

// newBlockStream checks resp against the request hdr and returns a
// stream over the bytes that follow it on r. A response longer than
// the range asked for, or whose sum count does not match its length,
// is refused with core.ErrCorrupt.
func newBlockStream(r io.Reader, hdr ReadBlockHeader, resp ReadBlockResponse) (*blockReadCloser, error) {
	limit := max(hdr.Block.NumBytes-hdr.Offset, 0)
	if hdr.Length >= 0 {
		limit = min(limit, hdr.Length)
	}
	if resp.Length < 0 || resp.Length > limit || len(resp.Sums) != pieceCount(hdr.Offset, resp.Length) {
		return nil, fmt.Errorf("rpc: block %s: response of %d bytes with %d sums to a read of [%d,+%d): %w",
			hdr.Block.ID, resp.Length, len(resp.Sums), hdr.Offset, hdr.Length, core.ErrCorrupt)
	}
	return &blockReadCloser{r: r, off: hdr.Offset, left: resp.Length, sums: resp.Sums}, nil
}

// Read implements io.Reader. Every whole piece that fits in p is read
// straight into p with one io.ReadFull and verified there; a p smaller
// than the next piece is served from the piece buffer. On a mismatch
// or a failed read it returns the verified prefix with the error:
// core.ErrCorrupt for a piece that does not match its sum.
func (b *blockReadCloser) Read(p []byte) (int, error) {
	if len(b.pending) > 0 {
		n := copy(p, b.pending)
		b.pending = b.pending[n:]
		return n, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	if b.left == 0 {
		return 0, io.EOF
	}
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
// returning it with its sum (Raw is nil: a read stream has no packet
// framing), or io.EOF after the last piece. The payload is valid until
// the next call. Bytes a Read left pending are dropped.
func (b *blockReadCloser) Next() (Packet, error) {
	b.pending = nil
	if b.err != nil {
		return Packet{}, b.err
	}
	if b.left == 0 {
		return Packet{}, io.EOF
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
	return Packet{Payload: piece, Sum: sum}, nil
}

// fill reads len(p) bytes, a whole number of pieces, into p and
// verifies them piece by piece, returning how many bytes verified.
// Any failure sticks.
func (b *blockReadCloser) fill(p []byte) (int, error) {
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

// release returns the piece buffer and the sums to their pools.
func (b *blockReadCloser) release() {
	if b.buf != nil {
		bufpool.Put(b.buf)
		b.buf, b.pending = nil, nil
	}
	if b.pooled != nil {
		sumsPool.Put(b.pooled)
		b.pooled, b.sums = nil, nil
	}
}

// PoolHit reports whether the stream's connection was reused from the
// pool; flight-recorder entries surface it per transfer.
func (b *blockReadCloser) PoolHit() bool { return b.poolHit }

// AllocBytes reports the stream's transfer-local buffer allocations,
// for the flight recorder's churn accounting.
func (b *blockReadCloser) AllocBytes() int64 { return b.alloc }

// Close returns the connection to the pool when every byte of the
// response was read and verified, the one state in which it is clean,
// and closes it otherwise: an abandoned stream would poison the next
// exchange.
func (b *blockReadCloser) Close() error {
	if b.released {
		return nil
	}
	b.released = true
	clean := b.left == 0
	b.release()
	b.left, b.err = 0, core.ErrFileClosed
	if clean {
		releaseData(b.conn)
		return nil
	}
	return b.conn.Close()
}
