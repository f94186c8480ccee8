package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// The data-transfer protocol spoken on a worker's data port. Every
// exchange starts with a one-byte opcode followed by a binary v1
// header frame (see binframe.go); block content then flows as
// checksummed packets. Connections are persistent: after a clean
// exchange the same connection carries the next opcode.
const (
	// OpWriteBlock streams a block into a pipeline of workers
	// (paper §3.1: Worker-to-Worker pipeline).
	OpWriteBlock = byte(iota + 1)

	// OpReadBlock streams a block (or a byte range of it) to a reader.
	OpReadBlock
)

// MaxPacketSize bounds one data packet. 64 KiB balances syscall
// overhead against pipelining latency, like HDFS's packet size.
const MaxPacketSize = 64 << 10

// PipelineTarget identifies one stage of a write pipeline: the worker
// address to forward to and the media that stage must store on.
type PipelineTarget struct {
	Worker  core.WorkerID
	Address string
	Storage core.StorageID
}

// WriteBlockHeader opens an OpWriteBlock exchange.
type WriteBlockHeader struct {
	Block core.Block // NumBytes may be 0; the packet stream defines it
	// Pipeline lists this worker's stage first; the worker stores on
	// Pipeline[0].Storage and forwards to Pipeline[1:].
	Pipeline []PipelineTarget
	// Client names the writing client for log and audit purposes.
	Client string
	// ReqID correlates this exchange with the client operation that
	// caused it across master and worker logs.
	ReqID string
	// SpanID is the sender's span, parenting this stage's span; each
	// stage replaces it with its own span ID before forwarding, so the
	// pipeline's spans chain client → worker → downstream worker.
	SpanID string
}

// WriteBlockAck closes an OpWriteBlock exchange, reporting per-stage
// success upstream.
type WriteBlockAck struct {
	// Err is the EncodeError representation of the first failure in
	// this stage or any downstream stage ("" = success).
	Err string
	// Stored is the number of bytes persisted by this stage.
	Stored int64
}

// ReadBlockHeader opens an OpReadBlock exchange.
type ReadBlockHeader struct {
	Block   core.Block
	Storage core.StorageID
	Offset  int64 // starting byte within the block
	Length  int64 // bytes to read; -1 = to end of block
	// ReqID correlates this exchange with the client operation that
	// caused it across master and worker logs.
	ReqID string
	// SpanID is the reader's span, parenting the worker's read span.
	SpanID string
}

// ReadBlockResponse precedes the packet stream of an OpReadBlock.
type ReadBlockResponse struct {
	Err    string // EncodeError representation; "" = data follows
	Length int64  // number of bytes that will be streamed
}

// Frame types of the four block messages.
const (
	msgWriteBlockHeader = byte(iota + 1)
	msgWriteBlockAck
	msgReadBlockHeader
	msgReadBlockResponse
)

// blockMessage is a data-port message: a body that knows its frame type.
type blockMessage interface {
	message
	frameType() byte
}

func (*WriteBlockHeader) frameType() byte  { return msgWriteBlockHeader }
func (*WriteBlockAck) frameType() byte     { return msgWriteBlockAck }
func (*ReadBlockHeader) frameType() byte   { return msgReadBlockHeader }
func (*ReadBlockResponse) frameType() byte { return msgReadBlockResponse }

func (m *WriteBlockHeader) wire(c *coder) {
	block(c, &m.Block)
	list(c, &m.Pipeline, pipelineTarget)
	str(c, &m.Client)
	str(c, &m.ReqID)
	str(c, &m.SpanID)
}

func pipelineTarget(c *coder, t *PipelineTarget) {
	str(c, &t.Worker)
	str(c, &t.Address)
	str(c, &t.Storage)
}

func (m *WriteBlockAck) wire(c *coder) {
	str(c, &m.Err)
	num(c, &m.Stored)
}

func (m *ReadBlockHeader) wire(c *coder) {
	block(c, &m.Block)
	str(c, &m.Storage)
	num(c, &m.Offset)
	num(c, &m.Length)
	str(c, &m.ReqID)
	str(c, &m.SpanID)
}

func (m *ReadBlockResponse) wire(c *coder) {
	str(c, &m.Err)
	num(c, &m.Length)
}

// WriteFrame encodes v, one of the four block messages, as one frame.
func WriteFrame(w io.Writer, v any) error {
	var m blockMessage
	switch v := v.(type) {
	case WriteBlockHeader:
		m = &v
	case WriteBlockAck:
		m = &v
	case ReadBlockHeader:
		m = &v
	case ReadBlockResponse:
		m = &v
	default:
		return fmt.Errorf("rpc: %T is not a block message", v)
	}
	bp := getScratch()
	defer putScratch(bp)
	buf := encode(beginFrame((*bp)[:0], m.frameType()), m)
	*bp = buf
	if err := sealFrame(buf, 0, maxFrameSize); err != nil {
		return err
	}
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(len(buf) - frameHeaderLen))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("rpc: writing frame: %w", err)
	}
	return nil
}

// maxFrameSize bounds a data-port frame; headers are small, so anything
// bigger indicates a corrupt or hostile stream.
const maxFrameSize = 1 << 20

// ReadFrame decodes one frame into v, a pointer to the block message
// the exchange expects. Any first byte but the tag, including the 0x00
// a gob frame of older builds starts with, is refused before a length
// is trusted.
func ReadFrame(r io.Reader, v any) error {
	m, ok := v.(blockMessage)
	if !ok {
		return fmt.Errorf("rpc: %T is not a block message", v)
	}
	bp := getScratch()
	defer putScratch(bp)
	typ, body, err := readFrame(r, bp, maxFrameSize)
	if err != nil {
		return err
	}
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(len(body) + 1))
	if typ != m.frameType() {
		return fmt.Errorf("rpc: frame type %d, want %d for %T", typ, m.frameType(), v)
	}
	return decode(body, m)
}

// castagnoli is the CRC-32C table used for packet checksums, the same
// polynomial HDFS uses for block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// packetBufSize is the staging-buffer size shared by the packet
// reader and writer: one max-size packet plus framing headroom.
const packetBufSize = MaxPacketSize + 64

// packetWriterPool and packetReaderPool recycle the bufio buffers the
// packet layer stages through: one Get/Put pair per transfer instead
// of a 64 KiB allocation each.
var packetWriterPool = sync.Pool{}
var packetReaderPool = sync.Pool{}

// PacketWriter streams block content as checksummed packets:
// [uint32 length][uint32 crc32c][payload]; a zero-length packet
// terminates the stream. Its staging buffer comes from a pool;
// Release returns it once the stream is settled.
type PacketWriter struct {
	w     *bufio.Writer
	buf   [8]byte
	alloc int64
}

// NewPacketWriter wraps w for packet output.
func NewPacketWriter(w io.Writer) *PacketWriter {
	pw := &PacketWriter{}
	if v := packetWriterPool.Get(); v != nil {
		pw.w = v.(*bufio.Writer)
		pw.w.Reset(w)
	} else {
		pw.w = bufio.NewWriterSize(w, packetBufSize)
		pw.alloc = packetBufSize
	}
	return pw
}

// AllocBytes reports the buffer bytes this writer freshly allocated —
// the per-transfer churn cost the flight recorder tracks. Pool reuse
// makes it zero in steady state.
func (pw *PacketWriter) AllocBytes() int64 { return pw.alloc }

// Release returns the staging buffer to the pool. The stream must be
// settled first (Close flushed it, or the transfer aborted and the
// buffered tail is being dropped with the connection). Double release
// is a no-op.
func (pw *PacketWriter) Release() {
	if pw.w == nil {
		return
	}
	pw.w.Reset(io.Discard)
	packetWriterPool.Put(pw.w)
	pw.w = nil
}

// Write implements io.Writer, splitting p into packets of at most
// MaxPacketSize bytes.
func (pw *PacketWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > MaxPacketSize {
			chunk = chunk[:MaxPacketSize]
		}
		binary.BigEndian.PutUint32(pw.buf[0:4], uint32(len(chunk)))
		binary.BigEndian.PutUint32(pw.buf[4:8], crc32.Checksum(chunk, castagnoli))
		if _, err := pw.w.Write(pw.buf[:]); err != nil {
			return total, fmt.Errorf("rpc: writing packet header: %w", err)
		}
		if _, err := pw.w.Write(chunk); err != nil {
			return total, fmt.Errorf("rpc: writing packet payload: %w", err)
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom: it pumps r into full-size packets
// through one pooled buffer, so io.Copy onto a PacketWriter stages the
// content exactly once instead of allocating its own copy buffer.
func (pw *PacketWriter) ReadFrom(r io.Reader) (int64, error) {
	buf, fresh := bufpool.Get(MaxPacketSize)
	if fresh {
		pw.alloc += MaxPacketSize
	}
	defer bufpool.Put(buf)
	var total int64
	for {
		// Fill the packet so slow readers still yield full-size packets.
		n := 0
		var rerr error
		for n < len(buf) && rerr == nil {
			var m int
			m, rerr = r.Read(buf[n:])
			n += m
		}
		if n > 0 {
			if _, werr := pw.Write(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// Close terminates the stream with an empty packet and flushes.
func (pw *PacketWriter) Close() error {
	binary.BigEndian.PutUint32(pw.buf[0:4], 0)
	binary.BigEndian.PutUint32(pw.buf[4:8], 0)
	if _, err := pw.w.Write(pw.buf[:]); err != nil {
		return fmt.Errorf("rpc: writing end packet: %w", err)
	}
	return pw.w.Flush()
}

// PacketReader consumes a packet stream, verifying each packet's
// checksum. It implements io.Reader and reports core.ErrCorrupt on a
// checksum mismatch. Its buffers come from pools; Release returns
// them once the stream is settled.
type PacketReader struct {
	r       *bufio.Reader
	pending []byte
	done    bool
	scratch []byte
	alloc   int64
}

// NewPacketReader wraps r for packet input.
func NewPacketReader(r io.Reader) *PacketReader {
	pr := &PacketReader{}
	if v := packetReaderPool.Get(); v != nil {
		pr.r = v.(*bufio.Reader)
		pr.r.Reset(r)
	} else {
		pr.r = bufio.NewReaderSize(r, packetBufSize)
		pr.alloc = packetBufSize
	}
	return pr
}

// AllocBytes reports the buffer bytes this reader freshly allocated
// (bufio buffer plus scratch) — the per-transfer churn cost the
// flight recorder tracks. Pool reuse makes it zero in steady state.
func (pr *PacketReader) AllocBytes() int64 { return pr.alloc }

// Drained reports that the stream's end marker was consumed and no
// payload remains undelivered — the state in which the underlying
// connection is clean and reusable.
func (pr *PacketReader) Drained() bool { return pr.done && len(pr.pending) == 0 }

// PendingEmpty reports that no decoded payload is waiting. When true
// but not Drained, only the end marker (or more packets) remains on
// the wire.
func (pr *PacketReader) PendingEmpty() bool { return len(pr.pending) == 0 }

// TryFinish attempts to consume the stream's end marker: after a
// consumer read exactly the advertised length, the zero-length
// terminator may still be in flight. It returns true if the stream is
// now drained, false if payload (not a terminator) arrived or the
// read failed. Callers bound the attempt with a deadline on the
// underlying connection.
func (pr *PacketReader) TryFinish() bool {
	if pr.Drained() {
		return true
	}
	if len(pr.pending) > 0 {
		return false
	}
	if err := pr.fill(); err != nil {
		return false
	}
	return pr.Drained()
}

// Release returns the reader's buffers to their pools. The caller
// must be done with the stream (and any slice returned by Read has
// been consumed — Read copies, so that always holds).
func (pr *PacketReader) Release() {
	if pr.r != nil {
		pr.r.Reset(emptyReader{})
		packetReaderPool.Put(pr.r)
		pr.r = nil
	}
	if pr.scratch != nil {
		bufpool.Put(pr.scratch)
		pr.scratch = nil
		pr.pending = nil
	}
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// Read implements io.Reader.
func (pr *PacketReader) Read(p []byte) (int, error) {
	for len(pr.pending) == 0 {
		if pr.done {
			return 0, io.EOF
		}
		if err := pr.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, pr.pending)
	pr.pending = pr.pending[n:]
	return n, nil
}

// WriteTo implements io.WriterTo: it hands each verified packet's
// payload straight to w, so io.Copy from a PacketReader performs no
// extra staging copy.
func (pr *PacketReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		for len(pr.pending) == 0 {
			if pr.done {
				return total, nil
			}
			if err := pr.fill(); err != nil {
				return total, err
			}
		}
		n, err := w.Write(pr.pending)
		pr.pending = pr.pending[n:]
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

func (pr *PacketReader) fill() error {
	var hdr [8]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF // stream ended without end packet
		}
		return err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 {
		pr.done = true
		return nil
	}
	if length > MaxPacketSize {
		return fmt.Errorf("rpc: packet of %d bytes exceeds limit", length)
	}
	if cap(pr.scratch) < int(length) {
		if pr.scratch != nil {
			bufpool.Put(pr.scratch)
		}
		var fresh bool
		pr.scratch, fresh = bufpool.Get(int(length))
		if fresh {
			pr.alloc += int64(length)
		}
	}
	buf := pr.scratch[:length]
	if _, err := io.ReadFull(pr.r, buf); err != nil {
		return fmt.Errorf("rpc: reading packet payload: %w", err)
	}
	if got := crc32.Checksum(buf, castagnoli); got != want {
		return fmt.Errorf("rpc: packet checksum mismatch (got %08x, want %08x): %w",
			got, want, core.ErrCorrupt)
	}
	pr.pending = buf
	return nil
}
