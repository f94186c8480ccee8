package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// The data-transfer protocol spoken on a worker's data port. Every
// exchange starts with a one-byte opcode followed by a binary header
// frame. A write's content then flows as checksummed packets; a read's
// response frame carries the checksums and the bytes follow unframed
// (see readstream.go). Connections are persistent: after a clean
// exchange the same connection carries the next opcode.
const (
	// OpWriteBlock streams a block into a pipeline of workers
	// (paper §3.1: Worker-to-Worker pipeline).
	OpWriteBlock = byte(iota + 1)

	// OpReadBlock streams a block (or a byte range of it) to a reader.
	OpReadBlock
)

// MaxPacketSize bounds one data packet's payload: one checksum chunk,
// so a packet's CRC is the chunk sum the replica stores. 64 KiB
// balances syscall overhead against pipelining latency, like HDFS's
// packet size.
const MaxPacketSize = core.ChunkSize

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

// ReadBlockResponse precedes the bytes of an OpReadBlock: exactly
// Length raw bytes follow it, with no framing, and Sums holds one
// CRC-32C per piece of them (see PieceSums).
type ReadBlockResponse struct {
	Err    string // EncodeError representation; "" = data follows
	Length int64  // number of bytes that will be streamed
	Sums   []uint32
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
	list(c, &m.Sums, num32[uint32])
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

// packetHeaderLen is a data packet's header: [uint32 length][uint32
// crc32c], both big-endian. A zero-length packet ends the stream.
const packetHeaderLen = 8

// packetBufSize is the writer's staging buffer: one header, one
// max-size payload, and the end marker that rides the last packet's
// write.
const packetBufSize = packetHeaderLen + MaxPacketSize + packetHeaderLen

// headerBufSize is the reader's bufio buffer. It holds packet headers
// only: payloads larger than it are read straight into the packet.
const headerBufSize = 4 << 10

// packetReaderPool recycles the readers' small header buffers.
var packetReaderPool = sync.Pool{}

// PacketWriter streams block content as checksummed packets:
// [uint32 length][uint32 crc32c][payload]; a zero-length packet
// terminates the stream. Write and ReadFrom cut the content into full
// MaxPacketSize packets, only the last may be short; WriteRaw forwards
// a packet verbatim. Each packet is staged header-first in one pooled buffer
// and sent with one Write. Release returns the buffer once the stream
// is settled.
type PacketWriter struct {
	w     io.Writer
	pkt   []byte // header, then payload
	n     int    // payload bytes staged in pkt
	alloc int64
}

// NewPacketWriter wraps w for packet output.
func NewPacketWriter(w io.Writer) *PacketWriter {
	pw := &PacketWriter{w: w}
	var fresh bool
	pw.pkt, fresh = bufpool.Get(packetBufSize)
	if fresh {
		pw.alloc = packetBufSize
	}
	return pw
}

// AllocBytes reports the buffer bytes this writer freshly allocated —
// the per-transfer churn cost the flight recorder tracks. Pool reuse
// makes it zero in steady state.
func (pw *PacketWriter) AllocBytes() int64 { return pw.alloc }

// Release returns the staging buffer to the pool. The stream must be
// settled first (Close sent it, or the transfer aborted and the staged
// tail is being dropped with the connection). Double release is a
// no-op.
func (pw *PacketWriter) Release() {
	if pw.pkt == nil {
		return
	}
	bufpool.Put(pw.pkt)
	pw.pkt = nil
}

// Write implements io.Writer. A full packet stays staged until more
// content or Close arrives, so the end marker can ride its write.
func (pw *PacketWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if err := pw.makeRoom(); err != nil {
			return total, err
		}
		c := copy(pw.pkt[packetHeaderLen+pw.n:packetHeaderLen+MaxPacketSize], p)
		pw.n += c
		total += c
		p = p[c:]
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom: it reads r straight into the
// staged packet, so io.Copy onto a PacketWriter stages the content
// exactly once and slow readers still yield full-size packets.
func (pw *PacketWriter) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if err := pw.makeRoom(); err != nil {
			return total, err
		}
		m, err := r.Read(pw.pkt[packetHeaderLen+pw.n : packetHeaderLen+MaxPacketSize])
		pw.n += m
		total += int64(m)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// makeRoom sends the staged packet when it cannot take more content.
func (pw *PacketWriter) makeRoom() error {
	if pw.n == MaxPacketSize {
		return pw.send(false)
	}
	return nil
}

// WriteRaw forwards one packet verbatim: header and payload as Next
// returned them, already verified, so a pipeline stage passes the
// writer's checksum on without recomputing it. A packet already staged
// is sent first.
func (pw *PacketWriter) WriteRaw(raw []byte) error {
	if pw.n > 0 {
		if err := pw.send(false); err != nil {
			return err
		}
	}
	if _, err := pw.w.Write(raw); err != nil {
		return fmt.Errorf("rpc: forwarding packet: %w", err)
	}
	return nil
}

// Close terminates the stream: the staged packet, if any, and the
// end marker go out in one Write.
func (pw *PacketWriter) Close() error { return pw.send(true) }

// send writes the staged packet, checksumming its payload, followed by
// the end marker when end is set.
func (pw *PacketWriter) send(end bool) error {
	out := pw.pkt[:0]
	if pw.n > 0 {
		binary.BigEndian.PutUint32(pw.pkt[0:4], uint32(pw.n))
		binary.BigEndian.PutUint32(pw.pkt[4:8], core.ChunkSum(pw.pkt[packetHeaderLen:packetHeaderLen+pw.n]))
		out = pw.pkt[:packetHeaderLen+pw.n]
	}
	if end {
		out = append(out, make([]byte, packetHeaderLen)...)
	}
	pw.n = 0
	if len(out) == 0 {
		return nil
	}
	if _, err := pw.w.Write(out); err != nil {
		return fmt.Errorf("rpc: writing packet: %w", err)
	}
	return nil
}

// Packet is one verified data packet as Next returns it. Raw is its
// wire form (header and payload; nil from a read stream, which has no
// packet framing), Payload the content and Sum its CRC-32C. The slices
// are valid until the next call on the reader.
type Packet struct {
	Raw     []byte
	Payload []byte
	Sum     uint32
}

// PacketReader consumes a packet stream, verifying each packet's
// checksum. It implements io.Reader and reports core.ErrCorrupt on a
// checksum mismatch; Next hands out whole packets instead. Its buffers
// come from pools; Release returns them once the stream is settled.
type PacketReader struct {
	r       *bufio.Reader
	hdr     [packetHeaderLen]byte
	pkt     []byte // the current packet: header, then payload
	pending []byte
	done    bool
	alloc   int64
}

// NewPacketReader wraps r for packet input.
func NewPacketReader(r io.Reader) *PacketReader {
	pr := &PacketReader{}
	if v := packetReaderPool.Get(); v != nil {
		pr.r = v.(*bufio.Reader)
		pr.r.Reset(r)
	} else {
		pr.r = bufio.NewReaderSize(r, headerBufSize)
		pr.alloc = headerBufSize
	}
	return pr
}

// AllocBytes reports the buffer bytes this reader freshly allocated
// (header buffer plus packet buffer) — the per-transfer churn cost the
// flight recorder tracks. Pool reuse makes it zero in steady state.
func (pr *PacketReader) AllocBytes() int64 { return pr.alloc }

// Release returns the reader's buffers to their pools. The caller
// must be done with the stream (and any slice returned by Read has
// been consumed — Read copies, so that always holds).
func (pr *PacketReader) Release() {
	if pr.r != nil {
		pr.r.Reset(emptyReader{})
		packetReaderPool.Put(pr.r)
		pr.r = nil
	}
	if pr.pkt != nil {
		bufpool.Put(pr.pkt)
		pr.pkt = nil
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

// fill makes the next packet's payload pending; at the end marker it
// leaves the reader done.
func (pr *PacketReader) fill() error {
	p, err := pr.Next()
	if err == io.EOF {
		return nil
	}
	pr.pending = p.Payload
	return err
}

// Next reads the next packet and verifies its checksum, returning
// io.EOF at the end marker. Any payload a Read left pending is
// dropped. The packet's slices are valid until the next call.
func (pr *PacketReader) Next() (Packet, error) {
	pr.pending = nil
	if pr.done {
		return Packet{}, io.EOF
	}
	if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.ErrUnexpectedEOF // stream ended without end packet
		}
		return Packet{}, err
	}
	length := binary.BigEndian.Uint32(pr.hdr[0:4])
	sum := binary.BigEndian.Uint32(pr.hdr[4:8])
	if length == 0 {
		pr.done = true
		return Packet{}, io.EOF
	}
	if length > MaxPacketSize {
		return Packet{}, fmt.Errorf("rpc: packet of %d bytes exceeds limit", length)
	}
	if pr.pkt == nil {
		var fresh bool
		pr.pkt, fresh = bufpool.Get(packetHeaderLen + MaxPacketSize)
		if fresh {
			pr.alloc += packetHeaderLen + MaxPacketSize
		}
	}
	raw := pr.pkt[:packetHeaderLen+int(length)]
	copy(raw, pr.hdr[:])
	payload := raw[packetHeaderLen:]
	if _, err := io.ReadFull(pr.r, payload); err != nil {
		return Packet{}, fmt.Errorf("rpc: reading packet payload: %w", err)
	}
	if got := core.ChunkSum(payload); got != sum {
		return Packet{}, fmt.Errorf("rpc: packet checksum mismatch (got %08x, want %08x): %w",
			got, sum, core.ErrCorrupt)
	}
	return Packet{Raw: raw, Payload: payload, Sum: sum}, nil
}
