package rpc

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// The data-transfer protocol spoken on a worker's data port. Every
// exchange starts with a one-byte opcode followed by a binary header
// frame. Block content then flows one way as a block stream, the
// checksums first and the bytes after them (see stream.go): a write's
// windows towards the workers, a read's one window back. Connections
// are persistent: after a clean exchange the same connection carries
// the next opcode.
const (
	// OpWriteBlock streams a block into a pipeline of workers
	// (paper §3.1: Worker-to-Worker pipeline).
	OpWriteBlock = byte(iota + 1)

	// OpReadBlock streams a block (or a byte range of it) to a reader.
	OpReadBlock
)

// PipelineTarget identifies one stage of a write pipeline: the worker
// address to forward to and the media that stage must store on.
type PipelineTarget struct {
	Worker  core.WorkerID
	Address string
	Storage core.StorageID
}

// WriteBlockHeader opens an OpWriteBlock exchange.
type WriteBlockHeader struct {
	// Block.NumBytes is the most the write stream may carry; the
	// stream's length is the replica's.
	Block core.Block
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

// ReadBlockResponse heads one window of a block stream: exactly Length
// raw bytes follow it, with no framing, and Sums holds one CRC-32C per
// piece of them (see PieceSums). It answers an OpReadBlock, where a
// refusal sets Err and no bytes follow, and heads each window of an
// OpWriteBlock's content.
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
	buf, err := appendFrame((*bp)[:0], m)
	*bp = buf
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("rpc: writing frame: %w", err)
	}
	return nil
}

// appendFrame appends m to buf as one frame.
func appendFrame(buf []byte, m blockMessage) ([]byte, error) {
	start := len(buf)
	buf = encode(beginFrame(buf, m.frameType()), m)
	if err := sealFrame(buf, start, maxFrameSize); err != nil {
		return buf, err
	}
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(len(buf) - start - frameHeaderLen))
	return buf, nil
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
	return readBlockFrame(r, bp, m)
}

// readBlockFrame reads one frame into *buf, as it arrived, and decodes
// it into m.
func readBlockFrame(r io.Reader, buf *[]byte, m blockMessage) error {
	typ, body, err := readFrame(r, buf, maxFrameSize)
	if err != nil {
		return err
	}
	connStats.frames.Add(1)
	connStats.frameBytes.Add(uint64(len(body) + 1))
	if typ != m.frameType() {
		return fmt.Errorf("rpc: frame type %d, want %d for %T", typ, m.frameType(), m)
	}
	return decode(body, m)
}
