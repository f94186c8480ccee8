package rpc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Binary framing for the data port's control messages, the only frame
// format it speaks. The v1 format is a fixed little-endian layout:
//
//	[0x01][u32 LE payload length][u8 msgType][fields…]
//
// where fields are little-endian integers and u32-length-prefixed
// strings. The leading tag lets ReadFrame refuse anything else — the
// gob frames older builds sent start with 0x00 — before it trusts a
// length.
const frameTagBinary = 0x01

// Binary message types. The type byte leads the payload so a decoder
// can verify the frame matches the message it expects.
const (
	msgWriteBlockHeader = byte(iota + 1)
	msgWriteBlockAck
	msgReadBlockHeader
	msgReadBlockResponse
)

// frameScratch pools frame assembly and parse buffers: control frames
// are small and constant-rate, so steady state allocates none.
var frameScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendU32/appendU64/appendI64/appendStr build the v1 payload.
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBlock(b []byte, blk core.Block) []byte {
	b = appendU64(b, uint64(blk.ID))
	b = appendU64(b, uint64(blk.GenStamp))
	return appendI64(b, blk.NumBytes)
}

// binReader parses a v1 payload, latching the first error so call
// sites stay linear.
type binReader struct {
	b   []byte
	bad bool
}

func (r *binReader) u32() uint32 {
	if r.bad || len(r.b) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *binReader) u64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *binReader) i64() int64 { return int64(r.u64()) }

func (r *binReader) str() string {
	n := r.u32()
	if r.bad || uint32(len(r.b)) < n {
		r.bad = true
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) block() core.Block {
	return core.Block{
		ID:       core.BlockID(r.u64()),
		GenStamp: core.GenerationStamp(r.u64()),
		NumBytes: r.i64(),
	}
}

// encodeBinary appends msgType+fields for the block messages,
// returning ok == false for any other type.
func encodeBinary(buf []byte, v any) ([]byte, bool) {
	switch m := v.(type) {
	case WriteBlockHeader:
		buf = append(buf, msgWriteBlockHeader)
		buf = appendBlock(buf, m.Block)
		buf = appendU32(buf, uint32(len(m.Pipeline)))
		for _, t := range m.Pipeline {
			buf = appendStr(buf, string(t.Worker))
			buf = appendStr(buf, t.Address)
			buf = appendStr(buf, string(t.Storage))
		}
		buf = appendStr(buf, m.Client)
		buf = appendStr(buf, m.ReqID)
		return appendStr(buf, m.SpanID), true
	case WriteBlockAck:
		buf = append(buf, msgWriteBlockAck)
		buf = appendStr(buf, m.Err)
		return appendI64(buf, m.Stored), true
	case ReadBlockHeader:
		buf = append(buf, msgReadBlockHeader)
		buf = appendBlock(buf, m.Block)
		buf = appendStr(buf, string(m.Storage))
		buf = appendI64(buf, m.Offset)
		buf = appendI64(buf, m.Length)
		buf = appendStr(buf, m.ReqID)
		return appendStr(buf, m.SpanID), true
	case ReadBlockResponse:
		buf = append(buf, msgReadBlockResponse)
		buf = appendStr(buf, m.Err)
		return appendI64(buf, m.Length), true
	}
	return buf, false
}

// maxFrameList bounds a decoded pipeline's length; a cluster
// pipeline is replica-count long, so anything large indicates a
// corrupt frame.
const maxFrameList = 1 << 12

// decodeBinary parses a v1 payload (msgType byte already included in
// payload) into v, which must be a pointer to the matching message.
func decodeBinary(payload []byte, v any) error {
	if len(payload) == 0 {
		return fmt.Errorf("rpc: empty binary frame")
	}
	msgType, r := payload[0], binReader{b: payload[1:]}
	want := func(t byte) error {
		if msgType != t {
			return fmt.Errorf("rpc: binary frame type %d, want %d for %T", msgType, t, v)
		}
		return nil
	}
	switch m := v.(type) {
	case *WriteBlockHeader:
		if err := want(msgWriteBlockHeader); err != nil {
			return err
		}
		m.Block = r.block()
		n := r.u32()
		if n > maxFrameList {
			return fmt.Errorf("rpc: binary frame pipeline of %d stages", n)
		}
		m.Pipeline = make([]PipelineTarget, 0, n)
		for i := uint32(0); i < n && !r.bad; i++ {
			m.Pipeline = append(m.Pipeline, PipelineTarget{
				Worker:  core.WorkerID(r.str()),
				Address: r.str(),
				Storage: core.StorageID(r.str()),
			})
		}
		m.Client = r.str()
		m.ReqID = r.str()
		m.SpanID = r.str()
	case *WriteBlockAck:
		if err := want(msgWriteBlockAck); err != nil {
			return err
		}
		m.Err = r.str()
		m.Stored = r.i64()
	case *ReadBlockHeader:
		if err := want(msgReadBlockHeader); err != nil {
			return err
		}
		m.Block = r.block()
		m.Storage = core.StorageID(r.str())
		m.Offset = r.i64()
		m.Length = r.i64()
		m.ReqID = r.str()
		m.SpanID = r.str()
	case *ReadBlockResponse:
		if err := want(msgReadBlockResponse); err != nil {
			return err
		}
		m.Err = r.str()
		m.Length = r.i64()
	default:
		return fmt.Errorf("rpc: no binary decoder for %T", v)
	}
	if r.bad {
		return fmt.Errorf("rpc: truncated binary frame for %T", v)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("rpc: %d trailing bytes in binary frame for %T", len(r.b), v)
	}
	return nil
}
