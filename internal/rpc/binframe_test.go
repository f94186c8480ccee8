package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/core"
)

// hotMessages returns one populated value of every message type the
// binary v1 framing covers, paired with a zero destination to decode
// into.
func hotMessages() []struct {
	name string
	in   any
	out  any
} {
	return []struct {
		name string
		in   any
		out  any
	}{
		{"WriteBlockHeader", WriteBlockHeader{
			Block: core.Block{ID: 42, GenStamp: 7, NumBytes: 1 << 20},
			Pipeline: []PipelineTarget{
				{Worker: "w1", Address: "h1:9866", Storage: "w1:mem0"},
				{Worker: "w2", Address: "h2:9866", Storage: "w2:hdd1"},
			},
			Client: "bench-client", ReqID: "aabbccdd00112233", SpanID: "span-1",
		}, &WriteBlockHeader{}},
		{"WriteBlockAck", WriteBlockAck{Err: "E_NOSPACE: media full", Stored: 12345}, &WriteBlockAck{}},
		{"ReadBlockHeader", ReadBlockHeader{
			Block:   core.Block{ID: 9, GenStamp: 3, NumBytes: 4096},
			Storage: "w1:ssd0", Offset: 512, Length: -1,
			ReqID: "ffee", SpanID: "span-2",
		}, &ReadBlockHeader{}},
		{"ReadBlockResponse", ReadBlockResponse{Err: "", Length: 1 << 22}, &ReadBlockResponse{}},
	}
}

// TestBinaryFrameRoundTrip pushes every hot-path message through the
// binary v1 framing and checks both the wire format tag and the
// decoded value.
func TestBinaryFrameRoundTrip(t *testing.T) {
	for _, c := range hotMessages() {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, c.in); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			if tag := buf.Bytes()[0]; tag != frameTagBinary {
				t.Fatalf("hot message framed with tag 0x%02x, want binary 0x%02x", tag, frameTagBinary)
			}
			if err := ReadFrame(&buf, c.out); err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			assertFrameEqual(t, c.name, c.in, c.out)
		})
	}
}

// TestLegacyGobFrameRoundTrip pins that the data port speaks binary v1
// only: a gob frame of any message, as older builds sent it (a
// big-endian u32 length, so a leading 0x00, then the gob stream), is
// refused by its tag before its length is trusted.
func TestLegacyGobFrameRoundTrip(t *testing.T) {
	for _, c := range hotMessages() {
		t.Run(c.name, func(t *testing.T) {
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(c.in); err != nil {
				t.Fatal(err)
			}
			frame := binary.BigEndian.AppendUint32(nil, uint32(body.Len()))
			frame = append(frame, body.Bytes()...)
			err := ReadFrame(bytes.NewReader(frame), c.out)
			if err == nil || !strings.Contains(err.Error(), "0x00") {
				t.Fatalf("gob frame: ReadFrame err = %v, want a refusal naming tag 0x00", err)
			}
		})
	}
}

func assertFrameEqual(t *testing.T, name string, in, out any) {
	t.Helper()
	switch want := in.(type) {
	case WriteBlockHeader:
		got := *out.(*WriteBlockHeader)
		if got.Block != want.Block || got.Client != want.Client ||
			got.ReqID != want.ReqID || got.SpanID != want.SpanID ||
			len(got.Pipeline) != len(want.Pipeline) {
			t.Fatalf("%s mismatch: %+v vs %+v", name, got, want)
		}
		for i := range want.Pipeline {
			if got.Pipeline[i] != want.Pipeline[i] {
				t.Fatalf("%s pipeline[%d]: %+v vs %+v", name, i, got.Pipeline[i], want.Pipeline[i])
			}
		}
	case WriteBlockAck:
		if got := *out.(*WriteBlockAck); got != want {
			t.Fatalf("%s mismatch: %+v vs %+v", name, got, want)
		}
	case ReadBlockHeader:
		if got := *out.(*ReadBlockHeader); got != want {
			t.Fatalf("%s mismatch: %+v vs %+v", name, got, want)
		}
	case ReadBlockResponse:
		if got := *out.(*ReadBlockResponse); got != want {
			t.Fatalf("%s mismatch: %+v vs %+v", name, got, want)
		}
	default:
		t.Fatalf("no comparison for %s", name)
	}
}

// TestBinaryFrameRejectsWrongType: a binary frame decoded into the
// wrong destination type must fail loudly, not alias fields.
func TestBinaryFrameRejectsWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, WriteBlockAck{Stored: 1}); err != nil {
		t.Fatal(err)
	}
	var out ReadBlockResponse
	if err := ReadFrame(&buf, &out); err == nil {
		t.Error("decoding a WriteBlockAck frame into ReadBlockResponse succeeded")
	}
}

// TestBinaryFrameRejectsTruncation: a truncated binary payload must
// error rather than yield a partially populated message.
func TestBinaryFrameRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	in := ReadBlockHeader{Block: core.Block{ID: 1, GenStamp: 1, NumBytes: 10}, Storage: "s", Length: -1}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Shrink the payload and patch the length prefix to match, so the
	// reader sees a well-formed frame with a short payload.
	cut := 5
	trunc := append([]byte{}, raw[:len(raw)-cut]...)
	n := len(trunc) - 5 // payload length after the tag + 4-byte prefix
	trunc[1], trunc[2], trunc[3], trunc[4] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	var out ReadBlockHeader
	if err := ReadFrame(bytes.NewReader(trunc), &out); err == nil {
		t.Error("truncated binary frame decoded without error")
	}
}

// TestReadFrameRejectsUnknownTag: a first byte other than binary v1's
// tag must be rejected before any length is trusted.
func TestReadFrameRejectsUnknownTag(t *testing.T) {
	var out WriteBlockAck
	if err := ReadFrame(bytes.NewReader([]byte{0x7f, 0, 0, 0, 0}), &out); err == nil {
		t.Error("unknown frame tag accepted")
	}
}
