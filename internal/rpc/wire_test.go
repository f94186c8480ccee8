package rpc

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestEncodeDecodeErrorRoundTrip(t *testing.T) {
	sentinels := []error{
		core.ErrNotFound, core.ErrExists, core.ErrNotDirectory,
		core.ErrIsDirectory, core.ErrNotEmpty, core.ErrNoSpace,
		core.ErrQuotaExceeded, core.ErrPermission, core.ErrFileOpen,
		core.ErrFileClosed, core.ErrCorrupt, core.ErrNoWorkers,
		core.ErrShutdown,
	}
	for _, sentinel := range sentinels {
		err := decodeAfterWire(sentinel)
		if !errors.Is(err, sentinel) {
			t.Errorf("round trip lost sentinel %v: got %v", sentinel, err)
		}
	}
}

func decodeAfterWire(err error) error {
	return DecodeError(EncodeError(err))
}

func TestEncodeDecodeErrorWithContext(t *testing.T) {
	orig := errorsWrap(core.ErrNotFound, "path /a/b")
	enc := EncodeError(orig)
	dec := DecodeError(enc)
	if !errors.Is(dec, core.ErrNotFound) {
		t.Errorf("decoded error lost sentinel: %v", dec)
	}
	if dec.Error() == "" {
		t.Error("decoded error lost message")
	}
}

func errorsWrap(sentinel error, msg string) error {
	return &wrapErr{msg: msg, err: sentinel}
}

type wrapErr struct {
	msg string
	err error
}

func (w *wrapErr) Error() string { return w.msg + ": " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

func TestEncodeDecodeErrorNilAndUnknown(t *testing.T) {
	if got := EncodeError(nil); got != "" {
		t.Errorf("EncodeError(nil) = %q, want \"\"", got)
	}
	if got := DecodeError(""); got != nil {
		t.Errorf("DecodeError(\"\") = %v, want nil", got)
	}
	unknown := errors.New("some random failure")
	dec := DecodeError(EncodeError(unknown))
	if dec.Error() != unknown.Error() {
		t.Errorf("unknown error mangled: %q vs %q", dec, unknown)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := WriteBlockHeader{
		Block: core.Block{ID: 7, GenStamp: 2, NumBytes: 1024},
		Pipeline: []PipelineTarget{
			{Worker: "w1", Address: "h1:1", Storage: "w1:mem0"},
			{Worker: "w2", Address: "h2:1", Storage: "w2:hdd0"},
		},
		Client: "test-client",
	}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	var out WriteBlockHeader
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Block != in.Block || out.Client != in.Client || len(out.Pipeline) != 2 {
		t.Errorf("frame round trip mismatch: %+v vs %+v", out, in)
	}
	if out.Pipeline[1] != in.Pipeline[1] {
		t.Errorf("pipeline mismatch: %+v", out.Pipeline)
	}
}

// TestExtendedHeaderRoundTrip covers the request-ID field added to
// every data-transfer header: it must survive the frame intact on both
// exchange types.
func TestExtendedHeaderRoundTrip(t *testing.T) {
	reqID := NewRequestID()
	t.Run("write", func(t *testing.T) {
		var buf bytes.Buffer
		in := WriteBlockHeader{
			Block:    core.Block{ID: 3, GenStamp: 1, NumBytes: 64},
			Pipeline: []PipelineTarget{{Worker: "w1", Address: "h:1", Storage: "w1:ssd0"}},
			Client:   "c",
			ReqID:    reqID,
		}
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		var out WriteBlockHeader
		if err := ReadFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		if out.ReqID != reqID {
			t.Errorf("write header ReqID = %q, want %q", out.ReqID, reqID)
		}
	})
	t.Run("read", func(t *testing.T) {
		var buf bytes.Buffer
		in := ReadBlockHeader{Block: core.Block{ID: 4, GenStamp: 1}, Storage: "w1:hdd0", Length: -1, ReqID: reqID}
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		var out ReadBlockHeader
		if err := ReadFrame(&buf, &out); err != nil {
			t.Fatal(err)
		}
		if out.ReqID != reqID || out.Length != -1 {
			t.Errorf("read header round trip: %+v", out)
		}
	})
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("request ID length: %q, %q", a, b)
	}
	if a == b {
		t.Errorf("request IDs collided: %q", a)
	}
}

// TestWithReqIDPreservesSentinel checks that the [req=...] marker
// appended to wire error strings keeps errors.Is working after decode
// while making the failure attributable.
func TestWithReqIDPreservesSentinel(t *testing.T) {
	enc := WithReqID(EncodeError(errorsWrap(core.ErrNotFound, "path /x")), "deadbeef01020304")
	dec := DecodeError(enc)
	if !errors.Is(dec, core.ErrNotFound) {
		t.Errorf("req-id marker broke sentinel decoding: %v", dec)
	}
	if !bytes.Contains([]byte(dec.Error()), []byte("req=deadbeef01020304")) {
		t.Errorf("decoded error lost request ID: %v", dec)
	}
	if got := WithReqID("", "abc"); got != "" {
		t.Errorf("WithReqID on success = %q, want \"\"", got)
	}
	if got := WithReqID("E_NOTFOUND: x", ""); got != "E_NOTFOUND: x" {
		t.Errorf("WithReqID without ID = %q", got)
	}
}

func TestReqHeaderStamping(t *testing.T) {
	var args CreateArgs
	var ident Identified = &args
	ident.SetRequestID("r1")
	if args.ReqID != "r1" || ident.RequestID() != "r1" {
		t.Errorf("ReqHeader stamping failed: %+v", args)
	}
}

func TestReadFrameRejectsGiantFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var out WriteBlockAck
	if err := ReadFrame(&buf, &out); err == nil {
		t.Error("giant frame accepted")
	}
}

func TestPacketStreamRoundTrip(t *testing.T) {
	payload := make([]byte, 20*core.ChunkSize+12345) // forces several windows
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	if _, err := pw.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := pw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := io.ReadAll(NewPacketReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("write stream corrupted payload")
	}
}

func TestPacketStreamEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewPacketReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("empty stream yielded %d bytes", len(got))
	}
}

func TestPacketReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	pw.Write([]byte("precious block data"))
	pw.Close()
	raw := buf.Bytes()
	raw[bytes.Index(raw, []byte("precious"))+3] ^= 0xFF // flip a payload bit
	_, err := io.ReadAll(NewPacketReader(bytes.NewReader(raw)))
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("corrupted stream err = %v, want ErrCorrupt", err)
	}
}

func TestPacketReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	pw.Write([]byte("some data"))
	pw.Close()
	raw := buf.Bytes()[:buf.Len()-9] // cut into the empty window
	_, err := io.ReadAll(NewPacketReader(bytes.NewReader(raw)))
	if err == nil {
		t.Error("truncated stream read without error")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		pw := NewPacketWriter(&buf)
		if _, err := pw.Write(payload); err != nil {
			return false
		}
		if err := pw.Close(); err != nil {
			return false
		}
		got, err := io.ReadAll(NewPacketReader(&buf))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
