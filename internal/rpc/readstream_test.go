package rpc

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
)

// fuzzBlock is the block every FuzzBlockReadStream input reads from.
var fuzzBlock = core.Block{ID: 7, GenStamp: 1, NumBytes: 2*core.ChunkSize + 10}

// pieceBounds cuts length bytes at block offset offset at chunk
// boundaries, independently of the code under test.
func pieceBounds(offset, length int64) [][2]int64 {
	var out [][2]int64
	for lo, end := offset, offset+length; lo < end; {
		hi := min(end, (lo/core.ChunkSize+1)*core.ChunkSize)
		out = append(out, [2]int64{lo - offset, hi - offset})
		lo = hi
	}
	return out
}

// responseFrame encodes resp as the worker sends it.
func responseFrame(t testing.TB, resp ReadBlockResponse) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBlockReadStream decodes an arbitrary response frame and the bytes
// after it as the answer to a read of fuzzBlock at offset, length
// bytes long (negative: to the end), in reads of step%(2 chunks)+1
// bytes and then piece by piece. It must never panic, never return a
// byte of a piece that is not all there and matching its sum, return
// only a prefix of the stream, and end in io.EOF only after exactly the
// response's length.
func FuzzBlockReadStream(f *testing.F) {
	const C = core.ChunkSize
	content := bytes.Repeat([]byte("octopus!"), 13)[:100]
	off := int64(C - 50) // 100 bytes in two pieces
	good := ReadBlockResponse{Length: 100, Sums: PieceSums(content, off)}
	flipped := bytes.Clone(content)
	flipped[70] ^= 0x10
	extra := ReadBlockResponse{Length: 100, Sums: append(PieceSums(content, off), 1)}
	past := ReadBlockResponse{Length: 100, Sums: PieceSums(content, 2*C+5)}
	f.Add(uint32(off), int32(100), uint32(1000), responseFrame(f, good), content)      // exact
	f.Add(uint32(off), int32(-1), uint32(7), responseFrame(f, good), content)          // exact, small reads
	f.Add(uint32(off), int32(100), uint32(1000), responseFrame(f, good), content[:70]) // short stream
	f.Add(uint32(off), int32(100), uint32(1000), responseFrame(f, good), flipped)      // flipped bit
	f.Add(uint32(off), int32(100), uint32(1000), responseFrame(f, extra), content)     // wrong sum count
	f.Add(uint32(2*C+5), int32(-1), uint32(1000), responseFrame(f, past), content)     // Length past the block
	f.Fuzz(func(t *testing.T, offset uint32, length int32, step uint32, frame, stream []byte) {
		hdr := ReadBlockHeader{Block: fuzzBlock, Offset: int64(offset) % (fuzzBlock.NumBytes + 1), Length: int64(length)}
		var resp ReadBlockResponse
		if err := ReadFrame(bytes.NewReader(frame), &resp); err != nil {
			return
		}
		check := func(how string, out []byte, err error) {
			t.Helper()
			if !bytes.HasPrefix(stream, out) {
				t.Fatalf("%s: returned bytes that are not the stream's", how)
			}
			for i, b := range pieceBounds(hdr.Offset, resp.Length) {
				if b[0] >= int64(len(out)) {
					break
				}
				if b[1] > int64(len(stream)) || core.ChunkSum(stream[b[0]:b[1]]) != resp.Sums[i] {
					t.Fatalf("%s: returned bytes of piece %d, which does not match its sum", how, i)
				}
			}
			if err == io.EOF && int64(len(out)) != resp.Length {
				t.Fatalf("%s: EOF after %d of %d bytes", how, len(out), resp.Length)
			}
		}

		s, err := newBlockStream(bytes.NewReader(stream), hdr, resp)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("refused response: %v, want ErrCorrupt", err)
			}
			return
		}
		var out []byte
		p := make([]byte, int(step%(2*C))+1)
		for err == nil {
			var n int
			n, err = s.Read(p)
			out = append(out, p[:n]...)
		}
		s.Release()
		check("Read", out, err)

		s, _ = newBlockStream(bytes.NewReader(stream), hdr, resp)
		defer s.Release()
		out = out[:0]
		for i := 0; ; i++ {
			var pkt Packet
			if pkt, err = s.Next(); err != nil {
				break
			}
			if pkt.Sum != resp.Sums[i] || core.ChunkSum(pkt.Payload) != pkt.Sum {
				t.Fatalf("Next: piece %d under sum %08x, want %08x", i, pkt.Sum, resp.Sums[i])
			}
			out = append(out, pkt.Payload...)
		}
		check("Next", out, err)
	})
}

// TestBlockReadStreamVerifiedPrefix reads a two-piece response whose
// second piece is damaged into one buffer: the first piece comes back
// with ErrCorrupt, and later reads repeat the error.
func TestBlockReadStreamVerifiedPrefix(t *testing.T) {
	const C = core.ChunkSize
	content := make([]byte, 100)
	for i := range content {
		content[i] = byte(i)
	}
	hdr := ReadBlockHeader{Block: fuzzBlock, Offset: C - 50, Length: 100}
	resp := ReadBlockResponse{Length: 100, Sums: PieceSums(content, hdr.Offset)}
	bad := bytes.Clone(content)
	bad[60] ^= 1
	s, err := newBlockStream(bytes.NewReader(bad), hdr, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	p := make([]byte, 200)
	n, err := s.Read(p)
	if n != 50 || !bytes.Equal(p[:n], content[:50]) || !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Read = %d bytes, %v; want the 50-byte first piece and ErrCorrupt", n, err)
	}
	if n, err := s.Read(p); n != 0 || !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Read after the failure = %d bytes, %v; want ErrCorrupt again", n, err)
	}
}
