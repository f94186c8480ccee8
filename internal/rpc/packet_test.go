package rpc

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/core"
)

// window encodes p as one window of a write stream at block offset off.
func window(t testing.TB, off int64, p []byte) []byte {
	out := responseFrame(t, ReadBlockResponse{Length: int64(len(p)), Sums: PieceSums(p, off)})
	return append(out, p...)
}

// windowLayout decodes a write stream with Next and returns the piece
// sizes of each of its windows.
func windowLayout(t *testing.T, stream []byte) [][]int {
	t.Helper()
	pr := NewPacketReader(bytes.NewReader(stream))
	defer pr.Release()
	var windows [][]int
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return windows
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if p.Header != nil {
			windows = append(windows, nil)
		}
		if len(windows) == 0 {
			t.Fatal("a piece came before any window header")
		}
		windows[len(windows)-1] = append(windows[len(windows)-1], len(p.Payload))
	}
}

// chunks returns n piece sizes of one whole chunk each.
func chunks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = core.ChunkSize
	}
	return out
}

// oneChunkWindows returns the layout of n windows of one whole chunk
// each, then one of last bytes.
func oneChunkWindows(n, last int) [][]int {
	var out [][]int
	for range n {
		out = append(out, chunks(1))
	}
	return append(out, []int{last})
}

// TestPacketWriterCutsFullChunks feeds content in uneven pieces, by
// small writes and by io.Copy from a slow reader, and in one Write:
// windows carry whole chunks, at most windowChunks of them, only the
// last piece is short, and whole chunks sent straight from the
// caller's slice never touch the staging buffer.
func TestPacketWriterCutsFullChunks(t *testing.T) {
	const C = core.ChunkSize
	payload := make([]byte, 20*C+123)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	feeds := map[string]struct {
		feed func(pw *PacketWriter) error
		want [][]int
	}{
		"write": {func(pw *PacketWriter) error {
			for p := payload; len(p) > 0; {
				n := min(len(p), 1000)
				if _, err := pw.Write(p[:n]); err != nil {
					return err
				}
				p = p[n:]
			}
			return nil
		}, oneChunkWindows(20, 123)},
		"readfrom": {func(pw *PacketWriter) error {
			_, err := io.Copy(pw, iotest.HalfReader(bytes.NewReader(payload)))
			return err
		}, oneChunkWindows(20, 123)},
		"one write": {func(pw *PacketWriter) error {
			if _, err := pw.Write(payload[:20*C]); err != nil {
				return err
			}
			if pw.stage != nil {
				t.Error("whole chunks were staged")
			}
			_, err := pw.Write(payload[20*C:])
			return err
		}, [][]int{chunks(16), chunks(4), {123}}},
	}
	for name, tc := range feeds {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			pw := NewPacketWriter(&out)
			defer pw.Release()
			if err := tc.feed(pw); err != nil {
				t.Fatal(err)
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			if got := windowLayout(t, out.Bytes()); !slices.EqualFunc(got, tc.want, slices.Equal) {
				t.Errorf("windows = %v, want %v", got, tc.want)
			}
			got, err := io.ReadAll(NewPacketReader(&out))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read back %d bytes, err %v", len(got), err)
			}
		})
	}
}

// TestPacketWriteRawForwardsVerbatim re-sends every piece Next returns
// with WriteRaw, window headers included: the forwarded stream of
// several windows is byte-identical to the original.
func TestPacketWriteRawForwardsVerbatim(t *testing.T) {
	payload := make([]byte, 17*core.ChunkSize+77)
	for i := range payload {
		payload[i] = byte(i)
	}
	var orig, fwd bytes.Buffer
	pw := NewPacketWriter(&orig)
	pw.Write(payload)
	pw.Close()
	pw.Release()
	want := bytes.Clone(orig.Bytes())

	pr := NewPacketReader(&orig)
	defer pr.Release()
	out := NewPacketWriter(&fwd)
	defer out.Release()
	windows := 0
	for {
		p, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Sum != core.ChunkSum(p.Payload) {
			t.Fatalf("Sum %08x does not match the payload", p.Sum)
		}
		if p.Header != nil {
			windows++
		}
		if err := out.WriteRaw(p); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	if windows != 3 {
		t.Errorf("forwarded %d windows, want 3", windows)
	}
	if !bytes.Equal(fwd.Bytes(), want) {
		t.Error("forwarded stream differs from the original")
	}
}

// TestPacketReaderRefusesBadWindows: a window whose sum count does not
// match its length, one past the declared size, and one that starts
// inside a chunk are refused as corrupt before a byte of them is
// returned.
func TestPacketReaderRefusesBadWindows(t *testing.T) {
	p := bytes.Repeat([]byte("octopus"), 20)
	extra := responseFrame(t, ReadBlockResponse{Length: int64(len(p)), Sums: append(PieceSums(p, 0), 1)})
	for name, stream := range map[string][]byte{
		"sum count":      append(extra, p...),
		"past size":      window(t, 0, append(p, p...)),
		"inside a chunk": append(window(t, 0, p[:70]), window(t, 70, p[70:])...),
	} {
		pr := NewBlockReceiver(bytes.NewReader(stream), int64(len(p)))
		got, err := io.ReadAll(pr)
		pr.Release()
		if !errors.Is(err, core.ErrCorrupt) || len(got) > 70 {
			t.Errorf("%s: read %d bytes, %v; want ErrCorrupt", name, len(got), err)
		}
	}
}

// FuzzPacketReader feeds arbitrary bytes to the write-stream decoder,
// declared to hold at most size bytes. It must not panic or allocate
// past one piece buffer and what the input's own frames can claim;
// every piece it accepts matches its checksum; Read yields exactly what
// Next accepted; and an accepted stream re-sent piece by piece with
// WriteRaw, window headers included, is the same bytes.
func FuzzPacketReader(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new find, and each
	// whole chunk makes that slower.
	const C = core.ChunkSize
	small := bytes.Repeat([]byte("octopus"), 20)
	end := responseFrame(f, ReadBlockResponse{})
	var valid bytes.Buffer
	pw := NewPacketWriter(&valid)
	pw.Write(small)
	pw.Close()
	pw.Release()
	multi := make([]byte, C+30)
	for i := range multi {
		multi[i] = byte(i * 7)
	}
	extra := responseFrame(f, ReadBlockResponse{Length: int64(len(small)), Sums: append(PieceSums(small, 0), 1)})
	f.Add(uint32(C), valid.Bytes()) // one partial chunk
	f.Add(uint32(2*C), slices.Concat(window(f, 0, multi[:C]), window(f, C, multi[C:]), end))
	f.Add(uint32(C), slices.Concat(extra, small, end))                                        // sum count
	f.Add(uint32(len(small)-1), valid.Bytes())                                                // past the size
	f.Add(uint32(C), slices.Concat(window(f, 0, small[:70]), window(f, 70, small[70:]), end)) // inside a chunk
	f.Add(uint32(C), []byte{})
	f.Fuzz(func(t *testing.T, size uint32, data []byte) {
		// Allocation: one piece buffer, the frame scratch and the sums,
		// which grow with the bytes that arrive (a forged frame length
		// grows the scratch by at most 64 KiB at a time).
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pr := NewBlockReceiver(bytes.NewReader(data), int64(size))
		for {
			if _, err := pr.Next(); err != nil {
				break
			}
		}
		pr.Release()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*C+4*uint64(len(data)) {
			t.Fatalf("reader allocated %d bytes for %d of input", grew, len(data))
		}

		var accepted []byte
		var resent bytes.Buffer
		fwd := NewPacketWriter(&resent)
		defer fwd.Release()
		in := bytes.NewReader(data)
		pr = NewBlockReceiver(in, int64(size))
		defer pr.Release()
		var err error
		for {
			var p Packet
			if p, err = pr.Next(); err != nil {
				break
			}
			if len(p.Payload) == 0 || len(p.Payload) > C || core.ChunkSum(p.Payload) != p.Sum {
				t.Fatalf("accepted a piece of %d bytes that does not match its checksum", len(p.Payload))
			}
			accepted = append(accepted, p.Payload...)
			if werr := fwd.WriteRaw(p); werr != nil {
				t.Fatal(werr)
			}
		}
		if len(accepted) > int(size) {
			t.Fatalf("accepted %d bytes of a block of at most %d", len(accepted), size)
		}

		got, rerr := io.ReadAll(NewBlockReceiver(bytes.NewReader(data), int64(size)))
		if !bytes.Equal(got, accepted) || (rerr == nil) != (err == io.EOF) {
			t.Fatalf("Read gave %d bytes (err %v), Next accepted %d (err %v)", len(got), rerr, len(accepted), err)
		}
		if err != io.EOF {
			return
		}
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-in.Len()]; !bytes.Equal(resent.Bytes(), consumed) {
			t.Fatalf("re-sent stream of %d bytes differs from the %d accepted", resent.Len(), len(consumed))
		}
	})
}
