package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/core"
)

// writeLog records the size of every Write the packet layer makes.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// packetSizes decodes a stream with Next and returns its payload sizes.
func packetSizes(t *testing.T, stream []byte) []int {
	t.Helper()
	pr := NewPacketReader(bytes.NewReader(stream))
	defer pr.Release()
	var sizes []int
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return sizes
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		sizes = append(sizes, len(p.Payload))
	}
}

// TestPacketWriterCutsFullChunks feeds content in uneven pieces, through
// Write and through ReadFrom: every packet but the last carries one full
// chunk, each goes out in one Write, and the end marker rides the last.
func TestPacketWriterCutsFullChunks(t *testing.T) {
	payload := make([]byte, 3*MaxPacketSize+123)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	feeds := map[string]func(pw *PacketWriter) error{
		"write": func(pw *PacketWriter) error {
			for p := payload; len(p) > 0; {
				n := min(len(p), 1000)
				if _, err := pw.Write(p[:n]); err != nil {
					return err
				}
				p = p[n:]
			}
			return nil
		},
		"readfrom": func(pw *PacketWriter) error {
			_, err := io.Copy(pw, iotest.HalfReader(bytes.NewReader(payload)))
			return err
		},
	}
	for name, feed := range feeds {
		t.Run(name, func(t *testing.T) {
			var out writeLog
			pw := NewPacketWriter(&out)
			defer pw.Release()
			if err := feed(pw); err != nil {
				t.Fatal(err)
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			full := packetHeaderLen + MaxPacketSize
			wantWrites := []int{full, full, full, packetHeaderLen + 123 + packetHeaderLen}
			if !equalInts(out.sizes, wantWrites) {
				t.Errorf("writes = %v, want %v", out.sizes, wantWrites)
			}
			if got, want := packetSizes(t, out.Bytes()), []int{MaxPacketSize, MaxPacketSize, MaxPacketSize, 123}; !equalInts(got, want) {
				t.Errorf("packets = %v, want %v", got, want)
			}
			got, err := io.ReadAll(NewPacketReader(&out))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read back %d bytes, err %v", len(got), err)
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPacketWriteRawForwardsVerbatim re-sends every packet Next returns
// with WriteRaw: the forwarded stream is byte-identical to the original.
func TestPacketWriteRawForwardsVerbatim(t *testing.T) {
	payload := make([]byte, 2*MaxPacketSize+77)
	for i := range payload {
		payload[i] = byte(i)
	}
	var orig, fwd bytes.Buffer
	pw := NewPacketWriter(&orig)
	pw.Write(payload)
	pw.Close()
	pw.Release()
	want := append([]byte(nil), orig.Bytes()...)

	pr := NewPacketReader(&orig)
	defer pr.Release()
	out := NewPacketWriter(&fwd)
	defer out.Release()
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
		if err := out.WriteRaw(p.Raw); err != nil {
			t.Fatal(err)
		}
	}
	out.Close()
	if !bytes.Equal(fwd.Bytes(), want) {
		t.Error("forwarded stream differs from the original")
	}
}

// FuzzPacketReader feeds arbitrary bytes to the packet reader. It must
// not panic or allocate past one packet; every payload it accepts
// matches its checksum; Read yields exactly what Next accepted; and a
// stream re-sent packet by packet with WriteRaw decodes to the same
// content.
func FuzzPacketReader(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new find, and a
	// multi-chunk seed makes that take longer than a whole run.
	var valid bytes.Buffer
	pw := NewPacketWriter(&valid)
	pw.Write(bytes.Repeat([]byte("octopus"), 20))
	pw.Close()
	pw.Release()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Allocation: the reader's own buffers are one header buffer and
		// one packet, whatever lengths the input claims.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pr := NewPacketReader(bytes.NewReader(data))
		for {
			if _, err := pr.Next(); err != nil {
				break
			}
		}
		pr.Release()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*(packetHeaderLen+MaxPacketSize)+2*headerBufSize {
			t.Fatalf("reader allocated %d bytes", grew)
		}

		var accepted []byte
		var resent bytes.Buffer
		fwd := NewPacketWriter(&resent)
		defer fwd.Release()
		pr = NewPacketReader(bytes.NewReader(data))
		defer pr.Release()
		var err error
		for {
			var p Packet
			if p, err = pr.Next(); err != nil {
				break
			}
			if len(p.Payload) == 0 || len(p.Payload) > MaxPacketSize || len(p.Raw) != packetHeaderLen+len(p.Payload) {
				t.Fatalf("packet of %d raw bytes, %d payload", len(p.Raw), len(p.Payload))
			}
			if core.ChunkSum(p.Payload) != p.Sum || binary.BigEndian.Uint32(p.Raw[4:8]) != p.Sum {
				t.Fatal("accepted a payload that does not match its checksum")
			}
			accepted = append(accepted, p.Payload...)
			if werr := fwd.WriteRaw(p.Raw); werr != nil {
				t.Fatal(werr)
			}
		}

		got, rerr := io.ReadAll(NewPacketReader(bytes.NewReader(data)))
		if !bytes.Equal(got, accepted) || (rerr == nil) != (err == io.EOF) {
			t.Fatalf("Read gave %d bytes (err %v), Next accepted %d (err %v)", len(got), rerr, len(accepted), err)
		}
		if err != io.EOF {
			return
		}
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(NewPacketReader(&resent))
		if err != nil || !bytes.Equal(back, accepted) {
			t.Fatalf("re-sent stream decodes to %d bytes (err %v), want %d", len(back), err, len(accepted))
		}
	})
}
