package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// chunkSumsOf is the reference: one CRC-32C per 64 KiB of data.
func chunkSumsOf(data []byte) []uint32 {
	var sums []uint32
	for off := 0; off < len(data); off += core.ChunkSize {
		sums = append(sums, core.ChunkSum(data[off:min(off+core.ChunkSize, len(data))]))
	}
	return sums
}

func randomData(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// storedSums returns a replica's chunk sums as a read would serve them.
func storedSums(s Store, b core.Block) ([]uint32, error) {
	r, err := s.OpenReplica(b)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Sums(), nil
}

// createChunks writes data through Create, one chunk at a time.
func createChunks(s Store, b core.Block, data []byte) error {
	cw, err := s.Create(b)
	if err != nil {
		return err
	}
	for off := 0; off < len(data); off += core.ChunkSize {
		c := data[off:min(off+core.ChunkSize, len(data))]
		if err := cw.WriteChunk(c, core.ChunkSum(c)); err != nil {
			cw.Abort()
			return err
		}
	}
	_, err = cw.Commit()
	return err
}

// TestChunkSumsTable checks, on both stores and through both write
// paths, that the stored sums are the per-chunk CRC-32C of the content
// and that the replica verifies.
func TestChunkSumsTable(t *testing.T) {
	sizes := []int{0, 1, core.ChunkSize - 1, core.ChunkSize, core.ChunkSize + 1, 4 << 20}
	id := uint64(0)
	for name, s := range testStores(t) {
		for _, size := range sizes {
			for _, via := range []string{"put", "create"} {
				id++
				b := blk(id, int64(size))
				t.Run(fmt.Sprintf("%s/%d/%s", name, size, via), func(t *testing.T) {
					data := randomData(size, int64(id))
					var err error
					if via == "put" {
						_, err = put(s, b, bytes.NewReader(data))
					} else {
						err = createChunks(s, b, data)
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := storedSums(s, b)
					if err != nil {
						t.Fatalf("stored sums: %v", err)
					}
					if want := chunkSumsOf(data); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("Sums = %v, want %v", got, want)
					}
					if err := (&Media{store: s}).Verify(b); err != nil {
						t.Errorf("Verify: %v", err)
					}
				})
			}
		}
	}
}

// flipByte corrupts one stored byte of a replica in place.
func flipByte(t *testing.T, s Store, b core.Block, off int) {
	t.Helper()
	switch s := s.(type) {
	case *MemStore:
		s.blocks[blockKey{b.ID, b.GenStamp}].data[off] ^= 0xFF
	case *DiskStore:
		data, err := os.ReadFile(s.path(b))
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(s.path(b), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptChunkFailsVerify flips a byte in chunk 3 of a replica:
// Media.Verify refuses it, and Media.Open's reader returns the three
// chunks before it, then ErrCorrupt.
func TestCorruptChunkFailsVerify(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			data := randomData(4<<20, 1)
			b := blk(1, int64(len(data)))
			if _, err := put(s, b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			flipByte(t, s, b, 3*core.ChunkSize+17)
			if err := (&Media{store: s}).Verify(b); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify after a flipped byte: err = %v, want ErrCorrupt", err)
			}
			got, err := readBack(s, b)
			if !errors.Is(err, core.ErrCorrupt) || !bytes.Equal(got, data[:3*core.ChunkSize]) {
				t.Errorf("Open read after a flipped byte: %d bytes, err = %v, want the first 3 chunks and ErrCorrupt", len(got), err)
			}
		})
	}
}

// TestSumsSidecarFormatRefused damages a disk replica file: sums cut
// short, a wrong magic, a byte count the file cannot hold, no trailer
// at all, and the bare data file of the sidecar era next to its hex or
// OFSSUMS1 ".crc". Each is refused as corrupt while the store runs,
// and removed, with its sidecar, when the store is reopened.
func TestSumsSidecarFormatRefused(t *testing.T) {
	data := randomData(3*core.ChunkSize+5, 2)
	sums := chunkSumsOf(data)
	replicaFile := func(n int64, sums []uint32) []byte { return appendTrailer(bytes.Clone(data), n, sums) }
	good := replicaFile(int64(len(data)), sums)
	cases := []struct {
		name       string
		file       []byte
		sidecar    []byte // nil: no sidecar
		namesMagic bool
	}{
		{"truncated", replicaFile(int64(len(data)), sums[:len(sums)-1]), nil, false},
		{"bad_magic", append(bytes.Clone(good[:len(good)-len(replicaMagic)]), "OFSSUMS1"...), nil, true},
		{"size_mismatch", replicaFile(int64(len(data))+1, sums), nil, false},
		{"missing", data, nil, true},
		{"old_hex", data, fmt.Appendf(nil, "%08x", core.ChunkSum(data)), true},
		{"sidecar_era", data, binary.LittleEndian.AppendUint32([]byte("OFSSUMS1"), sums[0]), true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			b := blk(uint64(i+1), int64(len(data)))
			if _, err := put(s, b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(s.path(b)); !bytes.Equal(got, good) {
				t.Fatal("a committed replica file is not bytes, sums and trailer")
			}
			if err := os.WriteFile(s.path(b), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.sidecar != nil {
				if err := os.WriteFile(s.path(b)+".crc", tc.sidecar, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err = storedSums(s, b)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("stored sums: err = %v, want ErrCorrupt", err)
			}
			if tc.namesMagic && !strings.Contains(err.Error(), replicaMagic) {
				t.Errorf("error %q does not name the %s format", err, replicaMagic)
			}
			if err := (&Media{store: s}).Verify(b); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify: err = %v, want ErrCorrupt", err)
			}
			s, err = NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s.Has(b) || s.Used() != 0 {
				t.Error("a reopened store lists the damaged replica")
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("a reopened store left %d files behind", len(left))
			}
		})
	}
}

// FuzzReadReplica parses arbitrary file contents as a replica file: it
// must never panic, never allocate more than the file holds, and accept
// only a file that is bytes, their chunk sums and a trailer recording
// their count.
func FuzzReadReplica(f *testing.F) {
	for _, size := range []int{0, 1, core.ChunkSize, 2*core.ChunkSize + 3} {
		data := randomData(size, int64(size))
		f.Add(appendTrailer(data, int64(size), chunkSumsOf(data)))
	}
	f.Add([]byte(replicaMagic))
	f.Fuzz(func(t *testing.T, file []byte) {
		// The least of three parses is the parser's own allocation,
		// whatever the fuzzing engine allocates meanwhile. A refusal's
		// error message is the only allocation a file cannot pay for.
		var n int64
		var sums []uint32
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, sums, err = readReplica(bytes.NewReader(file), int64(len(file)))
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(len(file))+1024 {
			t.Fatalf("parsing a %d-byte file allocated %d bytes", len(file), alloc)
		}
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		if n < 0 || n > int64(len(file)) || len(sums) != chunks(n) {
			t.Fatalf("accepted %d bytes with %d sums in a %d-byte file", n, len(sums), len(file))
		}
		if want := appendTrailer(nil, n, sums); !bytes.Equal(file[n:], want) {
			t.Fatalf("accepted a file whose tail is not its sums and trailer")
		}
	})
}

// TestChunkAfterShortChunkRefused: only a replica's last chunk may be
// short, and a refused writer leaves nothing behind.
func TestChunkAfterShortChunkRefused(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			b := blk(1, 0)
			cw, err := s.Create(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.WriteChunk([]byte("ab"), core.ChunkSum([]byte("ab"))); err != nil {
				t.Fatal(err)
			}
			if err := cw.WriteChunk([]byte("cd"), core.ChunkSum([]byte("cd"))); err == nil {
				t.Error("chunk after a short chunk accepted")
			}
			if err := cw.WriteChunk(make([]byte, core.ChunkSize+1), 0); err == nil {
				t.Error("oversize chunk accepted")
			}
			cw.Abort()
			if s.Has(b) || s.Used() != 0 {
				t.Error("an aborted replica is visible")
			}
		})
	}
}
