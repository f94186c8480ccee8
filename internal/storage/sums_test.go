package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
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
					got, err := s.Sums(b)
					if err != nil {
						t.Fatalf("Sums: %v", err)
					}
					if want := chunkSumsOf(data); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("Sums = %v, want %v", got, want)
					}
					if err := s.Verify(b); err != nil {
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

func TestCorruptChunkFailsVerify(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			data := randomData(4<<20, 1)
			b := blk(1, int64(len(data)))
			if _, err := put(s, b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			flipByte(t, s, b, 3*core.ChunkSize+17)
			if err := s.Verify(b); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify after a flipped byte: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSumsSidecarFormatRefused damages a disk replica's sidecar: a
// truncated sum list, the single hex CRC older builds wrote, a wrong
// magic and a missing file are each refused as corrupt.
func TestSumsSidecarFormatRefused(t *testing.T) {
	data := randomData(3*core.ChunkSize+5, 2)
	good := append([]byte(sumsMagic), make([]byte, 16)...)
	for i, sum := range chunkSumsOf(data) {
		binary.LittleEndian.PutUint32(good[len(sumsMagic)+4*i:], sum)
	}
	cases := []struct {
		name       string
		sidecar    []byte // nil: no sidecar at all
		namesMagic bool
	}{
		{"truncated", good[:len(good)-4], false},
		{"old_hex", fmt.Appendf(nil, "%08x", core.ChunkSum(data)), true},
		{"bad_magic", append([]byte("OFSSUMS0"), good[len(sumsMagic):]...), true},
		{"missing", nil, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b := blk(uint64(i+1), int64(len(data)))
			if _, err := put(s, b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if tc.sidecar == nil {
				err = os.Remove(s.crcPath(b))
			} else {
				err = os.WriteFile(s.crcPath(b), tc.sidecar, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Sums(b)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("Sums: err = %v, want ErrCorrupt", err)
			}
			if tc.namesMagic && !strings.Contains(err.Error(), sumsMagic) {
				t.Errorf("error %q does not name the %s format", err, sumsMagic)
			}
			if err := s.Verify(b); !errors.Is(err, core.ErrCorrupt) {
				t.Errorf("Verify: err = %v, want ErrCorrupt", err)
			}
		})
	}
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
