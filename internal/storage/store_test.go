package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	return map[string]Store{"mem": NewMemStore(), "disk": disk}
}

// put stores r's content through s.Create, as Media.Put does.
func put(s Store, b core.Block, r io.Reader) (int64, error) {
	cw, err := s.Create(b)
	if err != nil {
		return 0, err
	}
	return putChunks(b, cw, r)
}

// readBack returns a replica's bytes as Media.Open reads them: through
// OpenReplica, each chunk checked against its stored sum.
func readBack(s Store, b core.Block) ([]byte, error) {
	rc, err := (&Media{store: s}).Open(b)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

func blk(id uint64, size int64) core.Block {
	return core.Block{ID: core.BlockID(id), GenStamp: 1, NumBytes: size}
}

func TestStorePutOpenDelete(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello tiered storage")
			b := blk(1, int64(len(data)))

			n, err := put(s, b, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if n != int64(len(data)) {
				t.Errorf("Put returned %d bytes, want %d", n, len(data))
			}
			if !s.Has(b) {
				t.Error("Has = false after Put")
			}
			if got := s.Used(); got != int64(len(data)) {
				t.Errorf("Used = %d, want %d", got, len(data))
			}

			got, err := readBack(s, b)
			if err != nil {
				t.Fatalf("reading back: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("content mismatch: %q vs %q", got, data)
			}

			if err := s.Delete(b); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if s.Has(b) {
				t.Error("Has = true after Delete")
			}
			if got := s.Used(); got != 0 {
				t.Errorf("Used after delete = %d, want 0", got)
			}
			if _, err := s.OpenReplica(b); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("OpenReplica after delete: err = %v, want ErrNotFound", err)
			}
			if err := s.Delete(b); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("double Delete: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreOverwriteAdjustsUsed(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			b := blk(1, 0)
			if _, err := put(s, b, bytes.NewReader(make([]byte, 100))); err != nil {
				t.Fatal(err)
			}
			if _, err := put(s, b, bytes.NewReader(make([]byte, 40))); err != nil {
				t.Fatal(err)
			}
			if got := s.Used(); got != 40 {
				t.Errorf("Used = %d after overwrite, want 40", got)
			}
		})
	}
}

func TestStoreBlocksListing(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			for i := 5; i >= 1; i-- {
				if _, err := put(s, blk(uint64(i), 0), bytes.NewReader(make([]byte, i))); err != nil {
					t.Fatal(err)
				}
			}
			bs := s.Blocks()
			if len(bs) != 5 {
				t.Fatalf("Blocks() returned %d entries, want 5", len(bs))
			}
			for i, b := range bs {
				if b.ID != core.BlockID(i+1) {
					t.Errorf("Blocks()[%d].ID = %v, want %d (sorted)", i, b.ID, i+1)
				}
				if b.NumBytes != int64(i+1) {
					t.Errorf("Blocks()[%d].NumBytes = %d, want %d", i, b.NumBytes, i+1)
				}
			}
		})
	}
}

func TestStoreGenerationStampsDistinguishReplicas(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			old := core.Block{ID: 9, GenStamp: 1}
			new_ := core.Block{ID: 9, GenStamp: 2}
			if _, err := put(s, old, bytes.NewReader([]byte("old"))); err != nil {
				t.Fatal(err)
			}
			if _, err := put(s, new_, bytes.NewReader([]byte("new!"))); err != nil {
				t.Fatal(err)
			}
			if !s.Has(old) || !s.Has(new_) {
				t.Error("generations are not independent")
			}
			got, err := readBack(s, new_)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "new!" {
				t.Errorf("new generation content = %q", got)
			}
		})
	}
}

func TestDiskStoreReindexOnRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("persistent block content")
	b := blk(42, int64(len(data)))
	if _, err := put(s, b, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(b) {
		t.Fatal("restarted store lost the block")
	}
	if got := s2.Used(); got != int64(len(data)) {
		t.Errorf("restarted Used = %d, want %d", got, len(data))
	}
	got, err := readBack(s2, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("restarted store returned wrong content")
	}
}

func TestMemStoreCloseDropsContentAndRejectsWrites(t *testing.T) {
	s := NewMemStore()
	b := blk(1, 0)
	if _, err := put(s, b, bytes.NewReader([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Used() != 0 {
		t.Error("Close did not drop volatile content")
	}
	if _, err := put(s, b, bytes.NewReader([]byte("y"))); !errors.Is(err, core.ErrShutdown) {
		t.Errorf("Put after Close: err = %v, want ErrShutdown", err)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						b := blk(uint64(g*100+i), 0)
						payload := bytes.Repeat([]byte{byte(g)}, 64)
						if _, err := put(s, b, bytes.NewReader(payload)); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						got, err := readBack(s, b)
						if err != nil {
							t.Errorf("reading back: %v", err)
							return
						}
						if !bytes.Equal(got, payload) {
							t.Error("content mismatch under concurrency")
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := len(s.Blocks()); got != 200 {
				t.Errorf("stored %d blocks, want 200", got)
			}
		})
	}
}

func TestTierFromKind(t *testing.T) {
	tests := []struct {
		in      string
		want    core.StorageTier
		wantErr bool
	}{
		{"memory", core.TierMemory, false},
		{"ssd", core.TierSSD, false},
		{"hdd", core.TierHDD, false},
		{"remote", core.TierRemote, false},
		{"unspecified", 0, true}, // not a concrete media kind
		{"floppy", 0, true},
	}
	for _, tt := range tests {
		got, err := TierFromKind(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("TierFromKind(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("TierFromKind(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestQuickStoreRoundTrip property-checks that any payload stored is
// returned byte-identical by both store kinds.
func TestQuickStoreRoundTrip(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{"mem": NewMemStore(), "disk": disk}
	id := uint64(0)
	f := func(payload []byte) bool {
		id++
		for _, s := range stores {
			b := blk(id, int64(len(payload)))
			if _, err := put(s, b, bytes.NewReader(payload)); err != nil {
				return false
			}
			got, err := readBack(s, b)
			if err != nil || !bytes.Equal(got, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/README.txt", []byte("not a block")); err != nil {
		t.Fatal(err)
	}
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Blocks()); got != 0 {
		t.Errorf("foreign files indexed as blocks: %d", got)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
