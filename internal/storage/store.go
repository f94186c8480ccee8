// Package storage implements the per-worker storage media of
// OctopusFS: block stores backed by memory or directories on disk,
// wrapped with capacity accounting, active-connection tracking, and
// optional token-bucket throughput throttling.
//
// Throttling exists so that a single test machine can faithfully
// emulate the heterogeneous media of the paper's evaluation cluster
// (Table 2: memory ≈ 1897/3225 MB/s, SSD ≈ 341/420, HDD ≈ 126/177
// write/read): a worker configured with a throttled directory store
// behaves — from the file system's point of view — like a worker with
// a real device of that speed.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// Store is a flat container of block replicas. Implementations must be
// safe for concurrent use.
type Store interface {
	// Create starts a replica of the block, received chunk by chunk:
	// the store's one write path. Nothing is visible until the writer
	// commits, which replaces any existing replica of the same block.
	Create(b core.Block) (ChunkWriter, error)

	// Open returns a reader over the stored replica.
	// It returns core.ErrNotFound if the replica is absent.
	Open(b core.Block) (io.ReadCloser, error)

	// Sums returns the replica's chunk checksums, one CRC-32C per
	// core.ChunkSize bytes, as recorded when it was written. The slice
	// is shared: callers must not modify it. A checksum record that
	// does not match the replica is refused with core.ErrCorrupt.
	Sums(b core.Block) ([]uint32, error)

	// Delete removes the replica. Deleting an absent replica returns
	// core.ErrNotFound.
	Delete(b core.Block) error

	// Has reports whether a replica of the block is present.
	Has(b core.Block) bool

	// Blocks lists the stored replicas, sorted by block ID.
	Blocks() []core.Block

	// Used returns the number of bytes currently stored.
	Used() int64

	// Verify re-reads the whole replica and compares every chunk with
	// its recorded checksum, returning core.ErrCorrupt on mismatch
	// (HDFS's .meta check).
	Verify(b core.Block) error

	// Close releases the store's resources. Memory stores drop their
	// content (the tier is volatile); disk stores keep files on disk.
	Close() error
}

// ChunkWriter receives one replica chunk by chunk. Every chunk but the
// last holds exactly core.ChunkSize bytes, and crc is its CRC-32C,
// computed once by whoever produced the data and stored as given: a
// chunk after a short one is refused. Commit installs the replica,
// replacing any existing one of the same block, and returns its size;
// Abort drops it. Exactly one of the two ends a writer.
type ChunkWriter interface {
	WriteChunk(p []byte, crc uint32) error
	Commit() (int64, error)
	Abort()
}

// blockKey identifies a replica within a store.
type blockKey struct {
	id  core.BlockID
	gen core.GenerationStamp
}

// chunks returns how many checksum chunks hold size bytes.
func chunks(size int64) int {
	return int((size + core.ChunkSize - 1) / core.ChunkSize)
}

// chunkSums collects a writer's checksums and enforces the chunk
// layout.
type chunkSums struct {
	sums  []uint32
	short bool // a short chunk was written: it must be the last
}

func (c *chunkSums) add(b core.Block, p []byte, crc uint32) error {
	if len(p) == 0 || len(p) > core.ChunkSize {
		return fmt.Errorf("storage: block %s: chunk of %d bytes", b.ID, len(p))
	}
	if c.short {
		return fmt.Errorf("storage: block %s: chunk after a short chunk", b.ID)
	}
	if c.sums == nil {
		c.sums = make([]uint32, 0, max(1, chunks(b.NumBytes)))
	}
	c.short = len(p) < core.ChunkSize
	c.sums = append(c.sums, crc)
	return nil
}

// putChunks feeds r to a fresh chunk writer, checksumming each chunk:
// the loop behind Media.Put, for content that arrives without sums.
func putChunks(b core.Block, cw ChunkWriter, r io.Reader) (int64, error) {
	buf, _ := bufpool.Get(core.ChunkSize)
	defer bufpool.Put(buf)
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			if werr := cw.WriteChunk(buf[:n], core.ChunkSum(buf[:n])); werr != nil {
				cw.Abort()
				return 0, werr
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return cw.Commit()
		}
		if err != nil {
			cw.Abort()
			return 0, fmt.Errorf("storage: reading block %s: %w", b.ID, err)
		}
	}
}

// verifyChunks reads a replica chunk by chunk and compares each with
// its recorded checksum.
func verifyChunks(b core.Block, r io.Reader, sums []uint32) error {
	buf, _ := bufpool.Get(core.ChunkSize)
	defer bufpool.Put(buf)
	for i, want := range sums {
		n, err := io.ReadFull(r, buf)
		if n == 0 || (err != nil && err != io.ErrUnexpectedEOF) || (n < core.ChunkSize && i < len(sums)-1) {
			return fmt.Errorf("storage: block %s: chunk %d is missing: %w", b.ID, i, core.ErrCorrupt)
		}
		if got := core.ChunkSum(buf[:n]); got != want {
			return fmt.Errorf("storage: block %s chunk %d checksum %08x != %08x: %w", b.ID, i, got, want, core.ErrCorrupt)
		}
	}
	return nil
}

// memReplica is one replica in a memory store.
type memReplica struct {
	data []byte
	sums []uint32
}

// MemStore is a volatile in-memory block store backing the memory
// tier.
type MemStore struct {
	mu     sync.RWMutex
	blocks map[blockKey]memReplica
	used   int64
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[blockKey]memReplica)}
}

// Create implements Store. The content buffer is pre-sized from the
// declared block length, avoiding growth-doubling copies.
func (s *MemStore) Create(b core.Block) (ChunkWriter, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, core.ErrShutdown
	}
	return &memWriter{s: s, b: b, data: make([]byte, 0, max(512, b.NumBytes))}, nil
}

// memWriter assembles one memory replica.
type memWriter struct {
	s    *MemStore
	b    core.Block
	data []byte
	chunkSums
}

func (w *memWriter) WriteChunk(p []byte, crc uint32) error {
	if err := w.add(w.b, p, crc); err != nil {
		return err
	}
	w.data = append(w.data, p...)
	return nil
}

func (w *memWriter) Commit() (int64, error) {
	s, key := w.s, blockKey{w.b.ID, w.b.GenStamp}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, core.ErrShutdown
	}
	if old, ok := s.blocks[key]; ok {
		s.used -= int64(len(old.data))
	}
	s.blocks[key] = memReplica{data: w.data, sums: w.sums}
	s.used += int64(len(w.data))
	return int64(len(w.data)), nil
}

func (w *memWriter) Abort() {}

// replica looks a block up.
func (s *MemStore) replica(b core.Block) (memReplica, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	if !ok {
		return memReplica{}, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	return r, nil
}

// Sums implements Store.
func (s *MemStore) Sums(b core.Block) ([]uint32, error) {
	r, err := s.replica(b)
	return r.sums, err
}

// Verify implements Store.
func (s *MemStore) Verify(b core.Block) error {
	r, err := s.replica(b)
	if err != nil {
		return err
	}
	return verifyChunks(b, bytes.NewReader(r.data), r.sums)
}

// Open implements Store.
func (s *MemStore) Open(b core.Block) (io.ReadCloser, error) {
	r, err := s.replica(b)
	if err != nil {
		return nil, err
	}
	return memReader{bytes.NewReader(r.data)}, nil
}

// memReader is the memory store's block reader. Unlike io.NopCloser
// it keeps the underlying *bytes.Reader's io.Seeker and io.WriterTo
// visible, so range reads seek instead of discard-copying and whole
// copies skip the staging buffer.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// Delete implements Store.
func (s *MemStore) Delete(b core.Block) error {
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.blocks[key]
	if !ok {
		return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	s.used -= int64(len(r.data))
	delete(s.blocks, key)
	return nil
}

// Has implements Store.
func (s *MemStore) Has(b core.Block) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	return ok
}

// Blocks implements Store.
func (s *MemStore) Blocks() []core.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.Block, 0, len(s.blocks))
	for k, r := range s.blocks {
		out = append(out, core.Block{ID: k.id, GenStamp: k.gen, NumBytes: int64(len(r.data))})
	}
	sortBlocks(out)
	return out
}

// Used implements Store.
func (s *MemStore) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Close implements Store, dropping all content.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = make(map[blockKey]memReplica)
	s.used = 0
	s.closed = true
	return nil
}

// DiskStore is a directory-backed block store. Each replica lives in
// one file named "blk_<id>_<gen>", so the store can be rebuilt from
// the directory listing on worker restart, next to its checksum
// sidecar "blk_<id>_<gen>.crc": the magic sumsMagic, then one
// little-endian uint32 CRC-32C per chunk.
type DiskStore struct {
	dir string

	mu     sync.RWMutex
	sizes  map[blockKey]int64
	used   int64
	closed bool
}

// sumsMagic opens every checksum sidecar. A sidecar without it (such as
// the single hex CRC older builds wrote) is refused, and the replica
// is treated as corrupt.
const sumsMagic = "OFSSUMS1"

// NewDiskStore opens (creating if needed) a directory-backed store and
// indexes any replica files already present.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating block directory: %w", err)
	}
	s := &DiskStore{dir: dir, sizes: make(map[blockKey]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing block directory: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".crc") {
			continue // checksum sidecar
		}
		var id, gen uint64
		if _, err := fmt.Sscanf(e.Name(), "blk_%d_%d", &id, &gen); err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		key := blockKey{core.BlockID(id), core.GenerationStamp(gen)}
		s.sizes[key] = info.Size()
		s.used += info.Size()
	}
	return s, nil
}

// Dir returns the store's backing directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(b core.Block) string {
	return filepath.Join(s.dir, fmt.Sprintf("blk_%d_%d", uint64(b.ID), uint64(b.GenStamp)))
}

func (s *DiskStore) crcPath(b core.Block) string {
	return s.path(b) + ".crc"
}

// Create implements Store. The content goes to a temporary file that
// Commit renames into place, so a crash mid-write never leaves a
// truncated replica that could be mistaken for a valid one.
func (s *DiskStore) Create(b core.Block) (ChunkWriter, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, core.ErrShutdown
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-blk-*")
	if err != nil {
		return nil, fmt.Errorf("storage: creating temp block file: %w", err)
	}
	return &diskWriter{s: s, b: b, f: tmp}, nil
}

// diskWriter writes one disk replica.
type diskWriter struct {
	s *DiskStore
	b core.Block
	f *os.File
	n int64
	chunkSums
}

func (w *diskWriter) WriteChunk(p []byte, crc uint32) error {
	if err := w.add(w.b, p, crc); err != nil {
		return err
	}
	if _, err := w.f.Write(p); err != nil {
		return fmt.Errorf("storage: writing block %s: %w", w.b.ID, err)
	}
	w.n += int64(len(p))
	return nil
}

func (w *diskWriter) Commit() (int64, error) {
	s, b, tmpName := w.s, w.b, w.f.Name()
	if err := w.f.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: writing block %s: %w", b.ID, err)
	}
	side := make([]byte, len(sumsMagic)+4*len(w.sums))
	copy(side, sumsMagic)
	for i, sum := range w.sums {
		binary.LittleEndian.PutUint32(side[len(sumsMagic)+4*i:], sum)
	}
	if err := os.WriteFile(s.crcPath(b), side, 0o644); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: writing block checksum: %w", err)
	}
	if err := os.Rename(tmpName, s.path(b)); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("storage: committing block %s: %w", b.ID, err)
	}
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	if old, ok := s.sizes[key]; ok {
		s.used -= old
	}
	s.sizes[key] = w.n
	s.used += w.n
	s.mu.Unlock()
	return w.n, nil
}

func (w *diskWriter) Abort() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// Open implements Store.
func (s *DiskStore) Open(b core.Block) (io.ReadCloser, error) {
	f, err := os.Open(s.path(b))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: opening block %s: %w", b.ID, err)
	}
	return f, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(b core.Block) error {
	key := blockKey{b.ID, b.GenStamp}
	s.mu.Lock()
	size, ok := s.sizes[key]
	if ok {
		delete(s.sizes, key)
		s.used -= size
	}
	s.mu.Unlock()
	err := os.Remove(s.path(b))
	os.Remove(s.crcPath(b)) // best-effort sidecar cleanup
	if os.IsNotExist(err) || (!ok && err == nil) {
		if !ok {
			return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
		}
		return nil
	}
	return err
}

// Sums implements Store by reading the sidecar. One whose magic is
// wrong, or whose sum count does not cover the replica, is refused
// with core.ErrCorrupt: the read fails over as from a corrupt replica.
func (s *DiskStore) Sums(b core.Block) ([]uint32, error) {
	s.mu.RLock()
	size, ok := s.sizes[blockKey{b.ID, b.GenStamp}]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	raw, err := os.ReadFile(s.crcPath(b))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: block %s has no checksum sidecar: %w", b.ID, core.ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading block checksum: %w", err)
	}
	if !bytes.HasPrefix(raw, []byte(sumsMagic)) {
		return nil, fmt.Errorf("storage: block %s checksum sidecar is not in the %s format: %w", b.ID, sumsMagic, core.ErrCorrupt)
	}
	raw = raw[len(sumsMagic):]
	if n := chunks(size); len(raw) != 4*n {
		return nil, fmt.Errorf("storage: block %s checksum sidecar holds %d bytes of sums, want %d for %d chunks: %w",
			b.ID, len(raw), 4*n, n, core.ErrCorrupt)
	}
	sums := make([]uint32, len(raw)/4)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return sums, nil
}

// Verify implements Store by re-reading the file against its sidecar.
func (s *DiskStore) Verify(b core.Block) error {
	sums, err := s.Sums(b)
	if err != nil {
		return err
	}
	f, err := os.Open(s.path(b))
	if err != nil {
		return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	defer f.Close()
	return verifyChunks(b, f, sums)
}

// Has implements Store.
func (s *DiskStore) Has(b core.Block) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sizes[blockKey{b.ID, b.GenStamp}]
	return ok
}

// Blocks implements Store.
func (s *DiskStore) Blocks() []core.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]core.Block, 0, len(s.sizes))
	for k, size := range s.sizes {
		out = append(out, core.Block{ID: k.id, GenStamp: k.gen, NumBytes: size})
	}
	sortBlocks(out)
	return out
}

// Used implements Store.
func (s *DiskStore) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Close implements Store. On-disk content is preserved.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func sortBlocks(bs []core.Block) {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].ID != bs[j].ID {
			return bs[i].ID < bs[j].ID
		}
		return bs[i].GenStamp < bs[j].GenStamp
	})
}

// TierFromKind maps a media kind string from worker configuration
// ("memory", "ssd", "hdd", "remote") to its storage tier.
func TierFromKind(kind string) (core.StorageTier, error) {
	t, err := core.ParseTier(strings.TrimSpace(kind))
	if err != nil || !t.Valid() {
		return 0, fmt.Errorf("storage: invalid media kind %q", kind)
	}
	return t, nil
}
