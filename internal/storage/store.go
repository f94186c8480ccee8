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

	// OpenReplica opens the replica, the store's one read path: its
	// chunk checksums, one CRC-32C per core.ChunkSize bytes as recorded
	// when it was written, and its bytes, from one open. A checksum
	// record that does not match the replica is refused with
	// core.ErrCorrupt, and an absent replica is core.ErrNotFound. The
	// caller closes it.
	OpenReplica(b core.Block) (*Replica, error)

	// Delete removes the replica. Deleting an absent replica returns
	// core.ErrNotFound.
	Delete(b core.Block) error

	// Has reports whether a replica of the block is present.
	Has(b core.Block) bool

	// Blocks lists the stored replicas, sorted by block ID.
	Blocks() []core.Block

	// Used returns the number of bytes currently stored.
	Used() int64

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

// OpenReplica implements Store: the replica serves its own slice.
func (s *MemStore) OpenReplica(b core.Block) (*Replica, error) {
	s.mu.RLock()
	r, ok := s.blocks[blockKey{b.ID, b.GenStamp}]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	return &Replica{block: b.ID, sums: r.sums, size: int64(len(r.data)), data: r.data}, nil
}

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

// DiskStore is a directory-backed block store. Each replica is one
// file, "blk_<id>_<gen>": the block's bytes at offset 0, one
// little-endian CRC-32C per chunk, then the byte count (little-endian
// uint64) and replicaMagic. It is written to a temporary file and
// installed by one rename, and the store is rebuilt from the directory
// listing on worker restart.
type DiskStore struct {
	dir string

	mu     sync.RWMutex
	sizes  map[blockKey]int64
	used   int64
	closed bool
}

// replicaMagic ends every replica file, after the byte count. A file
// without it, such as one written by an older build next to a ".crc"
// sidecar, is refused.
const (
	replicaMagic       = "OFSSUMS2"
	trailerSize  int64 = 8 + int64(len(replicaMagic))
)

// appendTrailer appends a replica's chunk sums and its trailer for n
// bytes to dst.
func appendTrailer(dst []byte, n int64, sums []uint32) []byte {
	for _, sum := range sums {
		dst = binary.LittleEndian.AppendUint32(dst, sum)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	return append(dst, replicaMagic...)
}

// readReplica parses a replica file of size bytes from r: its byte
// count and chunk sums. A trailer that does not describe the file is
// refused with core.ErrCorrupt. The byte count is bounded by the file
// size before any arithmetic on it, so nothing overflows, and nothing
// larger than the file is allocated.
func readReplica(r io.ReaderAt, size int64) (int64, []uint32, error) {
	var tr [trailerSize]byte
	if size >= trailerSize {
		if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
			return 0, nil, err
		}
	}
	if string(tr[8:]) != replicaMagic {
		return 0, nil, fmt.Errorf("storage: replica file does not end in %s: %w", replicaMagic, core.ErrCorrupt)
	}
	body, n := uint64(size-trailerSize), binary.LittleEndian.Uint64(tr[:8])
	if k := (n + core.ChunkSize - 1) / core.ChunkSize; n > body || body-n != 4*k {
		return 0, nil, fmt.Errorf("storage: replica trailer records %d bytes in a %d-byte file: %w", n, size, core.ErrCorrupt)
	}
	sums := make([]uint32, (body-n)/4)
	err := binary.Read(io.NewSectionReader(r, int64(n), int64(body-n)), binary.LittleEndian, sums)
	return int64(n), sums, err
}

// readReplicaFile parses the replica file at path.
func readReplicaFile(path string) (int64, []uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	return readReplica(f, info.Size())
}

// NewDiskStore opens (creating if needed) a directory-backed store and
// indexes the replicas already present. Temporary files of unfinished
// writes, ".crc" sidecars and replica files whose trailer does not
// describe them are removed, not listed, so the master re-replicates
// them. Other files are left alone.
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
		name, path := e.Name(), filepath.Join(dir, e.Name())
		var key blockKey
		_, err := fmt.Sscanf(name, "blk_%d_%d", &key.id, &key.gen)
		switch {
		case err == nil && name == replicaName(key.id, key.gen):
			if n, _, err := readReplicaFile(path); err == nil {
				s.sizes[key] = n
				s.used += n
				continue
			}
		case !strings.HasPrefix(name, ".tmp-blk-") && !(strings.HasPrefix(name, "blk_") && strings.HasSuffix(name, ".crc")):
			continue // foreign file; leave it alone
		}
		os.Remove(path)
	}
	return s, nil
}

// replicaName is the file name of a replica.
func replicaName(id core.BlockID, gen core.GenerationStamp) string {
	return fmt.Sprintf("blk_%d_%d", uint64(id), uint64(gen))
}

func (s *DiskStore) path(b core.Block) string {
	return filepath.Join(s.dir, replicaName(b.ID, b.GenStamp))
}

// Create implements Store. The content goes to a temporary file that
// Commit completes with the sums and trailer and renames into place,
// so a crash mid-write never leaves a replica that could be mistaken
// for a valid one.
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
	_, err := w.f.Write(appendTrailer(nil, w.n, w.sums))
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, s.path(b))
	}
	if err != nil {
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
	if !ok {
		return fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	if err := os.Remove(s.path(b)); !os.IsNotExist(err) {
		return err
	}
	return nil
}

// OpenReplica implements Store: one open of the replica file reads its
// tail and serves its bytes. A trailer that does not describe the file,
// or records another byte count than the replica's, is refused with
// core.ErrCorrupt: the read fails over as from a corrupt replica.
func (s *DiskStore) OpenReplica(b core.Block) (*Replica, error) {
	s.mu.RLock()
	size, ok := s.sizes[blockKey{b.ID, b.GenStamp}]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	f, err := os.Open(s.path(b))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, core.ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: opening block %s: %w", b.ID, err)
	}
	sums, err := readSums(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, err)
	}
	return &Replica{block: b.ID, sums: sums, size: size, f: f}, nil
}

// readSums returns the chunk sums of the replica file f, indexed at n
// bytes, from one read of its tail: the sums and the trailer at offset
// n. A file of any other layout is parsed as a whole by readReplica, to
// say why it is refused.
func readSums(f *os.File, n int64) ([]uint32, error) {
	fsize, err := fileSize(f)
	if err != nil {
		return nil, err
	}
	k := chunks(n)
	if tail := 4*int64(k) + trailerSize; fsize == n+tail {
		buf, _ := bufpool.Get(int(tail))
		defer bufpool.Put(buf)
		if _, err := f.ReadAt(buf, n); err != nil {
			return nil, err
		}
		tr := buf[4*k:]
		if string(tr[8:]) == replicaMagic && binary.LittleEndian.Uint64(tr[:8]) == uint64(n) {
			sums := make([]uint32, k)
			for i := range sums {
				sums[i] = binary.LittleEndian.Uint32(buf[4*i:])
			}
			return sums, nil
		}
	}
	m, _, err := readReplica(f, fsize)
	if err == nil {
		err = fmt.Errorf("trailer records %d bytes, want %d: %w", m, n, core.ErrCorrupt)
	}
	return nil, err
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
