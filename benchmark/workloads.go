package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/integration"
)

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"dfsio_write", "dfsio_read", "slive_mix", "tiered_zipf_read"}

// workload is one set of inputs: a cluster shape, a preload, the
// closed-loop iteration, and the untimed end-of-run check.
type workload interface {
	cluster(dataDir string) integration.ClusterConfig
	preload(e *env) error
	iterate(c *clientCtx)
	// verify re-checks every live file against the seed and returns how
	// many checks it made and how many failed.
	verify(e *env) (checked, bad int)
	liveBytes(e *env) int64
	// shape describes the workload's inputs to the direct probes.
	shape() probeShape
}

// probeShape is what the direct probes need to call a lower layer
// "with the workload's own inputs".
type probeShape struct {
	blockBytes int64
	rv         core.ReplicationVector
	files      int // live namespace population
	dirs       int
}

func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "dfsio_write", "dfsio_read":
		w := &dfsio{size: sz, write: name == "dfsio_write"}
		w.content = newContent(seed, sz.fileBytes)
		return w, nil
	case "slive_mix":
		return &slive{size: sz}, nil
	case "tiered_zipf_read":
		w := &tiered{size: sz, seed: seed}
		w.content = newContent(seed, sz.zipfFileBytes)
		// Rank r of the Zipf stream reads file perm[r].
		w.perm = rand.New(rand.NewSource(seed ^ 0x7a697066)).Perm(sz.zipfFiles)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// content generates every file of a data workload from one seeded base
// buffer: file content is the base rotated by the file's offset, so no
// per-file buffer is built on the timed path and any file's CRC can be
// recomputed from (seed, offset) alone.
type content struct {
	base []byte
	mu   sync.Mutex
	crcs map[int]uint32
}

func newContent(seed int64, n int64) content {
	base := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(base)
	return content{base: base, crcs: make(map[int]uint32)}
}

func (ct *content) crc(off int) uint32 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	sum, ok := ct.crcs[off]
	if !ok {
		sum = crc32.Update(crc32.ChecksumIEEE(ct.base[off:]), crc32.IEEETable, ct.base[:off])
		ct.crcs[off] = sum
	}
	return sum
}

// fileRef is one live data file: its path and its content rotation.
type fileRef struct {
	path string
	off  int
}

// writeFile is Create → Write → Close of one file, each a traced call.
func (ct *content) writeFile(c *clientCtx, f fileRef, rv core.ReplicationVector, blockBytes int64) error {
	var w *client.Writer
	err := c.call(callCreate, f.path, func() (err error) {
		w, err = c.fs.Create(f.path, client.CreateOptions{RepVector: rv, BlockSize: blockBytes})
		return err
	})
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.tag(w.ReqID(), blocksOf(int64(len(ct.base)), blockBytes))
	}
	err = c.call(callWrite, f.path, func() error {
		if _, err := w.Write(ct.base[f.off:]); err != nil {
			return err
		}
		_, err := w.Write(ct.base[:f.off])
		return err
	})
	if err != nil {
		w.Abort()
		return err
	}
	return c.call(callClose, f.path, w.Close)
}

// readFile is Open → Read to EOF through a 1 MiB buffer → Close. The
// length is always checked; checkCRC adds the content check.
func (ct *content) readFile(c *clientCtx, f fileRef, buf []byte, blockBytes int64, checkCRC bool) error {
	var r *client.Reader
	err := c.call(callOpen, f.path, func() (err error) {
		r, err = c.fs.Open(f.path)
		return err
	})
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.tag(r.ReqID(), blocksOf(int64(len(ct.base)), blockBytes))
	}
	var n int64
	var sum uint32
	err = c.call(callRead, f.path, func() error {
		for {
			m, err := r.Read(buf)
			if checkCRC {
				sum = crc32.Update(sum, crc32.IEEETable, buf[:m])
			}
			n += int64(m)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	cerr := c.call(callClose, f.path, r.Close)
	switch {
	case err != nil:
		return err
	case cerr != nil:
		return cerr
	case n != int64(len(ct.base)):
		return fmt.Errorf("%s: read %d bytes, want %d", f.path, n, len(ct.base))
	case checkCRC && sum != ct.crc(f.off):
		return fmt.Errorf("%s: content CRC mismatch", f.path)
	}
	return nil
}

func blocksOf(fileBytes, blockBytes int64) int {
	return int((fileBytes + blockBytes - 1) / blockBytes)
}

// verifyFiles re-reads the given files with the CRC check, split over
// the clients like the workload itself.
func (ct *content) verifyFiles(e *env, blockBytes int64, files func(c *clientCtx) []fileRef) (checked, bad int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *clientCtx) {
			defer wg.Done()
			buf := make([]byte, 1<<20)
			for _, f := range files(c) {
				err := ct.readFile(c, f, buf, blockBytes, true)
				mu.Lock()
				checked++
				if err != nil {
					bad++
					c.note(fmt.Errorf("verify: %w", err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return checked, bad
}

// eachClient runs fn once per client concurrently and returns the
// first error.
func eachClient(e *env, fn func(c *clientCtx) error) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *clientCtx) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- dfsio_write / dfsio_read (paper §7.1) ----

// dfsio streams 16 MiB files of 4 MiB blocks with vector ⟨M0,S1,H2⟩
// on an unthrottled 4-worker, 2-rack cluster. The write variant
// creates files back to back, deleting the 9th-oldest so each client
// keeps a ring of 8 live files; the read variant re-reads a preloaded
// ring sequentially.
type dfsio struct {
	size
	content
	write bool
}

// dfsioState is one client's ring of live files, oldest first.
type dfsioState struct {
	ring []fileRef
	next int // next file number (write) or ring position (read)
	buf  []byte
}

var dfsioVector = core.NewReplicationVector(0, 1, 2, 0, 0)

func (w *dfsio) cluster(dataDir string) integration.ClusterConfig {
	cc := integration.DefaultClusterConfig(dataDir)
	cc.NumWorkers, cc.NumRacks = 4, 2
	cc.BlockSize = w.blockBytes
	// Room for the live ring, three replicas each, plus the files whose
	// asynchronous deletion has not reached the workers yet: a fixed
	// slack, because that backlog depends on the write rate and the
	// heartbeat period, not on the ring.
	live := int64(numClients*w.ring) * w.fileBytes
	cc.MemCapacity = 64 << 20
	cc.SSDCapacity = 2*live + 256<<20
	cc.HDDCapacity = 6*live + 768<<20
	return cc
}

func (w *dfsio) shape() probeShape {
	return probeShape{blockBytes: w.blockBytes, rv: dfsioVector, files: numClients * w.ring, dirs: numClients}
}

func (w *dfsio) newFile(c *clientCtx, st *dfsioState) fileRef {
	f := fileRef{
		path: fmt.Sprintf("/dfsio/c%d/f%07d", c.idx, st.next),
		off:  c.rng.Intn(len(w.base)),
	}
	st.next++
	return f
}

func (w *dfsio) preload(e *env) error {
	return eachClient(e, func(c *clientCtx) error {
		st := &dfsioState{buf: make([]byte, 1<<20)}
		c.state = st
		if err := c.fs.Mkdir(fmt.Sprintf("/dfsio/c%d", c.idx), true); err != nil {
			return err
		}
		// Both variants start from a full ring, so the write variant is
		// stationary (one delete per create) from its first iteration.
		for i := 0; i < w.ring; i++ {
			f := w.newFile(c, st)
			if err := w.writeFile(c, f, dfsioVector, w.blockBytes); err != nil {
				return err
			}
			w.crc(f.off) // computed here, so a timed read only compares
			st.ring = append(st.ring, f)
		}
		if !w.write {
			st.next = 0 // from here on, the ring position
		}
		return nil
	})
}

func (w *dfsio) iterate(c *clientCtx) {
	st := c.state.(*dfsioState)
	if !w.write {
		f := st.ring[st.next%len(st.ring)]
		st.next++
		checkCRC := c.crcDue()
		c.timeOp(false, w.fileBytes, func() error { return w.readFile(c, f, st.buf, w.blockBytes, checkCRC) })
		return
	}
	f := w.newFile(c, st)
	ok := false
	c.timeOp(true, w.fileBytes, func() error {
		err := w.writeFile(c, f, dfsioVector, w.blockBytes)
		ok = err == nil
		return err
	})
	if ok {
		st.ring = append(st.ring, f)
	}
	// Housekeeping, outside the op: keep the live set at ring files.
	for len(st.ring) > w.ring {
		old := st.ring[0]
		st.ring = st.ring[1:]
		c.attempted++
		if err := c.call(callDelete, old.path, func() error { return c.fs.Delete(old.path, false) }); err != nil {
			c.fail(err)
		}
	}
}

func (w *dfsio) verify(e *env) (int, int) {
	checked, bad := w.verifyFiles(e, w.blockBytes, func(c *clientCtx) []fileRef { return c.state.(*dfsioState).ring })
	for _, c := range e.clients {
		// A ring above twice its intended size means deletes are not
		// keeping up with creates: the workload is no longer the one named.
		checked++
		if len(c.state.(*dfsioState).ring) > 2*w.ring {
			bad++
		}
	}
	return checked, bad
}

func (w *dfsio) liveBytes(e *env) int64 {
	var n int64
	for _, c := range e.clients {
		n += int64(len(c.state.(*dfsioState).ring)) * w.fileBytes
	}
	return n
}

// ---- slive_mix (paper §7.4) ----

// slive is a namespace-only mix on two workers that never receive a
// block: by count stat 50 / list 10 / open 5 (read class) and create
// 13 / delete 13 / rename 9 (mutate class). Creates equal deletes, so
// the preloaded population is stationary. Each client owns the files
// it names, so no client ever acts on a path another one removed.
type slive struct {
	size
}

type sliveState struct {
	live []string
	next int
}

func (w *slive) cluster(dataDir string) integration.ClusterConfig {
	cc := integration.DefaultClusterConfig(dataDir)
	cc.NumWorkers, cc.NumRacks = 2, 1
	cc.MemCapacity, cc.SSDCapacity, cc.HDDCapacity = 16<<20, 64<<20, 192<<20
	return cc
}

func (w *slive) shape() probeShape {
	return probeShape{blockBytes: 4 << 20, rv: core.ReplicationVectorFromFactor(1), files: w.sliveFiles, dirs: w.sliveDirs}
}

func (w *slive) dir(i int) string { return fmt.Sprintf("/slive/d%03d", i%w.sliveDirs) }

func (w *slive) newPath(c *clientCtx, st *sliveState) string {
	p := fmt.Sprintf("%s/c%d-%07d", w.dir(c.rng.Intn(w.sliveDirs)), c.idx, st.next)
	st.next++
	return p
}

func (w *slive) create(c *clientCtx, path string) error {
	var wr *client.Writer
	err := c.call(callCreate, path, func() (err error) {
		wr, err = c.fs.Create(path, client.CreateOptions{RepVector: core.ReplicationVectorFromFactor(1)})
		return err
	})
	if err != nil {
		return err
	}
	return c.call(callClose, path, wr.Close)
}

func (w *slive) preload(e *env) error {
	if err := e.clients[0].fs.Mkdir("/slive", true); err != nil {
		return err
	}
	for d := 0; d < w.sliveDirs; d++ {
		if err := e.clients[0].fs.Mkdir(w.dir(d), false); err != nil {
			return err
		}
	}
	return eachClient(e, func(c *clientCtx) error {
		st := &sliveState{}
		c.state = st
		for i := 0; i < w.sliveFiles/numClients; i++ {
			p := w.newPath(c, st)
			if err := w.create(c, p); err != nil {
				return err
			}
			st.live = append(st.live, p)
		}
		return nil
	})
}

func (w *slive) iterate(c *clientCtx) {
	st := c.state.(*sliveState)
	x := c.rng.Intn(100)
	if len(st.live) == 0 {
		x = 65 // nothing to act on: create
	}
	pick := func() (int, string) {
		i := c.rng.Intn(len(st.live))
		return i, st.live[i]
	}
	switch {
	case x < 50:
		_, p := pick()
		c.timeOp(false, 0, func() error {
			return c.call(callStat, p, func() error { _, err := c.fs.Stat(p); return err })
		})
	case x < 60:
		d := w.dir(c.rng.Intn(w.sliveDirs))
		c.timeOp(false, 0, func() error {
			return c.call(callList, d, func() error { _, err := c.fs.List(d); return err })
		})
	case x < 65:
		_, p := pick()
		c.timeOp(false, 0, func() error {
			var r *client.Reader
			err := c.call(callOpen, p, func() (err error) { r, err = c.fs.Open(p); return err })
			if err != nil {
				return err
			}
			if r.Length() != 0 {
				r.Close()
				return fmt.Errorf("%s: length %d, want 0", p, r.Length())
			}
			return c.call(callClose, p, r.Close)
		})
	case x < 78:
		p := w.newPath(c, st)
		c.timeOp(true, 0, func() error { return w.create(c, p) })
		st.live = append(st.live, p) // a failed create shows up in verify too
	case x < 91:
		i, p := pick()
		c.timeOp(true, 0, func() error {
			return c.call(callDelete, p, func() error { return c.fs.Delete(p, false) })
		})
		st.live[i] = st.live[len(st.live)-1]
		st.live = st.live[:len(st.live)-1]
	default:
		i, p := pick()
		dst := w.newPath(c, st)
		c.timeOp(true, 0, func() error {
			return c.call(callRename, p, func() error { return c.fs.Rename(p, dst) })
		})
		st.live[i] = dst
	}
}

// verify lists every directory and compares the names found with the
// clients' models of what they created, renamed and deleted.
func (w *slive) verify(e *env) (checked, bad int) {
	want := make(map[string]bool)
	for _, c := range e.clients {
		st := c.state.(*sliveState)
		for _, p := range st.live {
			want[p] = true
		}
		checked++
		if len(st.live) > 2*w.sliveFiles/numClients {
			bad++
		}
	}
	fs := e.clients[0].fs
	found := 0
	for d := 0; d < w.sliveDirs; d++ {
		checked++
		entries, err := fs.List(w.dir(d))
		if err != nil {
			bad++
			continue
		}
		for _, ent := range entries {
			if !want[ent.Path] || ent.Length != 0 {
				bad++
				continue
			}
			found++
		}
	}
	checked++
	if found != len(want) {
		bad++
		e.clients[0].note(fmt.Errorf("verify: namespace holds %d of the %d modelled files", found, len(want)))
	}
	return checked, bad
}

func (w *slive) liveBytes(*env) int64 { return 0 }

// ---- tiered_zipf_read ----

// tiered is the paper's reason to exist: which tier serves a read sets
// its speed. 1 MiB single-replica files on a 4-worker cluster throttled
// to Table 2 × 0.25 are read whole under Zipf(1.1). The application
// places them the way paper Table 1 lets it, by replication vector: the
// hottest ranks on memory, the next on SSD, the rest on HDD — the
// placement an ideal mover would converge to, and so the ceiling a
// real one is measured against. The rank boundaries keep the median
// read inside the memory mode and the 90th percentile inside the SSD
// mode with room to spare; a percentile that sits on a mode boundary
// measures the boundary, not the system.
//
// The master's mover is off. With it on (the first design), one run in
// eight lost a block of a ⟨U1⟩ file — the retired source replica
// resurrected by a stale block report, the new replica then removed as
// excess — and whether the median read came from memory or SSD changed
// from seed to seed. README.md has the details.
type tiered struct {
	size
	content
	seed int64
	perm []int // Zipf rank → file number
}

type tieredState struct {
	files []fileRef // all files by file number (shared, read-only after preload)
	zipf  *rand.Zipf
	buf   []byte
}

// vector pins the file of the given hotness rank to its tier.
func (w *tiered) vector(rank int) core.ReplicationVector {
	switch {
	case rank < w.zipfMemFiles:
		return core.NewReplicationVector(1, 0, 0, 0, 0)
	case rank < w.zipfMemFiles+w.zipfSSDFiles:
		return core.NewReplicationVector(0, 1, 0, 0, 0)
	}
	return core.NewReplicationVector(0, 0, 1, 0, 0)
}

func (w *tiered) cluster(dataDir string) integration.ClusterConfig {
	cc := integration.DefaultClusterConfig(dataDir)
	cc.NumWorkers, cc.NumRacks = 4, 2
	cc.MemCapacity, cc.SSDCapacity, cc.HDDCapacity = w.tierMem, w.tierSSD, w.tierHDD
	cc.BlockSize = w.zipfFileBytes
	cc.Throttle, cc.ThrottleScale = true, 0.25
	return cc
}

func (w *tiered) shape() probeShape {
	return probeShape{blockBytes: w.zipfFileBytes, rv: w.vector(0), files: w.zipfFiles, dirs: 1}
}

func (w *tiered) preload(e *env) error {
	if err := e.clients[0].fs.Mkdir("/tiered", true); err != nil {
		return err
	}
	// One seeded write order and one content offset per file, shared by
	// the clients, so neither hotness nor tier follows from write order
	// or file name; each client writes every numClients-th file.
	rng := rand.New(rand.NewSource(w.seed ^ 0x6f72646572))
	files := make([]fileRef, w.zipfFiles)
	for i := range files {
		files[i] = fileRef{path: fmt.Sprintf("/tiered/f%04d", i), off: rng.Intn(len(w.base))}
	}
	rankOf := make([]int, w.zipfFiles)
	for rank, file := range w.perm {
		rankOf[file] = rank
	}
	order := rng.Perm(w.zipfFiles)
	return eachClient(e, func(c *clientCtx) error {
		c.state = &tieredState{
			files: files,
			zipf:  rand.NewZipf(c.rng, 1.1, 1, uint64(w.zipfFiles-1)),
			buf:   make([]byte, 1<<20),
		}
		for k := c.idx; k < len(order); k += numClients {
			file := order[k]
			if err := w.writeFile(c, files[file], w.vector(rankOf[file]), w.zipfFileBytes); err != nil {
				return err
			}
			w.crc(files[file].off) // computed here, so a timed read only compares
		}
		return nil
	})
}

func (w *tiered) iterate(c *clientCtx) {
	st := c.state.(*tieredState)
	f := st.files[w.perm[st.zipf.Uint64()]]
	checkCRC := c.crcDue()
	c.timeOp(false, w.zipfFileBytes, func() error { return w.readFile(c, f, st.buf, w.zipfFileBytes, checkCRC) })
}

func (w *tiered) verify(e *env) (int, int) {
	return w.verifyFiles(e, w.zipfFileBytes, func(c *clientCtx) []fileRef {
		all := c.state.(*tieredState).files
		var mine []fileRef
		for i := c.idx; i < len(all); i += numClients {
			mine = append(mine, all[i])
		}
		return mine
	})
}

func (w *tiered) liveBytes(*env) int64 { return int64(w.zipfFiles) * w.zipfFileBytes }
