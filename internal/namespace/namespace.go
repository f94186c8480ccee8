package namespace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// FileInfo describes one namespace entry to callers.
type FileInfo struct {
	Path      string
	IsDir     bool
	Length    int64
	RepVector core.ReplicationVector
	BlockSize int64
	ModTime   int64
	Owner     string
}

// Namespace is the master's directory tree with write-ahead logging
// and checkpointing. All methods are safe for concurrent use.
type Namespace struct {
	mu   sync.RWMutex
	root *INode
	log  *EditLog // nil when running without persistence
	dir  string   // persistence directory ("" = volatile)
	sync bool     // fsync the edit log after every append

	nextBlockID uint64
	nextGen     uint64
	txid        uint64

	// files finds a file inode by its ID; with the inodes' parent links
	// that makes PathOf O(depth). open is the under-construction subset,
	// so the lease check of every monitor tick does not walk the tree.
	files, open map[FileID]*INode
	nextFileID  FileID

	recovery RecoveryStats

	lockObs atomic.Pointer[LockObserver]
	editObs atomic.Pointer[EditObserver]
}

const (
	imageFile = "fsimage"
	editsFile = "edits"
)

// Options configures how a namespace is opened.
type Options struct {
	// SyncEdits fsyncs the edit log after every append, trading
	// mutation latency for zero-edit-loss durability. Off by default
	// (the OS flushes on its own schedule, matching the seed
	// behaviour).
	SyncEdits bool
}

// Open loads (or initialises) a namespace persisted under dir: the
// latest fsimage checkpoint is loaded and the edit log replayed on
// top. An empty dir yields a volatile, in-memory namespace (useful
// for tests and simulations).
func Open(dir string) (*Namespace, error) {
	return OpenWithOptions(dir, Options{})
}

// OpenWithOptions is Open with explicit durability options, recording
// RecoveryStats (image size/load time, edits replayed/replay time)
// along the way.
func OpenWithOptions(dir string, opts Options) (*Namespace, error) {
	ns := &Namespace{
		root:        newDirectory("", "root", time.Now().UnixNano()),
		dir:         dir,
		sync:        opts.SyncEdits,
		nextBlockID: 1,
		nextGen:     1,
		files:       make(map[FileID]*INode),
		open:        make(map[FileID]*INode),
	}
	if dir == "" {
		return ns, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("namespace: creating metadata dir: %w", err)
	}
	imgStart := time.Now()
	if data, err := os.ReadFile(filepath.Join(dir, imageFile)); err == nil {
		if err := ns.loadImage(data); err != nil {
			return nil, err
		}
		ns.recovery.ImageBytes = int64(len(data))
		ns.recovery.ImageLoadNs = time.Since(imgStart).Nanoseconds()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("namespace: reading fsimage: %w", err)
	}
	replayStart := time.Now()
	edits, err := ReadEdits(filepath.Join(dir, editsFile))
	if err != nil {
		return nil, err
	}
	for _, rec := range edits {
		if rec.TxID <= ns.txid {
			continue // already reflected in the checkpoint
		}
		if err := ns.apply(rec); err != nil {
			return nil, fmt.Errorf("namespace: replaying edit tx %d: %w", rec.TxID, err)
		}
		ns.txid = rec.TxID
		ns.recovery.EditsReplayed++
	}
	ns.recovery.ReplayNs = time.Since(replayStart).Nanoseconds()
	// Absorb the replayed edits into a fresh checkpoint before
	// accepting new mutations. This starts a new edit stream — a gob
	// decoder cannot resume a log written across two encoder sessions
	// — discards any torn tail bytes left by a crash, and bounds the
	// next restart's replay.
	if err := ns.checkpointLocked(); err != nil {
		return nil, err
	}
	return ns, nil
}

// Close releases the namespace's resources.
func (ns *Namespace) Close() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.log != nil {
		return ns.log.Close()
	}
	return nil
}

// logAndApply appends rec to the edit log (write-ahead), fsyncs when
// configured, and applies it to the in-memory tree, timing each phase
// into st and the edit observer. Callers hold ns.mu and have already
// validated the mutation, so apply cannot fail except on programming
// error.
func (ns *Namespace) logAndApply(rec EditRecord, st *OpStats) error {
	ns.txid++
	rec.TxID = ns.txid
	if rec.Time == 0 {
		rec.Time = time.Now().UnixNano()
	}
	if ns.log != nil {
		t0 := time.Now()
		if err := ns.log.Append(rec); err != nil {
			return err
		}
		appendD := time.Since(t0)
		var fsyncD time.Duration
		if ns.sync {
			t1 := time.Now()
			if err := ns.log.Sync(); err != nil {
				return fmt.Errorf("namespace: syncing edit log: %w", err)
			}
			fsyncD = time.Since(t1)
		}
		ns.observeEdit(appendD, fsyncD, 1, st)
	}
	t2 := time.Now()
	err := ns.apply(rec)
	if st != nil {
		st.ApplyNs += time.Since(t2).Nanoseconds()
	}
	return err
}

// resolve walks the tree to the inode at path. Callers hold ns.mu.
func (ns *Namespace) resolve(path string) (*INode, error) {
	node := ns.root
	for _, part := range SplitPath(path) {
		if !node.IsDir {
			return nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotDirectory)
		}
		child, ok := node.Children[part]
		if !ok {
			return nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotFound)
		}
		node = child
	}
	return node, nil
}

// ancestors returns the chain of directory inodes from the root down
// to (and including) the parent directory of path.
func (ns *Namespace) ancestors(path string) ([]*INode, error) {
	parts := SplitPath(path)
	chain := []*INode{ns.root}
	node := ns.root
	for _, part := range parts[:max(0, len(parts)-1)] {
		if !node.IsDir {
			return nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotDirectory)
		}
		child, ok := node.Children[part]
		if !ok {
			return nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotFound)
		}
		node = child
		chain = append(chain, node)
	}
	return chain, nil
}

// adopt links node under parent and gives every file in its subtree that
// has no ID yet (a new file, a loaded image) one.
func (ns *Namespace) adopt(parent, node *INode) {
	node.parent = parent
	if !node.IsDir {
		if node.id == 0 {
			ns.nextFileID++
			node.id = ns.nextFileID
		}
		ns.files[node.id] = node
		if node.UnderConstruction {
			ns.open[node.id] = node
		}
	}
	for _, c := range node.Children {
		ns.adopt(node, c)
	}
}

// forget drops every file under an unlinked node from the ID index.
func (ns *Namespace) forget(n *INode) {
	if !n.IsDir {
		delete(ns.files, n.id)
		delete(ns.open, n.id)
	}
	for _, c := range n.Children {
		ns.forget(c)
	}
}

// PathOf returns the current path of the file with the given ID, "" once
// it is deleted. What is keyed by FileID calls this when it renders.
func (ns *Namespace) PathOf(id FileID) string {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return pathTo(ns.files[id])
}

// pathTo climbs n's parent links to the root; a nil n has no path.
func pathTo(n *INode) (path string) {
	for ; n != nil && n.parent != nil; n = n.parent {
		path = Separator + n.Name + path
	}
	return path
}

// checkQuota verifies that adding delta to every directory in chain
// stays within each configured quota.
func checkQuota(chain []*INode, delta [numQuotaSlots]int64) error {
	for _, dir := range chain {
		for slot := 0; slot < numQuotaSlots; slot++ {
			if dir.Quota[slot] > 0 && delta[slot] > 0 &&
				dir.Usage[slot]+delta[slot] > dir.Quota[slot] {
				return fmt.Errorf("namespace: tier quota on %q slot %d (%d + %d > %d): %w",
					dir.Name, slot, dir.Usage[slot], delta[slot], dir.Quota[slot], core.ErrQuotaExceeded)
			}
		}
	}
	return nil
}

// chargeChain applies delta to every directory's usage counters.
func chargeChain(chain []*INode, delta [numQuotaSlots]int64) {
	for _, dir := range chain {
		dir.Usage = addCharges(dir.Usage, delta)
	}
}

// Mkdir creates a directory; with parents=true it creates missing
// ancestors like mkdir -p and is idempotent on existing directories.
func (ns *Namespace) Mkdir(path string, parents bool, owner string, stats ...*OpStats) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	if path == Separator {
		if parents {
			return nil
		}
		return fmt.Errorf("namespace: %s: %w", path, core.ErrExists)
	}
	if node, err := ns.resolve(path); err == nil {
		if node.IsDir && parents {
			return nil
		}
		return fmt.Errorf("namespace: %s: %w", path, core.ErrExists)
	}
	if !parents {
		parent, err := ns.resolve(ParentPath(path))
		if err != nil {
			return err
		}
		if !parent.IsDir {
			return fmt.Errorf("namespace: %s: %w", ParentPath(path), core.ErrNotDirectory)
		}
	}
	return ns.logAndApply(EditRecord{Op: EditMkdir, Path: path, Parents: parents, Owner: owner}, st)
}

func (ns *Namespace) applyMkdir(rec EditRecord) error {
	node := ns.root
	parts := SplitPath(rec.Path)
	for i, part := range parts {
		if !node.IsDir {
			return fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotDirectory)
		}
		child, ok := node.Children[part]
		if !ok {
			if !rec.Parents && i < len(parts)-1 {
				return fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotFound)
			}
			child = newDirectory(part, rec.Owner, rec.Time)
			node.Children[part] = child
			ns.adopt(node, child)
			node.ModTime = rec.Time
		}
		node = child
	}
	return nil
}

// Create registers a new under-construction file. With overwrite=true
// an existing file at the path is replaced: it keeps its ID, and its
// blocks are returned so the caller can invalidate the replicas.
func (ns *Namespace) Create(path string, rv core.ReplicationVector, blockSize int64,
	overwrite bool, owner string, stats ...*OpStats) (Removed, error) {

	path, err := CleanPath(path)
	if err != nil {
		return Removed{}, err
	}
	if err := rv.Validate(); err != nil {
		return Removed{}, err
	}
	if blockSize <= 0 {
		blockSize = core.DefaultBlockSize
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	parentChain, err := ns.ancestors(path)
	if err != nil {
		return Removed{}, err
	}
	parent := parentChain[len(parentChain)-1]
	if !parent.IsDir {
		return Removed{}, fmt.Errorf("namespace: %s: %w", ParentPath(path), core.ErrNotDirectory)
	}
	var removed Removed
	if existing, ok := parent.Children[BaseName(path)]; ok {
		if existing.IsDir {
			return Removed{}, fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
		}
		if !overwrite {
			return Removed{}, fmt.Errorf("namespace: %s: %w", path, core.ErrExists)
		}
		if existing.UnderConstruction {
			return Removed{}, fmt.Errorf("namespace: %s: %w", path, core.ErrFileOpen)
		}
		removed.Blocks = append(removed.Blocks, existing.Blocks...)
	}
	if err := ns.logAndApply(EditRecord{
		Op: EditCreate, Path: path, RepVector: rv, BlockSize: blockSize,
		Overwrite: overwrite, Owner: owner,
	}, st); err != nil {
		return Removed{}, err
	}
	st.resolved(parent.Children[BaseName(path)])
	return removed, nil
}

func (ns *Namespace) applyCreate(rec EditRecord) error {
	chain, err := ns.ancestors(rec.Path)
	if err != nil {
		return err
	}
	parent := chain[len(chain)-1]
	name := BaseName(rec.Path)
	if parent.Children == nil {
		parent.Children = make(map[string]*INode)
	}
	file := newFile(name, rec.Owner, rec.RepVector, rec.BlockSize, rec.Time)
	if existing, ok := parent.Children[name]; ok && !existing.IsDir {
		chargeChain(chain, negCharges(fileCharges(existing)))
		file.id = existing.id
	}
	parent.Children[name] = file
	ns.adopt(parent, file)
	parent.ModTime = rec.Time
	return nil
}

// AddBlock allocates the next block of an under-construction file,
// after checking that a full block would fit within every ancestor's
// tier quotas (the conservative HDFS-style check).
func (ns *Namespace) AddBlock(path string, stats ...*OpStats) (core.Block, error) {
	path, err := CleanPath(path)
	if err != nil {
		return core.Block{}, err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return core.Block{}, err
	}
	if node.IsDir {
		return core.Block{}, fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	if !node.UnderConstruction {
		return core.Block{}, fmt.Errorf("namespace: %s: %w", path, core.ErrFileClosed)
	}
	chain, err := ns.ancestors(path)
	if err != nil {
		return core.Block{}, err
	}
	if err := checkQuota(chain, charges(node.RepVector, node.BlockSize)); err != nil {
		return core.Block{}, err
	}
	blk := core.Block{
		ID:       core.BlockID(ns.nextBlockID),
		GenStamp: core.GenerationStamp(ns.nextGen),
	}
	if err := ns.logAndApply(EditRecord{Op: EditAddBlock, Path: path, Block: blk}, st); err != nil {
		return core.Block{}, err
	}
	st.resolved(node)
	return blk, nil
}

func (ns *Namespace) applyAddBlock(rec EditRecord) error {
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	node.Blocks = append(node.Blocks, rec.Block)
	node.ModTime = rec.Time
	if id := uint64(rec.Block.ID); id >= ns.nextBlockID {
		ns.nextBlockID = id + 1
	}
	if g := uint64(rec.Block.GenStamp); g >= ns.nextGen {
		ns.nextGen = g + 1
	}
	return nil
}

// CommitBlock records the final length of a block that the client has
// finished writing, charging the actual bytes against the quotas.
func (ns *Namespace) CommitBlock(path string, b core.Block, stats ...*OpStats) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if node.IsDir {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	found := false
	for _, existing := range node.Blocks {
		if existing.ID == b.ID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("namespace: %s has no block %s: %w", path, b.ID, core.ErrNotFound)
	}
	return ns.logAndApply(EditRecord{Op: EditCommitBlock, Path: path, Block: b}, st)
}

func (ns *Namespace) applyCommitBlock(rec EditRecord) error {
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	chain, err := ns.ancestors(rec.Path)
	if err != nil {
		return err
	}
	for i, existing := range node.Blocks {
		if existing.ID == rec.Block.ID {
			delta := rec.Block.NumBytes - existing.NumBytes
			node.Blocks[i] = rec.Block
			chargeChain(chain, charges(node.RepVector, delta))
			node.ModTime = rec.Time
			return nil
		}
	}
	return fmt.Errorf("namespace: %s has no block %s: %w", rec.Path, rec.Block.ID, core.ErrNotFound)
}

// AbandonBlock removes the last, still-uncommitted block of an
// under-construction file after a failed pipeline write, so the client
// can allocate a replacement (HDFS-style block recovery, simplified).
func (ns *Namespace) AbandonBlock(path string, id core.BlockID, stats ...*OpStats) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if node.IsDir {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	if !node.UnderConstruction {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrFileClosed)
	}
	if len(node.Blocks) == 0 || node.Blocks[len(node.Blocks)-1].ID != id {
		return fmt.Errorf("namespace: %s: block %s is not the last block: %w", path, id, core.ErrNotFound)
	}
	return ns.logAndApply(EditRecord{Op: EditAbandonBlock, Path: path, Block: core.Block{ID: id}}, st)
}

func (ns *Namespace) applyAbandonBlock(rec EditRecord) error {
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	chain, err := ns.ancestors(rec.Path)
	if err != nil {
		return err
	}
	last := len(node.Blocks) - 1
	if last < 0 || node.Blocks[last].ID != rec.Block.ID {
		return fmt.Errorf("namespace: %s: block %s is not the last block: %w", rec.Path, rec.Block.ID, core.ErrNotFound)
	}
	// Refund whatever bytes the block had already been charged.
	chargeChain(chain, negCharges(charges(node.RepVector, node.Blocks[last].NumBytes)))
	node.Blocks = node.Blocks[:last]
	node.ModTime = rec.Time
	return nil
}

// Complete commits the final block (if any) and seals the file.
func (ns *Namespace) Complete(path string, last *core.Block, stats ...*OpStats) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if node.IsDir {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	if !node.UnderConstruction {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrFileClosed)
	}
	rec := EditRecord{Op: EditComplete, Path: path}
	if last != nil {
		rec.Block = *last
		rec.Bytes = 1 // marks the presence of a final block
	}
	return ns.logAndApply(rec, st)
}

func (ns *Namespace) applyComplete(rec EditRecord) error {
	if rec.Bytes == 1 {
		commit := rec
		commit.Op = EditCommitBlock
		if err := ns.applyCommitBlock(commit); err != nil {
			return err
		}
	}
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	node.UnderConstruction = false
	delete(ns.open, node.id)
	node.ModTime = rec.Time
	return nil
}

// Abandon removes an under-construction file after a failed write,
// returning it and its blocks for invalidation.
func (ns *Namespace) Abandon(path string, stats ...*OpStats) (Removed, error) {
	path, err := CleanPath(path)
	if err != nil {
		return Removed{}, err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return Removed{}, err
	}
	if node.IsDir || !node.UnderConstruction {
		return Removed{}, fmt.Errorf("namespace: %s is not under construction: %w", path, core.ErrFileClosed)
	}
	var removed Removed
	collect(node, &removed)
	if err := ns.logAndApply(EditRecord{Op: EditAbandon, Path: path}, st); err != nil {
		return Removed{}, err
	}
	return removed, nil
}

func (ns *Namespace) applyAbandon(rec EditRecord) error {
	return ns.removeNode(rec.Path, rec.Time)
}

// Delete removes a file or directory, returning every file and block of
// the removed subtree so the caller can invalidate the replicas. Deleting
// a non-empty directory requires recursive=true.
func (ns *Namespace) Delete(path string, recursive bool, stats ...*OpStats) (Removed, error) {
	path, err := CleanPath(path)
	if err != nil {
		return Removed{}, err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	if path == Separator {
		return Removed{}, fmt.Errorf("namespace: cannot delete the root: %w", core.ErrPermission)
	}
	node, err := ns.resolve(path)
	if err != nil {
		return Removed{}, err
	}
	if node.IsDir && len(node.Children) > 0 && !recursive {
		return Removed{}, fmt.Errorf("namespace: %s: %w", path, core.ErrNotEmpty)
	}
	var removed Removed
	collect(node, &removed)
	if err := ns.logAndApply(EditRecord{Op: EditDelete, Path: path, Recursive: recursive}, st); err != nil {
		return Removed{}, err
	}
	return removed, nil
}

func (ns *Namespace) applyDelete(rec EditRecord) error {
	return ns.removeNode(rec.Path, rec.Time)
}

// removeNode unlinks the inode at path and updates ancestor usage.
func (ns *Namespace) removeNode(path string, now int64) error {
	chain, err := ns.ancestors(path)
	if err != nil {
		return err
	}
	parent := chain[len(chain)-1]
	name := BaseName(path)
	node, ok := parent.Children[name]
	if !ok {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrNotFound)
	}
	chargeChain(chain, negCharges(subtreeCharges(node)))
	delete(parent.Children, name)
	ns.forget(node)
	parent.ModTime = now
	return nil
}

// Rename moves a file or directory. The destination must not exist;
// moving a directory into its own subtree is rejected.
func (ns *Namespace) Rename(src, dst string, stats ...*OpStats) error {
	src, err := CleanPath(src)
	if err != nil {
		return err
	}
	dst, err = CleanPath(dst)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	if src == Separator {
		return fmt.Errorf("namespace: cannot rename the root: %w", core.ErrPermission)
	}
	if IsAncestor(src, dst) {
		return fmt.Errorf("namespace: cannot move %s into itself (%s): %w", src, dst, core.ErrExists)
	}
	node, err := ns.resolve(src)
	if err != nil {
		return err
	}
	if _, err := ns.resolve(dst); err == nil {
		return fmt.Errorf("namespace: %s: %w", dst, core.ErrExists)
	}
	dstChain, err := ns.ancestors(dst)
	if err != nil {
		return err
	}
	if !dstChain[len(dstChain)-1].IsDir {
		return fmt.Errorf("namespace: %s: %w", ParentPath(dst), core.ErrNotDirectory)
	}
	if err := checkQuota(dstChain, subtreeCharges(node)); err != nil {
		return err
	}
	return ns.logAndApply(EditRecord{Op: EditRename, Path: src, Dst: dst}, st)
}

func (ns *Namespace) applyRename(rec EditRecord) error {
	srcChain, err := ns.ancestors(rec.Path)
	if err != nil {
		return err
	}
	srcParent := srcChain[len(srcChain)-1]
	name := BaseName(rec.Path)
	node, ok := srcParent.Children[name]
	if !ok {
		return fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotFound)
	}
	usage := subtreeCharges(node)
	chargeChain(srcChain, negCharges(usage))
	delete(srcParent.Children, name)
	srcParent.ModTime = rec.Time

	dstChain, err := ns.ancestors(rec.Dst)
	if err != nil {
		return err
	}
	dstParent := dstChain[len(dstChain)-1]
	node.Name = BaseName(rec.Dst)
	node.parent = dstParent
	if dstParent.Children == nil {
		dstParent.Children = make(map[string]*INode)
	}
	dstParent.Children[node.Name] = node
	dstParent.ModTime = rec.Time
	chargeChain(dstChain, usage)
	return nil
}

// SetRepVector changes a file's replication vector (paper Table 1),
// returning the previous vector so the caller can compute the per-tier
// replica deltas to enact.
func (ns *Namespace) SetRepVector(path string, rv core.ReplicationVector, stats ...*OpStats) (core.ReplicationVector, error) {
	path, err := CleanPath(path)
	if err != nil {
		return 0, err
	}
	if err := rv.Validate(); err != nil {
		return 0, err
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return 0, err
	}
	if node.IsDir {
		return 0, fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	old := node.RepVector
	chain, err := ns.ancestors(path)
	if err != nil {
		return 0, err
	}
	delta := addCharges(charges(rv, node.Length()), negCharges(charges(old, node.Length())))
	if err := checkQuota(chain, delta); err != nil {
		return 0, err
	}
	if err := ns.logAndApply(EditRecord{Op: EditSetRepVector, Path: path, RepVector: rv}, st); err != nil {
		return 0, err
	}
	return old, nil
}

func (ns *Namespace) applySetRepVector(rec EditRecord) error {
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	chain, err := ns.ancestors(rec.Path)
	if err != nil {
		return err
	}
	length := node.Length()
	delta := addCharges(charges(rec.RepVector, length), negCharges(charges(node.RepVector, length)))
	chargeChain(chain, delta)
	node.RepVector = rec.RepVector
	node.ModTime = rec.Time
	return nil
}

// SetQuota sets a per-tier byte quota on a directory; tier
// TierUnspecified sets the total-space quota and bytes<=0 clears it.
func (ns *Namespace) SetQuota(path string, tier core.StorageTier, bytes int64, stats ...*OpStats) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	if tier > core.TierUnspecified {
		return fmt.Errorf("namespace: invalid quota tier %v: %w", tier, core.ErrNotFound)
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	node, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if !node.IsDir {
		return fmt.Errorf("namespace: %s: %w", path, core.ErrNotDirectory)
	}
	return ns.logAndApply(EditRecord{Op: EditSetQuota, Path: path, Tier: tier, Bytes: bytes}, st)
}

func (ns *Namespace) applySetQuota(rec EditRecord) error {
	node, err := ns.resolve(rec.Path)
	if err != nil {
		return err
	}
	slot := int(rec.Tier)
	if rec.Tier == core.TierUnspecified {
		slot = totalQuotaSlot
	}
	if rec.Bytes <= 0 {
		node.Quota[slot] = 0
	} else {
		node.Quota[slot] = rec.Bytes
	}
	node.ModTime = rec.Time
	return nil
}

// apply dispatches one edit record to its handler.
func (ns *Namespace) apply(rec EditRecord) error {
	switch rec.Op {
	case EditMkdir:
		return ns.applyMkdir(rec)
	case EditCreate:
		return ns.applyCreate(rec)
	case EditAddBlock:
		return ns.applyAddBlock(rec)
	case EditCommitBlock:
		return ns.applyCommitBlock(rec)
	case EditComplete:
		return ns.applyComplete(rec)
	case EditAbandon:
		return ns.applyAbandon(rec)
	case EditDelete:
		return ns.applyDelete(rec)
	case EditRename:
		return ns.applyRename(rec)
	case EditSetRepVector:
		return ns.applySetRepVector(rec)
	case EditSetQuota:
		return ns.applySetQuota(rec)
	case EditAbandonBlock:
		return ns.applyAbandonBlock(rec)
	}
	return fmt.Errorf("namespace: unknown edit op %d", rec.Op)
}

// Status returns the FileInfo of one path.
func (ns *Namespace) Status(path string, stats ...*OpStats) (FileInfo, error) {
	path, err := CleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	st := statsOf(stats)
	ns.rlock(st)
	defer ns.mu.RUnlock()
	defer timeApply(st)()
	node, err := ns.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	return infoFor(path, node), nil
}

func infoFor(path string, node *INode) FileInfo {
	info := FileInfo{
		Path:    path,
		IsDir:   node.IsDir,
		ModTime: node.ModTime,
		Owner:   node.Owner,
	}
	if !node.IsDir {
		info.Length = node.Length()
		info.RepVector = node.RepVector
		info.BlockSize = node.BlockSize
	}
	return info
}

// List returns the entries of a directory sorted by name, or the
// single entry for a file path.
func (ns *Namespace) List(path string, stats ...*OpStats) ([]FileInfo, error) {
	path, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	st := statsOf(stats)
	ns.rlock(st)
	defer ns.mu.RUnlock()
	defer timeApply(st)()
	node, err := ns.resolve(path)
	if err != nil {
		return nil, err
	}
	if !node.IsDir {
		return []FileInfo{infoFor(path, node)}, nil
	}
	out := make([]FileInfo, 0, len(node.Children))
	for _, name := range node.childNames() {
		out = append(out, infoFor(JoinPath(path, name), node.Children[name]))
	}
	return out, nil
}

// Exists reports whether a path resolves.
func (ns *Namespace) Exists(path string) bool {
	path, err := CleanPath(path)
	if err != nil {
		return false
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	_, err = ns.resolve(path)
	return err == nil
}

// FileBlocks returns a file's blocks in order plus its replication
// vector and block size.
func (ns *Namespace) FileBlocks(path string, stats ...*OpStats) ([]core.Block, core.ReplicationVector, int64, error) {
	path, err := CleanPath(path)
	if err != nil {
		return nil, 0, 0, err
	}
	st := statsOf(stats)
	ns.rlock(st)
	defer ns.mu.RUnlock()
	defer timeApply(st)()
	node, err := ns.resolve(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if node.IsDir {
		return nil, 0, 0, fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	st.resolved(node)
	return append([]core.Block(nil), node.Blocks...), node.RepVector, node.BlockSize, nil
}

// ForEachFile visits every file in the namespace in depth-first
// order. The callback must not call back into the namespace.
func (ns *Namespace) ForEachFile(fn func(id FileID, path string, blocks []core.Block, rv core.ReplicationVector)) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	walkFiles(Separator, ns.root, func(path string, f *INode) { fn(f.id, path, f.Blocks, f.RepVector) })
}

// walkFiles visits every file under node, depth-first in name order.
func walkFiles(path string, node *INode, fn func(path string, file *INode)) {
	if !node.IsDir {
		fn(path, node)
		return
	}
	for _, name := range node.childNames() {
		walkFiles(JoinPath(path, name), node.Children[name], fn)
	}
}

// Stats returns the number of directories, files, and blocks.
func (ns *Namespace) Stats() (dirs, files, blocks int) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	var walk func(node *INode)
	walk = func(node *INode) {
		if node.IsDir {
			dirs++
			for _, c := range node.Children {
				walk(c)
			}
			return
		}
		files++
		blocks += len(node.Blocks)
	}
	walk(ns.root)
	return dirs, files, blocks
}

// image is the gob-serialised checkpoint payload.
type image struct {
	Root        *INode
	NextBlockID uint64
	NextGen     uint64
	TxID        uint64
}

// ImageBytes serialises the current namespace into a checkpoint
// payload, used both for local checkpoints and for Backup Master
// synchronisation (paper §2.1).
func (ns *Namespace) ImageBytes() ([]byte, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.imageBytesLocked()
}

func (ns *Namespace) imageBytesLocked() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(image{
		Root:        ns.root,
		NextBlockID: ns.nextBlockID,
		NextGen:     ns.nextGen,
		TxID:        ns.txid,
	})
	if err != nil {
		return nil, fmt.Errorf("namespace: encoding fsimage: %w", err)
	}
	return buf.Bytes(), nil
}

func (ns *Namespace) loadImage(data []byte) error {
	var img image
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return fmt.Errorf("namespace: decoding fsimage: %w", err)
	}
	ns.root = img.Root
	ns.nextBlockID = img.NextBlockID
	ns.nextGen = img.NextGen
	ns.txid = img.TxID
	if ns.root == nil {
		ns.root = newDirectory("", "root", time.Now().UnixNano())
	}
	if ns.root.Children == nil {
		ns.root.Children = make(map[string]*INode)
	}
	ns.files, ns.open = make(map[FileID]*INode), make(map[FileID]*INode)
	ns.adopt(nil, ns.root)
	return nil
}

// LoadImageBytes replaces the in-memory tree with a checkpoint
// payload; used by Backup Masters.
func (ns *Namespace) LoadImageBytes(data []byte) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.loadImage(data)
}

// Checkpoint atomically persists the current tree as the new fsimage
// and truncates the edit log (paper §2.1: periodic checkpoints). It is
// a no-op for volatile namespaces.
func (ns *Namespace) Checkpoint() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.checkpointLocked()
}

func (ns *Namespace) checkpointLocked() error {
	if ns.dir == "" {
		return nil
	}
	data, err := ns.imageBytesLocked()
	if err != nil {
		return err
	}
	tmp := filepath.Join(ns.dir, imageFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("namespace: writing fsimage: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(ns.dir, imageFile)); err != nil {
		return fmt.Errorf("namespace: committing fsimage: %w", err)
	}
	if ns.log != nil {
		ns.log.Close()
	}
	if err := os.Remove(filepath.Join(ns.dir, editsFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("namespace: truncating edit log: %w", err)
	}
	log, err := OpenEditLog(filepath.Join(ns.dir, editsFile))
	if err != nil {
		return err
	}
	ns.log = log
	return nil
}

// StaleOpenFiles lists under-construction files whose last mutation is
// older than the cutoff — files whose writer likely died without
// completing or abandoning them. The master's lease recovery abandons
// them (HDFS's lease expiry, simplified). The cost is that of the open
// files, not of the tree; the order is not defined.
func (ns *Namespace) StaleOpenFiles(cutoff int64) []string {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	var stale []string
	for _, f := range ns.open {
		if f.ModTime < cutoff {
			stale = append(stale, pathTo(f))
		}
	}
	return stale
}

// Summary aggregates a subtree: directory and file counts, logical
// bytes, and per-quota-slot byte usage (per-tier plus total).
type Summary struct {
	Files       int
	Directories int
	Bytes       int64
	TierBytes   [numQuotaSlots]int64
}

// ContentSummary walks the subtree at path and aggregates usage — the
// recursive accounting behind `du` and quota inspection.
func (ns *Namespace) ContentSummary(path string, stats ...*OpStats) (Summary, error) {
	path, err := CleanPath(path)
	if err != nil {
		return Summary{}, err
	}
	st := statsOf(stats)
	ns.rlock(st)
	defer ns.mu.RUnlock()
	defer timeApply(st)()
	node, err := ns.resolve(path)
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	var walk func(n *INode)
	walk = func(n *INode) {
		if !n.IsDir {
			sum.Files++
			length := n.Length()
			sum.Bytes += length
			ch := charges(n.RepVector, length)
			for i := range ch {
				sum.TierBytes[i] += ch[i]
			}
			return
		}
		sum.Directories++
		for _, name := range n.childNames() {
			walk(n.Children[name])
		}
	}
	walk(node)
	return sum, nil
}

// WalkFiles visits every file under root in depth-first order,
// exposing the under-construction flag; used by fsck.
func (ns *Namespace) WalkFiles(root string, fn func(path string, blocks []core.Block, rv core.ReplicationVector, underConstruction bool)) error {
	root, err := CleanPath(root)
	if err != nil {
		return err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	node, err := ns.resolve(root)
	if err != nil {
		return err
	}
	walkFiles(root, node, func(path string, f *INode) { fn(path, f.Blocks, f.RepVector, f.UnderConstruction) })
	return nil
}
