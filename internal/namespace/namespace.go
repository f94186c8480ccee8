package namespace

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// FileInfo describes one namespace entry to callers.
type FileInfo struct {
	ID        FileID // zero for a directory
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
	// failed is the append, fsync or log-creation error that left the tree
	// ahead of the log; commit refuses mutations while it is set.
	failed error

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
		if ns, err = decodeImage(data, 0); err != nil {
			return nil, err
		}
		ns.dir, ns.sync = dir, opts.SyncEdits
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
		if _, err := ns.apply(rec); err != nil {
			return nil, fmt.Errorf("namespace: replaying edit tx %d: %w", rec.TxID, err)
		}
		ns.txid = rec.TxID
		ns.recovery.EditsReplayed++
	}
	ns.recovery.ReplayNs = time.Since(replayStart).Nanoseconds()
	// Absorb the replayed edits into a fresh checkpoint before accepting
	// new mutations: nothing else bounds the next restart's replay, and
	// the new log starts without whatever torn tail a crash left.
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

// result is what an applied record did, for the public method to return.
type result struct {
	file    FileID                 // the file a create or addBlock acted on
	block   core.Block             // the block an addBlock appended
	removed Removed                // what a create, abandon or delete unlinked
	old     core.ReplicationVector // the vector a setRepVector replaced
	noop    bool                   // an idempotent mkdir -p: nothing to log
}

// commit is the one way a live mutation happens: clean the paths, take
// the write lock, stamp the record, apply it, append it. A rejected
// record leaves tree and log untouched and no reader sees an unlogged
// change, since both happen under the write lock. If the append or the
// fsync fails the tree is ahead of the log: the error sticks, and every
// later mutation returns it, until a Checkpoint has made the tree
// durable another way and started a new log. Reads keep working.
func (ns *Namespace) commit(rec EditRecord, stats []*OpStats) (result, error) {
	var err error
	if rec.Path, err = CleanPath(rec.Path); err != nil {
		return result{}, err
	}
	if rec.Op == EditRename {
		if rec.Dst, err = CleanPath(rec.Dst); err != nil {
			return result{}, err
		}
	}
	if n := len(rec.Path) + len(rec.Dst) + len(rec.Owner); n > maxEditStrings {
		return result{}, fmt.Errorf("namespace: %d bytes of path and owner do not fit an edit record", n)
	}
	st := statsOf(stats)
	ns.lock(st)
	defer ns.mu.Unlock()
	if ns.failed != nil {
		return result{}, ns.failed
	}
	rec.TxID = ns.txid + 1
	t0 := time.Now()
	rec.Time = t0.UnixNano()
	if rec.Op == EditAddBlock {
		rec.Block = core.Block{ID: core.BlockID(ns.nextBlockID), GenStamp: core.GenerationStamp(ns.nextGen)}
	}
	res, err := ns.apply(rec)
	t1 := time.Now()
	if st != nil {
		st.ApplyNs += t1.Sub(t0).Nanoseconds()
	}
	if err != nil || res.noop {
		return res, err
	}
	ns.txid = rec.TxID
	if ns.log == nil {
		return res, nil
	}
	err = ns.log.Append(rec)
	t2 := time.Now()
	if err == nil && ns.sync {
		err = ns.log.Sync()
	}
	if err != nil {
		ns.failed = fmt.Errorf("%w (mutations are refused until a checkpoint succeeds)", err)
		return result{}, ns.failed
	}
	var fsyncD time.Duration
	if ns.sync {
		fsyncD = time.Since(t2)
	}
	ns.observeEdit(t2.Sub(t1), fsyncD, 1, st)
	return res, nil
}

// apply validates one record against the tree and enacts it; a rejected
// record has changed nothing. Live mutations (commit) and replay (Open)
// both come through here, and the functions it dispatches to hold the
// only copy of each op's preconditions.
func (ns *Namespace) apply(rec EditRecord) (result, error) {
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
	case EditAbandon, EditDelete:
		return ns.applyRemove(rec)
	case EditRename:
		return ns.applyRename(rec)
	case EditSetRepVector:
		return ns.applySetRepVector(rec)
	case EditSetQuota:
		return ns.applySetQuota(rec)
	case EditAbandonBlock:
		return ns.applyAbandonBlock(rec)
	}
	return result{}, fmt.Errorf("namespace: unknown edit op %d", rec.Op)
}

// locate walks the tree to path: it returns the directory holding the
// last component — the lowest of those whose usage a mutation there
// charges — and the inode at path, nil when only that last component is
// missing. The root is its own directory. Callers hold ns.mu.
func (ns *Namespace) locate(path string) (dir, node *INode, err error) {
	dir, node = ns.root, ns.root
	for rest, more := strings.TrimPrefix(path, Separator), path != Separator; more; {
		var part string
		part, rest, more = strings.Cut(rest, Separator)
		if node == nil {
			return nil, nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotFound)
		}
		if !node.IsDir {
			return nil, nil, fmt.Errorf("namespace: %s: %w", path, core.ErrNotDirectory)
		}
		dir, node = node, node.child(part)
	}
	return dir, node, nil
}

// existing is locate for a path that must resolve.
func (ns *Namespace) existing(path string) (*INode, *INode, error) {
	dir, node, err := ns.locate(path)
	if err == nil && node == nil {
		err = fmt.Errorf("namespace: %s: %w", path, core.ErrNotFound)
	}
	return dir, node, err
}

// existingFile is locate for a path that must resolve to a file.
func (ns *Namespace) existingFile(path string) (*INode, *INode, error) {
	dir, node, err := ns.existing(path)
	if err == nil && node.IsDir {
		err = fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
	}
	return dir, node, err
}

// adopt links a new or loaded node under parent and indexes it if it is
// a file, giving it an ID unless it has one.
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
}

// unlink removes node from its directory: the subtree's charges are
// refunded, its files leave the ID index, and what it held is returned
// for the caller to invalidate.
func (ns *Namespace) unlink(dir, node *INode, now int64) (rm Removed) {
	charge(dir, negCharges(chargesOf(node)))
	dir.drop(node.Name)
	dir.ModTime = now
	ns.forget(node, &rm)
	return rm
}

// forget drops every file under an unlinked node from the ID index,
// appending the files and their blocks to rm in name order.
func (ns *Namespace) forget(n *INode, rm *Removed) {
	if !n.IsDir {
		delete(ns.files, n.id)
		delete(ns.open, n.id)
		rm.Files = append(rm.Files, n.id)
		rm.Blocks = append(rm.Blocks, n.Blocks...)
		return
	}
	for _, c := range n.Children {
		ns.forget(c, rm)
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

// checkQuota verifies that adding delta to dir and every directory above
// it stays within each configured quota.
func checkQuota(dir *INode, delta [numQuotaSlots]int64) error {
	for ; dir != nil; dir = dir.parent {
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

// charge applies delta to the usage of dir and every directory above it.
func charge(dir *INode, delta [numQuotaSlots]int64) {
	for ; dir != nil; dir = dir.parent {
		dir.Usage = addCharges(dir.Usage, delta)
	}
}

// Mkdir creates a directory; with parents=true it creates missing
// ancestors like mkdir -p and is idempotent on existing directories.
func (ns *Namespace) Mkdir(path string, parents bool, owner string, stats ...*OpStats) error {
	_, err := ns.commit(EditRecord{Op: EditMkdir, Path: path, Parents: parents, Owner: owner}, stats)
	return err
}

func (ns *Namespace) applyMkdir(rec EditRecord) (result, error) {
	parts := SplitPath(rec.Path)
	node, have := ns.root, 0
	for ; have < len(parts); have++ {
		if !node.IsDir {
			return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotDirectory)
		}
		child := node.child(parts[have])
		if child == nil {
			break
		}
		node = child
	}
	switch {
	case have == len(parts) && node.IsDir && rec.Parents:
		return result{noop: true}, nil
	case have == len(parts):
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrExists)
	case have < len(parts)-1 && !rec.Parents:
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotFound)
	}
	for _, part := range parts[have:] {
		child := newDirectory(part, rec.Owner, rec.Time)
		node.put(child)
		ns.adopt(node, child)
		node.ModTime = rec.Time
		node = child
	}
	return result{}, nil
}

// Created is what Create did: the file's ID, and what an overwrite
// unlinked — the replaced file's blocks but not the file, which keeps
// its ID.
type Created struct {
	File FileID
	Removed
}

// Create registers a new under-construction file. With overwrite=true
// an existing file at the path is replaced: it keeps its ID, and its
// blocks are returned so the caller can invalidate the replicas.
func (ns *Namespace) Create(path string, rv core.ReplicationVector, blockSize int64,
	overwrite bool, owner string, stats ...*OpStats) (Created, error) {

	if blockSize <= 0 {
		blockSize = core.DefaultBlockSize
	}
	res, err := ns.commit(EditRecord{
		Op: EditCreate, Path: path, RepVector: rv, BlockSize: blockSize,
		Overwrite: overwrite, Owner: owner,
	}, stats)
	return Created{File: res.file, Removed: res.removed}, err
}

func (ns *Namespace) applyCreate(rec EditRecord) (result, error) {
	if err := rec.RepVector.Validate(); err != nil {
		return result{}, err
	}
	dir, old, err := ns.locate(rec.Path)
	if err != nil {
		return result{}, err
	}
	switch {
	case old == nil:
	case old.IsDir: // the root included
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrIsDirectory)
	case !rec.Overwrite:
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrExists)
	case old.UnderConstruction:
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrFileOpen)
	}
	file := newFile(BaseName(rec.Path), rec.Owner, rec.RepVector, rec.BlockSize, rec.Time)
	var res result
	if old != nil {
		charge(dir, negCharges(chargesOf(old)))
		file.id, res.removed.Blocks = old.id, old.Blocks
	}
	dir.put(file)
	ns.adopt(dir, file)
	dir.ModTime = rec.Time
	res.file = file.id
	return res, nil
}

// AddBlock allocates the next block of an under-construction file,
// after checking that a full block would fit within every ancestor's
// tier quotas (the conservative HDFS-style check). It returns the block
// and the file's ID.
func (ns *Namespace) AddBlock(path string, stats ...*OpStats) (core.Block, FileID, error) {
	res, err := ns.commit(EditRecord{Op: EditAddBlock, Path: path}, stats)
	return res.block, res.file, err
}

func (ns *Namespace) applyAddBlock(rec EditRecord) (result, error) {
	dir, node, err := ns.existingFile(rec.Path)
	if err != nil {
		return result{}, err
	}
	if !node.UnderConstruction {
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrFileClosed)
	}
	if err := checkQuota(dir, charges(node.RepVector, node.BlockSize)); err != nil {
		return result{}, err
	}
	node.Blocks = append(node.Blocks, rec.Block)
	node.ModTime = rec.Time
	ns.nextBlockID = max(ns.nextBlockID, uint64(rec.Block.ID)+1)
	ns.nextGen = max(ns.nextGen, uint64(rec.Block.GenStamp)+1)
	return result{file: node.id, block: rec.Block}, nil
}

// CommitBlock records the final length of a block that the client has
// finished writing, charging the actual bytes against the quotas.
func (ns *Namespace) CommitBlock(path string, b core.Block, stats ...*OpStats) error {
	_, err := ns.commit(EditRecord{Op: EditCommitBlock, Path: path, Block: b}, stats)
	return err
}

func (ns *Namespace) applyCommitBlock(rec EditRecord) (result, error) {
	dir, node, err := ns.existingFile(rec.Path)
	if err != nil {
		return result{}, err
	}
	return result{}, commitBlock(dir, node, rec)
}

// commitBlock sets the length of node's block with rec's block ID and
// charges the difference; the ID and generation stay as AddBlock issued
// them, so the image's counters bound every block in the tree. With no
// such block it does nothing and says so.
func commitBlock(dir, node *INode, rec EditRecord) error {
	i := slices.IndexFunc(node.Blocks, func(b core.Block) bool { return b.ID == rec.Block.ID })
	if i < 0 {
		return fmt.Errorf("namespace: %s has no block %s: %w", rec.Path, rec.Block.ID, core.ErrNotFound)
	}
	charge(dir, charges(node.RepVector, rec.Block.NumBytes-node.Blocks[i].NumBytes))
	node.Blocks[i].NumBytes = rec.Block.NumBytes
	node.ModTime = rec.Time
	return nil
}

// AbandonBlock removes the last, still-uncommitted block of an
// under-construction file after a failed pipeline write, so the client
// can allocate a replacement (HDFS-style block recovery, simplified).
func (ns *Namespace) AbandonBlock(path string, id core.BlockID, stats ...*OpStats) error {
	_, err := ns.commit(EditRecord{Op: EditAbandonBlock, Path: path, Block: core.Block{ID: id}}, stats)
	return err
}

func (ns *Namespace) applyAbandonBlock(rec EditRecord) (result, error) {
	dir, node, err := ns.existingFile(rec.Path)
	if err != nil {
		return result{}, err
	}
	if !node.UnderConstruction {
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrFileClosed)
	}
	last := len(node.Blocks) - 1
	if last < 0 || node.Blocks[last].ID != rec.Block.ID {
		return result{}, fmt.Errorf("namespace: %s: block %s is not the last block: %w", rec.Path, rec.Block.ID, core.ErrNotFound)
	}
	// Refund whatever bytes the block had already been charged.
	charge(dir, negCharges(charges(node.RepVector, node.Blocks[last].NumBytes)))
	node.Blocks = node.Blocks[:last]
	node.ModTime = rec.Time
	return result{}, nil
}

// Complete commits the final block (if any) and seals the file.
func (ns *Namespace) Complete(path string, last *core.Block, stats ...*OpStats) error {
	rec := EditRecord{Op: EditComplete, Path: path}
	if last != nil {
		rec.Block = *last
	}
	_, err := ns.commit(rec, stats)
	return err
}

func (ns *Namespace) applyComplete(rec EditRecord) (result, error) {
	dir, node, err := ns.existingFile(rec.Path)
	if err != nil {
		return result{}, err
	}
	if !node.UnderConstruction {
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrFileClosed)
	}
	if rec.Block.ID != 0 { // block IDs start at 1
		if err := commitBlock(dir, node, rec); err != nil {
			return result{}, err
		}
	}
	node.UnderConstruction = false
	delete(ns.open, node.id)
	node.ModTime = rec.Time
	return result{}, nil
}

// Abandon removes an under-construction file after a failed write,
// returning it and its blocks for invalidation.
func (ns *Namespace) Abandon(path string, stats ...*OpStats) (Removed, error) {
	res, err := ns.commit(EditRecord{Op: EditAbandon, Path: path}, stats)
	return res.removed, err
}

// Delete removes a file or directory, returning every file and block of
// the removed subtree so the caller can invalidate the replicas. Deleting
// a non-empty directory requires recursive=true.
func (ns *Namespace) Delete(path string, recursive bool, stats ...*OpStats) (Removed, error) {
	res, err := ns.commit(EditRecord{Op: EditDelete, Path: path, Recursive: recursive}, stats)
	return res.removed, err
}

// applyRemove enacts both ways of unlinking: an abandon takes a file
// under construction, a delete anything but the root and, unless
// recursive, a directory with children.
func (ns *Namespace) applyRemove(rec EditRecord) (result, error) {
	dir, node, err := ns.existing(rec.Path)
	switch {
	case rec.Op == EditDelete && rec.Path == Separator:
		return result{}, fmt.Errorf("namespace: cannot delete the root: %w", core.ErrPermission)
	case err != nil:
		return result{}, err
	case rec.Op == EditAbandon && (node.IsDir || !node.UnderConstruction):
		return result{}, fmt.Errorf("namespace: %s is not under construction: %w", rec.Path, core.ErrFileClosed)
	case rec.Op == EditDelete && len(node.Children) > 0 && !rec.Recursive:
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotEmpty)
	}
	return result{removed: ns.unlink(dir, node, rec.Time)}, nil
}

// Rename moves a file or directory. The destination must not exist;
// moving a directory into its own subtree is rejected.
func (ns *Namespace) Rename(src, dst string, stats ...*OpStats) error {
	_, err := ns.commit(EditRecord{Op: EditRename, Path: src, Dst: dst}, stats)
	return err
}

func (ns *Namespace) applyRename(rec EditRecord) (result, error) {
	if rec.Path == Separator {
		return result{}, fmt.Errorf("namespace: cannot rename the root: %w", core.ErrPermission)
	}
	if IsAncestor(rec.Path, rec.Dst) {
		return result{}, fmt.Errorf("namespace: cannot move %s into itself (%s): %w", rec.Path, rec.Dst, core.ErrExists)
	}
	srcDir, node, err := ns.existing(rec.Path)
	if err != nil {
		return result{}, err
	}
	dstDir, taken, err := ns.locate(rec.Dst)
	if err != nil {
		return result{}, err
	}
	if taken != nil {
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Dst, core.ErrExists)
	}
	usage := chargesOf(node)
	if err := checkQuota(dstDir, usage); err != nil {
		return result{}, err
	}
	charge(srcDir, negCharges(usage))
	srcDir.drop(node.Name)
	srcDir.ModTime = rec.Time
	node.Name, node.parent = BaseName(rec.Dst), dstDir
	dstDir.put(node)
	dstDir.ModTime = rec.Time
	charge(dstDir, usage)
	return result{}, nil
}

// SetRepVector changes a file's replication vector (paper Table 1),
// returning the previous vector so the caller can compute the per-tier
// replica deltas to enact.
func (ns *Namespace) SetRepVector(path string, rv core.ReplicationVector, stats ...*OpStats) (core.ReplicationVector, error) {
	res, err := ns.commit(EditRecord{Op: EditSetRepVector, Path: path, RepVector: rv}, stats)
	return res.old, err
}

func (ns *Namespace) applySetRepVector(rec EditRecord) (result, error) {
	if err := rec.RepVector.Validate(); err != nil {
		return result{}, err
	}
	dir, node, err := ns.existingFile(rec.Path)
	if err != nil {
		return result{}, err
	}
	length, old := node.Length(), node.RepVector
	delta := addCharges(charges(rec.RepVector, length), negCharges(charges(old, length)))
	if err := checkQuota(dir, delta); err != nil {
		return result{}, err
	}
	charge(dir, delta)
	node.RepVector = rec.RepVector
	node.ModTime = rec.Time
	return result{old: old}, nil
}

// SetQuota sets a per-tier byte quota on a directory; tier
// TierUnspecified sets the total-space quota and bytes<=0 clears it.
func (ns *Namespace) SetQuota(path string, tier core.StorageTier, bytes int64, stats ...*OpStats) error {
	_, err := ns.commit(EditRecord{Op: EditSetQuota, Path: path, Tier: tier, Bytes: bytes}, stats)
	return err
}

func (ns *Namespace) applySetQuota(rec EditRecord) (result, error) {
	if rec.Tier > core.TierUnspecified {
		return result{}, fmt.Errorf("namespace: invalid quota tier %v: %w", rec.Tier, core.ErrNotFound)
	}
	_, node, err := ns.existing(rec.Path)
	if err != nil {
		return result{}, err
	}
	if !node.IsDir {
		return result{}, fmt.Errorf("namespace: %s: %w", rec.Path, core.ErrNotDirectory)
	}
	slot := int(rec.Tier)
	if rec.Tier == core.TierUnspecified {
		slot = totalQuotaSlot
	}
	node.Quota[slot] = max(rec.Bytes, 0)
	node.ModTime = rec.Time
	return result{}, nil
}

// read is how a read op sees the tree: it cleans path, takes the read
// lock — timing the wait and fn into the optional stats — and hands fn
// the inode at path.
func (ns *Namespace) read(path string, stats []*OpStats, fn func(path string, node *INode) error) error {
	path, err := CleanPath(path)
	if err != nil {
		return err
	}
	st := statsOf(stats)
	ns.rlock(st)
	defer ns.mu.RUnlock()
	defer timeApply(st)()
	_, node, err := ns.existing(path)
	if err != nil {
		return err
	}
	return fn(path, node)
}

// Status returns the FileInfo of one path.
func (ns *Namespace) Status(path string, stats ...*OpStats) (info FileInfo, err error) {
	err = ns.read(path, stats, func(path string, node *INode) error {
		info = infoFor(path, node)
		return nil
	})
	return info, err
}

func infoFor(path string, node *INode) FileInfo {
	info := FileInfo{
		Path:    path,
		IsDir:   node.IsDir,
		ModTime: node.ModTime,
		Owner:   node.Owner,
	}
	if !node.IsDir {
		info.ID = node.id
		info.Length = node.Length()
		info.RepVector = node.RepVector
		info.BlockSize = node.BlockSize
	}
	return info
}

// List returns the entries of a directory sorted by name, or the
// single entry for a file path, each with its full path.
func (ns *Namespace) List(path string, stats ...*OpStats) ([]FileInfo, error) {
	dir, out, err := ns.ListNames(path, stats...)
	for i := range out {
		out[i].Path = JoinPath(dir, out[i].Path)
	}
	return out, err
}

// ListNames is List without a path string per entry: each entry's Path
// is its name, and dir is the directory they are in — path itself, or
// its parent for a file path. The walk is one pass over the directory's
// children, which are already in name order.
func (ns *Namespace) ListNames(path string, stats ...*OpStats) (dir string, out []FileInfo, err error) {
	err = ns.read(path, stats, func(path string, node *INode) error {
		if !node.IsDir {
			dir, out = ParentPath(path), []FileInfo{infoFor(node.Name, node)}
			return nil
		}
		dir, out = path, make([]FileInfo, len(node.Children))
		for i, c := range node.Children {
			out[i] = infoFor(c.Name, c)
		}
		return nil
	})
	return dir, out, err
}

// Exists reports whether a path resolves.
func (ns *Namespace) Exists(path string) bool {
	_, err := ns.Status(path)
	return err == nil
}

// FileBlocks returns a file's blocks in order plus its replication
// vector, block size and ID.
func (ns *Namespace) FileBlocks(path string, stats ...*OpStats) (blocks []core.Block, rv core.ReplicationVector, bs int64, id FileID, err error) {
	err = ns.read(path, stats, func(path string, node *INode) error {
		if node.IsDir {
			return fmt.Errorf("namespace: %s: %w", path, core.ErrIsDirectory)
		}
		blocks, rv, bs, id = append([]core.Block(nil), node.Blocks...), node.RepVector, node.BlockSize, node.id
		return nil
	})
	return blocks, rv, bs, id, err
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
	for _, c := range node.Children {
		walkFiles(JoinPath(path, c.Name), c, fn)
	}
}

// Stats returns the number of directories, files, and blocks.
func (ns *Namespace) Stats() (dirs, files, blocks int) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	sum := summarize(ns.root)
	return sum.Directories, sum.Files, sum.Blocks
}

// ImageBytes serialises the current namespace into a checkpoint
// payload (fsimage.go), used both for local checkpoints and for Backup
// Master synchronisation (paper §2.1).
func (ns *Namespace) ImageBytes() ([]byte, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.imageBytesLocked(), nil
}

// LoadImageBytes replaces the in-memory tree with a checkpoint payload;
// used by Backup Masters. A bad payload leaves the tree as it was.
func (ns *Namespace) LoadImageBytes(data []byte) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	img, err := decodeImage(data, ns.nextFileID)
	if err == nil {
		ns.root, ns.files, ns.open, ns.nextFileID = img.root, img.files, img.open, img.nextFileID
		ns.txid, ns.nextBlockID, ns.nextGen = img.txid, img.nextBlockID, img.nextGen
	}
	return err
}

// Checkpoint durably persists the current tree as the new fsimage and
// then starts an empty edit log (paper §2.1: periodic checkpoints). It
// is a no-op for volatile namespaces.
func (ns *Namespace) Checkpoint() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.checkpointLocked()
}

// checkpointLocked replaces the image before it touches the log, each
// durably: a crash in between leaves the new image beside the old log,
// whose records are all at or below the image's TxID and are skipped on
// replay. Until the image is safe the old log stays in use; after that a
// failure leaves no log to append to, so it sticks like a failed append.
func (ns *Namespace) checkpointLocked() error {
	if ns.dir == "" {
		return nil
	}
	if err := WriteFileDurable(filepath.Join(ns.dir, imageFile), ns.imageBytesLocked()); err != nil {
		return err
	}
	if ns.log != nil {
		ns.log.Close() // whatever it failed to take is in the image
	}
	ns.log, ns.failed = CreateEditLog(filepath.Join(ns.dir, editsFile))
	return ns.failed
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

// Summary aggregates a subtree: directory, file and block counts,
// logical bytes, and per-quota-slot byte usage (per-tier plus total).
type Summary struct {
	Files       int
	Directories int
	Blocks      int
	Bytes       int64
	TierBytes   [numQuotaSlots]int64
}

// ContentSummary aggregates the subtree at path — the recursive
// accounting behind `du` and quota inspection.
func (ns *Namespace) ContentSummary(path string, stats ...*OpStats) (sum Summary, err error) {
	err = ns.read(path, stats, func(_ string, node *INode) error {
		sum = summarize(node)
		return nil
	})
	return sum, err
}

func summarize(n *INode) Summary {
	if !n.IsDir {
		length := n.Length()
		return Summary{Files: 1, Blocks: len(n.Blocks), Bytes: length, TierBytes: charges(n.RepVector, length)}
	}
	sum := Summary{Directories: 1}
	for _, c := range n.Children {
		s := summarize(c)
		sum.Files, sum.Directories, sum.Blocks = sum.Files+s.Files, sum.Directories+s.Directories, sum.Blocks+s.Blocks
		sum.Bytes, sum.TierBytes = sum.Bytes+s.Bytes, addCharges(sum.TierBytes, s.TierBytes)
	}
	return sum
}

// WalkFiles visits every file under root in depth-first order,
// exposing the under-construction flag; used by fsck.
func (ns *Namespace) WalkFiles(root string, fn func(path string, blocks []core.Block, rv core.ReplicationVector, underConstruction bool)) error {
	return ns.read(root, nil, func(root string, node *INode) error {
		walkFiles(root, node, func(path string, f *INode) { fn(path, f.Blocks, f.RepVector, f.UnderConstruction) })
		return nil
	})
}
