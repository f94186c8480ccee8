package namespace

import (
	"sort"

	"repro/internal/core"
)

// numQuotaSlots is one slot per concrete tier plus one for the
// total-space quota.
const numQuotaSlots = core.NumTiers + 1

// totalQuotaSlot indexes the total-space quota/usage counter.
const totalQuotaSlot = core.NumTiers

// FileID identifies a file inode for the life of the process: assigned
// at create and at image load, kept across rename and across an
// overwriting create, never reused and never serialised. Side tables
// key by it so a rename has nothing to rewrite; zero is no file.
type FileID uint64

// INode is one entry of the namespace tree. The fsimage (fsimage.go)
// stores every exported field but Usage and Children, which the loader
// rebuilds.
type INode struct {
	Name    string
	IsDir   bool
	ModTime int64 // Unix nanoseconds
	Owner   string

	// Directory state.
	Children map[string]*INode
	// Quota holds per-tier byte quotas plus the total-space quota in
	// the last slot; 0 means unlimited (paper §1: per-media quotas).
	Quota [numQuotaSlots]int64
	// Usage tracks the bytes charged against each quota slot by files
	// in this directory's subtree.
	Usage [numQuotaSlots]int64

	// File state.
	RepVector         core.ReplicationVector
	BlockSize         int64
	Blocks            []core.Block
	UnderConstruction bool

	// In-memory only: a file's identity, and the link PathOf climbs.
	id     FileID
	parent *INode
}

// newDirectory builds an empty directory inode.
func newDirectory(name, owner string, now int64) *INode {
	return &INode{
		Name:     name,
		IsDir:    true,
		ModTime:  now,
		Owner:    owner,
		Children: make(map[string]*INode),
	}
}

// newFile builds an empty under-construction file inode.
func newFile(name, owner string, rv core.ReplicationVector, blockSize int64, now int64) *INode {
	return &INode{
		Name:              name,
		ModTime:           now,
		Owner:             owner,
		RepVector:         rv,
		BlockSize:         blockSize,
		UnderConstruction: true,
	}
}

// Length returns the file's total byte length.
func (n *INode) Length() int64 {
	var total int64
	for _, b := range n.Blocks {
		total += b.NumBytes
	}
	return total
}

// childNames returns the sorted child names of a directory.
func (n *INode) childNames() []string {
	names := make([]string, 0, len(n.Children))
	for name := range n.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// charges computes the per-slot quota charges of adding bytes b to a
// file with replication vector rv: each pinned tier is charged
// rv[t]*b on its own slot, and every replica (pinned or unspecified)
// is charged on the total slot.
func charges(rv core.ReplicationVector, b int64) [numQuotaSlots]int64 {
	var ch [numQuotaSlots]int64
	for t := core.TierMemory; t < core.StorageTier(core.NumTiers); t++ {
		ch[t] = int64(rv.Tier(t)) * b
	}
	ch[totalQuotaSlot] = int64(rv.Total()) * b
	return ch
}

// addCharges accumulates b into a, returning the sum.
func addCharges(a, b [numQuotaSlots]int64) [numQuotaSlots]int64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// negCharges negates every slot.
func negCharges(a [numQuotaSlots]int64) [numQuotaSlots]int64 {
	for i := range a {
		a[i] = -a[i]
	}
	return a
}

// chargesOf is what n charges against its ancestors' quotas: a file its
// length times its vector, a directory its usage — its files' charges.
func chargesOf(n *INode) [numQuotaSlots]int64 {
	if n.IsDir {
		return n.Usage
	}
	return charges(n.RepVector, n.Length())
}

// Removed is what a mutation unlinked from the namespace: the caller
// invalidates the blocks' replicas and forgets whatever it keyed by the
// files' IDs.
type Removed struct {
	Files  []FileID
	Blocks []core.Block
}
