package namespace

import (
	"slices"

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

	// Directory state. Children are held in name order: a lookup is a
	// binary search, an insert or removal moves the pointers after it,
	// and every walk visits them in the image's and a listing's order.
	Children []*INode
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
		Name:    name,
		IsDir:   true,
		ModTime: now,
		Owner:   owner,
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

// search returns where name is, or would be inserted, among the
// directory's children, and whether it is there.
func (n *INode) search(name string) (int, bool) {
	lo, hi := 0, len(n.Children)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); n.Children[m].Name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.Children) && n.Children[lo].Name == name
}

// child returns the directory's child called name, nil if there is none.
func (n *INode) child(name string) *INode {
	if i, ok := n.search(name); ok {
		return n.Children[i]
	}
	return nil
}

// put links c into the directory in name order, in place of a child
// of the same name.
func (n *INode) put(c *INode) {
	if i, ok := n.search(c.Name); ok {
		n.Children[i] = c
	} else {
		n.Children = slices.Insert(n.Children, i, c)
	}
}

// drop unlinks the child called name from the directory.
func (n *INode) drop(name string) {
	if i, ok := n.search(name); ok {
		n.Children = slices.Delete(n.Children, i, i+1)
	}
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
