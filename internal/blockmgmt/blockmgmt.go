// Package blockmgmt maintains the master's second metadata collection
// (paper §2.1): the mapping from file blocks to the workers and
// storage media hosting their replicas, and the per-tier replication
// state from which the master drives re-replication and excess-replica
// removal (paper §5). It is also the single owner of every replica's
// life-cycle — pending-add → live → pending-delete — so the master keeps
// no second record of in-flight work (DESIGN.md "Replica life-cycle").
package blockmgmt

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
)

// Replica locates one stored copy of a block.
type Replica struct {
	Worker  core.WorkerID
	Storage core.StorageID
	Tier    core.StorageTier
}

// BlockReplica pairs a replica with its block: one line of a worker's
// block listing going in, one replica for a worker to delete coming out
// of a transition that tombstoned (or refused) it.
type BlockReplica struct {
	Block core.Block
	Replica
}

// BlockInfo is a copy of one block's record: its identity, the vector
// it should satisfy, its live replicas and its pending-adds. Tombstones
// are not visible.
type BlockInfo struct {
	Block    core.Block
	Expected core.ReplicationVector
	Replicas []Replica
	Pending  []Replica

	// UnderConstruction marks a block still being written through a
	// client pipeline. The replication monitor ignores such blocks —
	// their replicas are confirmed by the client's commit — and only
	// repairs committed blocks, like HDFS.
	UnderConstruction bool
}

// ReplicationState summarises how a block's replica set diverges from
// its replication vector.
type ReplicationState struct {
	// MissingPerTier counts replicas still needed on tiers the vector
	// pins explicitly.
	MissingPerTier map[core.StorageTier]int

	// MissingAny counts additional replicas needed on any tier
	// (unsatisfied "Unspecified" entries).
	MissingAny int

	// Excess counts replicas beyond the vector's total that should be
	// removed.
	Excess int

	// ExcessTiers lists, fastest tier first, the tiers holding more
	// replicas than pinned and not needed to satisfy unspecified
	// entries — the candidate tiers for removal.
	ExcessTiers []core.StorageTier
}

// Satisfied reports whether the block needs no repair.
func (s ReplicationState) Satisfied() bool {
	return len(s.MissingPerTier) == 0 && s.MissingAny == 0 && s.Excess == 0
}

// MissingTotal returns the total number of replicas to create.
func (s ReplicationState) MissingTotal() int {
	n := s.MissingAny
	for _, v := range s.MissingPerTier {
		n += v
	}
	return n
}

// computeState diffs actual per-tier counts against a replication
// vector. Surplus replicas on pinned tiers count toward unspecified
// entries before being declared excess, matching the paper's semantics
// that "U" replicas may live on any tier.
func computeState(expected core.ReplicationVector, actual map[core.StorageTier]int) ReplicationState {
	st := ReplicationState{MissingPerTier: make(map[core.StorageTier]int)}
	surplus := make(map[core.StorageTier]int)
	totalSurplus := 0
	for _, t := range core.Tiers() {
		want := expected.Tier(t)
		have := actual[t]
		switch {
		case have < want:
			st.MissingPerTier[t] = want - have
		case have > want:
			surplus[t] = have - want
			totalSurplus += have - want
		}
	}
	u := expected.Unspecified()
	if totalSurplus < u {
		st.MissingAny = u - totalSurplus
	} else if totalSurplus > u {
		st.Excess = totalSurplus - u
		for _, t := range core.Tiers() {
			if surplus[t] > 0 {
				st.ExcessTiers = append(st.ExcessTiers, t)
			}
		}
	}
	return st
}

// replicaState is a replica's place in its life-cycle.
type replicaState uint8

const (
	// pendingAdd: a worker was asked to create the replica and has not
	// confirmed it. In-flight load on its medium, supply for its block.
	pendingAdd replicaState = iota + 1
	// live: the worker confirmed the replica; readers may be sent to it.
	live
	// pendingDelete: a tombstone, until its worker's reports stop listing
	// it. Invisible to readers, no placement target, never resurrected.
	pendingDelete
)

type replica struct {
	Replica
	state replicaState
	// Pending-add only: the tick at which the unconfirmed add is cancelled
	// (0 = a pipeline target, confirmed when its block commits), and the
	// live replica to tombstone in the same step that confirms this one
	// (a tier move).
	expires int64
	retire  core.StorageID
	// omitted marks a live or tombstoned replica its worker's last block
	// report left out; the second consecutive omission drops it.
	omitted bool
}

type block struct {
	core.Block
	expected          core.ReplicationVector
	underConstruction bool
	// held: a replica was confirmed and no worker's own testimony has
	// since removed the last one; see Check.
	held     bool
	replicas []replica
}

func (bi *block) find(s core.StorageID) int {
	return slices.IndexFunc(bi.replicas, func(r replica) bool { return r.Storage == s })
}

func (bi *block) count(st replicaState) int {
	n := 0
	for i := range bi.replicas {
		if bi.replicas[i].state == st {
			n++
		}
	}
	return n
}

// tierCounts tallies live replicas per tier, plus pending-adds on request.
func (bi *block) tierCounts(withPending bool) map[core.StorageTier]int {
	counts := make(map[core.StorageTier]int)
	for _, r := range bi.replicas {
		if r.state == live || withPending && r.state == pendingAdd {
			counts[r.Tier]++
		}
	}
	return counts
}

func (bi *block) info() BlockInfo {
	out := BlockInfo{Block: bi.Block, Expected: bi.expected, UnderConstruction: bi.underConstruction}
	for _, r := range bi.replicas {
		switch r.state {
		case live:
			out.Replicas = append(out.Replicas, r.Replica)
		case pendingAdd:
			out.Pending = append(out.Pending, r.Replica)
		}
	}
	return out
}

type replicaKey struct {
	id      core.BlockID
	storage core.StorageID
}

// Manager is the concurrent block map and the only place a replica
// changes state. It reads no clock: expiry is counted in Tick calls.
type Manager struct {
	mu     sync.RWMutex
	blocks map[core.BlockID]*block
	// byWorker counts, per worker, the records (in any state) each block
	// holds for it: the index behind block listings and failure handling.
	byWorker map[core.WorkerID]map[core.BlockID]int
	// adds counts pending-add records per storage: the in-flight load
	// placement adds to a medium's reported connections.
	adds map[core.StorageID]int
	tick int64
}

// NewManager returns an empty block map.
func NewManager() *Manager {
	return &Manager{
		blocks:   make(map[core.BlockID]*block),
		byWorker: make(map[core.WorkerID]map[core.BlockID]int),
		adds:     make(map[core.StorageID]int),
	}
}

// putLocked adds a replica record unless the block already has one for
// that storage in any state (a tombstone keeps its slot until cleared).
func (m *Manager) putLocked(bi *block, r replica) bool {
	if bi.find(r.Storage) >= 0 {
		return false
	}
	bi.replicas = append(bi.replicas, r)
	if r.state == pendingAdd {
		m.adds[r.Storage]++
	}
	if m.byWorker[r.Worker] == nil {
		m.byWorker[r.Worker] = make(map[core.BlockID]int)
	}
	m.byWorker[r.Worker][bi.ID]++
	return true
}

// dropLocked deletes replica record i of the block.
func (m *Manager) dropLocked(bi *block, i int) {
	r := bi.replicas[i]
	bi.replicas = append(bi.replicas[:i], bi.replicas[i+1:]...)
	if r.state == pendingAdd {
		if m.adds[r.Storage]--; m.adds[r.Storage] <= 0 {
			delete(m.adds, r.Storage)
		}
	}
	if set := m.byWorker[r.Worker]; set[bi.ID] > 1 {
		set[bi.ID]--
	} else if delete(set, bi.ID); len(set) == 0 {
		delete(m.byWorker, r.Worker)
	}
}

// dropWhereLocked deletes the block's records that match selects. A
// live record is only ever dropped on its worker's own testimony (its
// expiry, its block listings), which alone may leave a held block empty.
func (m *Manager) dropWhereLocked(bi *block, match func(*replica) bool) {
	before := bi.count(live)
	for i := len(bi.replicas) - 1; i >= 0; i-- {
		if match(&bi.replicas[i]) {
			m.dropLocked(bi, i)
		}
	}
	if n := bi.count(live); n < before {
		bi.held = n > 0
	}
}

// AddBlock registers a freshly allocated block with its expected
// replication vector; targets, the pipeline media handed to the writer,
// are pending-adds until the block commits.
func (m *Manager) AddBlock(b core.Block, expected core.ReplicationVector, targets ...Replica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi, ok := m.blocks[b.ID]
	if !ok {
		bi = &block{Block: b, underConstruction: true}
		m.blocks[b.ID] = bi
	} else if b.GenStamp >= bi.GenStamp {
		bi.Block = b
	}
	bi.expected = expected
	for _, t := range targets {
		m.putLocked(bi, replica{Replica: t, state: pendingAdd})
	}
}

// CommitBlock records a block's final length, releases it to the
// replication monitor and confirms its pipeline targets: a client
// commits only after a clean end-to-end ack, which every stage sends
// only once it stored the block.
func (m *Manager) CommitBlock(b core.Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi, ok := m.blocks[b.ID]
	if !ok {
		return
	}
	if b.GenStamp >= bi.GenStamp {
		bi.Block = b
	}
	bi.underConstruction = false
	for _, r := range slices.Clone(bi.replicas) {
		if r.state == pendingAdd && r.expires == 0 {
			m.confirmLocked(bi.Block, r.Replica, nil)
		}
	}
}

// RemoveBlock forgets a block (file deleted) with all its records and
// returns the live replicas to delete on the workers; anything else a
// worker still holds is rejected as an unknown block when reported.
func (m *Manager) RemoveBlock(id core.BlockID) []BlockReplica {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi, ok := m.blocks[id]
	if !ok {
		return nil
	}
	var deletes []BlockReplica
	for _, r := range bi.replicas {
		if r.state == live {
			deletes = append(deletes, BlockReplica{bi.Block, r.Replica})
		}
	}
	m.dropWhereLocked(bi, func(*replica) bool { return true })
	delete(m.blocks, id)
	return deletes
}

// SetExpected updates a block's replication vector (SetReplication).
func (m *Manager) SetExpected(id core.BlockID, expected core.ReplicationVector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bi, ok := m.blocks[id]; ok {
		bi.expected = expected
	}
}

// Schedule records a pending-add: r's worker was asked to create a
// replica, cancelled if unconfirmed after ttl (> 0) ticks. A tier move names
// in retire the live replica that confirmation tombstones. False: the
// block is unknown or already has a record for that storage (live, in
// flight, or a tombstone not yet cleared).
func (m *Manager) Schedule(id core.BlockID, r Replica, ttl int, retire core.StorageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi, ok := m.blocks[id]
	return ok && m.putLocked(bi, replica{
		Replica: r, state: pendingAdd, expires: m.tick + int64(ttl), retire: retire,
	})
}

// AddReplica records a worker's word that it stores a replica (a copy
// its heartbeat confirms) and returns the deletions to enqueue. A
// pending-add becomes live and, if it named a replica to retire, that
// one becomes a tombstone in the same step. A replica of an unknown
// block (file deleted meanwhile) or a stale generation, or one
// tombstoned, is refused: the deletion returned is its own.
func (m *Manager) AddReplica(b core.Block, r Replica) []BlockReplica {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.confirmLocked(b, r, nil)
}

func (m *Manager) confirmLocked(b core.Block, r Replica, deletes []BlockReplica) []BlockReplica {
	bi, ok := m.blocks[b.ID]
	if !ok || b.GenStamp < bi.GenStamp {
		return append(deletes, BlockReplica{b, r})
	}
	i := bi.find(r.Storage)
	switch {
	case i < 0:
		m.putLocked(bi, replica{Replica: r, state: live})
	case bi.replicas[i].state == pendingDelete:
		bi.replicas[i].omitted = false
		return append(deletes, BlockReplica{b, r})
	case bi.replicas[i].state == live:
		bi.replicas[i].Replica, bi.replicas[i].omitted = r, false
		return deletes
	default: // pending-add confirmed
		retire := bi.replicas[i].retire
		m.dropLocked(bi, i)
		m.putLocked(bi, replica{Replica: r, state: live})
		if v := bi.find(retire); retire != "" && v >= 0 && bi.replicas[v].state == live {
			victim := &bi.replicas[v]
			// A pin-covered source hands its pinned entry to the
			// destination tier, so per-tier counts are conserved and the
			// block never turns unhealthy against its own expectation.
			if pinned := bi.expected.Tier(victim.Tier); bi.tierCounts(false)[victim.Tier] <= pinned {
				bi.expected = bi.expected.WithTier(victim.Tier, pinned-1).
					WithTier(r.Tier, bi.expected.Tier(r.Tier)+1)
			}
			victim.state = pendingDelete
			deletes = append(deletes, BlockReplica{bi.Block, victim.Replica})
		}
	}
	bi.held = true
	if b.NumBytes > bi.NumBytes {
		bi.NumBytes = b.NumBytes
	}
	return deletes
}

// Retire tombstones a live replica the master decided against (excess,
// reported corrupt) and returns the deletion to enqueue. The last live
// replica of a block is never retired.
func (m *Manager) Retire(id core.BlockID, storage core.StorageID) []BlockReplica {
	m.mu.Lock()
	defer m.mu.Unlock()
	bi, ok := m.blocks[id]
	if !ok || bi.count(live) < 2 {
		return nil
	}
	i := bi.find(storage)
	if i < 0 || bi.replicas[i].state != live {
		return nil
	}
	bi.replicas[i].state = pendingDelete
	return []BlockReplica{{bi.Block, bi.replicas[i].Replica}}
}

// Report reconciles the map with a worker's full listing. Listed
// replicas are confirmed as by AddReplica (so a tombstoned one gets its
// delete re-issued instead of coming back). Of the records the map
// attributes to the worker that the listing omits, a pending-add waits
// and a live replica or tombstone is dropped on the second consecutive
// omission: one report may predate the write it misses.
func (m *Manager) Report(w core.WorkerID, stored []BlockReplica) (deletes []BlockReplica) {
	m.mu.Lock()
	defer m.mu.Unlock()
	listed := make(map[replicaKey]struct{}, len(stored))
	for _, s := range stored {
		deletes = m.confirmLocked(s.Block, s.Replica, deletes)
		listed[replicaKey{s.Block.ID, s.Storage}] = struct{}{}
	}
	for id := range m.byWorker[w] {
		m.dropWhereLocked(m.blocks[id], func(r *replica) bool {
			if _, ok := listed[replicaKey{id, r.Storage}]; ok || r.Worker != w || r.state == pendingAdd {
				return false
			}
			gone := r.omitted
			r.omitted = true
			return gone
		})
	}
	return deletes
}

// RemoveWorker drops every record (live, in flight, tombstone) of a
// failed worker; the scan then finds the blocks it left short.
func (m *Manager) RemoveWorker(w core.WorkerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.byWorker[w] {
		m.dropWhereLocked(m.blocks[id], func(r *replica) bool { return r.Worker == w })
	}
}

// Tick advances the life-cycle clock one step (one monitor iteration)
// and cancels the pending-adds whose expiry has come.
func (m *Manager) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	if len(m.adds) == 0 {
		return
	}
	for _, bi := range m.blocks {
		m.dropWhereLocked(bi, func(r *replica) bool {
			return r.state == pendingAdd && r.expires != 0 && r.expires <= m.tick
		})
	}
}

// PendingAdds returns the number of replicas in flight to a medium.
func (m *Manager) PendingAdds(s core.StorageID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.adds[s]
}

// Replicas returns a block's live replicas.
func (m *Manager) Replicas(id core.BlockID) []Replica {
	info, _ := m.Info(id)
	return info.Replicas
}

// Info returns a copy of the block's record.
func (m *Manager) Info(id core.BlockID) (BlockInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	bi, ok := m.blocks[id]
	if !ok {
		return BlockInfo{}, false
	}
	return bi.info(), true
}

// State computes a block's replication state from its live replicas.
func (m *Manager) State(id core.BlockID) (ReplicationState, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	bi, ok := m.blocks[id]
	if !ok {
		return ReplicationState{}, false
	}
	return computeState(bi.expected, bi.tierCounts(false)), true
}

// ScanUnhealthy visits every committed block that needs work, in
// block-ID order, with copies. Pending-adds count as supply, so nothing
// outstanding is issued twice, but only live replicas can be excess: an
// add that may never confirm must not cost a real copy.
func (m *Manager) ScanUnhealthy(fn func(BlockInfo, ReplicationState)) {
	type item struct {
		info  BlockInfo
		state ReplicationState
	}
	m.mu.RLock()
	var items []item
	for _, bi := range m.blocks {
		if bi.underConstruction {
			continue
		}
		st := computeState(bi.expected, bi.tierCounts(true))
		if bi.count(pendingAdd) > 0 {
			onlyLive := computeState(bi.expected, bi.tierCounts(false))
			st.Excess, st.ExcessTiers = onlyLive.Excess, onlyLive.ExcessTiers
		}
		if !st.Satisfied() {
			items = append(items, item{bi.info(), st})
		}
	}
	m.mu.RUnlock()
	sort.Slice(items, func(i, j int) bool { return items[i].info.Block.ID < items[j].info.Block.ID })
	for _, it := range items {
		fn(it.info, it.state)
	}
}

// NumBlocks returns the number of tracked blocks.
func (m *Manager) NumBlocks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blocks)
}

// Check verifies the life-cycle invariants and returns one line per
// violation: one record per (block, storage), so nothing is both live
// and tombstoned; the pending-add counters and the worker index match
// the records; no committed block lost its last replica by a master
// decision; and, given liveWorker, no record sits on a dropped worker.
func (m *Manager) Check(liveWorker func(core.WorkerID) bool) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var bad []string
	adds := make(map[core.StorageID]int)
	index := make(map[core.WorkerID]map[core.BlockID]int)
	for id, bi := range m.blocks {
		seen := make(map[core.StorageID]bool, len(bi.replicas))
		for _, r := range bi.replicas {
			if seen[r.Storage] {
				bad = append(bad, fmt.Sprintf("block %d: two records for storage %s", id, r.Storage))
			}
			seen[r.Storage] = true
			if r.state == pendingAdd {
				adds[r.Storage]++
			}
			if index[r.Worker] == nil {
				index[r.Worker] = make(map[core.BlockID]int)
			}
			index[r.Worker][id]++
			if liveWorker != nil && !liveWorker(r.Worker) {
				bad = append(bad, fmt.Sprintf("block %d: record on %s of dropped worker %s", id, r.Storage, r.Worker))
			}
		}
		if bi.held && !bi.underConstruction && bi.count(live)+bi.count(pendingAdd) == 0 {
			bad = append(bad, fmt.Sprintf("block %d: last replica retired by the master", id))
		}
	}
	if !maps.Equal(adds, m.adds) {
		bad = append(bad, fmt.Sprintf("pending-adds per storage: counter says %v, records say %v", m.adds, adds))
	}
	if !maps.EqualFunc(index, m.byWorker, func(a, b map[core.BlockID]int) bool { return maps.Equal(a, b) }) {
		bad = append(bad, fmt.Sprintf("worker index says %v, records say %v", m.byWorker, index))
	}
	sort.Strings(bad)
	return bad
}
