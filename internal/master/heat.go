package master

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/heat"
	"repro/internal/namespace"
	"repro/internal/rpc"
)

// This file implements the master's access-heat plane: the per-block
// and per-file decayed access counters that tell the tier-management
// machinery which data is hot, and the tier-fitness report that ranks
// blocks whose replica tier vectors contradict their heat. Workers
// deliver raw per-block deltas piggybacked on heartbeats (foldHeat);
// the master's own metadata handlers record file-level opens and
// creates (touchFileRead/touchFileWrite). The monitor loop scans for
// misplacements at history cadence and journals transitions as
// heat_misplaced events, so the journal tells *when* a block went off
// tier, not just that it is.

// heatPlane bundles the master's heat state: the two decayed maps and
// the file each tracked block belongs to. Files are keyed by the
// namespace's FileID, not by path: a rename changes nothing here, a
// delete removes exactly the keys the namespace says it unlinked, and
// paths are resolved (namespace.PathOf) only for the entries a report,
// event or move record actually shows.
type heatPlane struct {
	blocks *heat.Map[core.BlockID]
	files  *heat.Map[namespace.FileID]

	// mu guards owner, and orders forget after any add that saw its
	// block or file still live.
	mu sync.Mutex
	// owner is written once per block, at allocation or recovery, and
	// dropped with the block.
	owner map[core.BlockID]namespace.FileID
}

func newHeatPlane(halfLife time.Duration) *heatPlane {
	return &heatPlane{
		blocks: heat.NewMap[core.BlockID](halfLife, heat.DefaultMapCapacity),
		files:  heat.NewMap[namespace.FileID](halfLife, heat.DefaultMapCapacity/4),
		owner:  make(map[core.BlockID]namespace.FileID),
	}
}

// setOwner records which file a block belongs to.
func (hp *heatPlane) setOwner(id core.BlockID, file namespace.FileID) {
	hp.mu.Lock()
	hp.owner[id] = file
	hp.mu.Unlock()
}

// ownerOf resolves a block to its owning file (zero when unknown).
func (hp *heatPlane) ownerOf(id core.BlockID) namespace.FileID {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.owner[id]
}

// forget drops what the namespace unlinked from both heat maps and the
// owner index.
func (hp *heatPlane) forget(removed namespace.Removed) {
	hp.mu.Lock()
	for _, b := range removed.Blocks {
		delete(hp.owner, b.ID)
		hp.blocks.Remove(b.ID)
	}
	for _, f := range removed.Files {
		hp.files.Remove(f)
	}
	hp.mu.Unlock()
}

// blockPath renders the current path of a block's file ("" when the
// block or the file is gone).
func (m *Master) blockPath(id core.BlockID) string {
	return m.ns.PathOf(m.heat.ownerOf(id))
}

// foldHeat merges one heartbeat's worth of worker deltas into the
// cluster block heat map. Deltas a worker drained after their block was
// invalidated are dropped — nothing would ever forget that entry again —
// and the plane's lock keeps forget from slipping between check and add.
func (m *Master) foldHeat(deltas []heat.Delta) {
	if len(deltas) == 0 {
		return
	}
	nowNs := time.Now().UnixNano()
	m.heat.mu.Lock()
	defer m.heat.mu.Unlock()
	for _, d := range deltas {
		if _, live := m.heat.owner[d.Block]; !live {
			continue
		}
		if d.ReadOps > 0 || d.ReadBytes > 0 {
			m.heat.blocks.Add(d.Block, heat.Read, int64(d.ReadOps), d.ReadBytes, nowNs)
		}
		if d.WriteOps > 0 || d.WriteBytes > 0 {
			m.heat.blocks.Add(d.Block, heat.Write, int64(d.WriteOps), d.WriteBytes, nowNs)
		}
	}
}

// touchFileRead records one file open-for-read covering roughly
// `bytes` bytes (the requested range).
func (m *Master) touchFileRead(file namespace.FileID, bytes int64) {
	m.touchFile(file, heat.Read, bytes)
}

// touchFileWrite records one file create/overwrite.
func (m *Master) touchFileWrite(file namespace.FileID) {
	m.touchFile(file, heat.Write, 0)
}

// touchFile drops the touch when a delete unlinked the file after the
// handler resolved it, for foldHeat's reason and under the same lock.
func (m *Master) touchFile(file namespace.FileID, kind heat.Kind, bytes int64) {
	m.heat.mu.Lock()
	defer m.heat.mu.Unlock()
	if m.ns.PathOf(file) != "" {
		m.heat.files.Add(file, kind, 1, bytes, time.Now().UnixNano())
	}
}

// Tier-fitness thresholds. Hotness is judged both absolutely (a block
// touched less than ~hotMinOps decayed ops is never "hot") and
// relative to the current hottest block, so the report adapts to the
// cluster's activity level instead of hard-coding an ops rate.
const (
	heatHotMinOps  = 2.0  // absolute floor for "hot"
	heatHotFrac    = 0.10 // hot ⇒ within 10× of the hottest block
	heatColdMinOps = 0.05 // absolute ceiling for "cold"
	heatColdFrac   = 0.01 // cold ⇒ under 1% of the hottest block
	defaultHeatTop = 20   // list cap when a request leaves Top zero
)

// tierRank orders tiers premium-first for misplacement scoring:
// MEMORY=0, SSD=1, HDD=2, REMOTE=3 — which is exactly the tier
// enumeration order.
func tierRank(t core.StorageTier) int { return int(t) }

// misplacedFrom computes the tier-fitness findings for a block heat
// snapshot: hot blocks whose replicas sit only on cold tiers
// (HDD/REMOTE) and cold blocks squatting on premium tiers
// (MEMORY/SSD), ranked by heat×misplacement. Blocks without located
// replicas are skipped — there is no tier vector to judge. entries is a
// Snapshot, hottest first; Path is left for the caller to fill in on the
// findings it emits.
func (m *Master) misplacedFrom(entries []heat.Entry[core.BlockID]) []rpc.MisplacedBlock {
	if len(entries) == 0 {
		return nil
	}
	maxHeat := entries[0].Stat.Heat()
	hotCut := heatHotMinOps
	if f := heatHotFrac * maxHeat; f > hotCut {
		hotCut = f
	}
	coldCut := heatColdMinOps
	if f := heatColdFrac * maxHeat; f > coldCut {
		coldCut = f
	}
	var out []rpc.MisplacedBlock
	for _, e := range entries {
		replicas := m.blocks.Replicas(e.Key)
		if len(replicas) == 0 {
			continue
		}
		var tiers [core.NumTiers]int
		best := tierRank(core.TierRemote)
		for _, r := range replicas {
			tiers[r.Tier]++
			if rank := tierRank(r.Tier); rank < best {
				best = rank
			}
		}
		h := e.Stat.Heat()
		mb := rpc.MisplacedBlock{
			Block:    e.Key,
			Heat:     h,
			Tiers:    tiers,
			BestTier: core.StorageTier(best),
		}
		switch {
		case h >= hotCut && best >= tierRank(core.TierHDD):
			// Every replica is on HDD or REMOTE: a hot block with no
			// premium copy. The further the best replica is from SSD,
			// the worse the misplacement.
			mb.Kind = rpc.MisplacedHotOnCold
			mb.Misplacement = float64(best-1) / 3
			mb.Score = h * mb.Misplacement
		case h < coldCut && best <= tierRank(core.TierSSD):
			// A copy occupies MEMORY or SSD that nothing reads.
			mb.Kind = rpc.MisplacedColdOnPremium
			mb.Misplacement = float64(2-best) / 3
			mb.Score = mb.Misplacement
		default:
			continue
		}
		if be, ok := m.placementFor(e.Key); ok {
			mb.DecisionTraceID = be.TraceID
			mb.DecisionTimeNs = be.TimeNs
		}
		out = append(out, mb)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// heatAggregate summarises a block heat snapshot for telemetry
// samples: totals, the hottest block, per-tier heat (each block's
// heat split evenly across its replicas), and misplacement counts.
func (m *Master) heatAggregate(entries []heat.Entry[core.BlockID], misplaced []rpc.MisplacedBlock) rpc.HeatAggregate {
	agg := rpc.HeatAggregate{
		TrackedBlocks: len(entries),
		TrackedFiles:  m.heat.files.Len(),
	}
	for _, e := range entries {
		h := e.Stat.Heat()
		agg.TotalHeat += h
		if h > agg.MaxHeat {
			agg.MaxHeat = h
		}
		replicas := m.blocks.Replicas(e.Key)
		if len(replicas) == 0 {
			continue
		}
		share := h / float64(len(replicas))
		for _, r := range replicas {
			agg.TierHeat[r.Tier] += share
		}
	}
	for _, mb := range misplaced {
		if mb.Kind == rpc.MisplacedHotOnCold {
			agg.MisplacedHot++
		} else {
			agg.MisplacedCold++
		}
	}
	return agg
}

// liveHeatAggregate computes the current heat summary for telemetry
// samples.
func (m *Master) liveHeatAggregate() rpc.HeatAggregate {
	entries := m.heat.blocks.Snapshot(time.Now().UnixNano())
	return m.heatAggregate(entries, m.misplacedFrom(entries))
}

// heatReport assembles the full heat document served at /debug/heat.
// top caps each list (<= 0 selects defaultHeatTop);
// file restricts the block list to one file's blocks; misplacedOnly
// omits the file/block rankings.
func (m *Master) heatReport(top int, file string, misplacedOnly bool) rpc.HeatReport {
	if top <= 0 {
		top = defaultHeatTop
	}
	nowNs := time.Now().UnixNano()
	blockEntries := m.heat.blocks.Snapshot(nowNs)
	misplaced := m.misplacedFrom(blockEntries)

	report := rpc.HeatReport{
		TimeNs:     nowNs,
		HalfLifeNs: int64(m.heat.blocks.HalfLife()),
		Aggregate:  m.heatAggregate(blockEntries, misplaced),
	}
	if len(misplaced) > top {
		misplaced = misplaced[:top]
	}
	for i := range misplaced {
		misplaced[i].Path = m.blockPath(misplaced[i].Block)
	}
	report.Misplaced = misplaced
	if misplacedOnly {
		return report
	}

	var only namespace.FileID
	if file != "" {
		info, err := m.ns.Status(file)
		if err != nil || info.IsDir {
			return report // no such file: nothing to list
		}
		only = info.ID
	}
	for _, e := range m.heat.files.Snapshot(nowNs) {
		if file != "" && e.Key != only {
			continue
		}
		report.Files = append(report.Files, rpc.FileHeat{
			Path:   m.ns.PathOf(e.Key),
			Read:   rpc.HeatScore{Ops: e.Stat.Read.Ops, Bytes: e.Stat.Read.Bytes},
			Write:  rpc.HeatScore{Ops: e.Stat.Write.Ops, Bytes: e.Stat.Write.Bytes},
			Heat:   e.Stat.Heat(),
			LastNs: e.Stat.LastNs,
		})
		if len(report.Files) >= top {
			break
		}
	}
	for _, e := range blockEntries {
		owner := m.heat.ownerOf(e.Key)
		if file != "" && owner != only {
			continue
		}
		bh := rpc.BlockHeat{
			Block:  e.Key,
			Path:   m.ns.PathOf(owner),
			Read:   rpc.HeatScore{Ops: e.Stat.Read.Ops, Bytes: e.Stat.Read.Bytes},
			Write:  rpc.HeatScore{Ops: e.Stat.Write.Ops, Bytes: e.Stat.Write.Bytes},
			Heat:   e.Stat.Heat(),
			LastNs: e.Stat.LastNs,
		}
		for _, r := range m.blocks.Replicas(e.Key) {
			bh.Tiers[r.Tier]++
		}
		report.Blocks = append(report.Blocks, bh)
		if len(report.Blocks) >= top {
			break
		}
	}
	return report
}

// scanMisplaced recomputes the tier-fitness findings and journals
// blocks that entered the misplaced set (or changed kind) since the last
// scan as heat_misplaced events; a block that left the set is absent from
// the returned one, so a relapse journals again. flagged is the previous
// scan's result: state of the monitor loop, which runs this at history
// cadence — misplacement is a trend, not a per-tick alarm.
func (m *Master) scanMisplaced(flagged map[core.BlockID]string) map[core.BlockID]string {
	current := make(map[core.BlockID]string)
	for _, mb := range m.misplacedFrom(m.heat.blocks.Snapshot(time.Now().UnixNano())) {
		current[mb.Block] = mb.Kind
		if flagged[mb.Block] == mb.Kind {
			continue
		}
		m.journal.PublishTraced(events.Warn, evHeatMisplaced, mb.DecisionTraceID,
			"block tier placement contradicts its access heat",
			"block", formatBlockID(mb.Block),
			"path", m.blockPath(mb.Block),
			"kind", mb.Kind,
			"heat", fmt.Sprintf("%.2f", mb.Heat),
			"score", fmt.Sprintf("%.2f", mb.Score),
			"tiers", formatTierVector(mb.Tiers),
			"best_tier", mb.BestTier.String())
	}
	return current
}

// formatTierVector renders a replica-count-per-tier vector compactly,
// e.g. "HDD:2" or "MEMORY:1,HDD:2".
func formatTierVector(tiers [core.NumTiers]int) string {
	var parts []string
	for t, n := range tiers {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", core.StorageTier(t), n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
