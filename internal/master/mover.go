package master

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// This file implements the background tier mover: the monitor-loop
// pass that closes the loop the heat plane opened. Where scanMisplaced
// only *reports* blocks whose replica tier vectors contradict their
// access heat, the mover *acts*: it promotes a hot-on-cold block by
// replicating it onto a MEMORY/SSD medium chosen by the placement
// policy and then retiring the coldest source replica once the new
// copy is confirmed, and demotes cold-on-premium blocks the inverse
// way (the automated tier management of Herodotou & Kakoulli's
// follow-up work). A move is one pending-add in the block map naming
// the replica to retire; confirming the copy flips both in one step
// (DESIGN.md "Replica life-cycle"), and the MoveRecords kept here only
// narrate that state for /debug/mover.
//
// Moves are governed so the mover cannot starve foreground traffic or
// thrash on flapping heat: a pass interval, a cap on concurrent
// in-flight moves, a bytes/sec replication budget (deficit-counter
// style, so blocks larger than one second of budget still move, just
// less often), and a per-block cooldown armed after every completed or
// expired move.

const (
	defaultMoverInterval    = 2 * time.Second
	defaultMoverMaxMoves    = 4
	defaultMoverBytesPerSec = int64(64 << 20)
	defaultMoverCooldown    = 30 * time.Second

	// moverRecentCap bounds the ring of finished moves kept for the
	// status document.
	moverRecentCap = 64
)

// mover holds the tier mover's state. All mutation happens on the
// master's monitor goroutine; the mutex guards the status RPC readers.
type mover struct {
	interval     time.Duration
	maxMoves     int
	bytesPerSec  int64
	cooldownSpan time.Duration

	mu       sync.Mutex
	moves    map[core.BlockID]*rpc.MoveRecord // scheduled, outcome not yet recorded
	cooldown map[core.BlockID]time.Time
	recent   []rpc.MoveRecord // newest first, bounded by moverRecentCap
	counters rpc.MoverCounters
	// budget is the remaining bytes allowance; scheduling charges the
	// full block size (possibly driving it negative) and refills at
	// bytesPerSec, capped at one second of burst.
	budget     float64
	lastRefill time.Time
}

func newMover(cfg Config) *mover {
	mv := &mover{
		interval:     cfg.MoverInterval,
		maxMoves:     cfg.MoverMaxMoves,
		bytesPerSec:  cfg.MoverBytesPerSec,
		cooldownSpan: cfg.MoverCooldown,
		moves:        make(map[core.BlockID]*rpc.MoveRecord),
		cooldown:     make(map[core.BlockID]time.Time),
	}
	if mv.interval == 0 {
		mv.interval = defaultMoverInterval
	}
	if mv.maxMoves <= 0 {
		mv.maxMoves = defaultMoverMaxMoves
	}
	if mv.bytesPerSec == 0 {
		mv.bytesPerSec = defaultMoverBytesPerSec
	}
	if mv.cooldownSpan == 0 {
		mv.cooldownSpan = defaultMoverCooldown
	}
	return mv
}

// enabled reports whether the mover runs at all (negative
// MoverInterval disables it).
func (mv *mover) enabled() bool { return mv.interval > 0 }

// limited reports whether the bytes/sec budget applies (negative
// MoverBytesPerSec removes it).
func (mv *mover) limited() bool { return mv.bytesPerSec > 0 }

func (mv *mover) refillLocked(now time.Time) {
	if !mv.limited() {
		return
	}
	if mv.lastRefill.IsZero() {
		mv.budget = float64(mv.bytesPerSec)
	} else {
		mv.budget += now.Sub(mv.lastRefill).Seconds() * float64(mv.bytesPerSec)
		if mv.budget > float64(mv.bytesPerSec) {
			mv.budget = float64(mv.bytesPerSec)
		}
	}
	mv.lastRefill = now
}

func (mv *mover) pushRecentLocked(rec rpc.MoveRecord) {
	mv.recent = append([]rpc.MoveRecord{rec}, mv.recent...)
	if len(mv.recent) > moverRecentCap {
		mv.recent = mv.recent[:moverRecentCap]
	}
}

// moverPass runs one mover iteration: finish or expire in-flight
// moves, then convert fresh tier-fitness findings into new moves
// within the governors. Called from the monitor goroutine at
// MoverInterval cadence.
func (m *Master) moverPass() {
	mv := m.mover
	if !mv.enabled() {
		return
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	now := time.Now()
	mv.refillLocked(now)
	m.moverFinishLocked(now)
	m.moverScheduleLocked(now)
	for id, until := range mv.cooldown {
		if now.After(until) {
			delete(mv.cooldown, id)
		}
	}
}

// moverFinishLocked records the outcome of every move the block map has
// settled: done once the target is live and the source is not (confirming
// the one tombstoned the other), expired once the pending-add is gone
// without that — cancelled, or confirmed too late to retire anything, in
// which case the extra copy is the replication monitor's to remove.
func (m *Master) moverFinishLocked(now time.Time) {
	mv := m.mover
	for id, rec := range mv.moves {
		info, _ := m.blocks.Info(id)
		has := func(rs []blockmgmt.Replica, s core.StorageID) bool {
			return slices.ContainsFunc(rs, func(r blockmgmt.Replica) bool { return r.Storage == s })
		}
		if has(info.Pending, rec.ToStorage) {
			continue
		}
		delete(mv.moves, id)
		rec.FinishedNs = now.UnixNano()
		mv.cooldown[id] = now.Add(mv.cooldownSpan)
		if !has(info.Replicas, rec.ToStorage) || has(info.Replicas, rec.FromStorage) {
			rec.Outcome = rpc.MoveExpired
			mv.counters.Expired++
			mv.pushRecentLocked(*rec)
			m.journal.PublishTraced(events.Warn, evBlockMoveExpired, rec.TraceID,
				"tier move expired before the new replica was confirmed",
				"block", formatBlockID(id),
				"path", rec.Path,
				"kind", rec.Kind,
				"to", string(rec.ToStorage))
			continue
		}
		for _, r := range info.Replicas {
			rec.AfterTiers[r.Tier]++
		}
		rec.Outcome = rpc.MoveDone
		if rec.Kind == rpc.MovePromote {
			mv.counters.Promoted++
		} else {
			mv.counters.Demoted++
		}
		mv.counters.MovedBytes += rec.Bytes
		mv.pushRecentLocked(*rec)
		m.cfg.Logger.Info("tier move completed",
			"block", rec.Block, "kind", rec.Kind,
			"from", rec.FromTier.String(), "to", rec.ToTier.String())
		m.journal.PublishTraced(events.Info, evBlockMoved, rec.TraceID,
			"replica moved between tiers by the heat-driven mover",
			"block", formatBlockID(rec.Block),
			"path", rec.Path,
			"kind", rec.Kind,
			"heat", fmt.Sprintf("%.2f", rec.Heat),
			"from", rec.FromTier.String(),
			"to", rec.ToTier.String(),
			"before", formatTierVector(rec.BeforeTiers),
			"after", formatTierVector(rec.AfterTiers),
			"bytes", strconv.FormatInt(rec.Bytes, 10))
	}
}

// moverScheduleLocked turns the current tier-fitness findings into new
// moves, best-scored first, within the concurrency and bandwidth
// governors.
func (m *Master) moverScheduleLocked(now time.Time) {
	mv := m.mover
	snap := m.snapshot()
	if len(snap.Media) == 0 {
		return
	}
	for _, f := range m.misplacedFrom(m.heat.blocks.Snapshot(now.UnixNano())) {
		info, ok := m.blocks.Info(f.Block)
		if len(info.Pending) > 0 {
			continue // a move or repair is in flight; wait until it settles
		}
		if until, cool := mv.cooldown[f.Block]; cool && now.Before(until) {
			mv.counters.SkippedCooldown++
			continue
		}
		if len(mv.moves) >= mv.maxMoves {
			mv.counters.SkippedConcurrency++
			continue
		}
		if !ok || info.UnderConstruction {
			mv.counters.SkippedUnhealthy++
			continue
		}
		// Only steady, fully healthy blocks move: mid-repair blocks
		// belong to the replication monitor.
		if st, ok := m.blocks.State(f.Block); !ok || !st.Satisfied() {
			mv.counters.SkippedUnhealthy++
			continue
		}
		if mv.limited() && mv.budget <= 0 {
			mv.counters.SkippedBudget++
			continue
		}
		if m.startMoveLocked(snap, f, info, now) {
			mv.counters.Scheduled++
			if mv.limited() {
				mv.budget -= float64(info.Block.NumBytes)
			}
		}
	}
}

// startMoveLocked schedules one move: pick the replica to retire, ask
// the placement policy for a target medium on the destination tiers
// (with the surviving replicas as context), enqueue the replicate
// command, and record the decision in the explainability store.
func (m *Master) startMoveLocked(snap *policy.Snapshot, f rpc.MisplacedBlock, info blockmgmt.BlockInfo, now time.Time) bool {
	mv := m.mover
	promote := f.Kind == rpc.MisplacedHotOnCold

	// Promotion retires the coldest source replica, demotion the most
	// premium one.
	var victim blockmgmt.Replica
	found := false
	for _, r := range info.Replicas {
		if !found ||
			(promote && tierRank(r.Tier) > tierRank(victim.Tier)) ||
			(!promote && tierRank(r.Tier) < tierRank(victim.Tier)) {
			victim, found = r, true
		}
	}
	if !found {
		mv.counters.SkippedUnhealthy++
		return false
	}

	kind := rpc.MovePromote
	targetTiers := []core.StorageTier{core.TierMemory, core.TierSSD}
	if !promote {
		kind = rpc.MoveDemote
		targetTiers = []core.StorageTier{core.TierHDD, core.TierRemote}
	}

	existing := m.mediaFor(info.Replicas)
	if len(existing) == 0 {
		mv.counters.SkippedUnhealthy++
		return false
	}
	var target policy.Media
	var decisions []policy.ReplicaDecision
	chosen := false
	explainer, canExplain := m.cfg.Placement.(policy.ExplainingPolicy)
	for _, tier := range targetTiers {
		req := policy.PlacementRequest{
			Snapshot:  snap,
			RepVector: core.ReplicationVector(0).WithTier(tier, 1),
			BlockSize: info.Block.NumBytes,
			Existing:  existing,
		}
		var tgts []policy.Media
		var perr error
		m.withRand(func(rng *rand.Rand) {
			req.Rand = rng
			if canExplain {
				tgts, decisions, perr = explainer.PlaceReplicasExplained(req)
			} else {
				tgts, perr = m.cfg.Placement.PlaceReplicas(req)
			}
		})
		if perr != nil || len(tgts) == 0 {
			continue
		}
		target = tgts[0]
		chosen = true
		break
	}
	if !chosen {
		mv.counters.SkippedNoTarget++
		return false
	}

	sources := m.copySources(snap, existing)
	if len(sources) == 0 {
		mv.counters.SkippedUnhealthy++
		return false
	}

	rec := &rpc.MoveRecord{
		Block:       f.Block,
		Path:        m.blockPath(f.Block),
		Kind:        kind,
		Heat:        f.Heat,
		Bytes:       info.Block.NumBytes,
		FromTier:    victim.Tier,
		FromStorage: victim.Storage,
		FromWorker:  victim.Worker,
		ToTier:      target.Tier,
		ToStorage:   target.ID,
		ToWorker:    target.Worker,
		BeforeTiers: f.Tiers,
		StartedNs:   now.UnixNano(),
		Outcome:     rpc.MoveInFlight,
		TraceID:     rpc.NewRequestID(),
	}
	// The move is a pending-add naming its source: confirming the copy
	// retires the source in the same step. Its expiry is counted in mover
	// passes, one every so many monitor ticks.
	ticksPerPass := max(1, int((mv.interval+m.cfg.MonitorInterval-1)/m.cfg.MonitorInterval))
	if !m.scheduleCopy(info.Block, target, sources, moverExpiryTicks*ticksPerPass, victim.Storage) {
		mv.counters.SkippedNoTarget++
		return false
	}
	mv.moves[f.Block] = rec
	m.recordMove(rec, decisions)
	m.cfg.Logger.Info("tier move scheduled",
		"block", f.Block, "kind", kind, "path", rec.Path,
		"from", string(victim.Storage), "to", string(target.ID))
	return true
}

// recordMove overwrites the block's explainability record with the
// mover's decision, so octopus-cli explain shows why the block last
// moved rather than where its write originally landed.
func (m *Master) recordMove(rec *rpc.MoveRecord, decisions []policy.ReplicaDecision) {
	m.storePlacement(rpc.BlockExplanation{
		Block:    rec.Block,
		TimeNs:   rec.StartedNs,
		TraceID:  rec.TraceID,
		Origin:   rec.Kind,
		Heat:     rec.Heat,
		Replicas: wireDecisions(decisions),
	})
}

// moverStatus assembles the mover observability document served by
// Master.GetMover and /debug/mover.
func (m *Master) moverStatus() rpc.MoverStatus {
	mv := m.mover
	st := rpc.MoverStatus{
		Enabled:       mv.enabled(),
		IntervalNs:    int64(mv.interval),
		MaxConcurrent: mv.maxMoves,
		BytesPerSec:   mv.bytesPerSec,
		CooldownNs:    int64(mv.cooldownSpan),
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	for _, rec := range mv.moves {
		st.InFlight = append(st.InFlight, *rec)
	}
	sort.Slice(st.InFlight, func(i, j int) bool { return st.InFlight[i].StartedNs < st.InFlight[j].StartedNs })
	st.Recent = append([]rpc.MoveRecord(nil), mv.recent...)
	st.Counters = mv.counters
	return st
}

// GetMover serves the tier mover's status. Untraced: pollers
// (octopus-cli mover, /debug/mover) would churn the trace store.
func (s *Service) GetMover(args *rpc.GetMoverArgs, reply *rpc.GetMoverReply) (err error) {
	defer s.m.trackOpUntraced("getMover", args.ReqID)(&err)
	reply.Status = s.m.moverStatus()
	return nil
}
