package master

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// This file implements the master's side of the cluster event journal
// and the telemetry history: the third observability plane next to
// metrics (what is happening now) and traces (what happened inside one
// request). The journal records what has happened to the cluster over
// time — worker lifecycle, block state transitions, replication
// actions, placement decisions — and the history ring keeps sampled
// per-worker and per-tier capacity/usage/throughput so "octopus-cli
// top" can show trends, not just the latest heartbeat.

// Event types journaled by the master. Workers share the block_*
// namespace for their local transitions.
const (
	evWorkerRegister       = "worker_register"
	evWorkerExpired        = "worker_expired"
	evWorkerDecommissioned = "worker_decommissioned"
	evBlockAllocated       = "block_allocated"
	evBlockCommitted       = "block_committed"
	evBlockAbandoned       = "block_abandoned"
	evBlockCorrupt         = "block_corrupt"
	evBlockRereplicated    = "block_rereplicated"
	evBlockExcessRemoved   = "block_excess_removed"
	evLeaseExpired         = "lease_expired"
	evPlacement            = "placement"
	evSlowOp               = "slow_op"
	evHeatMisplaced        = "heat_misplaced"
	evBlockMoved           = "block_moved"
	evBlockMoveExpired     = "block_move_expired"
	evMasterStarted        = "master_started"
	evImageLoaded          = "image_loaded"
)

const (
	// defaultHistoryInterval paces telemetry sampling when the
	// configuration leaves it zero.
	defaultHistoryInterval = 2 * time.Second

	// historyCapacity bounds the telemetry ring. At the default
	// interval this is ~17 minutes of history in a few hundred KB.
	historyCapacity = 512

	// placementCapacity bounds the retained placement explanations
	// (FIFO per block). Old blocks lose explainability before the
	// master loses memory.
	placementCapacity = 2048
)

// Journal exposes the master's event journal (for the HTTP handler and
// tests).
func (m *Master) Journal() *events.Journal { return m.journal }

// sampleHistory appends one telemetry sample to the history ring. The
// monitor loop calls it every HistoryInterval.
func (m *Master) sampleHistory() {
	s := m.liveSample()
	m.histMu.Lock()
	if m.histN == len(m.history) {
		m.history[m.histStart] = s
		m.histStart = (m.histStart + 1) % len(m.history)
	} else {
		m.history[(m.histStart+m.histN)%len(m.history)] = s
		m.histN++
	}
	m.histMu.Unlock()
}

// liveSample builds a ClusterSample from the current worker statistics.
func (m *Master) liveSample() rpc.ClusterSample {
	_, files, blocks := m.ns.Stats()
	s := rpc.ClusterSample{
		TimeNs: time.Now().UnixNano(),
		Tiers:  m.tierReports(),
		Files:  files,
		Blocks: blocks,
		Heat:   m.liveHeatAggregate(),
	}
	m.mu.RLock()
	for id, w := range m.workers {
		ws := rpc.WorkerSample{
			ID:       id,
			NetConns: w.netConns,
			NetMBps:  w.netMBps,
		}
		for _, ms := range w.media {
			ws.Capacity += ms.Capacity
			ws.Used += ms.Capacity - ms.Remaining
			ws.WriteMBps += ms.WriteMBps
			ws.ReadMBps += ms.ReadMBps
		}
		s.Workers = append(s.Workers, ws)
	}
	m.mu.RUnlock()
	sortWorkerSamples(s.Workers)
	return s
}

func sortWorkerSamples(ws []rpc.WorkerSample) {
	for i := 1; i < len(ws); i++ {
		for k := i; k > 0 && ws[k].ID < ws[k-1].ID; k-- {
			ws[k], ws[k-1] = ws[k-1], ws[k]
		}
	}
}

// clusterHistory returns the retained samples oldest first, always
// ending with a fresh live sample, optionally trimmed to the trailing
// `last` entries.
func (m *Master) clusterHistory(last int) []rpc.ClusterSample {
	m.histMu.Lock()
	out := make([]rpc.ClusterSample, 0, m.histN+1)
	for i := 0; i < m.histN; i++ {
		out = append(out, m.history[(m.histStart+i)%len(m.history)])
	}
	m.histMu.Unlock()
	out = append(out, m.liveSample())
	if last > 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}

// storePlacement retains (or overwrites) a block's explanation for
// Master.Explain, FIFO-bounded.
func (m *Master) storePlacement(be rpc.BlockExplanation) {
	m.placeMu.Lock()
	defer m.placeMu.Unlock()
	if _, exists := m.placements[be.Block]; !exists {
		m.placeOrder = append(m.placeOrder, be.Block)
		for len(m.placeOrder) > placementCapacity {
			delete(m.placements, m.placeOrder[0])
			m.placeOrder = m.placeOrder[1:]
		}
	}
	m.placements[be.Block] = be
}

// recordPlacement converts a placement decision set to its wire form,
// retains it for Master.Explain (FIFO-bounded), and journals the
// chosen-vs-runner-up breakdown as a placement event.
func (m *Master) recordPlacement(path string, blk core.Block, traceID string, decisions []policy.ReplicaDecision) {
	if len(decisions) == 0 {
		return
	}
	be := rpc.BlockExplanation{
		Block:    blk.ID,
		TimeNs:   time.Now().UnixNano(),
		TraceID:  traceID,
		Replicas: wireDecisions(decisions),
	}
	m.storePlacement(be)

	attrs := []string{
		"path", path,
		"block", formatBlockID(blk.ID),
		"replicas", strconv.Itoa(len(decisions)),
	}
	for i, dec := range decisions {
		if len(dec.Candidates) == 0 {
			continue
		}
		win := dec.Candidates[0]
		prefix := "replica" + strconv.Itoa(i)
		attrs = append(attrs,
			prefix+".chosen", fmt.Sprintf("%s(%s) score=%.4f", win.Media.ID, win.Media.Tier, win.Score))
		if len(dec.Candidates) > 1 {
			up := dec.Candidates[1]
			attrs = append(attrs,
				prefix+".runner_up", fmt.Sprintf("%s(%s) score=%.4f", up.Media.ID, up.Media.Tier, up.Score))
		}
	}
	m.journal.PublishTraced(events.Info, evPlacement, traceID,
		"placement decision for "+path, attrs...)
}

// placementFor returns the retained explanation for one block.
func (m *Master) placementFor(id core.BlockID) (rpc.BlockExplanation, bool) {
	m.placeMu.Lock()
	defer m.placeMu.Unlock()
	be, ok := m.placements[id]
	return be, ok
}

// wireDecisions converts policy decisions to their RPC form.
func wireDecisions(decisions []policy.ReplicaDecision) []rpc.ReplicaExplanation {
	out := make([]rpc.ReplicaExplanation, len(decisions))
	for i, dec := range decisions {
		re := rpc.ReplicaExplanation{
			Entry:      dec.Entry,
			Ideal:      dec.Ideal,
			Considered: dec.Considered,
			Candidates: make([]rpc.CandidateScore, len(dec.Candidates)),
		}
		for k, c := range dec.Candidates {
			re.Candidates[k] = rpc.CandidateScore{
				Worker:     c.Media.Worker,
				Storage:    c.Media.ID,
				Node:       c.Media.Node,
				Rack:       c.Media.Rack,
				Tier:       c.Media.Tier,
				Score:      c.Score,
				Objectives: c.Objectives,
				Chosen:     c.Chosen,
			}
		}
		out[i] = re
	}
	return out
}

func formatBlockID(id core.BlockID) string {
	return strconv.FormatUint(uint64(id), 10)
}

// decommission removes a worker from service deliberately: its
// replicas become under-replicated and the monitor re-replicates them,
// exactly as on heartbeat expiry, but the removal is journaled as
// operator-initiated and the worker may not re-register.
func (m *Master) decommission(id core.WorkerID, reqID string) error {
	m.mu.Lock()
	w, ok := m.workers[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: unknown worker %s: %w", id, core.ErrNotFound)
	}
	m.dropWorkerLocked(w)
	m.decommissioned[id] = struct{}{}
	m.mu.Unlock()
	m.blocks.RemoveWorker(id)
	m.cfg.Logger.Warn("worker decommissioned", "worker", id)
	m.journal.PublishTraced(events.Warn, evWorkerDecommissioned, reqID,
		"worker decommissioned by operator", "worker", string(id), "node", w.node)
	return nil
}

// GetEvents serves one page of the cluster event journal over RPC.
// Untraced: pollers would churn the trace store.
func (s *Service) GetEvents(args *rpc.LogArgs, reply *rpc.LogReply[events.Event]) (err error) {
	defer s.m.trackOpUntraced("getEvents", args.ReqID)(&err)
	*reply = rpc.ReadLog(s.m.journal.Log(), args)
	return nil
}

// GetClusterHistory serves the telemetry history, oldest first, ending
// with a fresh live sample.
func (s *Service) GetClusterHistory(args *rpc.GetClusterHistoryArgs, reply *rpc.GetClusterHistoryReply) (err error) {
	defer s.m.trackOpUntraced("getClusterHistory", args.ReqID)(&err)
	reply.Samples = s.m.clusterHistory(args.Last)
	return nil
}

// Explain returns the retained placement decisions for a file's
// blocks: for every replica, the winning (worker, tier) with its
// four-objective score vector and the runner-up candidates.
func (s *Service) Explain(args *rpc.ExplainArgs, reply *rpc.ExplainReply) (err error) {
	defer s.m.trackOp("explain", args.ReqHeader)(&err)
	blocks, _, _, _, err := s.m.ns.FileBlocks(args.Path)
	if err != nil {
		return wire(err)
	}
	reply.Path = args.Path
	reply.Objectives = policy.ObjectiveNames()
	for _, b := range blocks {
		if be, ok := s.m.placementFor(b.ID); ok {
			reply.Blocks = append(reply.Blocks, be)
		}
	}
	return nil
}

// Decommission removes a worker from service.
func (s *Service) Decommission(args *rpc.DecommissionArgs, _ *rpc.DecommissionReply) (err error) {
	defer s.m.trackOp("decommission", args.ReqHeader)(&err)
	return wire(s.m.decommission(args.ID, args.ReqID))
}
