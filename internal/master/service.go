package master

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/namespace"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/topology"
)

// Service implements the master protocols; the master serves it on an
// rpc.Server. Every method converts internal errors into their stable
// wire representation so clients keep matching with errors.Is.
type Service struct {
	m *Master
}

// register serves every method of the master protocols on srv.
func (s *Service) register(srv *rpc.Server) {
	rpc.Handle(srv, "Master.GetFileInfo", s.GetFileInfo)
	rpc.Handle(srv, "Master.List", s.List)
	rpc.Handle(srv, "Master.GetBlockLocations", s.GetBlockLocations)
	rpc.Handle(srv, "Master.Mkdir", s.Mkdir)
	rpc.Handle(srv, "Master.Create", s.Create)
	rpc.Handle(srv, "Master.AddBlock", s.AddBlock)
	rpc.Handle(srv, "Master.CommitBlock", s.CommitBlock)
	rpc.Handle(srv, "Master.Complete", s.Complete)
	rpc.Handle(srv, "Master.Abandon", s.Abandon)
	rpc.Handle(srv, "Master.AbandonBlock", s.AbandonBlock)
	rpc.Handle(srv, "Master.Delete", s.Delete)
	rpc.Handle(srv, "Master.Rename", s.Rename)
	rpc.Handle(srv, "Master.Report", s.Report)
	rpc.Handle(srv, "Master.Register", s.Register)
	rpc.Handle(srv, "Master.Heartbeat", s.Heartbeat)
	rpc.Handle(srv, "Master.GetWorkerReports", s.GetWorkerReports)
	rpc.Handle(srv, "Master.GetStorageTierReports", s.GetStorageTierReports)
	rpc.Handle(srv, "Master.SetQuota", s.SetQuota)
	rpc.Handle(srv, "Master.SetReplication", s.SetReplication)
	rpc.Handle(srv, "Master.GetContentSummary", s.GetContentSummary)
	rpc.Handle(srv, "Master.Fsck", s.Fsck)
	rpc.Handle(srv, "Master.GetImage", s.GetImage)
	rpc.Handle(srv, "Master.ReportBadBlock", s.ReportBadBlock)
	rpc.Handle(srv, "Master.Decommission", s.Decommission)
}

// wire converts an internal error for the RPC boundary.
func wire(err error) error {
	if err == nil {
		return nil
	}
	return errors.New(rpc.EncodeError(err))
}

// clientLocation resolves the caller's topology location from the node
// name it supplied ("" = off-cluster).
func (s *Service) clientLocation(node string) topology.Location {
	if node == "" {
		return topology.Location{}
	}
	return s.m.topo.LocationOf(node)
}

// Mkdir creates a directory.
func (s *Service) Mkdir(args *rpc.MkdirArgs, _ *rpc.MkdirReply) (err error) {
	op := s.m.beginOp("mkdir", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	return wire(s.m.ns.Mkdir(args.Path, args.Parents, args.Owner, op.Stats()))
}

// Create registers a new file for writing (paper Table 1).
func (s *Service) Create(args *rpc.CreateArgs, _ *rpc.CreateReply) (err error) {
	op := s.m.beginOp("create", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	if args.BlockSize <= 0 {
		args.BlockSize = s.m.cfg.BlockSize
	}
	created, err := s.m.ns.Create(args.Path, args.RepVector, args.BlockSize, args.Overwrite, args.Owner, op.Stats())
	if err != nil {
		return wire(err)
	}
	s.m.invalidate(created.Removed)
	s.m.touchFileWrite(created.File)
	return nil
}

// AddBlock allocates a file's next block with replica locations chosen
// by the placement policy.
func (s *Service) AddBlock(args *rpc.AddBlockArgs, reply *rpc.AddBlockReply) (err error) {
	op := s.m.beginOp("addBlock", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	opSpan := op.Span()
	blocks, rv, blockSize, _, err := s.m.ns.FileBlocks(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	var offset int64
	for _, b := range blocks {
		offset += b.NumBytes
	}

	snap := s.m.snapshot()
	// The MOOP placement decision gets its own sub-span: it is the
	// master-side cost the paper's §3.3 policies need attributed when
	// tuning against observed per-tier service times.
	placeSpan := s.m.tracer.Start(args.ReqID, opSpan.ID(), "master.placement")
	var targets []policy.Media
	var decisions []policy.ReplicaDecision
	var perr error
	explainer, canExplain := s.m.cfg.Placement.(policy.ExplainingPolicy)
	s.m.withRand(func(rng *rand.Rand) {
		req := policy.PlacementRequest{
			Snapshot:  snap,
			Client:    s.clientLocation(args.ClientNode),
			RepVector: rv,
			BlockSize: blockSize,
			Rand:      rng,
		}
		if canExplain {
			targets, decisions, perr = explainer.PlaceReplicasExplained(req)
		} else {
			targets, perr = s.m.cfg.Placement.PlaceReplicas(req)
		}
	})
	for _, t := range targets {
		placeSpan.Annotate("tier."+string(t.ID), t.Tier.String())
	}
	placeSpan.SetError(perr)
	placeSpan.End()
	if perr != nil && len(targets) == 0 {
		return wire(perr)
	}

	blk, file, err := s.m.ns.AddBlock(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	// The pipeline handed to the writer is pending-adds, in-flight load
	// placement can see, until the client's commit confirms it.
	located := core.LocatedBlock{Block: blk, Offset: offset}
	tiers := make([]string, len(targets))
	for i, t := range targets {
		tiers[i] = t.Tier.String()
		s.m.metrics.placements.With(tiers[i]).Inc()
	}
	var pipeline []blockmgmt.Replica
	s.m.mu.RLock()
	for _, t := range targets {
		w := s.m.workers[t.Worker]
		if w == nil {
			continue
		}
		pipeline = append(pipeline, blockmgmt.Replica{Worker: t.Worker, Storage: t.ID, Tier: t.Tier})
		located.Locations = append(located.Locations, core.BlockLocation{
			Worker:  t.Worker,
			Address: w.dataAddr,
			Storage: t.ID,
			Tier:    t.Tier,
			Rack:    t.Rack,
		})
	}
	s.m.mu.RUnlock()
	s.m.blocks.AddBlock(blk, rv, pipeline...)
	s.m.journal.PublishTraced(events.Info, evBlockAllocated, args.ReqID,
		"block allocated",
		"path", args.Path,
		"block", formatBlockID(blk.ID),
		"replicas", strconv.Itoa(len(targets)),
		"tiers", strings.Join(tiers, ","))
	s.m.recordPlacement(args.Path, blk, args.ReqID, decisions)
	s.m.heat.setOwner(blk.ID, file)
	if len(located.Locations) == 0 {
		return wire(core.ErrNoWorkers)
	}
	reply.Located = located
	return nil
}

// CommitBlock records the final length of a block in both metadata
// collections. The client commits each block once its pipeline acked
// it end to end, so the commit also confirms the pipeline's replicas:
// no stage tells the master on its own.
func (s *Service) CommitBlock(args *rpc.CommitBlockArgs, _ *rpc.CommitBlockReply) (err error) {
	op := s.m.beginOp("commitBlock", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	op.Bytes(args.Block.NumBytes)
	if err := s.m.ns.CommitBlock(args.Path, args.Block, op.Stats()); err != nil {
		return wire(err)
	}
	s.m.blocks.CommitBlock(args.Block)
	s.m.journal.PublishTraced(events.Info, evBlockCommitted, args.ReqID,
		"block committed",
		"path", args.Path,
		"block", formatBlockID(args.Block.ID),
		"bytes", strconv.FormatInt(args.Block.NumBytes, 10))
	return nil
}

// Complete seals a file whose blocks are all committed.
func (s *Service) Complete(args *rpc.CompleteArgs, _ *rpc.CompleteReply) (err error) {
	op := s.m.beginOp("complete", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	return wire(s.m.ns.Complete(args.Path, nil, op.Stats()))
}

// Abandon drops an under-construction file after a failed write.
func (s *Service) Abandon(args *rpc.AbandonArgs, _ *rpc.AbandonReply) (err error) {
	op := s.m.beginOp("abandon", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	removed, err := s.m.ns.Abandon(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	s.m.invalidate(removed)
	return nil
}

// AbandonBlock drops a failed block from an under-construction file.
// No commit confirmed its pipeline, so a stage that stored it before
// the pipeline broke is told to delete it when its next listing shows
// the unknown block (at once, if a listing already confirmed it).
func (s *Service) AbandonBlock(args *rpc.AbandonBlockArgs, _ *rpc.AbandonBlockReply) (err error) {
	op := s.m.beginOp("abandonBlock", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	if err := s.m.ns.AbandonBlock(args.Path, args.Block.ID, op.Stats()); err != nil {
		return wire(err)
	}
	s.m.invalidate(namespace.Removed{Blocks: []core.Block{args.Block}})
	return nil
}

// invalidate forgets what the namespace unlinked and schedules replica
// deletion on the blocks' workers.
func (m *Master) invalidate(removed namespace.Removed) {
	m.heat.forget(removed)
	for _, b := range removed.Blocks {
		replicas := m.blocks.RemoveBlock(b.ID)
		m.enqueueDeletes(replicas)
		m.journal.Publish(events.Info, evBlockAbandoned,
			"block invalidated; replica deletion scheduled",
			"block", formatBlockID(b.ID),
			"replicas", strconv.Itoa(len(replicas)))
	}
}

// GetBlockLocations returns the blocks overlapping a byte range with
// replica locations ordered by the retrieval policy (paper §4).
func (s *Service) GetBlockLocations(args *rpc.GetBlockLocationsArgs, reply *rpc.GetBlockLocationsReply) (err error) {
	op := s.m.beginOp("getBlockLocations", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	blocks, _, _, file, err := s.m.ns.FileBlocks(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	var fileLen int64
	for _, b := range blocks {
		fileLen += b.NumBytes
	}
	reply.FileLength = fileLen
	length := args.Length
	if length < 0 {
		length = fileLen
	}
	end := args.Offset + length
	// One getBlockLocations is one application-level open/read of the
	// file: record it as file-level read heat covering the requested
	// range (block-level heat arrives from the workers that actually
	// serve the bytes).
	touched := length
	if touched > fileLen-args.Offset {
		touched = fileLen - args.Offset
	}
	if touched < 0 {
		touched = 0
	}
	op.Bytes(touched)
	s.m.touchFileRead(file, touched)

	snap := s.m.snapshot()
	client := s.clientLocation(args.ClientNode)
	var offset int64
	for _, b := range blocks {
		blockEnd := offset + b.NumBytes
		if blockEnd > args.Offset && offset < end {
			located := core.LocatedBlock{Block: b, Offset: offset}
			media := s.m.mediaFor(s.m.blocks.Replicas(b.ID))
			var ordered []policy.Media
			s.m.withRand(func(rng *rand.Rand) {
				ordered = s.m.cfg.Retrieval.Order(policy.RetrievalRequest{
					Snapshot: snap,
					Client:   client,
					Replicas: media,
					Rand:     rng,
				})
			})
			for _, om := range ordered {
				if loc, ok := s.m.locationFor(blockmgmt.Replica{
					Worker: om.Worker, Storage: om.ID, Tier: om.Tier,
				}); ok {
					located.Locations = append(located.Locations, loc)
				}
			}
			if len(located.Locations) > 0 {
				s.m.metrics.retrievals.With(located.Locations[0].Tier.String()).Inc()
			}
			reply.Blocks = append(reply.Blocks, located)
		}
		offset = blockEnd
	}
	return nil
}

// GetFileInfo returns one path's status.
func (s *Service) GetFileInfo(args *rpc.GetFileInfoArgs, reply *rpc.GetFileInfoReply) (err error) {
	op := s.m.beginOp("getFileInfo", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	info, err := s.m.ns.Status(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	reply.Status = toFileStatus(info)
	return nil
}

// List returns a directory's entries.
func (s *Service) List(args *rpc.ListArgs, reply *rpc.ListReply) (err error) {
	op := s.m.beginOp("list", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	infos, err := s.m.ns.List(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	reply.Entries = make([]rpc.FileStatus, len(infos))
	for i, info := range infos {
		reply.Entries[i] = toFileStatus(info)
	}
	return nil
}

func toFileStatus(info namespace.FileInfo) rpc.FileStatus {
	return rpc.FileStatus{
		Path:      info.Path,
		IsDir:     info.IsDir,
		Length:    info.Length,
		RepVector: info.RepVector,
		BlockSize: info.BlockSize,
		ModTime:   info.ModTime,
		Owner:     info.Owner,
	}
}

// Delete removes a path and invalidates its blocks.
func (s *Service) Delete(args *rpc.DeleteArgs, _ *rpc.DeleteReply) (err error) {
	op := s.m.beginOp("delete", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	removed, err := s.m.ns.Delete(args.Path, args.Recursive, op.Stats())
	if err != nil {
		return wire(err)
	}
	s.m.invalidate(removed)
	return nil
}

// Rename moves a path.
func (s *Service) Rename(args *rpc.RenameArgs, _ *rpc.RenameReply) (err error) {
	op := s.m.beginOp("rename", args.ReqHeader, args.Src, args.Dst)
	defer op.Finish(&err)
	return wire(s.m.ns.Rename(args.Src, args.Dst, op.Stats()))
}

// SetReplication changes a file's replication vector; the replication
// monitor then moves, copies, or deletes replicas asynchronously
// (paper §2.3, §5).
func (s *Service) SetReplication(args *rpc.SetReplicationArgs, _ *rpc.SetReplicationReply) (err error) {
	op := s.m.beginOp("setReplication", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	if _, err := s.m.ns.SetRepVector(args.Path, args.RepVector, op.Stats()); err != nil {
		return wire(err)
	}
	blocks, _, _, _, err := s.m.ns.FileBlocks(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	for _, b := range blocks {
		s.m.blocks.SetExpected(b.ID, args.RepVector)
	}
	return nil
}

// GetStorageTierReports returns per-tier capacity and throughput
// aggregates (paper Table 1).
func (s *Service) GetStorageTierReports(args *rpc.TierReportsArgs, reply *rpc.TierReportsReply) (err error) {
	defer s.m.trackOp("getStorageTierReports", args.ReqHeader)(&err)
	reply.Reports = s.m.tierReports()
	return nil
}

// SetQuota sets a per-tier byte quota on a directory.
func (s *Service) SetQuota(args *rpc.SetQuotaArgs, _ *rpc.SetQuotaReply) (err error) {
	op := s.m.beginOp("setQuota", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	return wire(s.m.ns.SetQuota(args.Path, args.Tier, args.Bytes, op.Stats()))
}

// ReportBadBlock tombstones a corrupt replica and schedules its deletion;
// re-replication restores the count. A block's last live replica is kept
// (and says so): one reader's checksum failure is no ground to turn a
// block that may yet be read into one that is missing.
func (s *Service) ReportBadBlock(args *rpc.ReportBadBlockArgs, _ *rpc.ReportBadBlockReply) (err error) {
	defer s.m.trackOp("reportBadBlock", args.ReqHeader)(&err)
	deletes := s.m.blocks.Retire(args.Block.ID, args.Storage)
	s.m.enqueueDeletes(deletes)
	msg := "corrupt replica reported; deletion scheduled"
	if len(deletes) == 0 {
		msg = "corrupt replica reported; not deleted (sole live replica, or none on that storage)"
	}
	s.m.journal.PublishTraced(events.Error, evBlockCorrupt, args.ReqID, msg,
		"block", formatBlockID(args.Block.ID),
		"storage", string(args.Storage),
		"worker", string(args.Worker))
	return nil
}

// Register adds a worker to the cluster (paper §2.2).
func (s *Service) Register(args *rpc.RegisterArgs, _ *rpc.RegisterReply) (err error) {
	defer s.m.trackOpUntraced("register", args.ReqID)(&err)
	if args.ID == "" || args.Node == "" {
		return wire(fmt.Errorf("master: registration missing worker identity: %w", core.ErrNotFound))
	}
	rack := topology.NormalizeRack(args.Rack)
	w := &workerState{
		id:       args.ID,
		node:     args.Node,
		rack:     rack,
		dataAddr: args.DataAddr,
		httpAddr: args.HTTPAddr,
		netMBps:  args.NetMBps,
		media:    make(map[core.StorageID]rpc.MediaStat, len(args.Media)),
		lastSeen: time.Now(),
	}
	for _, ms := range args.Media {
		w.media[ms.ID] = ms
	}
	s.m.mu.Lock()
	if _, gone := s.m.decommissioned[args.ID]; gone {
		s.m.mu.Unlock()
		return wire(fmt.Errorf("master: worker %s is decommissioned: %w", args.ID, core.ErrPermission))
	}
	s.m.workers[args.ID] = w
	s.m.membership.Add(1)
	s.m.mu.Unlock()
	s.m.topo.Add(args.Node, rack)
	s.m.cfg.Logger.Info("worker registered",
		"worker", args.ID, "rack", rack, "media", len(args.Media))
	s.m.journal.PublishTraced(events.Info, evWorkerRegister, args.ReqID,
		"worker registered",
		"worker", string(args.ID), "node", args.Node, "rack", rack,
		"media", strconv.Itoa(len(args.Media)))
	return nil
}

// Heartbeat is a worker's one state message (paper §2.2): it refreshes
// the worker's statistics, folds its heat deltas, its telemetry, the
// copies it confirms and, on a listing beat, its full block listing
// (paper §5: under- and over-replication is detected from the
// listings), then delivers the pending commands, including any delete
// the fold issued.
func (s *Service) Heartbeat(args *rpc.HeartbeatArgs, reply *rpc.HeartbeatReply) (err error) {
	defer s.m.trackOpUntraced("heartbeat", args.ReqID)(&err)
	s.m.mu.Lock()
	w, ok := s.m.workers[args.ID]
	if !ok {
		s.m.mu.Unlock()
		return wire(fmt.Errorf("master: unknown worker %s, re-register: %w", args.ID, core.ErrNotFound))
	}
	w.lastSeen = time.Now()
	w.netConns = args.NetConns
	if args.NetMBps > 0 {
		w.netMBps = args.NetMBps
	}
	if args.HTTPAddr != "" {
		w.httpAddr = args.HTTPAddr
	}
	for _, ms := range args.Media {
		w.media[ms.ID] = ms
	}
	received, listing := w.replicas(args.Received), w.replicas(args.Blocks)
	s.m.mu.Unlock()
	// Fold outside the worker lock: the heat maps and the block map have
	// their own synchronisation. Confirming a tier move's copy retires
	// its source in the same step; unknown, stale and tombstoned
	// replicas come back as deletions.
	s.m.foldHeat(args.Heat)
	s.m.foldTelemetry(args.Telemetry)
	for _, r := range received {
		s.m.enqueueDeletes(s.m.blocks.AddReplica(r.Block, r.Replica))
	}
	if args.Listing {
		s.m.enqueueDeletes(s.m.blocks.Report(args.ID, listing))
	}
	s.m.mu.Lock()
	reply.Commands = s.m.pending[args.ID]
	delete(s.m.pending, args.ID)
	s.m.mu.Unlock()
	return nil
}

// replicas resolves a worker's stored-block lines against its media;
// a line on a medium it did not register is skipped. Caller holds m.mu.
func (w *workerState) replicas(stored []rpc.StoredBlock) (out []blockmgmt.BlockReplica) {
	for _, sb := range stored {
		if ms, known := w.media[sb.Storage]; known {
			out = append(out, blockmgmt.BlockReplica{Block: sb.Block, Replica: blockmgmt.Replica{
				Worker: w.id, Storage: sb.Storage, Tier: ms.Tier,
			}})
		}
	}
	return out
}

// GetImage serialises the namespace for a Backup Master, which fetches
// it periodically (paper §2.1).
func (s *Service) GetImage(args *rpc.ImageArgs, reply *rpc.ImageReply) (err error) {
	defer s.m.trackOpUntraced("getImage", args.ReqID)(&err)
	data, err := s.m.ns.ImageBytes()
	if err != nil {
		return wire(err)
	}
	reply.Image = data
	return nil
}

// GetContentSummary aggregates usage over a subtree (`du`).
func (s *Service) GetContentSummary(args *rpc.ContentSummaryArgs, reply *rpc.ContentSummaryReply) (err error) {
	op := s.m.beginOp("getContentSummary", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	sum, err := s.m.ns.ContentSummary(args.Path, op.Stats())
	if err != nil {
		return wire(err)
	}
	reply.Summary = rpc.ContentSummary{
		Path:        args.Path,
		Files:       sum.Files,
		Directories: sum.Directories,
		Bytes:       sum.Bytes,
	}
	copy(reply.Summary.TierBytes[:], sum.TierBytes[:])
	return nil
}

// Fsck reports per-file replication health over a subtree, computed
// from the block map's per-tier replication states (paper §5).
func (s *Service) Fsck(args *rpc.FsckArgs, reply *rpc.FsckReply) (err error) {
	op := s.m.beginOp("fsck", args.ReqHeader, args.Path, "")
	defer op.Finish(&err)
	walkErr := s.m.ns.WalkFiles(args.Path, func(path string, blocks []core.Block, rv core.ReplicationVector, uc bool) {
		f := rpc.FsckFile{
			Path:              path,
			Expected:          rv,
			Blocks:            len(blocks),
			UnderConstruction: uc,
		}
		for _, b := range blocks {
			st, ok := s.m.blocks.State(b.ID)
			if !ok {
				f.MissingBlocks++
				continue
			}
			if len(s.m.blocks.Replicas(b.ID)) == 0 {
				f.MissingBlocks++
			}
			if st.Satisfied() {
				f.HealthyBlocks++
				continue
			}
			f.MissingReplicas += st.MissingTotal()
			f.ExcessReplicas += st.Excess
		}
		reply.Files = append(reply.Files, f)
	})
	return wire(walkErr)
}

// GetWorkerReports lists every live worker with its per-media
// statistics (the dfsadmin -report equivalent).
func (s *Service) GetWorkerReports(args *rpc.WorkerReportsArgs, reply *rpc.WorkerReportsReply) (err error) {
	defer s.m.trackOp("getWorkerReports", args.ReqHeader)(&err)
	s.m.mu.RLock()
	defer s.m.mu.RUnlock()
	reply.MasterHTTP = s.m.httpAddr
	for _, w := range s.m.workers {
		wr := rpc.WorkerReport{
			ID: w.id, Node: w.node, Rack: w.rack,
			DataAddr: w.dataAddr, HTTPAddr: w.httpAddr, NetMBps: w.netMBps,
		}
		for _, ms := range w.media {
			wr.Media = append(wr.Media, ms)
		}
		sort.Slice(wr.Media, func(i, j int) bool { return wr.Media[i].ID < wr.Media[j].ID })
		reply.Workers = append(reply.Workers, wr)
	}
	sort.Slice(reply.Workers, func(i, j int) bool { return reply.Workers[i].ID < reply.Workers[j].ID })
	return nil
}
