package rpc

import (
	"slices"

	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// This file defines the message types of the two master protocols:
// the client protocol (file system operations, paper §2.3) and the
// worker protocol (registration and heartbeats, paper §2.1–§2.2).
// Every argument struct embeds ReqHeader so the caller's request ID
// travels with the operation for cross-node log correlation and
// slow-op tracing. Every message has a wire method and travels as a
// binary frame body (methods.go). The JSON documents the master serves
// on its HTTP endpoints (HeatReport, MoverStatus, ClusterSample,
// ExplainReply) are defined here too.

// Empty is the reply of a method that returns nothing but its error.
type Empty struct{}

func (*Empty) wire(*coder) {}

// header carries a request's ReqHeader. It is a function, not a method
// of ReqHeader, so an argument struct that embeds ReqHeader does not
// inherit a wire method that would drop its other fields.
func header(c *coder, h *ReqHeader) {
	str(c, &h.ReqID)
	str(c, &h.SpanID)
}

// FileStatus describes one file or directory to clients.
type FileStatus struct {
	Path      string
	IsDir     bool
	Length    int64 // total file bytes (0 for directories)
	RepVector core.ReplicationVector
	BlockSize int64
	ModTime   int64 // Unix nanoseconds
	Owner     string
}

func fileStatus(c *coder, s *FileStatus) {
	str(c, &s.Path)
	flag(c, &s.IsDir)
	num(c, &s.Length)
	num(c, &s.RepVector)
	num(c, &s.BlockSize)
	num(c, &s.ModTime)
	str(c, &s.Owner)
}

func block(c *coder, b *core.Block) {
	num(c, &b.ID)
	num(c, &b.GenStamp)
	num(c, &b.NumBytes)
}

func location(c *coder, l *core.BlockLocation) {
	str(c, &l.Worker)
	str(c, &l.Address)
	str(c, &l.Storage)
	small(c, &l.Tier)
	str(c, &l.Rack)
}

func located(c *coder, lb *core.LocatedBlock) {
	block(c, &lb.Block)
	num(c, &lb.Offset)
	list(c, &lb.Locations, location)
}

// MkdirArgs / MkdirReply implement Master.Mkdir.
type MkdirArgs struct {
	ReqHeader
	Path    string
	Parents bool // create missing parents like mkdir -p
	Owner   string
}
type MkdirReply = Empty

func (a *MkdirArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	flag(c, &a.Parents)
	str(c, &a.Owner)
}

// CreateArgs / CreateReply implement Master.Create (paper Table 1:
// create with a replication vector instead of a replication factor).
type CreateArgs struct {
	ReqHeader
	Path      string
	RepVector core.ReplicationVector
	BlockSize int64
	Overwrite bool
	Owner     string
	// ClientNode is the topology node the writer runs on ("" if
	// off-cluster); the placement policy uses it for collocation.
	ClientNode string
}
type CreateReply = Empty

func (a *CreateArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	num(c, &a.RepVector)
	num(c, &a.BlockSize)
	flag(c, &a.Overwrite)
	str(c, &a.Owner)
	str(c, &a.ClientNode)
}

// AddBlockArgs / AddBlockReply implement Master.AddBlock: allocate the
// next block with replica locations chosen by the placement policy.
type AddBlockArgs struct {
	ReqHeader
	Path       string
	ClientNode string
}
type AddBlockReply struct {
	Located core.LocatedBlock
}

func (a *AddBlockArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	str(c, &a.ClientNode)
}

func (r *AddBlockReply) wire(c *coder) { located(c, &r.Located) }

// CommitBlockArgs / -Reply implement Master.CommitBlock: record the
// final length of a block whose pipeline acknowledged it end to end,
// which confirms the replicas on every pipeline target.
type CommitBlockArgs struct {
	ReqHeader
	Path  string
	Block core.Block
}
type CommitBlockReply = Empty

func (a *CommitBlockArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	block(c, &a.Block)
}

// CompleteArgs / CompleteReply implement Master.Complete: seal a file
// whose blocks are all committed.
type CompleteArgs struct {
	ReqHeader
	Path string
}
type CompleteReply = Empty

func (a *CompleteArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

// AbandonArgs / AbandonReply implement Master.Abandon: drop an
// under-construction file after a failed write.
type AbandonArgs struct {
	ReqHeader
	Path string
}
type AbandonReply = Empty

func (a *AbandonArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

// AbandonBlockArgs / -Reply implement Master.AbandonBlock: drop the
// last, uncommitted block of an under-construction file after a
// failed pipeline write so the client can allocate a replacement.
type AbandonBlockArgs struct {
	ReqHeader
	Path  string
	Block core.Block
}
type AbandonBlockReply = Empty

func (a *AbandonBlockArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	block(c, &a.Block)
}

// GetBlockLocationsArgs / -Reply implement Master.GetBlockLocations
// (paper Table 1: getFileBlockLocations exposing storage tiers).
type GetBlockLocationsArgs struct {
	ReqHeader
	Path       string
	Offset     int64
	Length     int64
	ClientNode string // for locality-aware replica ordering
}
type GetBlockLocationsReply struct {
	FileLength int64
	Blocks     []core.LocatedBlock
}

func (a *GetBlockLocationsArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	num(c, &a.Offset)
	num(c, &a.Length)
	str(c, &a.ClientNode)
}

func (r *GetBlockLocationsReply) wire(c *coder) {
	num(c, &r.FileLength)
	list(c, &r.Blocks, located)
}

// GetFileInfoArgs / -Reply implement Master.GetFileInfo.
type GetFileInfoArgs struct {
	ReqHeader
	Path string
}
type GetFileInfoReply struct {
	Status FileStatus
}

func (a *GetFileInfoArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

func (r *GetFileInfoReply) wire(c *coder) { fileStatus(c, &r.Status) }

// ListArgs / ListReply implement Master.List.
type ListArgs struct {
	ReqHeader
	Path string
}
type ListReply struct {
	Entries []FileStatus
}

func (a *ListArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

func (r *ListReply) wire(c *coder) { list(c, &r.Entries, fileStatus) }

// DeleteArgs / DeleteReply implement Master.Delete.
type DeleteArgs struct {
	ReqHeader
	Path      string
	Recursive bool
}
type DeleteReply = Empty

func (a *DeleteArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	flag(c, &a.Recursive)
}

// RenameArgs / RenameReply implement Master.Rename.
type RenameArgs struct {
	ReqHeader
	Src, Dst string
}
type RenameReply = Empty

func (a *RenameArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Src)
	str(c, &a.Dst)
}

// SetReplicationArgs / -Reply implement Master.SetReplication (paper
// Table 1: setReplication with a replication vector, driving
// move/copy/delete of replicas across tiers).
type SetReplicationArgs struct {
	ReqHeader
	Path      string
	RepVector core.ReplicationVector
}
type SetReplicationReply = Empty

func (a *SetReplicationArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	num(c, &a.RepVector)
}

// TierReportsArgs / -Reply implement Master.GetStorageTierReports
// (paper Table 1).
type TierReportsArgs struct{ ReqHeader }
type TierReportsReply struct {
	Reports []core.StorageTierReport
}

func (a *TierReportsArgs) wire(c *coder) { header(c, &a.ReqHeader) }

func (r *TierReportsReply) wire(c *coder) { list(c, &r.Reports, tierReport) }

func tierReport(c *coder, r *core.StorageTierReport) {
	small(c, &r.Tier)
	num(c, &r.NumMedia)
	num(c, &r.NumWorkers)
	num(c, &r.Capacity)
	num(c, &r.Remaining)
	float(c, &r.WriteThruMBps)
	float(c, &r.ReadThruMBps)
}

// SetQuotaArgs / SetQuotaReply implement Master.SetQuota: per-tier
// byte quotas on a directory (paper §1: quota mechanisms per storage
// media for multi-tenancy).
type SetQuotaArgs struct {
	ReqHeader
	Path  string
	Tier  core.StorageTier // TierUnspecified sets the total-space quota
	Bytes int64            // -1 clears the quota
}
type SetQuotaReply = Empty

func (a *SetQuotaArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
	small(c, &a.Tier)
	num(c, &a.Bytes)
}

// MediaStat is a worker's per-media statistics report, delivered at
// registration and in every heartbeat (paper §3.2).
type MediaStat struct {
	ID          core.StorageID
	Tier        core.StorageTier
	Capacity    int64
	Remaining   int64
	Connections int
	WriteMBps   float64
	ReadMBps    float64
}

func mediaStat(c *coder, m *MediaStat) {
	str(c, &m.ID)
	small(c, &m.Tier)
	num(c, &m.Capacity)
	num(c, &m.Remaining)
	num(c, &m.Connections)
	float(c, &m.WriteMBps)
	float(c, &m.ReadMBps)
}

// RegisterArgs / RegisterReply implement Master.Register.
type RegisterArgs struct {
	ReqHeader
	ID       core.WorkerID
	Node     string
	Rack     string
	DataAddr string // host:port of the worker's data-transfer endpoint
	HTTPAddr string // host:port of the worker's debug HTTP endpoint ("" if disabled)
	NetMBps  float64
	Media    []MediaStat
}
type RegisterReply = Empty

func (a *RegisterArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.ID)
	str(c, &a.Node)
	str(c, &a.Rack)
	str(c, &a.DataAddr)
	str(c, &a.HTTPAddr)
	float(c, &a.NetMBps)
	list(c, &a.Media, mediaStat)
}

// CommandKind discriminates the commands a master piggybacks on
// heartbeat replies (paper §2.2: block creation, deletion, and
// replication upon instructions from the Masters).
type CommandKind int

// Heartbeat command kinds.
const (
	// CmdReplicate instructs the worker to copy a block from Sources
	// onto its media Target.
	CmdReplicate CommandKind = iota + 1

	// CmdDelete instructs the worker to delete its replica of a block
	// from media Target.
	CmdDelete
)

// Command is one instruction to a worker.
type Command struct {
	Kind    CommandKind
	Block   core.Block
	Target  core.StorageID
	Sources []core.BlockLocation
}

func command(c *coder, cmd *Command) {
	num(c, &cmd.Kind)
	block(c, &cmd.Block)
	str(c, &cmd.Target)
	list(c, &cmd.Sources, location)
}

// HeartbeatArgs / HeartbeatReply implement Master.Heartbeat.
type HeartbeatArgs struct {
	ReqHeader
	ID       core.WorkerID
	Media    []MediaStat
	NetConns int
	NetMBps  float64
	HTTPAddr string // worker debug HTTP endpoint; bound after register on the first serve
	// Heat carries the per-block access deltas accumulated on this
	// worker's data path since the previous successful heartbeat
	// (piggybacked so heat costs no extra RPC).
	Heat []heat.Delta
	// Received lists the copies made on master command since the
	// previous successful heartbeat. Pipeline replicas are not listed:
	// the client's CommitBlock confirms those.
	Received []StoredBlock
	// Listing marks a beat that carries the worker's full block
	// listing in Blocks, from which the master detects under- and
	// over-replication (paper §5). The flag is needed because the wire
	// carries an empty listing and none alike.
	Listing bool
	Blocks  []StoredBlock
	// Telemetry ships the transfer records the worker appended since
	// its last successful beat, with their spans.
	Telemetry
}
type HeartbeatReply struct {
	Commands []Command
}

func (a *HeartbeatArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.ID)
	list(c, &a.Media, mediaStat)
	num(c, &a.NetConns)
	float(c, &a.NetMBps)
	str(c, &a.HTTPAddr)
	list(c, &a.Heat, heatDelta)
	list(c, &a.Received, storedBlock)
	flag(c, &a.Listing)
	list(c, &a.Blocks, storedBlock)
	telemetry(c, &a.Telemetry)
}

func (r *HeartbeatReply) wire(c *coder) { list(c, &r.Commands, command) }

func heatDelta(c *coder, d *heat.Delta) {
	num(c, &d.Block)
	num32(c, &d.ReadOps)
	num32(c, &d.WriteOps)
	num(c, &d.ReadBytes)
	num(c, &d.WriteBytes)
}

// StoredBlock locates one replica a worker holds.
type StoredBlock struct {
	Storage core.StorageID
	Block   core.Block
}

func storedBlock(c *coder, s *StoredBlock) {
	str(c, &s.Storage)
	block(c, &s.Block)
}

// ContentSummaryArgs / -Reply implement Master.GetContentSummary:
// recursive usage accounting for a directory subtree, including the
// per-tier byte usage that tier quotas charge against.
type ContentSummaryArgs struct {
	ReqHeader
	Path string
}
type ContentSummary struct {
	Path        string
	Files       int
	Directories int
	Bytes       int64 // logical file bytes
	// TierBytes charges replicas to their pinned tiers; index by
	// core.StorageTier. The last slot accumulates the total across
	// all replicas (the total-space quota's view).
	TierBytes [5]int64
}
type ContentSummaryReply struct {
	Summary ContentSummary
}

func (a *ContentSummaryArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

func (r *ContentSummaryReply) wire(c *coder) {
	s := &r.Summary
	str(c, &s.Path)
	num(c, &s.Files)
	num(c, &s.Directories)
	num(c, &s.Bytes)
	for i := range s.TierBytes {
		num(c, &s.TierBytes[i])
	}
}

// FsckArgs / FsckReply implement Master.Fsck: per-file replication
// health over a subtree.
type FsckArgs struct {
	ReqHeader
	Path string
}

// FsckFile reports one file's replication health.
type FsckFile struct {
	Path              string
	Expected          core.ReplicationVector
	Blocks            int
	HealthyBlocks     int
	MissingReplicas   int // replicas to create across all blocks
	ExcessReplicas    int // replicas to remove across all blocks
	MissingBlocks     int // blocks with zero live replicas (data loss)
	UnderConstruction bool
}

type FsckReply struct {
	Files []FsckFile
}

func (a *FsckArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.Path)
}

func (r *FsckReply) wire(c *coder) { list(c, &r.Files, fsckFile) }

func fsckFile(c *coder, f *FsckFile) {
	str(c, &f.Path)
	num(c, &f.Expected)
	num(c, &f.Blocks)
	num(c, &f.HealthyBlocks)
	num(c, &f.MissingReplicas)
	num(c, &f.ExcessReplicas)
	num(c, &f.MissingBlocks)
	flag(c, &f.UnderConstruction)
}

// WorkerReportsArgs / -Reply implement Master.GetWorkerReports, the
// dfsadmin-report equivalent: per-worker, per-media statistics.
type WorkerReportsArgs struct{ ReqHeader }

// WorkerReport describes one live worker and its media.
type WorkerReport struct {
	ID       core.WorkerID
	Node     string
	Rack     string
	DataAddr string
	HTTPAddr string // debug HTTP endpoint ("" if the worker runs without one)
	NetMBps  float64
	Media    []MediaStat
}

type WorkerReportsReply struct {
	Workers []WorkerReport
	// MasterHTTP is the master's own debug HTTP endpoint ("" if
	// disabled), so admin tools can fan out health checks and read the
	// master's observability endpoints without extra configuration.
	MasterHTTP string
}

func (a *WorkerReportsArgs) wire(c *coder) { header(c, &a.ReqHeader) }

func (r *WorkerReportsReply) wire(c *coder) {
	list(c, &r.Workers, workerReport)
	str(c, &r.MasterHTTP)
}

func workerReport(c *coder, w *WorkerReport) {
	str(c, &w.ID)
	str(c, &w.Node)
	str(c, &w.Rack)
	str(c, &w.DataAddr)
	str(c, &w.HTTPAddr)
	float(c, &w.NetMBps)
	list(c, &w.Media, mediaStat)
}

// Telemetry is what a daemon recorded locally and pushes to the
// master: spans and transfer records. Clients send it in Master.Report
// when an operation finishes and workers in every heartbeat, so the
// master holds the whole cluster's telemetry in its own stores — it is
// the rendezvous point for trace assembly, and what a daemon pushed
// outlives the daemon.
type Telemetry struct {
	Spans     []trace.Span
	Transfers []xfer.Record
}

// telemetry is the one codec of pushed telemetry, shared by Report and
// Heartbeat.
func telemetry(c *coder, t *Telemetry) {
	list(c, &t.Spans, span)
	list(c, &t.Transfers, record)
}

func span(c *coder, s *trace.Span) {
	str(c, &s.TraceID)
	str(c, &s.SpanID)
	str(c, &s.ParentID)
	str(c, &s.Service)
	str(c, &s.Op)
	num(c, &s.Start)
	num(c, &s.End)
	str(c, &s.Error)
	attrs(c, &s.Attrs)
}

// attrs carries a span's annotations in key order; decoding refuses
// keys out of order or repeated, so a body has one encoding.
func attrs(c *coder, m *map[string]string) {
	if !c.dec {
		var stack [8]string
		keys := stack[:0]
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.length(len(keys))
		for _, k := range keys {
			v := (*m)[k]
			str(c, &k)
			str(c, &v)
		}
		return
	}
	// A pair takes at least its two length prefixes.
	n := c.length(0)
	if n*8 > len(c.buf) {
		c.bad = true
	}
	if c.bad || n == 0 {
		return
	}
	*m = make(map[string]string, n)
	var prev string
	for i := 0; i < n && !c.bad; i++ {
		var k, v string
		str(c, &k)
		str(c, &v)
		c.bad = c.bad || i > 0 && k <= prev
		(*m)[k], prev = v, k
	}
}

func record(c *coder, r *xfer.Record) {
	num(c, &r.Seq)
	num(c, &r.Time)
	str(c, &r.Op)
	str(c, &r.Source)
	num(c, &r.Block)
	str(c, &r.Tier)
	str(c, &r.Peer)
	str(c, &r.TraceID)
	str(c, &r.SpanID)
	str(c, &r.Result)
	num(c, &r.Bytes)
	num(c, &r.DialNs)
	num(c, &r.HeaderEncodeNs)
	num(c, &r.HeaderDecodeNs)
	num(c, &r.ThrottleWaitNs)
	num(c, &r.DiskNs)
	num(c, &r.NetNs)
	num(c, &r.ForwardNs)
	num(c, &r.AckWaitNs)
	num(c, &r.StallNs)
	num(c, &r.TotalNs)
	num(c, &r.AllocBytes)
	flag(c, &r.PoolHit)
}

// ReportArgs / ReportReply implement Master.Report, a client's push
// of its telemetry.
type ReportArgs struct {
	ReqHeader
	Telemetry
}
type ReportReply = Empty

func (a *ReportArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	telemetry(c, &a.Telemetry)
}

// ReportBadBlockArgs / -Reply implement Master.ReportBadBlock, a
// reader's report of a corrupt replica.
type ReportBadBlockArgs struct {
	ReqHeader
	Block   core.Block
	Storage core.StorageID
	Worker  core.WorkerID
}
type ReportBadBlockReply = Empty

func (a *ReportBadBlockArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	block(c, &a.Block)
	str(c, &a.Storage)
	str(c, &a.Worker)
}

// ImageArgs / ImageReply implement Master.GetImage, the Backup
// Master's pull of a serialised namespace checkpoint (paper §2.1).
type ImageArgs struct{ ReqHeader }
type ImageReply struct {
	Image []byte
}

func (a *ImageArgs) wire(c *coder) { header(c, &a.ReqHeader) }

func (r *ImageReply) wire(c *coder) { blob(c, &r.Image) }

// WorkerSample is one worker's point-in-time telemetry inside a
// ClusterSample: capacity, usage, and throughput aggregated over the
// worker's media, as last reported by heartbeat.
type WorkerSample struct {
	ID        core.WorkerID
	Capacity  int64
	Used      int64
	NetConns  int
	NetMBps   float64
	WriteMBps float64 // sum over media
	ReadMBps  float64 // sum over media
}

// ClusterSample is one row of the master's telemetry history ring:
// cluster-wide per-tier usage plus per-worker aggregates at TimeNs.
type ClusterSample struct {
	TimeNs  int64
	Workers []WorkerSample
	Tiers   []core.StorageTierReport
	Files   int
	Blocks  int
	Heat    HeatAggregate
}

// CandidateScore mirrors policy.CandidateScore on the wire: one
// candidate media's four-objective vector and scalarised score from a
// placement decision.
type CandidateScore struct {
	Worker     core.WorkerID
	Storage    core.StorageID
	Node       string
	Rack       string
	Tier       core.StorageTier
	Score      float64
	Objectives [4]float64
	Chosen     bool
}

// ReplicaExplanation explains where one replica of a block went and
// why: the requested tier entry, the ideal vector, and the scored
// candidates with the winner first.
type ReplicaExplanation struct {
	Entry      core.StorageTier
	Ideal      [4]float64
	Candidates []CandidateScore
	Considered int
}

// BlockExplanation is one block's placement record. Origin is ""
// for the initial write placement; the background tier mover
// overwrites the record with Origin "promote" or "demote" and the
// block's decayed heat at decision time, so explain shows why the
// block last moved.
type BlockExplanation struct {
	Block    core.BlockID
	TimeNs   int64
	TraceID  string
	Origin   string
	Heat     float64
	Replicas []ReplicaExplanation
}

// ExplainReply is the placement explanation document of one file,
// served at /debug/explain: the retained decisions for its blocks.
type ExplainReply struct {
	Path       string
	Objectives [4]string // objective display names, vector order
	Blocks     []BlockExplanation
}

// DecommissionArgs / -Reply implement Master.Decommission: remove a
// worker from service deliberately. Its replicas become
// under-replicated and the monitor re-replicates them, exactly as on
// heartbeat expiry, but the event journal records the removal as
// operator-initiated and the worker may not re-register.
type DecommissionArgs struct {
	ReqHeader
	ID core.WorkerID
}
type DecommissionReply = Empty

func (a *DecommissionArgs) wire(c *coder) {
	header(c, &a.ReqHeader)
	str(c, &a.ID)
}

// HeatScore mirrors heat.Score on the wire: decayed operations and
// bytes for one access direction.
type HeatScore struct {
	Ops   float64
	Bytes float64
}

// FileHeat is one file's decayed access statistics.
type FileHeat struct {
	Path   string
	Read   HeatScore
	Write  HeatScore
	Heat   float64 // Read.Ops + Write.Ops, the ranking scalar
	LastNs int64
}

// BlockHeat is one block's decayed access statistics plus where its
// replicas currently live.
type BlockHeat struct {
	Block  core.BlockID
	Path   string // owning file, "" if the index has no mapping
	Read   HeatScore
	Write  HeatScore
	Heat   float64
	Tiers  [core.NumTiers]int // replica count per storage tier
	LastNs int64
}

// Misplacement kinds reported by the tier-fitness scan.
const (
	MisplacedHotOnCold     = "hot_on_cold"     // hot block, replicas only on HDD/REMOTE
	MisplacedColdOnPremium = "cold_on_premium" // cold block squatting on MEMORY/SSD
)

// MisplacedBlock is one tier-fitness finding: a block whose replica
// tier vector does not match its heat, annotated with the placement
// decision that put it there (via the retained explain records).
type MisplacedBlock struct {
	Block        core.BlockID
	Path         string
	Kind         string  // MisplacedHotOnCold or MisplacedColdOnPremium
	Heat         float64 // decayed ops at report time
	Misplacement float64 // 0..1, how far the best replica is from a fitting tier
	Score        float64 // ranking key: heat × misplacement (hot), misplacement (cold)
	Tiers        [core.NumTiers]int
	BestTier     core.StorageTier // highest (most premium) tier holding a replica
	// Originating placement decision, zero-valued when the decision
	// has aged out of the explain ring.
	DecisionTraceID string
	DecisionTimeNs  int64
}

// HeatAggregate summarises the cluster heat map for telemetry
// samples: totals, the hottest single block, per-tier heat (each
// block's heat split evenly across its replicas' tiers), and the
// current misplacement counts.
type HeatAggregate struct {
	TrackedBlocks int
	TrackedFiles  int
	TotalHeat     float64
	MaxHeat       float64
	TierHeat      [core.NumTiers]float64
	MisplacedHot  int
	MisplacedCold int
}

// HeatReport is the full heat observability document, also served at
// /debug/heat.
type HeatReport struct {
	TimeNs     int64
	HalfLifeNs int64
	Aggregate  HeatAggregate
	Files      []FileHeat
	Blocks     []BlockHeat
	Misplaced  []MisplacedBlock
}

// Move kinds and outcomes reported by the background tier mover.
const (
	MovePromote = "promote" // hot block copied up to MEMORY/SSD
	MoveDemote  = "demote"  // cold block copied down to HDD/REMOTE

	MoveInFlight = "in_flight" // replicate scheduled, awaiting confirmation
	MoveDone     = "moved"     // new replica confirmed, source retired
	MoveExpired  = "expired"   // replicate never confirmed before the deadline
)

// MoveRecord is one tier move, in flight or finished: which replica
// was (or is being) copied where, the block's heat and tier vector
// before and after, and the journal/explain trace it was recorded
// under.
type MoveRecord struct {
	Block       core.BlockID
	Path        string
	Kind        string // MovePromote or MoveDemote
	Heat        float64
	Bytes       int64
	FromTier    core.StorageTier
	FromStorage core.StorageID
	FromWorker  core.WorkerID
	ToTier      core.StorageTier
	ToStorage   core.StorageID
	ToWorker    core.WorkerID
	BeforeTiers [core.NumTiers]int
	AfterTiers  [core.NumTiers]int
	StartedNs   int64
	FinishedNs  int64 // zero while in flight
	Outcome     string
	TraceID     string
}

// MoverCounters accumulates what the mover did and why it held back.
type MoverCounters struct {
	Promoted           int64 // completed promotions
	Demoted            int64 // completed demotions
	Scheduled          int64 // moves started
	Expired            int64 // moves abandoned after the confirm deadline
	SkippedCooldown    int64 // finding ignored: block in post-move cooldown
	SkippedConcurrency int64 // finding ignored: max concurrent moves reached
	SkippedBudget      int64 // finding ignored: bytes/sec budget exhausted
	SkippedNoTarget    int64 // finding ignored: policy had no feasible target
	SkippedUnhealthy   int64 // finding ignored: block not in a steady healthy state
	MovedBytes         int64 // bytes of completed moves
}

// MoverStatus is the mover observability document, also served at
// /debug/mover.
type MoverStatus struct {
	Enabled       bool
	IntervalNs    int64
	MaxConcurrent int
	BytesPerSec   int64
	CooldownNs    int64
	InFlight      []MoveRecord
	Recent        []MoveRecord // newest first, bounded ring
	Counters      MoverCounters
}
