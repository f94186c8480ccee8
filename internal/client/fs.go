// Package client implements the OctopusFS Client (paper §2.3): the
// file system API applications use to create, write, read, and manage
// files, including the tiered-storage extensions of paper Table 1 —
// replication vectors on create/setReplication, tier-annotated block
// locations, and per-tier storage reports.
package client

import (
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Option customises a FileSystem handle.
type Option func(*FileSystem)

// WithNode declares the topology node this client runs on, enabling
// locality-aware placement and retrieval. Off-cluster clients omit it.
func WithNode(node string) Option {
	return func(fs *FileSystem) { fs.node = node }
}

// WithOwner sets the owner recorded on created files and directories.
func WithOwner(owner string) Option {
	return func(fs *FileSystem) { fs.owner = owner }
}

// WithLogger directs the client's slow-op log lines to logger.
func WithLogger(logger *slog.Logger) Option {
	return func(fs *FileSystem) { fs.logger = logger }
}

// WithSlowOpThreshold sets the latency above which a master RPC is
// logged as slow with its request ID. Zero logs every RPC; negative
// disables slow-op logging.
func WithSlowOpThreshold(d time.Duration) Option {
	return func(fs *FileSystem) { fs.slowOp = d }
}

// WithReadahead sets the default number of blocks a Reader prefetches
// ahead of the consumed position (0, the default, disables
// readahead). Each prefetched block holds one open replica stream.
func WithReadahead(k int) Option {
	return func(fs *FileSystem) {
		if k < 0 {
			k = 0
		}
		fs.readahead = k
	}
}

// WithWriteWindow sets the default number of flushed blocks whose
// pipeline acks may still be outstanding while a Writer streams later
// blocks (0, the default, waits for every ack synchronously). Each
// outstanding block keeps its bytes buffered for retry, so memory use
// grows by window × block size.
func WithWriteWindow(k int) Option {
	return func(fs *FileSystem) {
		if k < 0 {
			k = 0
		}
		fs.writeWindow = k
	}
}

// FileSystem is a client handle to an OctopusFS master.
type FileSystem struct {
	node        string
	owner       string
	logger      *slog.Logger
	slowOp      time.Duration
	readahead   int
	writeWindow int

	metrics *clientMetrics
	traces  *trace.Store
	tracer  *trace.Tracer
	xfers   *xfer.Log

	shipMu     sync.Mutex
	shipCursor uint64 // flight-recorder seq already shipped to the master

	master *rpc.MasterClient
}

// Dial connects to the master at addr.
func Dial(addr string, opts ...Option) (*FileSystem, error) {
	fs := &FileSystem{owner: "anonymous", master: rpc.NewMasterClient(addr)}
	for _, opt := range opts {
		opt(fs)
	}
	if fs.logger == nil {
		fs.logger = slog.New(slog.DiscardHandler)
	}
	fs.metrics = newClientMetrics(fs.logger, fs.slowOp)
	// The client keeps every span of its own in-flight operations
	// (sample 1): traces are short-lived here and shipped to the master
	// when the operation finishes, so the small store is the only cost.
	fs.traces = trace.NewStore(256, fs.slowOp, 1)
	fs.tracer = trace.NewTracer("client", fs.traces)
	// Client-side transfer records are shipped to the master as
	// operations finish, so the ring only needs to cover in-flight work.
	fs.xfers = xfer.New(1024)
	if err := fs.master.Connect(); err != nil {
		return nil, err
	}
	return fs, nil
}

// call invokes a master RPC under a fresh request ID. Multi-step
// operations (Open/Create flows) use callReq instead so all their RPCs
// and data transfers share one ID.
func (fs *FileSystem) call(method string, args, reply any) error {
	return fs.callReq(rpc.NewRequestID(), method, args, reply)
}

// Close releases the client connection.
func (fs *FileSystem) Close() error { return fs.master.Close() }

// Node returns the client's declared topology node ("" off-cluster).
func (fs *FileSystem) Node() string { return fs.node }

// Mkdir creates a directory; parents=true behaves like mkdir -p.
func (fs *FileSystem) Mkdir(path string, parents bool) error {
	return fs.call("Master.Mkdir", &rpc.MkdirArgs{Path: path, Parents: parents, Owner: fs.owner}, &rpc.MkdirReply{})
}

// CreateOptions tunes file creation.
type CreateOptions struct {
	// RepVector is the per-tier replica request (paper Table 1). The
	// zero value defaults to ⟨0,0,0,0,3⟩, the HDFS-compatible default.
	RepVector core.ReplicationVector

	// BlockSize overrides the cluster default block size.
	BlockSize int64

	// Overwrite replaces an existing file.
	Overwrite bool
}

// Create starts writing a new file and returns a streaming Writer.
// This is the paper's create(Path, ReplicationVector, blockSize) API.
func (fs *FileSystem) Create(path string, opts CreateOptions) (*Writer, error) {
	if opts.RepVector.IsZero() {
		opts.RepVector = core.ReplicationVectorFromFactor(3)
	}
	// One request ID covers the whole write: create, every AddBlock,
	// the pipeline transfers, and Complete share it across logs and
	// trace spans (the request ID doubles as the trace ID).
	reqID := rpc.NewRequestID()
	root := fs.tracer.Start(reqID, "", "client.write")
	root.Annotate("path", path)
	err := fs.callTraced(root, reqID, "Master.Create", &rpc.CreateArgs{
		Path:       path,
		RepVector:  opts.RepVector,
		BlockSize:  opts.BlockSize,
		Overwrite:  opts.Overwrite,
		Owner:      fs.owner,
		ClientNode: fs.node,
	}, &rpc.CreateReply{})
	if err != nil {
		root.SetError(err)
		root.End()
		fs.report(reqID)
		return nil, err
	}
	status, err := fs.Stat(path)
	if err != nil {
		root.SetError(err)
		root.End()
		fs.report(reqID)
		return nil, err
	}
	return &Writer{fs: fs, path: path, blockSize: status.BlockSize, reqID: reqID, window: fs.writeWindow, span: root}, nil
}

// WriteFile writes data as a new file with the given replication
// vector (a convenience wrapper over Create).
func (fs *FileSystem) WriteFile(path string, data []byte, rv core.ReplicationVector) error {
	w, err := fs.Create(path, CreateOptions{RepVector: rv, Overwrite: true})
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Open returns a Reader over an existing file.
func (fs *FileSystem) Open(path string) (*Reader, error) {
	// One request ID covers the whole read: the location lookup and
	// every block transfer share it across master and worker logs and
	// trace spans.
	reqID := rpc.NewRequestID()
	root := fs.tracer.Start(reqID, "", "client.open")
	root.Annotate("path", path)
	var reply rpc.GetBlockLocationsReply
	err := fs.callTraced(root, reqID, "Master.GetBlockLocations", &rpc.GetBlockLocationsArgs{
		Path: path, Offset: 0, Length: -1, ClientNode: fs.node,
	}, &reply)
	if err != nil {
		root.SetError(err)
		root.End()
		fs.report(reqID)
		return nil, err
	}
	return &Reader{fs: fs, path: path, length: reply.FileLength, blocks: reply.Blocks, reqID: reqID, readahead: fs.readahead, span: root}, nil
}

// ReadFile reads a whole file (a convenience wrapper over Open).
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, r.Length())
	if _, err := ioReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Stat returns one path's status.
func (fs *FileSystem) Stat(path string) (rpc.FileStatus, error) {
	var reply rpc.GetFileInfoReply
	err := fs.call("Master.GetFileInfo", &rpc.GetFileInfoArgs{Path: path}, &reply)
	return reply.Status, err
}

// List returns a directory's entries.
func (fs *FileSystem) List(path string) ([]rpc.FileStatus, error) {
	var reply rpc.ListReply
	err := fs.call("Master.List", &rpc.ListArgs{Path: path}, &reply)
	return reply.Entries, err
}

// Delete removes a path.
func (fs *FileSystem) Delete(path string, recursive bool) error {
	return fs.call("Master.Delete", &rpc.DeleteArgs{Path: path, Recursive: recursive}, &rpc.DeleteReply{})
}

// Rename moves a path.
func (fs *FileSystem) Rename(src, dst string) error {
	return fs.call("Master.Rename", &rpc.RenameArgs{Src: src, Dst: dst}, &rpc.RenameReply{})
}

// SetReplication changes a file's replication vector; replica moves,
// copies, and deletions happen asynchronously (paper §2.3, Table 1).
func (fs *FileSystem) SetReplication(path string, rv core.ReplicationVector) error {
	return fs.call("Master.SetReplication", &rpc.SetReplicationArgs{Path: path, RepVector: rv}, &rpc.SetReplicationReply{})
}

// GetFileBlockLocations returns the blocks overlapping [offset,
// offset+length) with tier-annotated replica locations ordered by the
// retrieval policy (paper Table 1). length = -1 means to end of file.
func (fs *FileSystem) GetFileBlockLocations(path string, offset, length int64) ([]core.LocatedBlock, error) {
	var reply rpc.GetBlockLocationsReply
	err := fs.call("Master.GetBlockLocations", &rpc.GetBlockLocationsArgs{
		Path: path, Offset: offset, Length: length, ClientNode: fs.node,
	}, &reply)
	return reply.Blocks, err
}

// GetStorageTierReports returns per-tier capacity and throughput
// aggregates (paper Table 1).
func (fs *FileSystem) GetStorageTierReports() ([]core.StorageTierReport, error) {
	var reply rpc.TierReportsReply
	err := fs.call("Master.GetStorageTierReports", &rpc.TierReportsArgs{}, &reply)
	return reply.Reports, err
}

// SetQuota sets a per-tier byte quota on a directory;
// core.TierUnspecified addresses the total-space quota, bytes <= 0
// clears it.
func (fs *FileSystem) SetQuota(path string, tier core.StorageTier, bytes int64) error {
	return fs.call("Master.SetQuota", &rpc.SetQuotaArgs{Path: path, Tier: tier, Bytes: bytes}, &rpc.SetQuotaReply{})
}

// abandon drops an under-construction file after a failed write.
func (fs *FileSystem) abandon(reqID, path string) error {
	if reqID == "" {
		reqID = rpc.NewRequestID()
	}
	return fs.callReq(reqID, "Master.Abandon", &rpc.AbandonArgs{Path: path}, &rpc.AbandonReply{})
}

// GetContentSummary aggregates a subtree's usage: file and directory
// counts, logical bytes, and per-tier replica bytes.
func (fs *FileSystem) GetContentSummary(path string) (rpc.ContentSummary, error) {
	var reply rpc.ContentSummaryReply
	err := fs.call("Master.GetContentSummary", &rpc.ContentSummaryArgs{Path: path}, &reply)
	return reply.Summary, err
}

// Fsck reports per-file replication health over a subtree.
func (fs *FileSystem) Fsck(path string) ([]rpc.FsckFile, error) {
	var reply rpc.FsckReply
	err := fs.call("Master.Fsck", &rpc.FsckArgs{Path: path}, &reply)
	return reply.Files, err
}

// GetWorkerReports lists every live worker with per-media statistics
// (the dfsadmin -report equivalent).
func (fs *FileSystem) GetWorkerReports() ([]rpc.WorkerReport, error) {
	var reply rpc.WorkerReportsReply
	err := fs.call("Master.GetWorkerReports", &rpc.WorkerReportsArgs{}, &reply)
	return reply.Workers, err
}
