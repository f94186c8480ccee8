package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Reader streams a file out of OctopusFS (paper §4.1): for each block
// it contacts replica locations in the order chosen by the master's
// retrieval policy, failing over to the next location on error and
// reporting corrupt replicas back to the master.
//
// A replica that dies mid-stream is handled the same way: the stream
// is resumed at the current position from the next location, with the
// dead replica excluded so it is not immediately re-picked.
//
// With readahead K > 0 the reader keeps replica streams for the next
// K blocks opening on background goroutines while the current block
// is consumed, hiding the per-block dial + handshake round trip.
// Prefetched streams are delivered strictly in order; Seek and Close
// cancel the window.
type Reader struct {
	fs        *FileSystem
	path      string
	length    int64
	blocks    []core.LocatedBlock
	reqID     string // correlates all of this read's RPCs and transfers
	readahead int

	pos    int64
	cur    io.ReadCloser
	curEnd int64 // absolute file offset where the current stream ends
	curLoc core.BlockLocation
	closed bool

	// exclude lists replica locations of block excludeIdx that failed
	// mid-stream or at open, so failover never re-picks them, and
	// streamErr keeps the last mid-stream failure: when every replica
	// is excluded it is the block's error. Both reset when the reader
	// moves to another block.
	exclude    map[core.StorageID]bool
	excludeIdx int
	streamErr  error

	window []*prefetchedStream // pending prefetches, ascending block index

	span     *trace.ActiveSpan // root "client.open" span for the whole read
	curSpan  *trace.ActiveSpan // "client.read_block" span of the current stream
	curStart int64             // r.pos when the current block span began

	curRec      *xfer.Record // flight-recorder entry of the current stream
	curRecStart time.Time
}

// endBlockSpan closes the current block's read span, annotated with
// the bytes the consumer actually drained from it, and completes the
// stream's flight-recorder entry.
func (r *Reader) endBlockSpan(err error) {
	if r.curRec != nil {
		rec := *r.curRec
		r.curRec = nil
		rec.Bytes = r.pos - r.curStart
		rec.TotalNs = time.Since(r.curRecStart).Nanoseconds()
		rec.Result = "ok"
		if err != nil {
			rec.Result = err.Error()
		}
		r.fs.xfers.Append(rec)
	}
	if r.curSpan == nil {
		return
	}
	r.curSpan.AnnotateInt("bytes", r.pos-r.curStart)
	r.curSpan.SetError(err)
	r.curSpan.End()
	r.curSpan = nil
}

// Length returns the file's total length at open time.
func (r *Reader) Length() int64 { return r.length }

// CurrentLocation reports the replica location the reader is
// currently streaming from; ok is false between blocks. Tests and
// tooling use it to identify the worker an in-flight read depends on.
func (r *Reader) CurrentLocation() (loc core.BlockLocation, ok bool) {
	if r.cur == nil {
		return core.BlockLocation{}, false
	}
	return r.curLoc, true
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, core.ErrFileClosed
	}
	for {
		if r.pos >= r.length {
			return 0, io.EOF
		}
		if r.cur == nil {
			if err := r.openAt(r.pos); err != nil {
				return 0, err
			}
		}
		n, err := r.cur.Read(p)
		r.pos += int64(n)
		if err == io.EOF && r.pos >= r.curEnd {
			r.cur.Close()
			r.cur = nil
			r.endBlockSpan(nil)
			if n > 0 {
				return n, nil
			}
			continue // move on to the next block
		}
		if err != nil {
			// The replica died mid-stream (connection error, short
			// stream, or checksum failure): exclude it and resume at
			// the current position from another location.
			r.cur.Close()
			r.cur = nil
			r.endBlockSpan(err)
			r.markBad(r.curLoc)
			r.streamErr = err
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, nil
	}
}

// markBad records the location of a stream that failed mid-block so
// the retry skips it.
func (r *Reader) markBad(loc core.BlockLocation) {
	if r.exclude == nil {
		r.exclude = make(map[core.StorageID]bool)
	}
	r.exclude[loc.Storage] = true
}

// openAt connects to a replica of the block containing offset, taking
// a prefetched stream when one is ready and dialling replicas in
// retrieval-policy order otherwise.
func (r *Reader) openAt(offset int64) error {
	blk, idx := r.blockAt(offset)
	if blk == nil {
		return fmt.Errorf("client: no block at offset %d of %s: %w", offset, r.path, core.ErrNotFound)
	}
	if idx != r.excludeIdx {
		r.excludeIdx = idx
		r.exclude = nil
		r.streamErr = nil
	}
	if r.readahead > 0 {
		r.pruneWindow(idx)
		if entry := r.takeWindow(idx); entry != nil {
			awaitStart := time.Now()
			rc, loc, err := entry.await()
			stallNs := time.Since(awaitStart).Nanoseconds()
			// A prefetched stream always starts at the block head; it
			// is only adoptable when the consumed position is there
			// too and the replica has not failed since.
			if err == nil && offset == blk.Offset && !r.exclude[loc.Storage] {
				// The open already happened under a "client.prefetch"
				// span; this span times draining the adopted stream.
				r.curSpan = r.fs.tracer.Start(r.reqID, r.span.ID(), "client.read_block")
				r.curSpan.AnnotateInt("block", int64(blk.Block.ID)).Annotate("prefetched", "true")
				r.curStart = r.pos
				// The record covers the consumer's critical path only:
				// the stall waiting for the background open, then the
				// drain. The hidden dial + handshake cost is on the
				// prefetch span and the worker-side record.
				r.curRec = &xfer.Record{
					Op:      "read",
					Source:  "client",
					Block:   uint64(blk.Block.ID),
					Tier:    loc.Tier.String(),
					Peer:    loc.Address,
					TraceID: r.reqID,
					SpanID:  r.curSpan.ID(),
					StallNs: stallNs,
				}
				r.curRecStart = awaitStart
				if ab, ok := rc.(interface{ AllocBytes() int64 }); ok {
					r.curRec.AllocBytes = ab.AllocBytes()
				}
				if ph, ok := rc.(interface{ PoolHit() bool }); ok {
					r.curRec.PoolHit = ph.PoolHit()
				}
				if stallNs > 0 {
					r.curSpan.AnnotateInt("stall_ns", stallNs)
				}
				r.adopt(blk, rc, loc)
				r.fillWindow(idx)
				return nil
			}
			if err == nil {
				rc.Close()
			}
		}
		defer r.fillWindow(idx)
	}
	within := offset - blk.Offset
	// One span covers the block read end to end: its ID rides the
	// transfer header so the serving worker's "worker.read" span links
	// under it, failovers included.
	bsp := r.fs.tracer.Start(r.reqID, r.span.ID(), "client.read_block")
	bsp.AnnotateInt("block", int64(blk.Block.ID)).Annotate("prefetched", "false")
	openStart := time.Now()
	var lastErr error
	failedOver := len(r.exclude) > 0
	for _, loc := range blk.Locations {
		if r.exclude[loc.Storage] {
			continue
		}
		// tm holds the winning attempt's open-phase split; failed
		// failover attempts still land in TotalNs via openStart.
		var tm rpc.TransferTiming
		rc, _, err := rpc.OpenBlockReaderTimed(loc.Address, blk.Block, loc.Storage, within, blk.Block.NumBytes-within, r.reqID, bsp.ID(), &tm)
		if err != nil {
			lastErr = err
			failedOver = true
			if errors.Is(err, core.ErrCorrupt) || errors.Is(err, core.ErrNotFound) {
				r.reportBad(blk.Block, loc)
			}
			continue
		}
		if failedOver {
			r.fs.metrics.failovers.Inc()
			bsp.Annotate("failover", "true")
		}
		r.curSpan, r.curStart = bsp, r.pos
		r.curRec = &xfer.Record{
			Op:             "read",
			Source:         "client",
			Block:          uint64(blk.Block.ID),
			Tier:           loc.Tier.String(),
			Peer:           loc.Address,
			TraceID:        r.reqID,
			SpanID:         bsp.ID(),
			DialNs:         tm.DialNs,
			HeaderEncodeNs: tm.HeaderEncodeNs,
			HeaderDecodeNs: tm.HeaderDecodeNs,
			PoolHit:        tm.PoolHit,
		}
		r.curRecStart = openStart
		if ab, ok := rc.(interface{ AllocBytes() int64 }); ok {
			r.curRec.AllocBytes = ab.AllocBytes()
		}
		r.adopt(blk, rc, loc)
		return nil
	}
	if lastErr == nil {
		// Every replica failed mid-stream: a corrupt chunk surfaces
		// there, so the last stream's error (ErrCorrupt) is the answer.
		lastErr = r.streamErr
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: block %s has no live replicas: %w", blk.Block.ID, core.ErrNoWorkers)
	}
	bsp.SetError(lastErr)
	bsp.End()
	return lastErr
}

// adopt installs a replica stream as the current one. The stream's
// flight-recorder entry (r.curRec, when set) receives the socket time
// of every subsequent read.
func (r *Reader) adopt(blk *core.LocatedBlock, rc io.ReadCloser, loc core.BlockLocation) {
	r.cur = &corruptionReportingReader{rc: rc, r: r, block: blk.Block, loc: loc, rec: r.curRec}
	r.curEnd = blk.Offset + blk.Block.NumBytes
	r.curLoc = loc
}

// blockAt finds the located block containing the absolute offset and
// its index.
func (r *Reader) blockAt(offset int64) (*core.LocatedBlock, int) {
	for i := range r.blocks {
		b := &r.blocks[i]
		if offset >= b.Offset && offset < b.Offset+b.Block.NumBytes {
			return b, i
		}
	}
	return nil, -1
}

// reportBad tells the master a replica is corrupt or missing so
// re-replication can repair it (paper §5).
func (r *Reader) reportBad(b core.Block, loc core.BlockLocation) {
	r.fs.metrics.badReports.Inc()
	r.fs.callReq(r.reqID, "Master.ReportBadBlock", &rpc.ReportBadBlockArgs{
		Block: b, Storage: loc.Storage, Worker: loc.Worker,
	}, &rpc.ReportBadBlockReply{})
}

// Seek implements io.Seeker. Seeking cancels the readahead window; it
// refills from the new position on the next Read.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var target int64
	switch whence {
	case io.SeekStart:
		target = offset
	case io.SeekCurrent:
		target = r.pos + offset
	case io.SeekEnd:
		target = r.length + offset
	default:
		return 0, fmt.Errorf("client: invalid whence %d", whence)
	}
	if target < 0 {
		return 0, fmt.Errorf("client: negative seek position %d", target)
	}
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	r.endBlockSpan(nil)
	r.cancelWindow()
	r.pos = target
	return target, nil
}

// Close releases the reader and cancels any prefetched streams.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancelWindow()
	var err error
	if r.cur != nil {
		err = r.cur.Close()
		r.cur = nil
	}
	r.endBlockSpan(nil)
	r.span.End()
	r.fs.report(r.reqID)
	return err
}

// ReqID returns the request ID correlating all of this read's RPCs,
// transfers, and trace spans (it doubles as the trace ID).
func (r *Reader) ReqID() string { return r.reqID }

// prefetchedStream is one background block-open in the readahead
// window. The opening goroutine publishes its result under mu and
// closes done; cancellation closes an already-delivered stream and
// makes a late delivery close itself.
type prefetchedStream struct {
	idx  int
	done chan struct{}

	mu        sync.Mutex
	rc        io.ReadCloser
	loc       core.BlockLocation
	err       error
	cancelled bool
}

// await blocks until the open attempt finished and hands over the
// stream (or error). The caller owns the returned stream.
func (p *prefetchedStream) await() (io.ReadCloser, core.BlockLocation, error) {
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	rc, loc, err := p.rc, p.loc, p.err
	p.rc = nil
	return rc, loc, err
}

// cancel discards the prefetch: a delivered stream is closed now, a
// late one is closed by the opening goroutine.
func (p *prefetchedStream) cancel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cancelled = true
	if p.rc != nil {
		p.rc.Close()
		p.rc = nil
	}
}

// deliver publishes the open result, closing the stream instead if
// the prefetch was cancelled meanwhile.
func (p *prefetchedStream) deliver(rc io.ReadCloser, loc core.BlockLocation, err error) {
	p.mu.Lock()
	if p.cancelled && rc != nil {
		rc.Close()
		rc = nil
	}
	p.rc, p.loc, p.err = rc, loc, err
	p.mu.Unlock()
	close(p.done)
}

// fillWindow ensures prefetches are running for the readahead blocks
// after idx.
func (r *Reader) fillWindow(idx int) {
	if r.readahead <= 0 {
		return
	}
	next := idx + 1
	if len(r.window) > 0 {
		next = r.window[len(r.window)-1].idx + 1
	}
	for ; next <= idx+r.readahead && next < len(r.blocks); next++ {
		entry := &prefetchedStream{idx: next, done: make(chan struct{})}
		r.window = append(r.window, entry)
		go r.prefetch(entry, r.blocks[next])
	}
}

// prefetch opens a replica stream for one upcoming block, trying
// locations in retrieval-policy order, and delivers the result.
func (r *Reader) prefetch(entry *prefetchedStream, blk core.LocatedBlock) {
	// The prefetch span times the background dial + handshake that
	// readahead hides from the consumer; the worker's "worker.read"
	// span for the stream links under it.
	psp := r.fs.tracer.Start(r.reqID, r.span.ID(), "client.prefetch")
	psp.AnnotateInt("block", int64(blk.Block.ID))
	var lastErr error
	for i, loc := range blk.Locations {
		rc, _, err := rpc.OpenBlockReaderSpan(loc.Address, blk.Block, loc.Storage, 0, blk.Block.NumBytes, r.reqID, psp.ID())
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			r.fs.metrics.failovers.Inc()
			psp.Annotate("failover", "true")
		}
		r.fs.metrics.readaheadOpens.Inc()
		psp.End()
		entry.deliver(rc, loc, nil)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: block %s has no live replicas: %w", blk.Block.ID, core.ErrNoWorkers)
	}
	psp.SetError(lastErr)
	psp.End()
	entry.deliver(nil, core.BlockLocation{}, lastErr)
}

// takeWindow pops the window entry for block idx, if it is the head.
func (r *Reader) takeWindow(idx int) *prefetchedStream {
	if len(r.window) == 0 || r.window[0].idx != idx {
		return nil
	}
	entry := r.window[0]
	r.window = r.window[1:]
	return entry
}

// pruneWindow cancels window entries for blocks before idx (stale
// after a seek or a skipped range).
func (r *Reader) pruneWindow(idx int) {
	for len(r.window) > 0 && r.window[0].idx < idx {
		r.window[0].cancel()
		r.window = r.window[1:]
	}
}

// cancelWindow discards the whole readahead window.
func (r *Reader) cancelWindow() {
	for _, entry := range r.window {
		entry.cancel()
	}
	r.window = nil
}

// corruptionReportingReader wraps a block stream, reports checksum
// failures to the master as they surface mid-stream, and attributes
// socket wait to the stream's flight-recorder entry.
type corruptionReportingReader struct {
	rc    io.ReadCloser
	r     *Reader
	block core.Block
	loc   core.BlockLocation
	rec   *xfer.Record
}

func (c *corruptionReportingReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.rc.Read(p)
	if c.rec != nil {
		c.rec.NetNs += time.Since(start).Nanoseconds()
	}
	if n > 0 {
		source := "remote"
		if string(c.loc.Worker) == c.r.fs.node {
			source = "local"
		}
		c.r.fs.metrics.readBytes.With(c.loc.Tier.String(), source).Add(float64(n))
	}
	if err != nil && errors.Is(err, core.ErrCorrupt) {
		c.r.reportBad(c.block, c.loc)
	}
	return n, err
}

func (c *corruptionReportingReader) Close() error { return c.rc.Close() }

var _ io.ReadSeekCloser = (*Reader)(nil)

// ioReadFull is io.ReadFull, indirected for fs.go's ReadFile.
func ioReadFull(r io.Reader, buf []byte) (int, error) { return io.ReadFull(r, buf) }
