package client

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Writer streams file content into OctopusFS (paper §3.1): for every
// block it asks the master for placement targets, organises the
// Worker-to-Worker pipeline, and streams checksummed windows into it.
//
// With a write window of W > 0 the data path is overlapped: when a
// block fills, its write stream is flushed and the pipeline
// acknowledgement is collected on a background goroutine while the
// next block is allocated (Master.AddBlock) and streamed, so Write
// runs at media speed instead of stalling one round trip per block.
// Up to W flushed blocks may have outstanding acks; each is committed
// (Master.CommitBlock) as its ack arrives, in file order. Every
// not-yet-acknowledged block's bytes stay buffered so a broken
// pipeline can be replayed onto freshly allocated replicas.
type Writer struct {
	fs        *FileSystem
	path      string
	blockSize int64
	reqID     string // correlates all of this write's RPCs and transfers
	window    int    // max flushed blocks with outstanding acks (0 = synchronous)

	cur     *inflightBlock   // block currently accepting bytes
	pending []*inflightBlock // flushed blocks awaiting ack + commit, oldest first
	written int64
	err     error
	closed  bool

	span     *trace.ActiveSpan // root "client.write" span for the whole file
	reported bool              // client spans already queued for the master
}

// inflightBlock is one allocated block with an open or flushed
// pipeline stream. buf retains the block's bytes until the pipeline
// acknowledgement arrives, so any failure can be replayed; it is a
// pooled buffer, handed to the block's replay on failure and returned
// to the pool once the block is acknowledged or given up.
type inflightBlock struct {
	w       *Writer
	block   core.Block
	targets []core.WorkerID
	bw      *rpc.BlockWriter
	buf     []byte
	n       int64
	retries int               // retry budget consumed by this block's bytes
	ack     chan error        // buffered; receives the WaitAck result
	span    *trace.ActiveSpan // "client.block": pipeline open through commit or abandonment

	start    time.Time // pipeline open start, the flight record's epoch
	recorded bool      // flight-recorder entry already appended
}

// replayBuf returns an empty replay buffer for one block: a pooled one
// of the full block size, or nil (grown by append) for a block size
// past the pool's largest buffer.
func (w *Writer) replayBuf() []byte {
	if w.blockSize > bufpool.MaxSize {
		return nil
	}
	buf, _ := bufpool.Get(int(w.blockSize))
	return buf[:0]
}

// releaseBuf returns the block's replay buffer to the pool. Nothing
// reads it after the ack or after bw.Abort.
func (ib *inflightBlock) releaseBuf() {
	bufpool.Put(ib.buf)
	ib.buf = nil
}

// endSpan closes the block's span with its final byte count and
// appends the block's flight-recorder entry. End is idempotent, so
// recovery paths may race Close harmlessly.
func (ib *inflightBlock) endSpan(err error) {
	ib.span.AnnotateInt("bytes", ib.n)
	ib.span.SetError(err)
	ib.span.End()
	ib.record(err)
}

// record appends the block's transfer record, once: dial and header
// encode from the pipeline open, socket time from the write stream,
// and the ack wait (zero when the block was aborted before its ack).
func (ib *inflightBlock) record(err error) {
	if ib.w == nil || ib.recorded {
		return
	}
	ib.recorded = true
	dial, enc, net, ack := ib.bw.Phases()
	rec := xfer.Record{
		Op:             "write",
		Source:         "client",
		Block:          uint64(ib.block.ID),
		Peer:           ib.bw.Peer(),
		TraceID:        ib.w.reqID,
		SpanID:         ib.span.ID(),
		Bytes:          ib.n,
		DialNs:         dial,
		HeaderEncodeNs: enc,
		NetNs:          net,
		AckWaitNs:      ack,
		AllocBytes:     ib.bw.AllocBytes(),
		PoolHit:        ib.bw.PoolHit(),
		TotalNs:        time.Since(ib.start).Nanoseconds(),
		Result:         "ok",
	}
	if err != nil {
		rec.Result = err.Error()
	}
	ib.w.fs.xfers.Append(rec)
}

// maxBlockRetries bounds how many times one block's bytes are retried
// on a fresh pipeline after a write failure (HDFS-style pipeline
// recovery, simplified to block granularity: the failed block is
// abandoned and re-allocated, letting the placement policy route
// around the dead stage once the master notices it).
const maxBlockRetries = 3

// Write implements io.Writer. The bytes of every block that has not
// yet been acknowledged are buffered so a broken pipeline can be
// retried transparently on fresh replica locations.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, core.ErrFileClosed
	}
	total := 0
	for len(p) > 0 {
		if w.cur == nil {
			ib, err := w.allocBlock()
			if err == nil {
				ib.buf = w.replayBuf()
			} else if ib, err = w.redo(nil, 0, err); err != nil {
				w.fail(err)
				return total, w.err
			}
			w.cur = ib
		}
		chunk := p
		if room := w.blockSize - w.cur.n; int64(len(chunk)) > room {
			chunk = chunk[:room]
		}
		// The bytes go to the pipeline from the replay buffer, so the
		// client copies each of them once.
		old := len(w.cur.buf)
		w.cur.buf = append(w.cur.buf, chunk...)
		n, err := w.cur.bw.Write(w.cur.buf[old:])
		w.cur.buf = w.cur.buf[:old+n]
		w.cur.n += int64(n)
		// Accepted bytes are counted exactly once, here: retry replays
		// never re-add to written or the write-bytes counter.
		w.written += int64(n)
		w.fs.metrics.writeBytes.Add(float64(n))
		total += n
		p = p[n:]
		if err != nil {
			if rerr := w.recoverCur(fmt.Errorf("client: block stream: %w", err)); rerr != nil {
				w.fail(rerr)
				return total, w.err
			}
			continue
		}
		if w.cur.n == w.blockSize {
			if err := w.finishCur(); err != nil {
				w.fail(err)
				return total, w.err
			}
		}
	}
	return total, nil
}

// allocBlock asks the master for the next block and opens its write
// pipeline. A dial failure abandons the fresh allocation — and only
// it, so a previously committed block can never be dropped by a
// failed allocation — before surfacing the error.
func (w *Writer) allocBlock() (*inflightBlock, error) {
	var reply rpc.AddBlockReply
	err := w.fs.callTraced(w.span, w.reqID, "Master.AddBlock", &rpc.AddBlockArgs{
		Path:       w.path,
		ClientNode: w.fs.node,
	}, &reply)
	if err != nil {
		return nil, err
	}
	located := reply.Located
	pipeline := make([]rpc.PipelineTarget, len(located.Locations))
	targets := make([]core.WorkerID, len(located.Locations))
	for i, loc := range located.Locations {
		pipeline[i] = rpc.PipelineTarget{
			Worker:  loc.Worker,
			Address: loc.Address,
			Storage: loc.Storage,
		}
		targets[i] = loc.Worker
	}
	// Declare the full block size up front: workers use it both as a
	// capacity reservation and as a buffer-sizing hint; the committed
	// length is reported separately when the block finishes.
	hdrBlock := located.Block
	hdrBlock.NumBytes = w.blockSize
	// The block span's ID rides the transfer header, so the head
	// worker's "worker.write" span becomes its child.
	bsp := w.fs.tracer.Start(w.reqID, w.span.ID(), "client.block")
	bsp.AnnotateInt("block", int64(located.Block.ID)).AnnotateInt("pipeline", int64(len(pipeline)))
	start := time.Now()
	bw, err := rpc.OpenBlockWriterSpan(hdrBlock, pipeline, w.fs.owner, w.reqID, bsp.ID())
	if err != nil {
		bsp.SetError(err)
		bsp.End()
		w.abandonBlock(located.Block)
		return nil, err
	}
	return &inflightBlock{w: w, block: located.Block, targets: targets, bw: bw, ack: make(chan error, 1), span: bsp, start: start}, nil
}

// abandonBlock drops a failed block server-side; errors are ignored
// (the file may already be gone) so the original cause surfaces.
func (w *Writer) abandonBlock(b core.Block) {
	w.fs.callTraced(w.span, w.reqID, "Master.AbandonBlock", &rpc.AbandonBlockArgs{
		Path: w.path, Block: b,
	}, &rpc.AbandonBlockReply{})
}

// redo allocates a fresh block and replays buf into its pipeline,
// leaving the stream open. The new block takes buf over (a fresh
// replay buffer when buf is nil); on failure it goes back to the pool.
// retries is the budget already consumed by these bytes; each attempt
// here consumes more, bounded by maxBlockRetries.
func (w *Writer) redo(buf []byte, retries int, cause error) (*inflightBlock, error) {
	if buf == nil {
		buf = w.replayBuf()
	}
	for {
		if retries >= maxBlockRetries {
			bufpool.Put(buf)
			return nil, fmt.Errorf("client: block failed after %d retries: %w", retries, cause)
		}
		retries++
		w.fs.metrics.retries.Inc()
		ib, err := w.allocBlock()
		if err != nil {
			cause = fmt.Errorf("client: re-allocating failed block: %w (after %w)", err, cause)
			continue
		}
		ib.retries = retries
		if len(buf) > 0 {
			if _, err := ib.bw.Write(buf); err != nil {
				ib.bw.Abort()
				w.abandonBlock(ib.block)
				cause = fmt.Errorf("client: replaying block: %w", err)
				continue
			}
		}
		ib.buf = buf
		ib.n = int64(len(buf))
		return ib, nil
	}
}

// recoverCur abandons the current block and replays its buffered
// bytes through a freshly allocated one, leaving the stream open.
// Flushed blocks are unaffected: their pipelines are independent.
func (w *Writer) recoverCur(cause error) error {
	ib := w.cur
	w.cur = nil
	ib.bw.Abort()
	ib.endSpan(cause)
	w.abandonBlock(ib.block)
	nc, err := w.redo(ib.buf, ib.retries, cause) // hands ib.buf over
	if err != nil {
		return err
	}
	w.cur = nc
	return nil
}

// finishCur flushes the current block's write stream, hands the
// acknowledgement wait to a background goroutine, and enforces the
// write window.
func (w *Writer) finishCur() error {
	for {
		ib := w.cur
		if err := ib.bw.CloseStream(); err != nil {
			if rerr := w.recoverCur(fmt.Errorf("client: flushing block %s: %w", ib.block.ID, err)); rerr != nil {
				return rerr
			}
			continue
		}
		// The ack-wait span makes write-window overlap visible: under a
		// window it runs concurrently with the next block's streaming.
		asp := w.fs.tracer.Start(w.reqID, ib.span.ID(), "client.ack_wait")
		go func(ib *inflightBlock, asp *trace.ActiveSpan) {
			err := ib.bw.WaitAck()
			asp.SetError(err)
			asp.End()
			ib.ack <- err
		}(ib, asp)
		w.pending = append(w.pending, ib)
		w.cur = nil
		return w.reap(false)
	}
}

// reap commits flushed blocks whose acks have arrived, oldest first.
// When the window is full (or force is set) it blocks on the oldest
// outstanding ack; otherwise it returns as soon as an ack is still in
// flight.
func (w *Writer) reap(force bool) error {
	for len(w.pending) > 0 {
		oldest := w.pending[0]
		var ackErr error
		select {
		case ackErr = <-oldest.ack:
		default:
			if !force {
				if len(w.pending) <= w.window {
					return nil
				}
				// Write is about to block on a pipeline ack: the
				// window, not the media, is the bottleneck.
				w.fs.metrics.writeStalls.Inc()
			}
			ackErr = <-oldest.ack
		}
		if ackErr != nil {
			if err := w.recoverPending(fmt.Errorf("client: pipeline ack for %s: %w", oldest.block.ID, ackErr)); err != nil {
				return err
			}
			continue
		}
		oldest.endSpan(nil)
		oldest.releaseBuf()
		done := oldest.block
		done.NumBytes = oldest.n
		if err := w.commitBlock(done); err != nil {
			return err
		}
		w.pending = w.pending[1:]
	}
	return nil
}

// recoverPending rebuilds the write after the oldest flushed block's
// ack failed. The namespace only abandons its last block, so every
// block allocated after the failed one — later flushed blocks and the
// in-progress current block — is abandoned newest-first, then each is
// replayed in file order onto fresh pipelines: flushed blocks
// synchronously (flush, ack, commit), the current block left open.
func (w *Writer) recoverPending(cause error) error {
	var curBuf []byte
	curRetries := 0
	hadCur := false
	if w.cur != nil {
		hadCur = true
		curBuf, curRetries = w.cur.buf, w.cur.retries
		w.cur.bw.Abort()
		w.cur.endSpan(cause)
		w.abandonBlock(w.cur.block)
		w.cur = nil
	}
	failed := w.pending
	w.pending = nil
	for j := len(failed) - 1; j >= 0; j-- {
		failed[j].bw.Abort()
		failed[j].endSpan(cause)
		w.abandonBlock(failed[j].block)
	}
	for _, ib := range failed {
		nc, err := w.redo(ib.buf, ib.retries, cause)
		if err != nil {
			return err
		}
		if err := w.commitSync(nc); err != nil {
			return err
		}
	}
	if hadCur {
		nc, err := w.redo(curBuf, curRetries, cause)
		if err != nil {
			return err
		}
		w.cur = nc
	}
	return nil
}

// commitSync finishes one replayed block end to end: flush, wait for
// the ack, and commit, retrying on yet another fresh pipeline if the
// replay itself fails.
func (w *Writer) commitSync(ib *inflightBlock) error {
	for {
		err := ib.bw.CloseStream()
		if err == nil {
			err = ib.bw.WaitAck()
		}
		if err != nil {
			ib.bw.Abort()
			ib.endSpan(err)
			w.abandonBlock(ib.block)
			nc, rerr := w.redo(ib.buf, ib.retries, err)
			if rerr != nil {
				return rerr
			}
			ib = nc
			continue
		}
		ib.endSpan(nil)
		ib.releaseBuf()
		done := ib.block
		done.NumBytes = ib.n
		return w.commitBlock(done)
	}
}

// commitBlock records a finished block's final length at the master.
func (w *Writer) commitBlock(b core.Block) error {
	err := w.fs.callTraced(w.span, w.reqID, "Master.CommitBlock", &rpc.CommitBlockArgs{
		Path: w.path, Block: b,
	}, &rpc.CommitBlockReply{})
	if err != nil {
		return fmt.Errorf("client: committing block %s: %w", b.ID, err)
	}
	return nil
}

// fail records the first error and abandons the file so the namespace
// does not accumulate half-written files.
func (w *Writer) fail(err error) {
	if w.err != nil {
		return
	}
	w.err = err
	if w.cur != nil {
		w.cur.bw.Abort()
		w.cur.endSpan(err)
		w.cur.releaseBuf()
		w.cur = nil
	}
	for _, ib := range w.pending {
		ib.bw.Abort()
		ib.endSpan(err)
		ib.releaseBuf()
	}
	w.pending = nil
	w.fs.abandon(w.reqID, w.path)
	w.finishTrace(err)
}

// finishTrace ends the write's root span and queues the client's spans
// for the next shipment to the master, exactly once per Writer.
func (w *Writer) finishTrace(err error) {
	if w.reported {
		return
	}
	w.reported = true
	w.span.AnnotateInt("bytes", w.written)
	w.span.SetError(err)
	w.span.End()
	w.fs.report(w.reqID)
}

// ReqID returns the request ID correlating all of this write's RPCs,
// transfers, and trace spans (it doubles as the trace ID).
func (w *Writer) ReqID() string { return w.reqID }

// CurrentTargets returns the worker pipeline of the block currently
// being streamed (nil between blocks); tests and tooling use it to
// identify the replica set an in-flight write depends on.
func (w *Writer) CurrentTargets() []core.WorkerID {
	if w.cur == nil {
		return nil
	}
	return append([]core.WorkerID(nil), w.cur.targets...)
}

// Close flushes the final block, waits out every outstanding ack, and
// seals the file.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cur != nil {
		if err := w.finishCur(); err != nil {
			w.fail(err)
			return w.err
		}
	}
	if err := w.reap(true); err != nil {
		w.fail(err)
		return w.err
	}
	// Every block was committed individually as its ack arrived, so
	// Complete only seals the file.
	err := w.fs.callTraced(w.span, w.reqID, "Master.Complete", &rpc.CompleteArgs{
		Path: w.path,
	}, &rpc.CompleteReply{})
	if err != nil {
		w.err = err
		w.finishTrace(err)
		return err
	}
	w.finishTrace(nil)
	return nil
}

// Abort abandons the file, discarding everything written.
func (w *Writer) Abort() error {
	if w.closed {
		return core.ErrFileClosed
	}
	w.closed = true
	if w.cur != nil {
		w.cur.bw.Abort()
		w.cur.endSpan(core.ErrFileClosed)
		w.cur.releaseBuf()
		w.cur = nil
	}
	for _, ib := range w.pending {
		ib.bw.Abort()
		ib.endSpan(core.ErrFileClosed)
		ib.releaseBuf()
	}
	w.pending = nil
	if w.err != nil {
		return nil // fail() already abandoned the file and reported spans
	}
	w.span.Annotate("aborted", "true")
	err := w.fs.abandon(w.reqID, w.path)
	w.finishTrace(err)
	return err
}

var _ io.WriteCloser = (*Writer)(nil)
