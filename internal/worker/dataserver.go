package worker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/heat"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// serveData accepts and dispatches data-transfer connections.
func (w *Worker) serveData() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.done:
				return
			default:
				w.cfg.Logger.Warn("data accept failed", "err", err)
				continue
			}
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

func (w *Worker) handleConn(conn net.Conn) {
	defer conn.Close()
	w.netConns.Add(1)
	defer w.netConns.Add(-1)
	w.connMu.Lock()
	if w.closed.Load() {
		// Close already swept w.conns; a conn registered now would
		// never be severed and its handler would block Close forever.
		w.connMu.Unlock()
		return
	}
	w.conns[conn] = struct{}{}
	w.connMu.Unlock()
	defer func() {
		w.connMu.Lock()
		delete(w.conns, conn)
		w.connMu.Unlock()
	}()

	// Persistent connections: after a clean exchange (request stream
	// fully consumed, response fully written) the same connection
	// carries the next opcode, so a pooling client dials once per
	// worker instead of once per block. A handler reports whether the
	// exchange left the connection clean; anything ambiguous —
	// truncated stream, failed response write — drops it.
	//
	// The accepted side of the handshake bound: a dialler that never
	// sends its opcode and header must not pin a handler goroutine
	// (and a conns-map slot) forever. Between exchanges the much
	// longer idle timeout applies; the client pool's idle cap is kept
	// below it, so the client side almost always closes first.
	// Handlers lift the deadline once the header frame is in
	// (endHandshake), after which the packet stream governs its own
	// pacing.
	for first := true; ; first = false {
		wait := dataIdleTimeout
		if first {
			wait = rpc.HandshakeTimeout()
		}
		if wait > 0 {
			conn.SetReadDeadline(time.Now().Add(wait))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		var op [1]byte
		if _, err := io.ReadFull(conn, op[:]); err != nil {
			return // idle close, peer gone, or garbage: drop the conn
		}
		// A new exchange began: its header must arrive promptly.
		if ht := rpc.HandshakeTimeout(); ht > 0 {
			conn.SetReadDeadline(time.Now().Add(ht))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		keep := false
		switch op[0] {
		case rpc.OpWriteBlock:
			keep = w.handleWriteBlock(conn)
		case rpc.OpReadBlock:
			keep = w.handleReadBlock(conn)
		default:
			w.cfg.Logger.Warn("unknown data opcode", "op", op[0])
		}
		if !keep {
			return
		}
	}
}

// dataIdleTimeout is how long an accepted data connection may sit
// between exchanges before the worker closes it. The client pool's
// idle age (DefaultDataPoolIdle) stays well below it, so pooled conns
// retire client-side first and the stale-conn race window is narrow.
const dataIdleTimeout = 2 * time.Minute

// endHandshake lifts the accept-side handshake deadline armed in
// handleConn, once the header frame has been decoded.
func endHandshake(conn net.Conn) {
	conn.SetReadDeadline(time.Time{})
}

// timedWriter accumulates time spent inside Write into *ns.
type timedWriter struct {
	w  io.Writer
	ns *int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	*t.ns += time.Since(start).Nanoseconds()
	return n, err
}

// handleWriteBlock implements one stage of the Worker-to-Worker write
// pipeline (paper §3.1): store the incoming packet stream on the local
// media named by the pipeline head while forwarding it verbatim to the
// next stage, then combine the downstream ack with the local result.
// It reports whether the connection is clean for another exchange:
// the upstream stream fully drained and the ack delivered.
func (w *Worker) handleWriteBlock(conn net.Conn) (keep bool) {
	start := time.Now()
	var hdr rpc.WriteBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		w.cfg.Logger.Warn("bad write header", "err", err)
		return false
	}
	endHandshake(conn)
	sp := w.tracer.Start(hdr.ReqID, hdr.SpanID, "worker.write")
	sp.Annotate("worker", string(w.id)).AnnotateInt("block", int64(hdr.Block.ID))
	rec := xfer.Record{
		Op:             "write",
		Source:         "worker:" + string(w.id),
		Block:          uint64(hdr.Block.ID),
		TraceID:        hdr.ReqID,
		SpanID:         sp.ID(),
		Peer:           conn.RemoteAddr().String(),
		HeaderDecodeNs: time.Since(start).Nanoseconds(),
	}
	tier := "UNKNOWN"
	if len(hdr.Pipeline) > 0 {
		if m, ok := w.media[hdr.Pipeline[0].Storage]; ok {
			tier = m.Tier().String()
		}
	}
	ack, streamDone := w.writeBlockPipeline(conn, hdr, sp, &rec)
	ack.Err = rpc.WithReqID(ack.Err, hdr.ReqID)
	sp.Annotate("tier", tier).AnnotateInt("bytes", ack.Stored)
	rec.Tier = tier
	rec.Bytes = ack.Stored
	rec.Result = "ok"
	if ack.Err != "" {
		rec.Result = ack.Err
		sp.SetError(errors.New(ack.Err))
	}
	annotatePhases(sp, &rec)
	// End (and thus store) the span before acking: once the client
	// sees the ack, this stage's span is queryable.
	sp.End()
	if ack.Stored > 0 {
		w.heat.Touch(hdr.Block.ID, heat.Write, ack.Stored)
	}
	w.metrics.observeOp("write", hdr.ReqID, start, ack.Stored, tier, ack.Err != "")
	w.metrics.observeDisk(tier, "write", rec.DiskNs)
	ackErr := rpc.WriteFrame(conn, ack)
	if ackErr != nil {
		w.cfg.Logger.Warn("write ack failed", "err", ackErr)
	}
	rec.TotalNs = time.Since(start).Nanoseconds()
	w.xfers.Append(rec)
	return streamDone && ackErr == nil
}

// annotatePhases copies a transfer record's non-zero phase timings
// onto its span, so `octopus-cli trace` shows where the leg stalled.
func annotatePhases(sp *trace.ActiveSpan, rec *xfer.Record) {
	phase := func(name string, v int64) {
		if v > 0 {
			sp.AnnotateInt(name, v)
		}
	}
	phase("dial_ns", rec.DialNs)
	phase("header_encode_ns", rec.HeaderEncodeNs)
	phase("header_decode_ns", rec.HeaderDecodeNs)
	phase("throttle_wait_ns", rec.ThrottleWaitNs)
	phase("disk_ns", rec.DiskNs)
	phase("net_ns", rec.NetNs)
	phase("forward_ns", rec.ForwardNs)
	phase("ack_wait_ns", rec.AckWaitNs)
	phase("stall_ns", rec.StallNs)
	phase("alloc_bytes", rec.AllocBytes)
	if rec.PoolHit {
		sp.AnnotateInt("pool_hit", 1)
	}
}

// writeBlockPipeline runs the body of one OpWriteBlock exchange. The
// second result reports whether the upstream packet stream was fully
// consumed (end marker seen), i.e. whether the connection holds no
// residual request bytes.
func (w *Worker) writeBlockPipeline(conn net.Conn, hdr rpc.WriteBlockHeader, sp *trace.ActiveSpan, rec *xfer.Record) (rpc.WriteBlockAck, bool) {
	if len(hdr.Pipeline) == 0 {
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: empty pipeline: %w", core.ErrNotFound))}, false
	}
	media, ok := w.media[hdr.Pipeline[0].Storage]
	if !ok {
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: unknown media %s: %w", hdr.Pipeline[0].Storage, core.ErrNotFound))}, false
	}

	// Open the downstream stage, if any. The forwarded header carries
	// this stage's span ID, chaining the pipeline's spans client →
	// worker → downstream worker.
	var downstream *rpc.BlockWriter
	if len(hdr.Pipeline) > 1 {
		var err error
		downstream, err = rpc.OpenBlockWriterSpan(hdr.Block, hdr.Pipeline[1:], hdr.Client, hdr.ReqID, sp.ID())
		if err != nil {
			return rpc.WriteBlockAck{Err: rpc.EncodeError(err)}, false
		}
	}

	// Feed the verified packet stream both into the local media and
	// down the pipeline. The phase split is measured serially on this
	// goroutine so it can never sum past the wall time: netNs is time
	// blocked reading the upstream socket, pipeNs is time blocked on
	// the local store (pipe backpressure plus the final completion
	// wait), and the downstream writer accumulates its own forward
	// and ack phases.
	src := rpc.NewPacketReader(conn)
	defer src.Release()
	pr, pw := io.Pipe()
	putDone := make(chan error, 1)
	putStored := make(chan int64, 1)
	var iost storage.IOStats
	go func() {
		n, err := media.PutStats(hdr.Block, pr, &iost)
		// Drain on failure so the producer never blocks forever.
		if err != nil {
			io.Copy(io.Discard, pr)
		}
		putStored <- n
		putDone <- err
	}()

	var streamErr error
	var netNs, pipeNs int64
	buf, fresh := bufpool.Get(rpc.MaxPacketSize)
	defer bufpool.Put(buf)
	var bufAlloc int64
	if fresh {
		bufAlloc = int64(len(buf))
	}
	streamDone := false
	for {
		rs := time.Now()
		n, err := src.Read(buf)
		netNs += time.Since(rs).Nanoseconds()
		if n > 0 {
			ps := time.Now()
			_, werr := pw.Write(buf[:n])
			pipeNs += time.Since(ps).Nanoseconds()
			if werr != nil && streamErr == nil {
				streamErr = werr
			}
			if downstream != nil {
				if _, werr := downstream.Write(buf[:n]); werr != nil && streamErr == nil {
					streamErr = werr
				}
			}
		}
		if err == io.EOF {
			streamDone = true // end marker consumed: the conn is drained
			break
		}
		if err != nil {
			streamErr = err
			break
		}
	}
	ps := time.Now()
	pw.Close()
	putErr := <-putDone
	stored := <-putStored
	pipeNs += time.Since(ps).Nanoseconds()

	var downErr error
	if downstream != nil {
		downErr = downstream.Commit()
	}

	// The store goroutine overlaps with the socket reads, so only the
	// backpressure this goroutine actually felt (pipeNs) is on the
	// critical path. The limiter sleep is exact per stream; clip it to
	// the visible stall and attribute the rest of the stall to the
	// device.
	rec.NetNs = netNs
	throttle := iost.ThrottleWaitNs
	if throttle > pipeNs {
		throttle = pipeNs
	}
	rec.ThrottleWaitNs = throttle
	rec.DiskNs = pipeNs - throttle
	rec.AllocBytes = src.AllocBytes() + bufAlloc
	if downstream != nil {
		dial, hdrEnc, fwd, ackWait := downstream.Phases()
		rec.DialNs, rec.HeaderEncodeNs, rec.ForwardNs, rec.AckWaitNs = dial, hdrEnc, fwd, ackWait
		rec.AllocBytes += downstream.AllocBytes()
		rec.PoolHit = downstream.PoolHit()
	}

	switch {
	case streamErr != nil:
		media.Delete(hdr.Block) // drop the partial replica
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: pipeline stream: %w", streamErr))}, streamDone
	case putErr != nil:
		return rpc.WriteBlockAck{Err: rpc.EncodeError(putErr), Stored: 0}, streamDone
	case downErr != nil:
		// Local copy is good; report the downstream failure so the
		// client can decide. The client abandons the block, so the local
		// replica is an orphan the next listing gets deleted.
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: downstream: %w", downErr)), Stored: stored}, streamDone
	default:
		// No master call: the client's commit after this ack confirms
		// the replica.
		return rpc.WriteBlockAck{Stored: stored}, streamDone
	}
}

// handleReadBlock streams a block range to a reader (paper §4.1). It
// reports whether the connection is clean for another exchange: the
// refusal or the full packet stream was delivered without error.
func (w *Worker) handleReadBlock(conn net.Conn) (keep bool) {
	start := time.Now()
	var hdr rpc.ReadBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		w.cfg.Logger.Warn("bad read header", "err", err)
		return false
	}
	endHandshake(conn)
	sp := w.tracer.Start(hdr.ReqID, hdr.SpanID, "worker.read")
	sp.Annotate("worker", string(w.id)).AnnotateInt("block", int64(hdr.Block.ID))
	rec := xfer.Record{
		Op:             "read",
		Source:         "worker:" + string(w.id),
		Block:          uint64(hdr.Block.ID),
		TraceID:        hdr.ReqID,
		SpanID:         sp.ID(),
		Peer:           conn.RemoteAddr().String(),
		HeaderDecodeNs: time.Since(start).Nanoseconds(),
	}
	served, tier, keep, err := w.readBlock(conn, hdr, &rec)
	sp.Annotate("tier", tier).AnnotateInt("bytes", served)
	rec.Tier = tier
	rec.Bytes = served
	rec.Result = "ok"
	if err != nil {
		rec.Result = err.Error()
	}
	annotatePhases(sp, &rec)
	sp.SetError(err)
	sp.End()
	if err == nil {
		w.heat.Touch(hdr.Block.ID, heat.Read, served)
	}
	w.metrics.observeOp("read", hdr.ReqID, start, served, tier, err != nil)
	w.metrics.observeDisk(tier, "read", rec.DiskNs)
	rec.TotalNs = time.Since(start).Nanoseconds()
	w.xfers.Append(rec)
	return keep
}

// readBlock serves one OpReadBlock exchange; errors that can still be
// delivered go back in the response frame with the request ID attached.
// The record receives the serve's phase split: device and throttle
// time from the media stream, socket time from a timed writer around
// the response frame and packet stream. keep reports whether the
// response (refusal or full stream) was delivered cleanly.
func (w *Worker) readBlock(conn net.Conn, hdr rpc.ReadBlockHeader, rec *xfer.Record) (served int64, tier string, keep bool, err error) {
	tier = "UNKNOWN"
	refuse := func(e error) (int64, string, bool, error) {
		// A delivered refusal leaves the conn clean: the requester got
		// its answer and nothing is mid-stream.
		werr := rpc.WriteFrame(conn, rpc.ReadBlockResponse{Err: rpc.WithReqID(rpc.EncodeError(e), hdr.ReqID)})
		return 0, tier, werr == nil, e
	}
	media, ok := w.media[hdr.Storage]
	if !ok {
		return refuse(fmt.Errorf("worker: unknown media %s: %w", hdr.Storage, core.ErrNotFound))
	}
	tier = media.Tier().String()
	// Scrub the replica before serving so disk corruption surfaces as
	// an explicit error the client can report (paper §5 repairs it).
	if err := media.Verify(hdr.Block); err != nil {
		w.journal.PublishTraced(events.Error, "block_corrupt", hdr.ReqID,
			"replica failed checksum scrub; read refused",
			"block", fmt.Sprintf("%d", hdr.Block.ID),
			"storage", string(hdr.Storage))
		return refuse(err)
	}
	var iost storage.IOStats
	rc, err := media.OpenRangeStats(hdr.Block, hdr.Offset, &iost)
	if err != nil {
		return refuse(err)
	}
	defer func() {
		rc.Close()
		rec.DiskNs = iost.DeviceNs
		rec.ThrottleWaitNs = iost.ThrottleWaitNs
	}()

	length := hdr.Length
	if length < 0 {
		length = hdr.Block.NumBytes - hdr.Offset
	}
	if length < 0 {
		length = 0
	}
	tw := &timedWriter{w: conn, ns: &rec.NetNs}
	if err := rpc.WriteFrame(tw, rpc.ReadBlockResponse{Length: length}); err != nil {
		return 0, tier, false, err
	}
	pw := rpc.NewPacketWriter(tw)
	defer pw.Release()
	n, err := io.CopyN(pw, rc, length)
	rec.AllocBytes = pw.AllocBytes()
	if err != nil {
		w.cfg.Logger.Warn("block read stream failed", "block", hdr.Block.ID, "req", hdr.ReqID, "err", err)
		return n, tier, false, err // connection dies; the client fails over
	}
	if err := pw.Close(); err != nil {
		w.cfg.Logger.Warn("block read close failed", "err", err)
		return n, tier, false, err
	}
	return n, tier, true, nil
}

// replicate copies a block from the best available source replica onto
// local media (paper §5: the hosting worker uses the retrieval policy's
// source ordering for copying from the most efficient location). It
// returns the bytes stored and the target media's tier label. sp is
// the caller's replication span; source reads carry its ID so the
// serving worker's read span parents under it. rec accumulates the
// winning attempt's phase timings.
func (w *Worker) replicate(reqID string, sp *trace.ActiveSpan, block core.Block, target core.StorageID, sources []core.BlockLocation, rec *xfer.Record) (int64, string, error) {
	media, ok := w.media[target]
	if !ok {
		return 0, "UNKNOWN", fmt.Errorf("worker: unknown media %s: %w", target, core.ErrNotFound)
	}
	tier := media.Tier().String()
	if media.Has(block) {
		return 0, tier, nil
	}
	var lastErr error
	for _, src := range sources {
		if src.Worker == w.id && src.Storage != target {
			// Local cross-media copy: read directly. Both the source
			// read (Put's source wait) and the store write are device
			// time here.
			if local, ok := w.media[src.Storage]; ok {
				rc, err := local.Open(block)
				if err != nil {
					lastErr = err
					continue
				}
				var iost storage.IOStats
				n, err := media.PutStats(block, rc, &iost)
				rc.Close()
				if err != nil {
					lastErr = err
					continue
				}
				rec.DiskNs += iost.DeviceNs + iost.SourceNs
				rec.ThrottleWaitNs += iost.ThrottleWaitNs
				return n, tier, nil
			}
		}
		var tm rpc.TransferTiming
		rc, _, err := rpc.OpenBlockReaderTimed(src.Address, block, src.Storage, 0, -1, reqID, sp.ID(), &tm)
		if err != nil {
			lastErr = err
			continue
		}
		rec.DialNs += tm.DialNs
		rec.HeaderEncodeNs += tm.HeaderEncodeNs
		rec.HeaderDecodeNs += tm.HeaderDecodeNs
		rec.PoolHit = tm.PoolHit
		var iost storage.IOStats
		n, err := media.PutStats(block, rc, &iost)
		if ac, ok := rc.(interface{ AllocBytes() int64 }); ok {
			rec.AllocBytes += ac.AllocBytes()
		}
		rc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		// Put's source wait is time reading the peer's packet stream.
		rec.NetNs += iost.SourceNs
		rec.DiskNs += iost.DeviceNs
		rec.ThrottleWaitNs += iost.ThrottleWaitNs
		return n, tier, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("worker: no replica source for %s: %w", block.ID, core.ErrNotFound)
	}
	return 0, tier, lastErr
}
