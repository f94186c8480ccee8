package worker

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

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
		conn, err := w.ln.AcceptTCP()
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

func (w *Worker) handleConn(conn *net.TCPConn) {
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
	// (endHandshake), after which the block stream governs its own
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
// pipeline (paper §3.1): forward each verified chunk verbatim to the
// next stage and store it on the local media named by the pipeline
// head, then combine the downstream ack with the local result.
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
	rec := xfer.Record{
		Op:             "write",
		Source:         "worker:" + string(w.id),
		Block:          uint64(hdr.Block.ID),
		TraceID:        hdr.ReqID,
		SpanID:         spanID(hdr.ReqID),
		ParentID:       hdr.SpanID,
		Peer:           conn.RemoteAddr().String(),
		HeaderDecodeNs: time.Since(start).Nanoseconds(),
	}
	tier := "UNKNOWN"
	if len(hdr.Pipeline) > 0 {
		if m, ok := w.media[hdr.Pipeline[0].Storage]; ok {
			tier = m.Tier().String()
		}
	}
	ack, streamDone := w.writeBlockPipeline(conn, hdr, &rec)
	ack.Err = rpc.WithReqID(ack.Err, hdr.ReqID)
	rec.Tier = tier
	rec.Bytes = ack.Stored
	rec.Result = "ok"
	if ack.Err != "" {
		rec.Result = ack.Err
	}
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
	if ackErr == nil && !streamDone {
		drainRefused(conn, hdr.Block.NumBytes)
	}
	return streamDone && ackErr == nil
}

// drainRefused lets an ack that refused a stream part way reach its
// sender. Closing with the rest of the stream unread would reset the
// connection, and the sender, still writing, would see the reset and
// lose the ack. So the stage half-closes and reads what is left, up to
// the block's size (plus a chunk for the sums and window headers) and
// under the transfer deadline, until the sender closes.
func drainRefused(conn net.Conn, size int64) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	if t := rpc.TransferTimeout(); t > 0 {
		conn.SetReadDeadline(time.Now().Add(t))
	}
	io.CopyN(io.Discard, conn, max(size, 0)+core.ChunkSize) // an error only ends the drain early
}

// spanID mints the span ID of a transfer in trace traceID: its record
// carries it, and the headers this worker sends downstream or to a copy
// source name it as their parent. An untraced transfer has none.
func spanID(traceID string) string {
	if traceID == "" {
		return ""
	}
	return trace.NewSpanID()
}

// writeBlockPipeline runs the body of one OpWriteBlock exchange. The
// second result reports whether the upstream write stream was fully
// consumed (empty window seen), i.e. whether the connection holds no
// residual request bytes.
func (w *Worker) writeBlockPipeline(conn net.Conn, hdr rpc.WriteBlockHeader, rec *xfer.Record) (rpc.WriteBlockAck, bool) {
	if len(hdr.Pipeline) == 0 {
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: empty pipeline: %w", core.ErrNotFound))}, false
	}
	media, ok := w.media[hdr.Pipeline[0].Storage]
	if !ok {
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: unknown media %s: %w", hdr.Pipeline[0].Storage, core.ErrNotFound))}, false
	}

	// Open the downstream stage, if any. The forwarded header carries
	// this stage's span ID, chaining the pipeline's records client →
	// worker → downstream worker.
	var downstream *rpc.BlockWriter
	if len(hdr.Pipeline) > 1 {
		var err error
		downstream, err = rpc.OpenBlockWriterSpan(hdr.Block, hdr.Pipeline[1:], hdr.Client, hdr.ReqID, rec.SpanID)
		if err != nil {
			return rpc.WriteBlockAck{Err: rpc.EncodeError(err)}, false
		}
	}

	// A refused replica (no space) still drains and forwards the
	// stream, so the connection stays clean and the ack says why.
	src := rpc.NewBlockReceiver(conn, hdr.Block.NumBytes)
	defer src.Release()
	var iost storage.IOStats
	cw, createErr := media.Create(hdr.Block, &iost)
	netNs, streamDone, streamErr, storeErr := receive(src, cw, downstream)
	if createErr != nil {
		storeErr = createErr
	}

	// End the stream downstream before committing here, so the stages
	// commit side by side.
	var downErr error
	if downstream != nil {
		if streamErr != nil {
			downstream.Abort()
		} else if downErr = downstream.CloseStream(); downErr != nil {
			downstream.Abort()
		}
	}
	var stored int64
	if cw != nil {
		if streamErr != nil || storeErr != nil {
			cw.Abort() // drop the partial replica
		} else {
			stored, storeErr = cw.Commit()
		}
	}
	if downstream != nil && streamErr == nil && downErr == nil {
		downErr = downstream.WaitAck()
	}

	// Every phase ran serially on this goroutine, so they sum to no
	// more than the wall time.
	rec.NetNs = netNs
	rec.ThrottleWaitNs = iost.ThrottleWaitNs
	rec.DiskNs = iost.DeviceNs
	rec.AllocBytes = src.AllocBytes()
	if downstream != nil {
		dial, hdrEnc, fwd, ackWait := downstream.Phases()
		rec.DialNs, rec.HeaderEncodeNs, rec.ForwardNs, rec.AckWaitNs = dial, hdrEnc, fwd, ackWait
		rec.AllocBytes += downstream.AllocBytes()
		rec.PoolHit = downstream.PoolHit()
	}

	switch {
	case streamErr != nil:
		return rpc.WriteBlockAck{Err: rpc.EncodeError(fmt.Errorf("worker: pipeline stream: %w", streamErr))}, streamDone
	case storeErr != nil:
		return rpc.WriteBlockAck{Err: rpc.EncodeError(storeErr)}, streamDone
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

// storeStream stores a peer's block stream as a new replica on media,
// committing it only when the stream ended cleanly.
func storeStream(media *storage.Media, block core.Block, src *rpc.PacketReader, st *storage.IOStats) (n, netNs int64, err error) {
	cw, err := media.Create(block, st)
	if err != nil {
		return 0, 0, err
	}
	netNs, _, streamErr, storeErr := receive(src, cw, nil)
	if err = errors.Join(streamErr, storeErr); err != nil {
		cw.Abort()
		return 0, netNs, err
	}
	n, err = cw.Commit()
	return n, netNs, err
}

// receive drains a block stream, HDFS BlockReceiver style: each chunk
// is verified by Next, forwarded verbatim to fwd (when set), with the
// header of the window it opens, then stored under the checksum it
// arrived with. After a forward failure the stream is still drained so
// the connection stays clean; after a store failure, or with no cw,
// chunks are not stored. netNs is the time spent waiting on src;
// streamDone reports that the stream was read to its end.
func receive(src *rpc.PacketReader, cw storage.ChunkWriter, fwd *rpc.BlockWriter) (netNs int64, streamDone bool, streamErr, storeErr error) {
	for {
		start := time.Now()
		p, err := src.Next()
		netNs += time.Since(start).Nanoseconds()
		if err == io.EOF {
			return netNs, true, streamErr, storeErr
		}
		if err != nil {
			return netNs, false, err, storeErr
		}
		if fwd != nil && streamErr == nil {
			streamErr = fwd.WriteRaw(p)
		}
		if cw != nil && storeErr == nil && streamErr == nil {
			storeErr = cw.WriteChunk(p.Payload, p.Sum)
		}
	}
}

// handleReadBlock streams a block range to a reader (paper §4.1). It
// reports whether the connection is clean for another exchange: the
// refusal or the full block stream was delivered without error.
func (w *Worker) handleReadBlock(conn *net.TCPConn) (keep bool) {
	start := time.Now()
	var hdr rpc.ReadBlockHeader
	if err := rpc.ReadFrame(conn, &hdr); err != nil {
		w.cfg.Logger.Warn("bad read header", "err", err)
		return false
	}
	endHandshake(conn)
	rec := xfer.Record{
		Op:             "read",
		Source:         "worker:" + string(w.id),
		Block:          uint64(hdr.Block.ID),
		TraceID:        hdr.ReqID,
		SpanID:         spanID(hdr.ReqID),
		ParentID:       hdr.SpanID,
		Peer:           conn.RemoteAddr().String(),
		HeaderDecodeNs: time.Since(start).Nanoseconds(),
	}
	served, tier, keep, err := w.readBlock(conn, hdr, &rec)
	rec.Tier = tier
	rec.Bytes = served
	rec.Result = "ok"
	if err != nil {
		rec.Result = err.Error()
	}
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
// The response carries the range's piece sums and the bytes follow it
// unframed (see rpc.PieceSums), all from one open of the replica.
// Whole chunks go out under the sums stored at ingest, without being
// read into this process: a disk replica by sendfile, a memory replica
// straight from the store, so the reader's check verifies every byte
// against the writer's sums. A range that starts or ends inside a
// chunk has that edge chunk read whole by Replica.Chunk, which checks
// it, before the response, then only its requested slice sent under a
// fresh sum, so a ranged read touches only its own chunks. The whole
// chunks between the edges are one Replica.Send, which moves them in
// steps of the media's pacing burst. The record receives the serve's phase split:
// the trailer and edge reads are disk time, the response frame and the
// sends are net time, and each step's pacing sleep, taken after the
// call that reads it from the device, is throttle time. keep reports
// whether the response (refusal or full stream) was delivered cleanly.
func (w *Worker) readBlock(conn *net.TCPConn, hdr rpc.ReadBlockHeader, rec *xfer.Record) (served int64, tier string, keep bool, err error) {
	tier = "UNKNOWN"
	var iost storage.IOStats
	defer func() {
		rec.DiskNs = iost.DeviceNs
		rec.ThrottleWaitNs = iost.ThrottleWaitNs
		rec.NetNs += iost.SendNs
		rec.AllocBytes = iost.AllocBytes
	}()
	refuse := func(e error) (int64, string, bool, error) {
		if errors.Is(e, core.ErrCorrupt) {
			w.journal.PublishTraced(events.Error, "block_corrupt", hdr.ReqID,
				"replica failed its chunk checksums; read refused",
				"block", fmt.Sprintf("%d", hdr.Block.ID),
				"storage", string(hdr.Storage))
		}
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
	if hdr.Offset < 0 {
		return refuse(fmt.Errorf("worker: block %s: negative read offset %d", hdr.Block.ID, hdr.Offset))
	}
	rr, err := media.OpenReplica(hdr.Block, &iost)
	if err != nil {
		return refuse(err)
	}
	defer rr.Close()
	sums := rr.Sums()
	size := hdr.Block.NumBytes
	if n := int((size + core.ChunkSize - 1) / core.ChunkSize); len(sums) != n {
		return refuse(fmt.Errorf("worker: block %s: %d chunk sums for %d bytes: %w", hdr.Block.ID, len(sums), size, core.ErrCorrupt))
	}
	offset := min(hdr.Offset, size)
	length := hdr.Length
	if length < 0 || length > size-offset {
		length = size - offset
	}
	end := offset + length
	first, last := offset/core.ChunkSize, (end-1)/core.ChunkSize
	chunkLen := func(i int64) int { return int(min(core.ChunkSize, size-i*core.ChunkSize)) }
	// edge reads chunk i whole, checked against its stored sum, and
	// returns the requested slice of it, or nil when the range covers
	// the chunk whole.
	edge := func(i int64) ([]byte, error) {
		base := i * core.ChunkSize
		lo, hi := max(offset, base)-base, min(end, base+int64(chunkLen(i)))-base
		if lo == 0 && hi == int64(chunkLen(i)) {
			return nil, nil
		}
		buf, err := rr.Chunk(int(i), nil)
		if err != nil {
			return nil, err
		}
		if hi > int64(len(buf)) {
			return nil, fmt.Errorf("worker: block %s: chunk %d holds %d bytes, not %d", hdr.Block.ID, i, len(buf), hi)
		}
		return buf[lo:hi], nil
	}
	var head, tail []byte
	var pieceSums []uint32
	if length > 0 {
		if head, err = edge(first); err != nil {
			return refuse(err)
		}
		if last != first {
			if tail, err = edge(last); err != nil {
				return refuse(err)
			}
		}
		// The stored sums serve every whole chunk; only the edges need
		// fresh ones, and only then a copy of the slice.
		pieceSums = sums[first : last+1]
		if head != nil || tail != nil {
			pieceSums = slices.Clone(pieceSums)
			if head != nil {
				pieceSums[0] = core.ChunkSum(head)
			}
			if tail != nil {
				pieceSums[len(pieceSums)-1] = core.ChunkSum(tail)
			}
		}
	}

	tw := &timedWriter{w: conn, ns: &rec.NetNs}
	if err := rpc.WriteFrame(tw, rpc.ReadBlockResponse{Length: length, Sums: pieceSums}); err != nil {
		return 0, tier, false, err
	}
	// The edges go out from their checked buffers, and the whole
	// chunks between them as one run.
	fail := func(err error) (int64, string, bool, error) {
		w.cfg.Logger.Warn("block read stream failed", "block", hdr.Block.ID, "req", hdr.ReqID, "err", err)
		return served, tier, false, err // connection dies; the client fails over
	}
	if len(head) > 0 {
		if _, err := tw.Write(head); err != nil {
			return fail(err)
		}
		served += int64(len(head))
	}
	run := length - int64(len(head)+len(tail))
	if err := rr.Send(conn, offset+int64(len(head)), int(run)); err != nil {
		return fail(err)
	}
	served += run
	if len(tail) > 0 {
		if _, err := tw.Write(tail); err != nil {
			return fail(err)
		}
		served += int64(len(tail))
	}
	return served, tier, true, nil
}

// replicate copies a block from the best available source replica onto
// local media (paper §5: the hosting worker uses the retrieval policy's
// source ordering for copying from the most efficient location). Every
// source, this worker's own media included, is read over the data port
// like a client's read, and each piece is verified on arrival and
// stored under the checksum it came with. A source found corrupt or
// missing is reported to the master, as a client's reader reports it.
// It returns the bytes stored and the target media's tier label. rec is
// the replication's record: source reads carry its trace and span IDs,
// so the serving worker's read parents under it, and it accumulates the
// winning attempt's phase timings.
func (w *Worker) replicate(block core.Block, target core.StorageID, sources []core.BlockLocation, rec *xfer.Record) (int64, string, error) {
	media, ok := w.media[target]
	if !ok {
		return 0, "UNKNOWN", fmt.Errorf("worker: unknown media %s: %w", target, core.ErrNotFound)
	}
	tier := media.Tier().String()
	if media.Has(block) {
		return 0, tier, nil
	}
	reqID := rec.TraceID
	var lastErr error
	for _, src := range sources {
		var tm rpc.TransferTiming
		rc, _, err := rpc.OpenBlockReaderTimed(src.Address, block, src.Storage, 0, -1, reqID, rec.SpanID, &tm)
		if err == nil {
			rec.DialNs += tm.DialNs
			rec.HeaderEncodeNs += tm.HeaderEncodeNs
			rec.HeaderDecodeNs += tm.HeaderDecodeNs
			rec.PoolHit = tm.PoolHit
			// A whole-block read's pieces are the replica's chunks.
			src := rc.(*rpc.PacketReader)
			var iost storage.IOStats
			var n, netNs int64
			n, netNs, err = storeStream(media, block, src, &iost)
			rec.AllocBytes += src.AllocBytes()
			src.Close()
			if err == nil {
				rec.NetNs += netNs
				rec.DiskNs += iost.DeviceNs
				rec.ThrottleWaitNs += iost.ThrottleWaitNs
				return n, tier, nil
			}
		}
		lastErr = err
		if errors.Is(err, core.ErrCorrupt) || errors.Is(err, core.ErrNotFound) {
			bad := &rpc.ReportBadBlockArgs{ReqHeader: rpc.ReqHeader{ReqID: reqID}, Block: block, Storage: src.Storage, Worker: src.Worker}
			if err := w.master.Call("Master.ReportBadBlock", bad, &rpc.ReportBadBlockReply{}); err != nil {
				w.cfg.Logger.Warn("bad block report failed", "block", block.ID, "storage", src.Storage, "req", reqID, "err", err)
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("worker: no replica source for %s: %w", block.ID, core.ErrNotFound)
	}
	return 0, tier, lastErr
}
