package worker

import (
	"bytes"
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
// pipeline (paper §3.1): forward each verified packet verbatim to the
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

	// A refused replica (no space) still drains and forwards the
	// stream, so the connection stays clean and the ack says why.
	src := rpc.NewPacketReader(conn)
	defer src.Release()
	var iost storage.IOStats
	cw, createErr := media.Create(hdr.Block, &iost)
	netNs, streamDone, streamErr, storeErr := receive(src, cw, downstream)
	if createErr != nil {
		storeErr = createErr
	}

	// Send the end marker downstream before committing here, so the
	// stages commit side by side.
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

// storeStream stores a peer's packet stream as a new replica on media,
// committing it only when the stream ended cleanly.
func storeStream(media *storage.Media, block core.Block, src packetSource, st *storage.IOStats) (n, netNs int64, err error) {
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

// packetSource is a verified packet stream: a pipeline's upstream or a
// replica served by a peer.
type packetSource interface {
	Next() (rpc.Packet, error)
}

// receive drains a packet stream, HDFS BlockReceiver style: each packet
// is verified by Next, forwarded verbatim to fwd (when set), then
// stored as a chunk under the checksum it arrived with. After a
// forward failure the stream is still drained so the connection stays
// clean; after a store failure, or with no cw, chunks are not stored.
// netNs is the time spent waiting on src; streamDone reports that the
// end marker was consumed.
func receive(src packetSource, cw storage.ChunkWriter, fwd *rpc.BlockWriter) (netNs int64, streamDone bool, streamErr, storeErr error) {
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
			streamErr = fwd.WriteRaw(p.Raw)
		}
		if cw != nil && storeErr == nil && streamErr == nil {
			storeErr = cw.WriteChunk(p.Payload, p.Sum)
		}
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
// There is no scrub before the response: whole chunks are streamed
// under the checksums stored at ingest, so the reader's per-packet
// check verifies every byte against the writer's sums. A range that
// starts or ends inside a chunk has that edge chunk read whole and
// checked here before the response, then only its requested slice sent
// under a fresh checksum, so a ranged read touches only its own
// chunks. The record receives the serve's phase split: device and
// throttle time from the media stream, socket time from a timed writer
// around the response frame and packet stream. keep reports whether
// the response (refusal or full stream) was delivered cleanly.
func (w *Worker) readBlock(conn net.Conn, hdr rpc.ReadBlockHeader, rec *xfer.Record) (served int64, tier string, keep bool, err error) {
	tier = "UNKNOWN"
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
	sums, err := media.Sums(hdr.Block)
	if err != nil {
		return refuse(err)
	}
	size := hdr.Block.NumBytes
	if n := int((size + core.ChunkSize - 1) / core.ChunkSize); len(sums) != n {
		return refuse(fmt.Errorf("worker: block %s: %d chunk sums for %d bytes: %w", hdr.Block.ID, len(sums), size, core.ErrCorrupt))
	}
	offset := min(max(hdr.Offset, 0), size)
	length := hdr.Length
	if length < 0 || length > size-offset {
		length = size - offset
	}
	end := offset + length
	first, last := offset/core.ChunkSize, (end-1)/core.ChunkSize
	chunkLen := func(i int64) int { return int(min(core.ChunkSize, size-i*core.ChunkSize)) }
	// slice bounds the requested part of chunk i, within the chunk.
	slice := func(i int64) (lo, hi int) {
		base := i * core.ChunkSize
		return int(max(offset, base) - base), int(min(end, base+int64(chunkLen(i))) - base)
	}
	partial := func(i int64) bool {
		lo, hi := slice(i)
		return lo > 0 || hi < chunkLen(i)
	}

	var iost storage.IOStats
	defer func() {
		rec.DiskNs = iost.DeviceNs
		rec.ThrottleWaitNs = iost.ThrottleWaitNs
	}()
	// edge reads chunk i whole and checks it against its stored sum,
	// returning the requested slice of it.
	var edgeBufs [][]byte
	defer func() {
		for _, b := range edgeBufs {
			bufpool.Put(b)
		}
	}()
	edge := func(i int64) ([]byte, error) {
		rc, err := media.OpenRangeStats(hdr.Block, i*core.ChunkSize, &iost)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		buf, _ := bufpool.Get(chunkLen(i))
		edgeBufs = append(edgeBufs, buf)
		if _, err := io.ReadFull(rc, buf); err != nil {
			return nil, fmt.Errorf("worker: block %s: reading chunk %d: %w", hdr.Block.ID, i, err)
		}
		if got := core.ChunkSum(buf); got != sums[i] {
			return nil, fmt.Errorf("worker: block %s chunk %d checksum %08x != %08x: %w", hdr.Block.ID, i, got, sums[i], core.ErrCorrupt)
		}
		lo, hi := slice(i)
		return buf[lo:hi], nil
	}
	var head, tail []byte
	if length > 0 && partial(first) {
		if head, err = edge(first); err != nil {
			return refuse(err)
		}
	}
	if length > 0 && last != first && partial(last) {
		if tail, err = edge(last); err != nil {
			return refuse(err)
		}
	}
	// The whole chunks stream from one reader, opened past the head.
	from := first
	if head != nil {
		from++
	}
	rc, err := media.OpenRangeStats(hdr.Block, from*core.ChunkSize, &iost)
	if err != nil {
		return refuse(err)
	}
	defer rc.Close()

	tw := &timedWriter{w: conn, ns: &rec.NetNs}
	if err := rpc.WriteFrame(tw, rpc.ReadBlockResponse{Length: length}); err != nil {
		return 0, tier, false, err
	}
	pw := rpc.NewPacketWriter(tw)
	defer pw.Release()
	for i := first; length > 0 && i <= last; i++ {
		var err error
		n := chunkLen(i)
		switch {
		case i == first && head != nil:
			n = len(head)
			err = pw.WriteChunk(bytes.NewReader(head), n, core.ChunkSum(head))
		case i == last && tail != nil:
			n = len(tail)
			err = pw.WriteChunk(bytes.NewReader(tail), n, core.ChunkSum(tail))
		default:
			err = pw.WriteChunk(rc, n, sums[i])
		}
		if err != nil {
			rec.AllocBytes = pw.AllocBytes()
			w.cfg.Logger.Warn("block read stream failed", "block", hdr.Block.ID, "req", hdr.ReqID, "err", err)
			return served, tier, false, err // connection dies; the client fails over
		}
		served += int64(n)
	}
	rec.AllocBytes = pw.AllocBytes()
	if err := pw.Close(); err != nil {
		w.cfg.Logger.Warn("block read close failed", "err", err)
		return served, tier, false, err
	}
	return served, tier, true, nil
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
		// The peer's packets are the replica's chunks: each is verified
		// on arrival and stored under the checksum it came with.
		var iost storage.IOStats
		n, netNs, err := storeStream(media, block, rc.(packetSource), &iost)
		if ac, ok := rc.(interface{ AllocBytes() int64 }); ok {
			rec.AllocBytes += ac.AllocBytes()
		}
		rc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		rec.NetNs += netNs
		rec.DiskNs += iost.DeviceNs
		rec.ThrottleWaitNs += iost.ThrottleWaitNs
		return n, tier, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("worker: no replica source for %s: %w", block.ID, core.ErrNotFound)
	}
	return 0, tier, lastErr
}
