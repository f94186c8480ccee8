package rpc

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// DialTimeout bounds data-connection establishment.
const DialTimeout = 5 * time.Second

// transferTimeoutNs and handshakeTimeoutNs hold the configurable
// data-path deadlines as atomics: tests shrink them while transfer
// goroutines read them, so plain package vars would race.
var (
	transferTimeoutNs  atomic.Int64
	handshakeTimeoutNs atomic.Int64
)

func init() {
	transferTimeoutNs.Store(int64(30 * time.Second))
	handshakeTimeoutNs.Store(int64(10 * time.Second))
}

// TransferTimeout returns the rolling deadline applied to each
// individual read or write on a data connection once it is
// established: the clock restarts on every packet, so a long transfer
// over a healthy link never trips it, but a worker that accepts a
// connection and then hangs surfaces an i/o timeout instead of
// stalling the client forever. Zero disables deadlines.
func TransferTimeout() time.Duration { return time.Duration(transferTimeoutNs.Load()) }

// SetTransferTimeout changes the rolling transfer deadline. It applies
// to connections established (or checked out of the pool) afterwards.
func SetTransferTimeout(d time.Duration) { transferTimeoutNs.Store(int64(d)) }

// HandshakeTimeout returns the absolute deadline over a connection's
// opening exchange: dial through the header handshake. Unlike the
// rolling TransferTimeout (which a peer trickling one byte per
// interval can stretch forever, and which zero disables entirely),
// the handshake bound is absolute and stays in force even when
// TransferTimeout is disabled — a dialled peer that accepts and then
// hangs before completing the header exchange always surfaces a
// timeout. Zero disables it (tests that single-step the handshake).
func HandshakeTimeout() time.Duration { return time.Duration(handshakeTimeoutNs.Load()) }

// SetHandshakeTimeout changes the absolute handshake bound.
func SetHandshakeTimeout(d time.Duration) { handshakeTimeoutNs.Store(int64(d)) }

// deadlineConn applies a rolling deadline around every conn operation
// and, until established() is called, caps every deadline at the
// absolute handshake bound. A data connection also feeds the
// process-wide connection counters; a master connection, which has no
// deadlines either, does not.
//
// Deadline arming is coarsened: once a rolling deadline is set, it is
// only pushed forward again after a quarter of the timeout window has
// elapsed, so a packet stream costs one SetDeadline syscall per
// timeout/4 instead of one per packet. The effective deadline is thus
// between 0.75×timeout and timeout — the slack tests must tolerate.
type deadlineConn struct {
	net.Conn
	timeout  time.Duration
	hsUntil  time.Time // absolute handshake deadline; zero once established
	armedR   time.Time // read deadline currently armed on the conn
	armedW   time.Time // write deadline currently armed on the conn
	closed   bool
	lastAddr string // dialled address, the pool key
	data     bool   // counted in connStats
}

// deadline computes the next I/O deadline: the rolling timeout,
// clipped to the handshake bound while it is in force.
func (c *deadlineConn) deadline() time.Time {
	var d time.Time
	if c.timeout > 0 {
		d = time.Now().Add(c.timeout)
	}
	if !c.hsUntil.IsZero() && (d.IsZero() || c.hsUntil.Before(d)) {
		d = c.hsUntil
	}
	return d
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if d := c.deadline(); !d.IsZero() {
		if !c.hsUntil.IsZero() || c.armedR.IsZero() || d.Sub(c.armedR) > c.timeout/4 {
			c.Conn.SetReadDeadline(d)
			c.armedR = d
		}
	} else if !c.armedR.IsZero() {
		c.Conn.SetReadDeadline(time.Time{})
		c.armedR = time.Time{}
	}
	n, err := c.Conn.Read(p)
	if c.data {
		connStats.bytesRead.Add(uint64(n))
	}
	return n, err
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if d := c.deadline(); !d.IsZero() {
		if !c.hsUntil.IsZero() || c.armedW.IsZero() || d.Sub(c.armedW) > c.timeout/4 {
			c.Conn.SetWriteDeadline(d)
			c.armedW = d
		}
	} else if !c.armedW.IsZero() {
		c.Conn.SetWriteDeadline(time.Time{})
		c.armedW = time.Time{}
	}
	n, err := c.Conn.Write(p)
	if c.data {
		connStats.bytesWritten.Add(uint64(n))
	}
	return n, err
}

// established marks the header handshake complete: the absolute bound
// lifts, leaving only the rolling per-operation deadline, and the
// handshake counter ticks.
func (c *deadlineConn) established() {
	c.hsUntil = time.Time{}
	if c.timeout <= 0 {
		// Clear any deadline the handshake bound left armed.
		c.Conn.SetReadDeadline(time.Time{})
		c.Conn.SetWriteDeadline(time.Time{})
		c.armedR, c.armedW = time.Time{}, time.Time{}
	}
	connStats.handshakes.Add(1)
}

// rearm readies a freshly dialled or pool-checked-out connection for a
// new transfer: deadlines cleared, the current timeout configuration
// loaded, and the handshake bound armed.
func (c *deadlineConn) rearm() {
	c.Conn.SetReadDeadline(time.Time{})
	c.Conn.SetWriteDeadline(time.Time{})
	c.armedR, c.armedW = time.Time{}, time.Time{}
	c.timeout = TransferTimeout()
	if hs := HandshakeTimeout(); hs > 0 {
		c.hsUntil = time.Now().Add(hs)
	} else {
		c.hsUntil = time.Time{}
	}
}

func (c *deadlineConn) Close() error {
	if !c.closed {
		c.closed = true
		if c.data {
			connStats.open.Add(-1)
		}
	}
	return c.Conn.Close()
}

// dialData establishes a fresh data connection with the handshake
// bound armed and rolling I/O deadlines after it.
func dialData(addr string) (*deadlineConn, error) {
	connStats.dials.Add(1)
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		noteDialFailure(addr)
		return nil, fmt.Errorf("rpc: dialling %s: %w", addr, err)
	}
	noteDialSuccess(addr)
	connStats.open.Add(1)
	dc := &deadlineConn{Conn: conn, lastAddr: addr, data: true}
	dc.timeout = TransferTimeout()
	if hs := HandshakeTimeout(); hs > 0 {
		dc.hsUntil = time.Now().Add(hs)
	}
	return dc, nil
}

// checkoutData returns a data connection to addr: a pooled idle one
// when a healthy candidate exists (pooled == true, no dial), a fresh
// dial otherwise.
func checkoutData(addr string) (dc *deadlineConn, pooled bool, err error) {
	if dc := dataPool.take(addr); dc != nil {
		dc.rearm()
		return dc, true, nil
	}
	dc, err = dialData(addr)
	return dc, false, err
}

// releaseData returns a connection whose exchange completed cleanly
// (every request byte consumed, every response byte read) to the idle
// pool for the next transfer to the same worker.
func releaseData(dc *deadlineConn) {
	dataPool.put(dc)
}

// tagReq stamps the request ID onto a dial or handshake failure so
// worker-side and client-side logs of the same transfer correlate.
func tagReq(err error, reqID string) error {
	if err == nil || reqID == "" {
		return err
	}
	return fmt.Errorf("%w [req=%s]", err, reqID)
}

// TransferTiming receives the connection-establishment phases of one
// transfer: TCP dial (or pool checkout), header encode+send, and the
// peer's response frame decode (which includes the peer's pre-response
// work, e.g. loading the chunk sums and checking the edge chunks of a
// ranged read). Pass it to the Timed open variants; the flight
// recorder folds it into the transfer's record.
type TransferTiming struct {
	DialNs         int64
	HeaderEncodeNs int64
	HeaderDecodeNs int64

	// PoolHit reports that the transfer reused a pooled connection
	// instead of dialling: DialNs is then the checkout cost, which
	// collapses to ~0 on warm paths.
	PoolHit bool
}

// OpenBlockReader connects to a worker's data port and starts an
// OpReadBlock exchange. The returned ReadCloser streams exactly
// length bytes of verified block content; closing it returns the
// connection to the pool when the stream completed cleanly and closes
// it otherwise. length == -1 requests the remainder of the block.
func OpenBlockReader(addr string, block core.Block, storageID core.StorageID, offset, length int64) (io.ReadCloser, int64, error) {
	return OpenBlockReaderTimed(addr, block, storageID, offset, length, "", "", nil)
}

// OpenBlockReaderSpan is OpenBlockReader with a request ID stamped on
// the exchange header, so the worker's logs can be correlated with the
// client operation, and the caller's span ID, parenting the worker's
// read span.
func OpenBlockReaderSpan(addr string, block core.Block, storageID core.StorageID, offset, length int64, reqID, spanID string) (io.ReadCloser, int64, error) {
	return OpenBlockReaderTimed(addr, block, storageID, offset, length, reqID, spanID, nil)
}

// openExchange opens one exchange with the worker at addr: a pooled
// connection (or a fresh dial), the opcode, the header frame and, when
// resp is non-nil, the worker's response frame decoded into resp. Its
// phases land in tm. A pooled connection that fails anywhere in that
// handshake went stale while idle (the worker closed it): it is
// discarded and the exchange retried once over a fresh dial, so
// callers never see pool staleness.
func openExchange(addr string, op byte, hdr, resp any, reqID string, tm *TransferTiming) (*deadlineConn, error) {
	for freshOnly := false; ; freshOnly = true {
		start := time.Now()
		var conn *deadlineConn
		var err error
		tm.PoolHit = false
		if freshOnly {
			conn, err = dialData(addr)
		} else {
			conn, tm.PoolHit, err = checkoutData(addr)
		}
		tm.DialNs = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, tagReq(err, reqID)
		}
		if err = exchangeHeaders(conn, op, hdr, resp, tm); err == nil {
			conn.established()
			return conn, nil
		}
		conn.Close()
		if !tm.PoolHit {
			return nil, tagReq(err, reqID)
		}
		dataPool.noteStale()
	}
}

// exchangeHeaders writes the opcode and header frame, then reads the
// response frame if one is expected, timing both halves into tm.
func exchangeHeaders(conn *deadlineConn, op byte, hdr, resp any, tm *TransferTiming) error {
	encStart := time.Now()
	if _, err := conn.Write([]byte{op}); err != nil {
		return fmt.Errorf("rpc: sending opcode %d: %w", op, err)
	}
	if err := WriteFrame(conn, hdr); err != nil {
		return err
	}
	tm.HeaderEncodeNs = time.Since(encStart).Nanoseconds()
	if resp == nil {
		return nil
	}
	decStart := time.Now()
	if err := ReadFrame(conn, resp); err != nil {
		return err
	}
	tm.HeaderDecodeNs = time.Since(decStart).Nanoseconds()
	return nil
}

// OpenBlockReaderTimed is OpenBlockReaderSpan recording the dial and
// header phases into tm (which may be nil).
func OpenBlockReaderTimed(addr string, block core.Block, storageID core.StorageID, offset, length int64, reqID, spanID string, tm *TransferTiming) (io.ReadCloser, int64, error) {
	if tm == nil {
		tm = &TransferTiming{}
	}
	hdr := ReadBlockHeader{Block: block, Storage: storageID, Offset: offset, Length: length, ReqID: reqID, SpanID: spanID}
	var resp ReadBlockResponse
	conn, err := openExchange(addr, OpReadBlock, hdr, &resp, reqID, tm)
	if err != nil {
		return nil, 0, err
	}
	if resp.Err != "" {
		// A refusal leaves the exchange complete and the conn clean.
		releaseData(conn)
		return nil, 0, DecodeError(resp.Err)
	}
	return &blockReadCloser{r: NewPacketReader(conn), conn: conn, poolHit: tm.PoolHit}, resp.Length, nil
}

// drainGrace bounds how long Close waits for the end-of-stream packet
// of a fully consumed block before giving up on reusing the conn.
const drainGrace = 20 * time.Millisecond

type blockReadCloser struct {
	r        *PacketReader
	conn     *deadlineConn
	released bool
	poolHit  bool
}

func (b *blockReadCloser) Read(p []byte) (int, error) { return b.r.Read(p) }

// Next returns the stream's next verified packet, for a consumer that
// stores the chunks under the checksums they arrived with.
func (b *blockReadCloser) Next() (Packet, error) { return b.r.Next() }

// PoolHit reports whether the stream's connection was reused from the
// pool; flight-recorder entries surface it per transfer.
func (b *blockReadCloser) PoolHit() bool { return b.poolHit }

// Close returns the connection to the pool when the packet stream was
// consumed to its end marker — the usual case, since readers drain
// exactly the advertised length — and closes it otherwise (an
// abandoned stream would poison the next transfer). A stream whose
// data packets were fully drained but whose end marker is still in
// flight gets one brief bounded attempt to consume it.
func (b *blockReadCloser) Close() error {
	if b.released {
		return nil
	}
	b.released = true
	clean := b.r.Drained()
	if !clean && b.r.PendingEmpty() {
		b.conn.hsUntil = time.Now().Add(drainGrace)
		clean = b.r.TryFinish()
		b.conn.hsUntil = time.Time{}
	}
	var err error
	if clean {
		releaseData(b.conn)
	} else {
		err = b.conn.Close()
	}
	b.r.Release()
	return err
}

// AllocBytes reports the stream's transfer-local buffer allocations,
// for the flight recorder's churn accounting.
func (b *blockReadCloser) AllocBytes() int64 { return b.r.AllocBytes() }

// BlockWriter streams one block into a worker write pipeline. Create
// it with OpenBlockWriter, Write the content, then either Commit to
// finish synchronously or CloseStream followed by WaitAck to overlap
// the acknowledgement wait with other work.
type BlockWriter struct {
	conn    *deadlineConn
	pw      *PacketWriter
	n       int64
	peer    string
	poolHit bool

	// finished guards the connection's end-of-life exactly once:
	// WaitAck releases it to the pool (clean) or closes it (error),
	// and a concurrent Abort closes it — whoever transitions first
	// wins, so an acked conn can never be closed out from under the
	// next transfer that checked it out.
	finished atomic.Bool

	// Accumulated phase timings, served by Phases. Atomic because a
	// writer being aborted may snapshot Phases while a background
	// WaitAck (split-commit mode) is still recording its wait.
	dialNs atomic.Int64
	hdrNs  atomic.Int64
	netNs  atomic.Int64
	ackNs  atomic.Int64
}

// OpenBlockWriter connects to the first pipeline stage and sends the
// write header. pipeline[0] is the stage being dialled.
func OpenBlockWriter(block core.Block, pipeline []PipelineTarget, client string) (*BlockWriter, error) {
	return OpenBlockWriterSpan(block, pipeline, client, "", "")
}

// OpenBlockWriterSpan is OpenBlockWriter with a request ID stamped on
// the pipeline header — every downstream stage forwards it, so one
// write is traceable across all its workers — and the sender's span ID,
// parenting the first stage's write span. Like the reader open, a stale
// pooled connection is discarded and retried once over a fresh dial.
func OpenBlockWriterSpan(block core.Block, pipeline []PipelineTarget, client, reqID, spanID string) (*BlockWriter, error) {
	if len(pipeline) == 0 {
		return nil, fmt.Errorf("rpc: empty write pipeline: %w", core.ErrNoWorkers)
	}
	hdr := WriteBlockHeader{Block: block, Pipeline: pipeline, Client: client, ReqID: reqID, SpanID: spanID}
	var tm TransferTiming
	conn, err := openExchange(pipeline[0].Address, OpWriteBlock, hdr, nil, reqID, &tm)
	if err != nil {
		return nil, err
	}
	bw := &BlockWriter{
		conn:    conn,
		pw:      NewPacketWriter(conn),
		peer:    pipeline[0].Address,
		poolHit: tm.PoolHit,
	}
	bw.dialNs.Store(tm.DialNs)
	bw.hdrNs.Store(tm.HeaderEncodeNs)
	return bw, nil
}

// Write implements io.Writer.
func (w *BlockWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.pw.Write(p)
	w.netNs.Add(time.Since(start).Nanoseconds())
	w.n += int64(n)
	return n, err
}

// WriteRaw forwards one verified packet verbatim, as a pipeline stage
// passes the writer's packets downstream.
func (w *BlockWriter) WriteRaw(raw []byte) error {
	start := time.Now()
	err := w.pw.WriteRaw(raw)
	w.netNs.Add(time.Since(start).Nanoseconds())
	if err == nil {
		w.n += int64(len(raw) - packetHeaderLen)
	}
	return err
}

// Written returns the bytes written so far.
func (w *BlockWriter) Written() int64 { return w.n }

// Peer returns the address of the dialled pipeline stage.
func (w *BlockWriter) Peer() string { return w.peer }

// PoolHit reports whether the pipeline connection was reused from the
// pool instead of freshly dialled.
func (w *BlockWriter) PoolHit() bool { return w.poolHit }

// Phases returns the writer's accumulated phase timings: TCP dial,
// header encode+send, time blocked writing the packet stream, and
// time waiting for the pipeline ack (zero until WaitAck returns).
func (w *BlockWriter) Phases() (dialNs, headerEncodeNs, netNs, ackWaitNs int64) {
	return w.dialNs.Load(), w.hdrNs.Load(), w.netNs.Load(), w.ackNs.Load()
}

// AllocBytes reports the writer's transfer-local buffer allocations,
// for the flight recorder's churn accounting.
func (w *BlockWriter) AllocBytes() int64 { return w.pw.AllocBytes() }

// CloseStream terminates the packet stream (end packet + flush)
// without waiting for the pipeline acknowledgement, so the caller can
// start the next block while this one drains through the pipeline.
func (w *BlockWriter) CloseStream() error {
	start := time.Now()
	err := w.pw.Close()
	w.netNs.Add(time.Since(start).Nanoseconds())
	return err
}

// WaitAck collects the pipeline acknowledgement after CloseStream. On
// a clean ack the connection goes back to the pool for the writer's
// next block; on error (or when a concurrent Abort got there first)
// it is closed.
func (w *BlockWriter) WaitAck() error {
	start := time.Now()
	var ack WriteBlockAck
	err := ReadFrame(w.conn, &ack)
	w.ackNs.Store(time.Since(start).Nanoseconds())
	if w.finished.CompareAndSwap(false, true) {
		if err == nil {
			releaseData(w.conn)
		} else {
			w.conn.Close()
		}
		w.pw.Release()
	}
	if err != nil {
		return fmt.Errorf("rpc: reading pipeline ack: %w", err)
	}
	return DecodeError(ack.Err)
}

// Commit terminates the stream, waits for the pipeline ack, and
// releases the connection.
func (w *BlockWriter) Commit() error {
	if err := w.CloseStream(); err != nil {
		w.Abort()
		return err
	}
	return w.WaitAck()
}

// Abort closes the connection without completing the stream. It is a
// no-op if WaitAck already settled the connection's fate.
func (w *BlockWriter) Abort() error {
	if !w.finished.CompareAndSwap(false, true) {
		return nil
	}
	err := w.conn.Close()
	w.pw.Release()
	return err
}
