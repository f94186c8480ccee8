// Package xfer implements the data-path flight recorder: one
// structured record per block transfer — client reads and writes,
// worker pipeline stages, and replications — carrying the op, block,
// tier, byte count, the request/span IDs that join it to the trace
// store, and a per-phase latency breakdown (dial, header
// encode/decode, throttle wait, disk, network, downstream forward,
// ack wait). Where the namespace audit log answers "where did a
// metadata op's time go", the transfer log answers the same question
// for the data path, per transfer, so a slow read can be attributed
// to the media, the link, or the framing without guesswork.
//
// The log is a non-blocking ringlog.Log keyed by op, exactly like the
// audit log: retained records live in a bounded ring, and when the
// producer backlog is full a record is dropped and counted rather than
// slowing a transfer down. The recorder must never become the
// data-path overhead it exists to measure. This package adds the
// Record type.
package xfer

import "repro/internal/ringlog"

// Record is one completed (or failed) block transfer. All latency
// fields are nanoseconds; phases that did not occur on the recording
// side (dial on a served read, ack wait on a read) are zero. The
// phases are measured serially on the transfer's critical path, so
// their sum never exceeds TotalNs.
type Record struct {
	// Seq is the log-assigned sequence number: strictly monotonically
	// increasing, starting at 1. It is the cursor for Since.
	Seq uint64 `json:"seq"`

	// Time is the transfer completion time in Unix nanoseconds.
	Time int64 `json:"time_ns"`

	// Op is the transfer kind: "read", "write", or "replicate".
	Op string `json:"op"`

	// Source names the daemon that recorded the transfer ("client",
	// "worker:<id>"), since every hop of a pipeline records its own
	// view.
	Source string `json:"source"`

	// Block is the block ID transferred.
	Block uint64 `json:"block"`

	// Tier is the storage tier served or stored on, where the
	// recording side knows it (client-side records leave it empty).
	Tier string `json:"tier,omitempty"`

	// Peer is the remote address dialled, for client-originated
	// transfers and pipeline forwards.
	Peer string `json:"peer,omitempty"`

	// TraceID is the request ID of the client operation, joining the
	// record to the span timeline served by `octopus-cli trace`.
	TraceID string `json:"trace_id,omitempty"`

	// SpanID is the span recorded for this transfer leg, when one was
	// started.
	SpanID string `json:"span_id,omitempty"`

	// Result is "ok" on success, the error text otherwise.
	Result string `json:"result"`

	// Bytes is the block content transferred by this leg.
	Bytes int64 `json:"bytes"`

	// Phase breakdown. DialNs is TCP connect time (client side, or a
	// pipeline stage dialling downstream). HeaderEncodeNs and
	// HeaderDecodeNs are the control-frame costs: encoding+sending
	// the opener's header, and decoding the peer's frame (which, on
	// the opener side, includes the peer's pre-response work such as
	// loading a read's chunk sums). ThrottleWaitNs is time the
	// emulated media pacing held this stream. DiskNs is media device
	// time on the critical path. NetNs is time blocked on the data
	// socket. ForwardNs is time feeding the downstream pipeline stage.
	// AckWaitNs is time waiting for the (downstream or pipeline) ack.
	// StallNs is reader-side prefetch stall: time the consumer waited
	// for a readahead open that had not finished. TotalNs is the
	// transfer's wall time and is >= the sum of the phases.
	DialNs         int64 `json:"dial_ns"`
	HeaderEncodeNs int64 `json:"header_encode_ns"`
	HeaderDecodeNs int64 `json:"header_decode_ns"`
	ThrottleWaitNs int64 `json:"throttle_wait_ns"`
	DiskNs         int64 `json:"disk_ns"`
	NetNs          int64 `json:"net_ns"`
	ForwardNs      int64 `json:"forward_ns"`
	AckWaitNs      int64 `json:"ack_wait_ns"`
	StallNs        int64 `json:"stall_ns"`
	TotalNs        int64 `json:"total_ns"`

	// AllocBytes counts the transfer-local buffer bytes freshly
	// allocated for this leg (packet reader/writer buffers, frame
	// scratch, copy buffers); buffers reused from the pools count
	// zero, so steady state reads 0.
	AllocBytes int64 `json:"alloc_bytes"`

	// PoolHit reports that the leg's outbound connection was reused
	// from the data-connection pool instead of freshly dialled.
	PoolHit bool `json:"pool_hit,omitempty"`
}

// PhaseSumNs returns the sum of the record's phase fields, the
// quantity the recorder keeps <= TotalNs.
func (r Record) PhaseSumNs() int64 {
	return r.DialNs + r.HeaderEncodeNs + r.HeaderDecodeNs + r.ThrottleWaitNs +
		r.DiskNs + r.NetNs + r.ForwardNs + r.AckWaitNs + r.StallNs
}

// Log is the bounded transfer stream. A nil *Log is valid and
// discards everything, so callers never nil-check the append path.
type Log = ringlog.Log[Record]

// Page is one Since result.
type Page = ringlog.Page[Record]

// New builds a log retaining up to capacity records (<= 0 selects
// ringlog.DefaultCapacity). Append stamps Time with the completion
// time unless the producer already set it; Seq is assigned when the
// backlog is drained into the ring.
func New(capacity int) *Log {
	return ringlog.New(capacity, ringlog.Backlog, func(r *Record) (*uint64, *int64, string) {
		return &r.Seq, &r.Time, r.Op
	})
}
