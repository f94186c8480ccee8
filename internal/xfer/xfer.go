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
// The log is a ringlog.Log keyed by op, exactly like the audit log: a
// bounded ring that keeps the newest records whether or not anyone
// reads it. This package adds the Record type, and the span a worker's
// record stands for.
package xfer

import (
	"strconv"

	"repro/internal/ringlog"
	"repro/internal/trace"
)

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
	// started. A worker's leg has no span of its own: the master derives
	// it from this record (Span).
	SpanID string `json:"span_id,omitempty"`

	// ParentID is the upstream span this leg serves: the client's or the
	// previous pipeline stage's, or the replication a copy-source read
	// feeds.
	ParentID string `json:"parent_id,omitempty"`

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
	// allocated for this leg (stream reader/writer buffers, frame
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

// Span is the trace span a worker's transfer record stands for:
// worker.<op> under the upstream span, ending when the record was
// taken and lasting its TotalNs, annotated with the worker, block, tier,
// bytes and each non-zero phase, and failed with Result unless that is
// "ok". The master builds it when a heartbeat ships the record, so a
// worker keeps no span store and the record is the span's only copy.
func (r Record) Span(worker string) trace.Span {
	sp := trace.Span{
		TraceID: r.TraceID, SpanID: r.SpanID, ParentID: r.ParentID,
		Service: "worker", Op: "worker." + r.Op,
		Start: r.Time - r.TotalNs, End: r.Time,
		Attrs: map[string]string{
			"worker": worker,
			"block":  strconv.FormatUint(r.Block, 10),
			"tier":   r.Tier,
			"bytes":  strconv.FormatInt(r.Bytes, 10),
		},
	}
	for _, p := range [...]struct {
		key string
		v   int64
	}{
		{"dial_ns", r.DialNs}, {"header_encode_ns", r.HeaderEncodeNs},
		{"header_decode_ns", r.HeaderDecodeNs}, {"throttle_wait_ns", r.ThrottleWaitNs},
		{"disk_ns", r.DiskNs}, {"net_ns", r.NetNs}, {"forward_ns", r.ForwardNs},
		{"ack_wait_ns", r.AckWaitNs}, {"stall_ns", r.StallNs}, {"alloc_bytes", r.AllocBytes},
	} {
		if p.v > 0 {
			sp.Attrs[p.key] = strconv.FormatInt(p.v, 10)
		}
	}
	if r.PoolHit {
		sp.Attrs["pool_hit"] = "1"
	}
	if r.Result != "ok" {
		sp.Error = r.Result
	}
	return sp
}

// Log is the bounded transfer stream. A nil *Log is valid and
// discards everything, so callers never nil-check the append path.
type Log = ringlog.Log[Record]

// Page is one Since result.
type Page = ringlog.Page[Record]

// New builds a log retaining up to capacity records (<= 0 selects
// ringlog.DefaultCapacity). Append stamps Time with the completion
// time unless the producer already set it, and assigns Seq.
func New(capacity int) *Log {
	return ringlog.New(capacity, func(r *Record) (*uint64, *int64, string) {
		return &r.Seq, &r.Time, r.Op
	})
}
