package rpc

import "repro/internal/trace"

// Request IDs correlate one client operation across the master's RPC
// log, the workers' data-server logs, and error strings returned to
// the client. They ride inside RPC argument structs (via ReqHeader)
// and the data-transfer protocol headers.

// ReqHeader is embedded in RPC argument structs to carry the request
// ID across the master protocols. The zero value (no ID) is valid:
// unidentified requests simply cannot be correlated. The request ID
// doubles as the trace ID for distributed tracing; SpanID names the
// caller's span so the server can parent its own span under it.
type ReqHeader struct {
	ReqID  string
	SpanID string

	// arrivalNs is when the server read the request frame, so a
	// handler can measure its queue wait (frame read to handler start).
	// Unexported: no codec carries it, and it means something only in
	// the receiving process.
	arrivalNs int64
}

// RequestID returns the carried request ID.
func (h ReqHeader) RequestID() string { return h.ReqID }

// SetRequestID stamps the request ID.
func (h *ReqHeader) SetRequestID(id string) { h.ReqID = id }

// ParentSpan returns the caller's span ID, if any.
func (h ReqHeader) ParentSpan() string { return h.SpanID }

func (h *ReqHeader) setArrival(ns int64) { h.arrivalNs = ns }

// Arrival returns when the server read the request frame (Unix
// nanoseconds), or 0 when the request did not come through a Server.
func (h ReqHeader) Arrival() int64 { return h.arrivalNs }

// SetParentSpan stamps the caller's span ID.
func (h *ReqHeader) SetParentSpan(id string) { h.SpanID = id }

// Identified is satisfied by pointers to argument structs embedding
// ReqHeader, letting generic call paths stamp and read request IDs.
type Identified interface {
	RequestID() string
	SetRequestID(string)
}

// Traced is satisfied by pointers to argument structs embedding
// ReqHeader, letting generic call paths propagate span context.
type Traced interface {
	ParentSpan() string
	SetParentSpan(string)
}

// NewRequestID returns a 16-hex-character random request ID. It is a
// trace ID too, so it comes from the one ID source, trace.NewSpanID.
func NewRequestID() string { return trace.NewSpanID() }

// WithReqID appends the request ID marker to an already wire-encoded
// error string, so failures are attributable end-to-end. DecodeError
// matches on the code prefix, so the marker survives the round trip
// without breaking errors.Is.
func WithReqID(encoded, reqID string) string {
	if encoded == "" || reqID == "" {
		return encoded
	}
	return encoded + " [req=" + reqID + "]"
}
