package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strconv"

	"repro/internal/audit"
	"repro/internal/events"
	"repro/internal/xfer"
)

// The master protocol. A method's frame type is its index in methods:
// a request frame carries the argument message, a reply frame the error
// string and, when it is empty, the reply message. The client resolves a
// method name here and the server dispatches on the index, so the two
// cannot disagree on a number.
//
// A message with a wire method travels as a binary body: those are the
// hot methods, which the namespace workload and every heartbeat pay
// for. Every other message travels as one self-contained gob value —
// the admin and observability methods, where a reflective codec costs
// nothing anyone waits on and spares a hand-written layout for each of
// their nested report types.
var methods = [...]method{
	1:  def[GetFileInfoArgs, GetFileInfoReply]("Master.GetFileInfo"),
	2:  def[ListArgs, ListReply]("Master.List"),
	3:  def[GetBlockLocationsArgs, GetBlockLocationsReply]("Master.GetBlockLocations"),
	4:  def[MkdirArgs, MkdirReply]("Master.Mkdir"),
	5:  def[CreateArgs, CreateReply]("Master.Create"),
	6:  def[AddBlockArgs, AddBlockReply]("Master.AddBlock"),
	7:  def[CommitBlockArgs, CommitBlockReply]("Master.CommitBlock"),
	8:  def[CompleteArgs, CompleteReply]("Master.Complete"),
	9:  def[AbandonArgs, AbandonReply]("Master.Abandon"),
	10: def[AbandonBlockArgs, AbandonBlockReply]("Master.AbandonBlock"),
	11: def[DeleteArgs, DeleteReply]("Master.Delete"),
	12: def[RenameArgs, RenameReply]("Master.Rename"),
	13: def[ReportArgs, ReportReply]("Master.Report"),
	14: def[RegisterArgs, RegisterReply]("Master.Register"),
	15: def[HeartbeatArgs, HeartbeatReply]("Master.Heartbeat"),
	16: def[LogArgs, LogReply[events.Event]]("Master.GetEvents"),
	17: def[LogArgs, LogReply[audit.Entry]]("Master.GetAudit"),
	18: def[LogArgs, LogReply[xfer.Record]]("Master.GetTransfers"),
	19: def[GetTraceArgs, GetTraceReply]("Master.GetTrace"),
	20: def[GetClusterHistoryArgs, GetClusterHistoryReply]("Master.GetClusterHistory"),
	21: def[ExplainArgs, ExplainReply]("Master.Explain"),
	22: def[GetHeatArgs, GetHeatReply]("Master.GetHeat"),
	23: def[GetMoverArgs, GetMoverReply]("Master.GetMover"),
	24: def[WorkerReportsArgs, WorkerReportsReply]("Master.GetWorkerReports"),
	25: def[TierReportsArgs, TierReportsReply]("Master.GetStorageTierReports"),
	26: def[SetQuotaArgs, SetQuotaReply]("Master.SetQuota"),
	27: def[SetReplicationArgs, SetReplicationReply]("Master.SetReplication"),
	28: def[ContentSummaryArgs, ContentSummaryReply]("Master.GetContentSummary"),
	29: def[FsckArgs, FsckReply]("Master.Fsck"),
	30: def[ImageArgs, ImageReply]("Master.GetImage"),
	31: def[ReportBadBlockArgs, ReportBadBlockReply]("Master.ReportBadBlock"),
	32: def[DecommissionArgs, DecommissionReply]("Master.Decommission"),
}

// method names one master method and makes its two messages.
type method struct {
	name        string
	args, reply func() any
}

func def[A, R any](name string) method {
	return method{name, func() any { return new(A) }, func() any { return new(R) }}
}

// methodIDs resolves a method name to its frame type.
var methodIDs = func() map[string]byte {
	ids := make(map[string]byte, len(methods))
	for id, m := range methods {
		if m.name != "" {
			ids[m.name] = byte(id)
		}
	}
	return ids
}()

// methodName names frame type id for an error message: by its name,
// or by its number when the table has none.
func methodName(id byte) string {
	if int(id) < len(methods) && methods[id].name != "" {
		return methods[id].name
	}
	return strconv.Itoa(int(id))
}

// maxMasterFrame bounds a master-port frame. It admits GetImage of a
// million-file namespace (about 54 MB) with room to spare, and refuses
// a length no real message reaches before anything is allocated.
const maxMasterFrame = 128 << 20

// appendBody appends v's body: its binary layout, or one gob value.
func appendBody(buf []byte, v any) ([]byte, error) {
	if m, ok := v.(message); ok {
		return encode(buf, m), nil
	}
	w := bytes.NewBuffer(buf)
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return buf, fmt.Errorf("rpc: encoding %T: %w", v, err)
	}
	return w.Bytes(), nil
}

// decodeBody fills v from a body appendBody wrote, which it must consume
// exactly.
func decodeBody(body []byte, v any) error {
	if m, ok := v.(message); ok {
		return decode(body, m)
	}
	r := bytes.NewReader(body)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("rpc: decoding %T: %w", v, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("rpc: %d trailing bytes in frame for %T", r.Len(), v)
	}
	return nil
}

// appendRequest appends the request frame of method id carrying args.
func appendRequest(buf []byte, id byte, args any) ([]byte, error) {
	start := len(buf)
	buf, err := appendBody(beginFrame(buf, id), args)
	if err == nil {
		err = sealFrame(buf, start, maxMasterFrame)
	}
	return buf, err
}

// appendReply appends the reply frame of method id: errMsg, then, when
// errMsg is empty, the reply. A reply that cannot be encoded or framed
// is replaced by an error saying so.
func appendReply(buf []byte, id byte, errMsg string, reply any) []byte {
	start := len(buf)
	c := coder{buf: beginFrame(buf, id)}
	str(&c, &errMsg)
	buf = c.buf
	var err error
	if errMsg == "" {
		buf, err = appendBody(buf, reply)
	}
	if err == nil {
		err = sealFrame(buf, start, maxMasterFrame)
	}
	if err != nil {
		return appendReply(buf[:start], id, fmt.Sprintf("rpc: %s reply: %v", methodName(id), err), nil)
	}
	return buf
}

// decodeReply reads a reply body into reply and returns the master's
// error, or the reason the body would not decode.
func decodeReply(body []byte, reply any) error {
	c := coder{buf: body, dec: true}
	var errMsg string
	str(&c, &errMsg)
	switch {
	case c.bad || errMsg != "" && len(c.buf) != 0:
		return fmt.Errorf("rpc: malformed reply frame for %T", reply)
	case errMsg != "":
		return DecodeError(errMsg)
	}
	return decodeBody(c.buf, reply)
}
