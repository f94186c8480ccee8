package rpc

import (
	"fmt"
	"strconv"
)

// The master protocol. A method's frame type is its index in methods:
// a request frame carries the argument message, a reply frame the error
// string and, when it is empty, the reply message. The client resolves a
// method name here and the server dispatches on the index, so the two
// cannot disagree on a number.
//
// Every message is binary: def admits only types whose pointers have a
// wire method, so a method without a binary layout does not compile.
// The master's observability documents (events, audit, transfers,
// traces, history, heat, mover, explain) are not methods: they are read
// from its HTTP endpoints.
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
	16: def[WorkerReportsArgs, WorkerReportsReply]("Master.GetWorkerReports"),
	17: def[TierReportsArgs, TierReportsReply]("Master.GetStorageTierReports"),
	18: def[SetQuotaArgs, SetQuotaReply]("Master.SetQuota"),
	19: def[SetReplicationArgs, SetReplicationReply]("Master.SetReplication"),
	20: def[ContentSummaryArgs, ContentSummaryReply]("Master.GetContentSummary"),
	21: def[FsckArgs, FsckReply]("Master.Fsck"),
	22: def[ImageArgs, ImageReply]("Master.GetImage"),
	23: def[ReportBadBlockArgs, ReportBadBlockReply]("Master.ReportBadBlock"),
	24: def[DecommissionArgs, DecommissionReply]("Master.Decommission"),
}

// method names one master method and makes its two messages.
type method struct {
	name        string
	args, reply func() message
}

// def defines a method whose argument and reply messages are A and R.
func def[A, R any, PA interface {
	*A
	message
}, PR interface {
	*R
	message
}](name string) method {
	return method{name, func() message { return PA(new(A)) }, func() message { return PR(new(R)) }}
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

// appendRequest appends the request frame of method id carrying args.
func appendRequest(buf []byte, id byte, args message) ([]byte, error) {
	start := len(buf)
	buf = encode(beginFrame(buf, id), args)
	return buf, sealFrame(buf, start, maxMasterFrame)
}

// appendReply appends the reply frame of method id: errMsg, then, when
// errMsg is empty, the reply. A reply too long to frame is replaced by
// an error saying so.
func appendReply(buf []byte, id byte, errMsg string, reply message) []byte {
	start := len(buf)
	c := coder{buf: beginFrame(buf, id)}
	str(&c, &errMsg)
	if errMsg == "" {
		reply.wire(&c)
	}
	buf = c.buf
	if err := sealFrame(buf, start, maxMasterFrame); err != nil {
		return appendReply(buf[:start], id, fmt.Sprintf("rpc: %s reply: %v", methodName(id), err), nil)
	}
	return buf
}

// decodeReply reads a reply body into reply and returns the master's
// error, or the reason the body would not decode.
func decodeReply(body []byte, reply message) error {
	c := coder{buf: body, dec: true}
	var errMsg string
	str(&c, &errMsg)
	switch {
	case c.bad || errMsg != "" && len(c.buf) != 0:
		return fmt.Errorf("rpc: malformed reply frame for %T", reply)
	case errMsg != "":
		return DecodeError(errMsg)
	}
	return decode(c.buf, reply)
}
