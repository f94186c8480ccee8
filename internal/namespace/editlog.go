package namespace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// EditOp identifies one namespace mutation in the edit log.
type EditOp byte

// Edit log operation codes.
const (
	EditMkdir EditOp = iota + 1
	EditCreate
	EditAddBlock
	EditCommitBlock
	EditComplete
	EditAbandon
	EditDelete
	EditRename
	EditSetRepVector
	EditSetQuota
	EditAbandonBlock
)

// EditRecord is one namespace mutation: what a public method hands to
// commit, what apply validates and enacts, and what the edit log stores.
// One sparse struct serves every op; paths in a logged record are clean.
type EditRecord struct {
	TxID uint64
	Op   EditOp

	Path      string
	Dst       string // rename destination
	Owner     string
	RepVector core.ReplicationVector
	BlockSize int64
	Block     core.Block // EditComplete: the final block, ID 0 for none
	Parents   bool
	Overwrite bool
	Recursive bool
	Tier      core.StorageTier
	Bytes     int64
	Time      int64 // mutation time, Unix nanoseconds
}

// The edit log is editMagic followed by frames
//
//	[u32 LE payload length][u32 LE CRC-32C over the length bytes and the payload][payload]
//
// with one record per frame, so records written by different processes
// follow each other in one file, and each is checked by itself.
const (
	editMagic      = "OFSEDIT1"
	editFrameHdr   = 8
	maxEditPayload = 64 << 10
	// maxEditStrings is what a record's strings may add up to: the
	// numeric fields take under a hundred bytes of a payload.
	maxEditStrings = maxEditPayload - 128
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func frameSum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, length), castagnoli, payload)
}

// openFrame appends room for a frame header to buf and returns where the
// frame starts; sealFrame fills the header in once the payload follows.
// The edit log and the fsimage are both written this way.
func openFrame(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, editFrameHdr)...), len(buf)
}

func sealFrame(buf []byte, start int) []byte {
	frame := buf[start:]
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-editFrameHdr))
	binary.LittleEndian.PutUint32(frame[4:], frameSum(frame[:4], frame[editFrameHdr:]))
	return buf
}

// cutFrame reads the frame at the head of data: its declared payload
// length n; fits, whether the header and the payload lie within data;
// and, if they do, the payload and whether its checksum holds.
func cutFrame(data []byte) (n uint32, payload []byte, fits, sumOK bool) {
	if len(data) < editFrameHdr {
		return 0, nil, false, false
	}
	n = binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-editFrameHdr) {
		return n, nil, false, false
	}
	payload = data[editFrameHdr : editFrameHdr+int(n)]
	return n, payload, true, binary.LittleEndian.Uint32(data[4:]) == frameSum(data[:4], payload)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendFrame appends rec's frame to buf. Every field is written for
// every op — uvarints, zig-zag varints and length-prefixed strings — so
// the decoder has no per-op cases.
func appendFrame(buf []byte, rec EditRecord) []byte {
	buf, start := openFrame(buf)
	buf = binary.AppendUvarint(buf, rec.TxID)
	buf = append(buf, byte(rec.Op))
	buf = binary.AppendVarint(buf, rec.Time)
	for _, s := range []string{rec.Path, rec.Dst, rec.Owner} {
		buf = appendString(buf, s)
	}
	buf = binary.AppendVarint(binary.AppendUvarint(buf, uint64(rec.RepVector)), rec.BlockSize)
	buf = binary.AppendVarint(appendUvarints(buf, uint64(rec.Block.ID), uint64(rec.Block.GenStamp)), rec.Block.NumBytes)
	var flags byte
	for i, set := range []bool{rec.Parents, rec.Overwrite, rec.Recursive} {
		if set {
			flags |= 1 << i
		}
	}
	buf = append(buf, flags, byte(rec.Tier))
	buf = binary.AppendVarint(buf, rec.Bytes)
	return sealFrame(buf, start)
}

// editReader consumes a frame's payload; a short or malformed field
// sets bad, and so does a varint longer than it needs to be, so each
// value has exactly one encoding.
type editReader struct {
	b   []byte
	bad bool
}

func (r *editReader) take(n uint64) (out []byte) {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	out, r.b = r.b[:n], r.b[n:]
	return out
}

func (r *editReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *editReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *editReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *editReader) str() string { return string(r.take(r.uvarint())) }

// decodeRecord is appendFrame's inverse on one payload. A payload with
// bytes left over, an op outside the table or unknown flag bits is not a
// record.
func decodeRecord(payload []byte) (rec EditRecord, ok bool) {
	r := editReader{b: payload}
	rec.TxID = r.uvarint()
	rec.Op = EditOp(r.u8())
	rec.Time = r.varint()
	rec.Path, rec.Dst, rec.Owner = r.str(), r.str(), r.str()
	rec.RepVector = core.ReplicationVector(r.uvarint())
	rec.BlockSize = r.varint()
	rec.Block.ID = core.BlockID(r.uvarint())
	rec.Block.GenStamp = core.GenerationStamp(r.uvarint())
	rec.Block.NumBytes = r.varint()
	flags := r.u8()
	rec.Parents, rec.Overwrite, rec.Recursive = flags&1 != 0, flags&2 != 0, flags&4 != 0
	rec.Tier = core.StorageTier(r.u8())
	rec.Bytes = r.varint()
	ok = !r.bad && len(r.b) == 0 && flags < 8 && rec.Op >= EditMkdir && rec.Op <= EditAbandonBlock
	return rec, ok
}

// decodeEdits returns the records of an edit log image up to its first
// bad frame. Every input is exactly one of three things. Clean: the
// frames end where the data does. Torn tail — what an interrupted append
// or a zero-extended file leaves, dropped silently: the data is a proper
// prefix of the magic; a header is cut short; a frame with a length
// within maxEditPayload runs past the end; or a frame is bad (zero
// length, checksum mismatch, undecodable payload) and nothing but zero
// bytes, if anything, follows it. Corruption, an error naming the
// offset: anything else — no magic, a length over the bound, a bad frame
// with data behind it. A torn tail therefore discards at most one
// maximal frame's worth of non-zero bytes.
func decodeEdits(data []byte) ([]EditRecord, error) {
	if !bytes.HasPrefix(data, []byte(editMagic)) {
		if bytes.HasPrefix([]byte(editMagic), data) {
			return nil, nil
		}
		return nil, fmt.Errorf("namespace: edit log corrupt at byte 0: no %q header "+
			"(a log written before the framed format is refused, not converted)", editMagic)
	}
	var recs []EditRecord
	for off := len(editMagic); off < len(data); {
		n, payload, fits, ok := cutFrame(data[off:])
		if n > maxEditPayload {
			return recs, fmt.Errorf("namespace: edit log corrupt at byte %d: frame length %d exceeds %d", off, n, maxEditPayload)
		}
		if !fits {
			break
		}
		rec, end := EditRecord{}, off+editFrameHdr+int(n)
		if ok {
			rec, ok = decodeRecord(payload)
		}
		if !ok {
			if len(bytes.TrimLeft(data[end:], "\x00")) == 0 {
				break
			}
			return recs, fmt.Errorf("namespace: edit log corrupt at byte %d: bad frame with %d bytes behind it", off, len(data)-end)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, nil
}

// ReadEdits decodes the edit log file at path; a missing file is an
// empty log. See decodeEdits for what is tolerated and what is not.
func ReadEdits(path string) ([]EditRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("namespace: reading edit log: %w", err)
	}
	return decodeEdits(data)
}

// EditLog appends frames to an edit log file.
type EditLog struct {
	f   *os.File
	buf []byte
}

// CreateEditLog durably replaces whatever is at path with an empty log
// and opens it for appending.
func CreateEditLog(path string) (*EditLog, error) {
	if err := WriteFileDurable(path, []byte(editMagic)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("namespace: opening edit log: %w", err)
	}
	return &EditLog{f: f}, nil
}

// Append writes one record's frame with a single Write.
func (l *EditLog) Append(rec EditRecord) error {
	l.buf = appendFrame(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("namespace: appending edit %d: %w", rec.TxID, err)
	}
	return nil
}

// Sync flushes the log to stable storage.
func (l *EditLog) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("namespace: syncing edit log: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *EditLog) Close() error { return l.f.Close() }

// WriteFileDurable replaces the file at path with data so that a crash
// at any point leaves the old content or the new, never a mixture and
// never neither: the data goes to a temporary file that is fsynced,
// renamed over path, and the directory entry is fsynced in turn.
func WriteFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("namespace: creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("namespace: writing %s: %w", path, err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("namespace: syncing directory of %s: %w", path, err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("namespace: syncing directory of %s: %w", path, err)
	}
	return nil
}
