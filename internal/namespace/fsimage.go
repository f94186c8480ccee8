package namespace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/core"
)

// The fsimage is imageMagic and then frames of the edit log's format: a
// header (TxID, next block ID, next generation stamp, inode count), then
// one frame per inode in pre-order, children in name order. An inode is
// its name in the parent, owner, a flag byte and ModTime, then for a
// directory its child count and quotas, for a file its vector, block
// size and blocks to the end of the frame; numbers are uvarints. Usage
// is recomputed on load, not stored. An image only ever appears whole
// (WriteFileDurable), so there is no torn tail: any bad frame is
// corruption, and a frame's only length bound is the file.
const imageMagic = "OFSIMAG1"

const (
	inodeDir byte = 1 << iota
	inodeOpen
)

func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// imageBytesLocked encodes the tree; callers hold ns.mu. The header
// counts the inodes, so it goes into room left ahead of them.
func (ns *Namespace) imageBytesLocked() []byte {
	const room = len(imageMagic) + editFrameHdr + 4*binary.MaxVarintLen64
	buf, count := make([]byte, room, room+64*len(ns.files)), uint64(0)
	var walk func(n *INode)
	walk = func(n *INode) {
		buf, count = appendInode(buf, n), count+1
		for _, name := range n.childNames() {
			walk(n.Children[name])
		}
	}
	walk(ns.root)
	hdr, start := openFrame([]byte(imageMagic))
	hdr = sealFrame(appendUvarints(hdr, ns.txid, ns.nextBlockID, ns.nextGen, count), start)
	copy(buf[room-len(hdr):], hdr)
	return buf[room-len(hdr):]
}

func appendInode(buf []byte, n *INode) []byte {
	buf, start := openFrame(buf)
	var flags byte
	switch {
	case n.IsDir:
		flags = inodeDir
	case n.UnderConstruction:
		flags = inodeOpen
	}
	buf = appendUvarints(append(appendString(appendString(buf, n.Name), n.Owner), flags), uint64(n.ModTime))
	if n.IsDir {
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		for _, q := range n.Quota {
			buf = binary.AppendUvarint(buf, uint64(q))
		}
	} else {
		buf = appendUvarints(buf, uint64(n.RepVector), uint64(n.BlockSize))
		for _, b := range n.Blocks {
			buf = appendUvarints(buf, uint64(b.ID), uint64(b.GenStamp), uint64(b.NumBytes))
		}
	}
	return sealFrame(buf, start)
}

// decodeImage builds a namespace from an image in one pass. A stack holds
// the directories still owed children; each inode is linked and indexed
// (files numbered after lastID) as it is decoded, and a directory passes
// its usage up once its last child is in.
func decodeImage(data []byte, lastID FileID) (*Namespace, error) {
	if !bytes.HasPrefix(data, []byte(imageMagic)) {
		return nil, fmt.Errorf("namespace: fsimage corrupt at byte 0: no %q header "+
			"(an image written before the framed format is refused, not converted)", imageMagic)
	}
	off, at, r := len(imageMagic), 0, editReader{}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("namespace: fsimage corrupt at byte %d: "+format, append([]any{at}, args...)...)
	}
	next := func() error {
		n, payload, fits, ok := cutFrame(data[off:])
		if at = off; !fits || !ok {
			return bad("the frame here, of %d bytes, is cut short or fails its checksum", n)
		}
		off, r = off+editFrameHdr+int(n), editReader{b: payload}
		return nil
	}
	if err := next(); err != nil {
		return nil, err
	}
	img := &Namespace{txid: r.uvarint(), nextBlockID: r.uvarint(), nextGen: r.uvarint(), nextFileID: lastID}
	count := r.uvarint()
	if r.bad || len(r.b) > 0 || img.nextBlockID == 0 || img.nextGen == 0 || count == 0 || count > uint64(len(data)) {
		return nil, bad("malformed header")
	}
	img.files, img.open = make(map[FileID]*INode, count), make(map[FileID]*INode)
	type owed struct {
		dir  *INode
		left uint64 // children still to come
		last string // the name of the child before them
	}
	var stack []owed
	for i := uint64(0); i < count; i++ {
		if err := next(); err != nil {
			return nil, err
		}
		name, owner, flags := r.str(), r.str(), r.u8()
		r.bad = r.bad || flags > inodeOpen
		n := &INode{Name: name, Owner: owner, IsDir: flags == inodeDir, UnderConstruction: flags == inodeOpen, ModTime: int64(r.uvarint())}
		kids := uint64(0)
		if n.IsDir {
			kids = r.uvarint()
			for s := range n.Quota {
				n.Quota[s] = int64(r.uvarint())
			}
			n.Children = make(map[string]*INode, min(kids, count-i))
		} else {
			n.RepVector, n.BlockSize = core.ReplicationVector(r.uvarint()), int64(r.uvarint())
			for len(r.b) > 0 && !r.bad {
				b := core.Block{ID: core.BlockID(r.uvarint()), GenStamp: core.GenerationStamp(r.uvarint()), NumBytes: int64(r.uvarint())}
				if !r.bad && (b.ID == 0 || uint64(b.ID) >= img.nextBlockID || b.GenStamp == 0 || uint64(b.GenStamp) >= img.nextGen) {
					return nil, bad("block %d gen %d is not below the header's next ID and gen", b.ID, b.GenStamp)
				}
				n.Blocks = append(n.Blocks, b)
			}
		}
		top := len(stack) - 1
		switch {
		case r.bad || len(r.b) > 0:
			return nil, bad("malformed inode")
		case top < 0 && (i > 0 || !n.IsDir || name != ""):
			return nil, bad("inode %d is neither the root directory nor owed to a directory", i)
		case top < 0:
			img.root = n
		case name == "" || name == "." || name == ".." || strings.Contains(name, Separator) || name <= stack[top].last:
			return nil, bad("name %q is invalid, repeated or out of order", name)
		default:
			p := &stack[top]
			p.left, p.last = p.left-1, name
			p.dir.Children[name] = n
			p.dir.Usage = addCharges(p.dir.Usage, chargesOf(n)) // a directory's comes up once it is done
			img.adopt(p.dir, n)
		}
		if n.IsDir {
			stack = append(stack, owed{dir: n, left: kids})
		}
		for top = len(stack) - 1; top >= 0 && stack[top].left == 0; top-- {
			if top > 0 {
				stack[top-1].dir.Usage = addCharges(stack[top-1].dir.Usage, stack[top].dir.Usage)
			}
			stack = stack[:top]
		}
	}
	if at = off; off < len(data) || len(stack) > 0 {
		return nil, bad("the frames disagree with the header's %d inodes or a directory's child count", count)
	}
	return img, nil
}
