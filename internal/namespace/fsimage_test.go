package namespace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// testImage returns the image of a namespace with every kind of inode:
// nested directories, a quota, sealed and open files with blocks.
func testImage(t *testing.T) []byte {
	t.Helper()
	ns, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return ns.Mkdir("/a/b", true, "alice") },
		func() error { return ns.SetQuota("/a", core.TierMemory, 1<<30) },
		func() error { _, err := ns.Create("/a/b/f", rv3, 1024, false, "bob"); return err },
		func() error { _, _, err := ns.AddBlock("/a/b/f"); return err },
		func() error { _, _, err := ns.AddBlock("/a/b/f"); return err },
		func() error { return ns.Complete("/a/b/f", &core.Block{ID: 2, NumBytes: 9}) },
		func() error {
			_, err := ns.Create("/a/open", core.NewReplicationVector(1, 0, 1, 0, 0), 0, false, "carol")
			return err
		},
		func() error { _, _, err := ns.AddBlock("/a/open"); return err },
		func() error { return ns.Mkdir("/empty", false, "dave") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	data, err := ns.ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// imageFrames splits a well-formed image into its frames.
func imageFrames(t *testing.T, img []byte) (frames [][]byte) {
	t.Helper()
	for rest := img[len(imageMagic):]; len(rest) > 0; {
		end := editFrameHdr + int(binary.LittleEndian.Uint32(rest))
		frames, rest = append(frames, rest[:end]), rest[end:]
	}
	return frames
}

// frameOf frames a payload the way the image writer does.
func frameOf(payload []byte) []byte {
	buf, start := openFrame(nil)
	return sealFrame(append(buf, payload...), start)
}

func imageOf(frames ...[]byte) []byte {
	return append([]byte(imageMagic), bytes.Join(frames, nil)...)
}

func header(tx, nextBlock, nextGen, count uint64) []byte {
	var p []byte
	for _, v := range []uint64{tx, nextBlock, nextGen, count} {
		p = binary.AppendUvarint(p, v)
	}
	return frameOf(p)
}

// dirFrame is a directory inode claiming kids children.
func dirFrame(name string, kids int) []byte {
	n := &INode{Name: name, IsDir: true, Children: make([]*INode, kids)}
	return appendInode(nil, n)
}

func fileFrame(name string, blocks ...core.Block) []byte {
	return appendInode(nil, &INode{Name: name, RepVector: rv3, BlockSize: 1024, Blocks: blocks})
}

// rewrite returns frame with its payload edited and the checksum redone.
func rewrite(frame []byte, edit func(payload []byte) []byte) []byte {
	return frameOf(edit(bytes.Clone(frame[editFrameHdr:])))
}

func metaFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestImageCorruptionIsRefused: every strict prefix of a good image, a
// flipped bit in each frame's header and payload, each kind of bad tree,
// and an image of the gob format the framed one replaced fail Open with
// the offset of the bad frame before anything under the metadata
// directory is touched, and fail LoadImageBytes with the standby's tree
// unchanged.
func TestImageCorruptionIsRefused(t *testing.T) {
	good := testImage(t)
	frames := imageFrames(t, good)
	if _, err := decodeImage(good, 0); err != nil {
		t.Fatalf("the good image: %v", err)
	}
	if _, err := decodeImage(imageOf(header(0, 3, 3, 2), dirFrame("", 1), fileFrame("f", core.Block{ID: 2, GenStamp: 2})), 0); err != nil {
		t.Fatalf("a hand-made good image: %v", err)
	}

	type bad struct {
		name, why string
		data      []byte
	}
	var cases []bad
	for n := 0; n < len(good); n++ {
		cases = append(cases, bad{fmt.Sprintf("prefix of %d bytes", n), "", good[:n]})
	}
	off := len(imageMagic)
	for i, f := range frames {
		for _, at := range []int{0, 3, 4, 7, editFrameHdr, len(f) - 1} {
			flipped := bytes.Clone(good)
			flipped[off+at] ^= 0x10
			cases = append(cases, bad{fmt.Sprintf("frame %d, bit flip at %d", i, at), "", flipped})
		}
		off += len(f)
	}
	overrun := bytes.Clone(good)
	binary.LittleEndian.PutUint32(overrun[off-len(frames[len(frames)-1]):], uint32(len(frames[len(frames)-1])))
	var oldGob bytes.Buffer
	if err := gob.NewEncoder(&oldGob).Encode(struct {
		Root                 *INode
		NextBlockID, NextGen uint64
		TxID                 uint64
	}{newDirectory("", "root", 1), 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	root1, root2 := dirFrame("", 1), dirFrame("", 2)
	blk := core.Block{ID: 2, GenStamp: 2}
	cases = append(cases,
		bad{"last frame overruns the end", "cut short", overrun},
		bad{"header frame overruns the end", "cut short", append(imageOf(), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)},
		bad{"old gob image", "before the framed format", oldGob.Bytes()},
		bad{"zero counters", "malformed header", imageOf(header(0, 0, 1, 1), dirFrame("", 0))},
		bad{"zero inodes", "malformed header", imageOf(header(0, 1, 1, 0))},
		bad{"header with a byte left over", "malformed header", imageOf(rewrite(header(0, 1, 1, 1), func(p []byte) []byte { return append(p, 0) }), dirFrame("", 0))},
		bad{"inode count too high", "cut short", imageOf(header(0, 3, 3, 3), root1, fileFrame("f", blk))},
		bad{"inode count too low", "disagree with the header's 2 inodes", imageOf(header(0, 3, 3, 2), root1, fileFrame("f", blk), fileFrame("g"))},
		bad{"child count too high", "cut short", imageOf(header(0, 3, 3, 3), root2, fileFrame("f", blk))},
		bad{"child count too low", "inode 1 is neither the root directory nor owed", imageOf(header(0, 3, 3, 2), dirFrame("", 0), fileFrame("f", blk))},
		bad{"child count past the inodes left", "disagree with the header's 2 inodes", imageOf(header(0, 3, 3, 2), root2, dirFrame("d", 0))},
		bad{"root is a file", "inode 0 is neither the root directory", imageOf(header(0, 3, 3, 1), fileFrame(""))},
		bad{"root has a name", "inode 0 is neither the root directory", imageOf(header(0, 3, 3, 1), dirFrame("r", 0))},
		bad{"empty name", "is invalid, repeated or out of order", imageOf(header(0, 3, 3, 2), root1, fileFrame(""))},
		bad{"name with a slash", "is invalid, repeated or out of order", imageOf(header(0, 3, 3, 2), root1, fileFrame("a/b"))},
		bad{"name ..", "is invalid, repeated or out of order", imageOf(header(0, 3, 3, 2), root1, fileFrame(".."))},
		bad{"duplicate name", "is invalid, repeated or out of order", imageOf(header(0, 3, 3, 3), root2, fileFrame("f"), fileFrame("f"))},
		bad{"names out of order", "is invalid, repeated or out of order", imageOf(header(0, 3, 3, 3), root2, fileFrame("g"), fileFrame("f"))},
		bad{"block ID at the next block ID", "not below the header's", imageOf(header(0, 2, 3, 2), root1, fileFrame("f", blk))},
		bad{"gen at the next gen", "not below the header's", imageOf(header(0, 3, 2, 2), root1, fileFrame("f", blk))},
		bad{"block ID zero", "not below the header's", imageOf(header(0, 3, 3, 2), root1, fileFrame("f", core.Block{GenStamp: 1}))},
		bad{"open directory", "malformed inode", imageOf(header(0, 1, 1, 1), rewrite(dirFrame("", 0), func(p []byte) []byte { p[1] = inodeDir | inodeOpen; return p }))},
		bad{"unknown flag", "malformed inode", imageOf(header(0, 1, 1, 1), rewrite(dirFrame("", 0), func(p []byte) []byte { p[1] = 8; return p }))},
		bad{"a byte left over", "malformed inode", imageOf(header(0, 1, 1, 1), rewrite(dirFrame("", 0), func(p []byte) []byte { return append(p, 0) }))},
		bad{"half a block", "malformed inode", imageOf(header(0, 3, 3, 2), root1, rewrite(fileFrame("f", blk), func(p []byte) []byte { return p[:len(p)-1] }))},
		bad{"a varint longer than it needs", "malformed inode", imageOf(header(0, 1, 1, 1), rewrite(dirFrame("", 0), func(p []byte) []byte {
			return append(p[:len(p)-1], 0x80, 0) // the last quota, zero in two bytes
		}))},
	)

	dir := t.TempDir()
	edits := appendFrame([]byte(editMagic), EditRecord{TxID: 1 << 40, Op: EditMkdir, Path: "/x", Time: 1})
	standby := volatileNS(t)
	if err := standby.LoadImageBytes(good); err != nil {
		t.Fatal(err)
	}
	if err := standby.Mkdir("/standby-only", false, "u"); err != nil {
		t.Fatal(err)
	}
	standbyState := fullState(t, standby)
	for _, c := range cases {
		if err := os.WriteFile(filepath.Join(dir, imageFile), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, editsFile), edits, 0o644); err != nil {
			t.Fatal(err)
		}
		before := metaFiles(t, dir)
		ns, err := Open(dir)
		if err == nil {
			ns.Close()
			t.Fatalf("%s: Open succeeded", c.name)
		}
		if !strings.Contains(err.Error(), "fsimage corrupt at byte ") || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%s: err = %v, want an offset and %q", c.name, err, c.why)
		}
		if after := metaFiles(t, dir); len(after) != len(before) || after[imageFile] != before[imageFile] || after[editsFile] != before[editsFile] {
			t.Fatalf("%s: the failed Open changed the metadata directory", c.name)
		}
		if err := standby.LoadImageBytes(c.data); err == nil {
			t.Fatalf("%s: LoadImageBytes succeeded", c.name)
		}
		if got := fullState(t, standby); got != standbyState {
			t.Fatalf("%s: the failed LoadImageBytes changed the standby's tree", c.name)
		}
	}
}

// resealed returns data with the checksum of every whole frame made
// right, so that mutations inside payloads reach the tree decoder.
func resealed(data []byte) []byte {
	if !bytes.HasPrefix(data, []byte(imageMagic)) {
		return data
	}
	out := bytes.Clone(data)
	for rest := out[len(imageMagic):]; len(rest) >= editFrameHdr; {
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n > uint64(len(rest)-editFrameHdr) {
			break
		}
		binary.LittleEndian.PutUint32(rest[4:], frameSum(rest[:4], rest[editFrameHdr:editFrameHdr+n]))
		rest = rest[editFrameHdr+n:]
	}
	return out
}

// FuzzReadImage: the loader never panics; what it accepts is frames that
// frameWalk reads to the end, with usage equal to the files' charges, and
// it re-encodes to the very same bytes — the encoding is canonical, so an
// image has one reading. Each input is tried as it is and resealed.
func FuzzReadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			img, err := decodeImage(in, 0)
			if err != nil {
				if !strings.Contains(err.Error(), "fsimage corrupt at byte ") {
					t.Fatalf("error without an offset: %v", err)
				}
				continue
			}
			if n, clean := frameWalk(in[len(imageMagic):], math.MaxUint32, func([]byte) bool { return true }); !clean || n < 2 {
				t.Fatalf("accepted %d bytes whose %d good frames do not end where they do", len(in), n)
			}
			if sum := summarize(img.root); img.root.Usage != sum.TierBytes {
				t.Fatalf("root usage %v, files charge %v", img.root.Usage, sum.TierBytes)
			}
			if re := img.imageBytesLocked(); !bytes.Equal(re, in) {
				t.Fatalf("%d bytes decode, but re-encode to %d other bytes", len(in), len(re))
			}
		}
	})
}
