package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// One frame format serves both ports. A frame is
//
//	[0x01][u32 LE length][u8 type][body…]
//
// where length counts the type byte and the body. On a worker's data
// port the type names one of the four block messages (wire.go); on the
// master's port it names the method (methods.go), and a reply's body
// starts with the error string. A body is fixed little-endian integers,
// one byte per bool, and u32-length-prefixed strings and lists, laid out
// by each message's wire method. The leading tag lets a reader refuse
// anything else — the gob frames older builds sent start with 0x00 —
// before it trusts a length.
const frameTagBinary = 0x01

// frameHeaderLen is the tag and the length prefix.
const frameHeaderLen = 5

// frameScratch pools frame assembly and parse buffers: frames are
// mostly small and constant-rate, so steady state allocates none.
var frameScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// maxPooledScratch keeps a buffer that one large frame (an image, a
// long listing) grew out of the pool, so it is not pinned for good.
const maxPooledScratch = 64 << 10

func getScratch() *[]byte { return frameScratch.Get().(*[]byte) }

func putScratch(bp *[]byte) {
	if cap(*bp) <= maxPooledScratch {
		*bp = (*bp)[:0]
		frameScratch.Put(bp)
	}
}

// beginFrame appends a frame header of type typ with the length left
// for sealFrame to fill in.
func beginFrame(buf []byte, typ byte) []byte {
	return append(buf, frameTagBinary, 0, 0, 0, 0, typ)
}

// sealFrame writes the length of the frame begun at buf[start:],
// refusing one longer than limit.
func sealFrame(buf []byte, start int, limit uint32) error {
	n := len(buf) - start - frameHeaderLen
	if uint64(n) > uint64(limit) {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(n))
	return nil
}

// readFrame reads one frame of at most limit bytes from r into *buf and
// returns its type and body, which alias *buf. The tag is checked before
// the length is trusted, and *buf grows with the bytes that arrive, not
// with the length claimed, so a forged length costs no more memory than
// the data sent.
func readFrame(r io.Reader, buf *[]byte, limit uint32) (typ byte, body []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameTagBinary {
		return 0, nil, fmt.Errorf("rpc: unknown frame tag 0x%02x", hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("rpc: reading frame length: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > limit {
		return 0, nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("rpc: empty frame")
	}
	b := (*buf)[:0]
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(n)-len(b), max(len(b), 64<<10)))
		}
		chunk := b[len(b):min(cap(b), int(n))]
		_, err := io.ReadFull(r, chunk)
		b = b[:len(b)+len(chunk)]
		*buf = b
		if err != nil {
			return 0, nil, fmt.Errorf("rpc: reading frame body: %w", err)
		}
	}
	return b[0], b[1:], nil
}

// message is a frame body with a binary layout: its wire method names
// every field once, in order, for encoding and decoding alike, so the
// two directions cannot disagree.
type message interface {
	wire(c *coder)
}

// coder runs a wire method in one direction: appending to buf, or,
// when dec is set, consuming buf. Decoding latches the first error —
// input too short or not in the one form encoding produces — so wire
// methods stay straight-line.
type coder struct {
	buf []byte
	dec bool
	bad bool
}

// encode appends m's body to buf.
func encode(buf []byte, m message) []byte {
	c := coder{buf: buf}
	m.wire(&c)
	return c.buf
}

// decode fills m from body, which it must consume exactly.
func decode(body []byte, m message) error {
	c := coder{buf: body, dec: true}
	m.wire(&c)
	return c.done(m)
}

// done reports how decoding into m went.
func (c *coder) done(m any) error {
	if c.bad {
		return fmt.Errorf("rpc: truncated or malformed frame for %T", m)
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("rpc: %d trailing bytes in frame for %T", len(c.buf), m)
	}
	return nil
}

// take consumes the next n input bytes, or returns nil and latches bad
// when fewer remain.
func (c *coder) take(n int) []byte {
	if c.bad || n < 0 || len(c.buf) < n {
		c.bad = true
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// length carries a string or list length as a u32: n out, the decoded
// count in.
func (c *coder) length(n int) int {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		return n
	}
	if b := c.take(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// num carries a 64-bit integer.
func num[T ~int | ~int64 | ~uint64](c *coder, v *T) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = T(binary.LittleEndian.Uint64(b))
	}
}

// num32 carries a 32-bit integer.
func num32[T ~uint32](c *coder, v *T) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = T(binary.LittleEndian.Uint32(b))
	}
}

// small carries a one-byte value such as a storage tier.
func small[T ~uint8](c *coder, v *T) {
	if !c.dec {
		c.buf = append(c.buf, byte(*v))
	} else if b := c.take(1); b != nil {
		*v = T(b[0])
	}
}

// flag carries a bool as 0 or 1; any other byte is malformed.
func flag(c *coder, v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if b := c.take(1); b != nil {
		c.bad = c.bad || b[0] > 1
		*v = b[0] == 1
	}
}

// float carries a float64 by its bits.
func float(c *coder, v *float64) {
	bits := math.Float64bits(*v)
	num(c, &bits)
	if c.dec {
		*v = math.Float64frombits(bits)
	}
}

// str carries a string.
func str[T ~string](c *coder, v *T) {
	n := c.length(len(*v))
	if !c.dec {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(n); b != nil {
		*v = T(b)
	}
}

// blob carries a byte string, such as an image. A decoded length is
// bounded by the frame, and the bytes are copied out of it; an empty
// string decodes as nil, so a body has one encoding.
func blob(c *coder, v *[]byte) {
	n := c.length(len(*v))
	if !c.dec {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(n); len(b) > 0 {
		*v = slices.Clone(b)
	}
}

// smallList is the longest list decoded without first checking that
// the rest of the frame can hold it: a forged count can size at most
// this many elements before the body runs out.
const smallList = 16

// list carries a slice, each element by elem. A decoded count must fit
// in what is left of the frame at the size of a zero element, the
// smallest any element encodes to, so no count sizes an allocation the
// frame could not fill.
func list[T any](c *coder, s *[]T, elem func(*coder, *T)) {
	n := c.length(len(*s))
	if c.dec {
		if n > len(c.buf) || n > smallList && n*zeroSize(elem) > len(c.buf) {
			c.bad = true
		}
		if c.bad || n == 0 {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// zeroSize is the encoded size of a zero T.
func zeroSize[T any](elem func(*coder, *T)) int {
	var zero T
	c := coder{}
	elem(&c, &zero)
	return len(c.buf)
}
