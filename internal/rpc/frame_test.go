package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xfer"
)

// fill sets every exported field reachable from v to a random non-zero
// value, so a round trip shows a field its codec forgot.
func fill(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(string(rune('a'+r.Intn(26))) + "-" + string(rune('a'+r.Intn(26))))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1 + r.Int63n(1<<40))
	case reflect.Uint8:
		v.SetUint(1 + uint64(r.Intn(200)))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(1 + uint64(r.Int31()))
	case reflect.Float64:
		v.SetFloat(1 + r.Float64())
	case reflect.Slice:
		n := 1 + r.Intn(3)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(v.Index(i), r)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), r)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 1+r.Intn(3); i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, r)
			fill(e, r)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i), r)
			}
		}
	}
}

// blockMessages makes one of each data-port message.
var blockMessages = []func() blockMessage{
	func() blockMessage { return new(WriteBlockHeader) },
	func() blockMessage { return new(WriteBlockAck) },
	func() blockMessage { return new(ReadBlockHeader) },
	func() blockMessage { return new(ReadBlockResponse) },
}

// TestMessagesRoundTripEveryField fills every field of every message of
// both ports and checks it survives its codec; an image, the one body
// that can run to megabytes, also round-trips empty and at 3 MiB.
func TestMessagesRoundTripEveryField(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(name string, in, out message) {
		t.Helper()
		if err := decode(encode(nil, in), out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s changed in a round trip:\n in %+v\nout %+v", name, in, out)
		}
	}
	filled := func(m message) message {
		fill(reflect.ValueOf(m).Elem(), r)
		return m
	}
	for _, m := range methods[1:] {
		check(m.name+" args", filled(m.args()), m.args())
		check(m.name+" reply", filled(m.reply()), m.reply())
	}
	for _, newMsg := range blockMessages {
		check(reflect.TypeOf(newMsg()).String(), filled(newMsg()), newMsg())
	}
	big := make([]byte, 3<<20)
	r.Read(big)
	for _, image := range [][]byte{nil, big} {
		check(fmt.Sprintf("%d-byte image", len(image)), &ImageReply{Image: image}, new(ImageReply))
		frame := appendReply(nil, methodIDs["Master.GetImage"], "", &ImageReply{Image: image})
		got := decodeEveryWay(frame)
		if len(got) == 0 {
			t.Errorf("%d-byte image reply frame refused", len(image))
		}
		for _, d := range got {
			if again, err := d.again(); err != nil || !bytes.Equal(again, frame) {
				t.Errorf("%d-byte image reply frame re-encodes differently (%v)", len(image), err)
			}
		}
	}
}

// sampleFrames returns a valid frame of every kind both ports carry: each
// block message, and each method's request, reply and error reply, filled
// and zero-valued (empty strings, lists and images).
func sampleFrames() [][]byte {
	r := rand.New(rand.NewSource(2))
	var frames [][]byte
	for _, newMsg := range blockMessages {
		m := newMsg()
		fill(reflect.ValueOf(m).Elem(), r)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, reflect.ValueOf(m).Elem().Interface()); err != nil {
			panic(err)
		}
		frames = append(frames, buf.Bytes())
	}
	for id, m := range methods {
		if m.name == "" {
			continue
		}
		args, reply := m.args(), m.reply()
		fill(reflect.ValueOf(args).Elem(), r)
		fill(reflect.ValueOf(reply).Elem(), r)
		req, err := appendRequest(nil, byte(id), args)
		if err != nil {
			panic(err)
		}
		frames = append(frames, req,
			appendReply(nil, byte(id), "", reply),
			appendReply(nil, byte(id), "E_NOTFOUND: /x: not found [req=0123456789abcdef]", nil))
	}
	for id, m := range methods {
		if m.name == "" {
			continue
		}
		req, err := appendRequest(nil, byte(id), m.args())
		if err != nil {
			panic(err)
		}
		frames = append(frames, req, appendReply(nil, byte(id), "", m.reply()))
	}
	return frames
}

// decoded is one reading of a fuzz input a decoder accepted.
type decoded struct {
	frame []byte // the bytes it consumed
	again func() ([]byte, error)
}

// decodeEveryWay runs every decoder of both ports on data and returns
// what each accepted, with a way to encode it again.
func decodeEveryWay(data []byte) []decoded {
	var out []decoded
	frameLen := func() int { return frameHeaderLen + int(binary.LittleEndian.Uint32(data[1:])) }
	for _, newMsg := range blockMessages {
		m := newMsg()
		if ReadFrame(bytes.NewReader(data), m) == nil {
			out = append(out, decoded{data[:frameLen()], func() ([]byte, error) {
				buf := encode(beginFrame(nil, m.frameType()), m)
				return buf, sealFrame(buf, 0, maxFrameSize)
			}})
		}
	}
	var buf []byte
	id, body, err := readFrame(bytes.NewReader(data), &buf, maxMasterFrame)
	if err != nil || int(id) >= len(methods) || methods[id].name == "" {
		return out
	}
	frame := data[:frameLen()]
	if args := methods[id].args(); decode(body, args) == nil {
		out = append(out, decoded{frame, func() ([]byte, error) { return appendRequest(nil, id, args) }})
	}
	c := coder{buf: body, dec: true}
	var errMsg string
	str(&c, &errMsg)
	switch reply := methods[id].reply(); {
	case c.bad:
	case errMsg != "":
		if len(c.buf) == 0 {
			out = append(out, decoded{frame, func() ([]byte, error) { return appendReply(nil, id, errMsg, nil), nil }})
		}
	case decode(c.buf, reply) == nil:
		out = append(out, decoded{frame, func() ([]byte, error) { return appendReply(nil, id, "", reply), nil }})
	}
	return out
}

// FuzzDecodeFrame feeds arbitrary bytes to every frame decoder of both
// ports. None may panic or allocate much beyond the bytes it was given,
// and whatever one accepts must encode back to exactly the bytes it
// consumed: a body has one encoding.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range sampleFrames() {
		f.Add(frame)
	}
	// A listing as the master sends it: the directory once, then each
	// entry by name.
	f.Add(appendReply(nil, methodIDs["Master.List"], "", &ListReply{Dir: "/d", Entries: []FileStatus{
		{Path: "x", Length: 5, BlockSize: 1 << 20, ModTime: 1, Owner: "u"},
		{Path: "y", IsDir: true, ModTime: 2, Owner: "u"},
	}}))
	// A heartbeat as a worker sends it: records only, the traced one
	// naming the upstream span the master parents its derived span under.
	beat, err := appendRequest(nil, methodIDs["Master.Heartbeat"], &HeartbeatArgs{ID: "w1", Transfers: []xfer.Record{
		{Time: 9, Op: "write", Source: "worker:w1", Block: 7, Tier: "SSD", TraceID: "feedfacefeedface",
			SpanID: "0123456789abcdef", ParentID: "fedcba9876543210", Result: "ok", Bytes: 5, DiskNs: 3, TotalNs: 8},
		{Time: 10, Op: "read", Source: "worker:w1", Block: 8, Result: "ok"},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(beat)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		accepted := decodeEveryWay(data)
		runtime.ReadMemStats(&after)
		// A body grows in 64 KiB steps as it arrives.
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+256<<10); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), n, bound)
		}
		for _, d := range accepted {
			again, err := d.again()
			if err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if !bytes.Equal(again, d.frame) {
				t.Fatalf("accepted frame % x re-encodes as % x", d.frame, again)
			}
		}
	})
}

// TestCheckedInCorpusIsRefused: the checked-in fuzz corpus holds one
// malformed frame per way a frame can be wrong — forged lengths and
// counts, a foreign tag, a bool that is not 0 or 1, span annotations out
// of order, trailing bytes — and no decoder accepts any of them.
func TestCheckedInCorpusIsRefused(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := decodeEveryWay([]byte(data)); len(got) != 0 {
			t.Errorf("%s: accepted as % x", filepath.Base(name), got[0].frame)
		}
	}
}
