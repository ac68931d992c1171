package net

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
)

// wireStruct is a register value that takes the gob path.
type wireStruct struct {
	A int64
	S string
	L []int
}

func init() {
	prim.RegisterWireType(wireStruct{})
	prim.RegisterWireType(qa.Decision[objtype.CounterOp]{})
}

// sampleFrames is a request and a reply for every way a value can cross:
// nil, the six inline kinds at their edges, and two registered structs.
func sampleFrames() []frame {
	vals := []any{
		nil,
		int64(77), int64(math.MinInt64),
		int(-5), math.MaxInt,
		true, false,
		"", "leader", string([]byte{0, 0xff, '\n'}),
		3.5, math.Inf(-1), 0.0,
		wireStruct{A: -1, S: "x", L: []int{1, 2, 3}},
		qa.Decision[objtype.CounterOp]{Decided: true, D: qa.Desc[objtype.CounterOp]{Proc: 2, Seq: 9, Op: objtype.CounterOp{Delta: 4}}},
		wireStruct{}, // a second value of a type whose descriptor has crossed
	}
	var fs []frame
	for i, v := range vals {
		req := Request{Op: uint64(i) + 1<<40, Phase: phaseWrite, Reg: "qa[0].D[17]", To: 2, Src: -1, Client: 1,
			TS: Timestamp{C: int64(i), Tag: 513}, Val: v}
		rep := Reply{Op: req.Op, Phase: phaseRead, Node: 2, Src: -1, TS: Timestamp{C: math.MaxInt64, Tag: -1}, Val: v, Has: i%2 == 0}
		fs = append(fs, req.frame(), rep.frame())
	}
	fs = append(fs, (&Request{Phase: phaseRead}).frame()) // an empty register name
	return fs
}

// encodeAll frames fs through one encoder, as one connection would.
func encodeAll(tb testing.TB, fs []frame) []byte {
	tb.Helper()
	enc := newEncoder()
	for _, f := range fs {
		if err := enc.append(f); err != nil {
			tb.Fatal(err)
		}
	}
	return enc.buf
}

// Every frame survives the round trip through a connection's codec state,
// as a Request and as a Reply, including an untyped nil value (a register
// that was never written) and a struct whose type descriptor crossed in an
// earlier frame; and a second connection starts from nothing.
func TestFrameRoundTrip(t *testing.T) {
	fs := sampleFrames()
	stream := encodeAll(t, fs)
	for conn := 0; conn < 2; conn++ {
		dec := newDecoder(bytes.NewReader(stream))
		for i, want := range fs {
			got, err := dec.next()
			if err != nil {
				t.Fatalf("connection %d, frame %d: %v", conn, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("connection %d, frame %d: got %+v, want %+v", conn, i, got, want)
			}
		}
		if _, err := dec.next(); err == nil {
			t.Fatal("decoded a frame past the end of the stream")
		}
	}
	in := Request{Op: 9, Phase: phaseWrite, Reg: "r", To: 2, Src: -1, Client: 1, TS: Timestamp{C: 3, Tag: 513}, Val: int64(77)}
	f := in.frame()
	if out := f.request(); out != in {
		t.Fatalf("request through a frame: got %+v, want %+v", out, in)
	}
	rep := Reply{Op: 9, Phase: phaseRead, Node: 2, Src: 1, TS: Timestamp{C: 1, Tag: 2}, Val: "v", Has: true}
	f = rep.frame()
	if out := f.reply(); out != rep {
		t.Fatalf("reply through a frame: got %+v, want %+v", out, rep)
	}
}

// hostileStreams are the four ways bytes go wrong, each after one good
// frame: a frame cut short, a length beyond maxFrame, a value kind nobody
// defined, and noise.
func hostileStreams(tb testing.TB) map[string][]byte {
	good := encodeAll(tb, sampleFrames()[2:3]) // a request carrying an int64
	with := func(tail ...byte) []byte { return append(append([]byte(nil), good...), tail...) }
	badKind := append([]byte(nil), good...)
	badKind[len(badKind)-9] = 0x7f // the kind byte, before the value's 8
	noise := make([]byte, 256)
	for i := range noise {
		noise[i] = byte(i*131 + 7)
	}
	return map[string][]byte{
		"truncated":    with(good[:len(good)/2]...),
		"oversized":    with(0xff, 0xff, 0xff, 0xff, 1, 2, 3),
		"unknown-kind": with(badKind...),
		"noise":        with(noise...),
	}
}

// The decoder refuses each hostile stream after its good frame, and an
// out-of-range length before it has allocated for it.
func TestFrameDecodeRefusesHostileBytes(t *testing.T) {
	for name, stream := range hostileStreams(t) {
		dec := newDecoder(bytes.NewReader(stream))
		if _, err := dec.next(); err != nil {
			t.Fatalf("%s: the good frame: %v", name, err)
		}
		if f, err := dec.next(); err == nil {
			t.Fatalf("%s: decoded %+v", name, f)
		}
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	dec := newDecoder(bytes.NewReader(huge[:]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := dec.next()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
		t.Fatalf("a length of maxFrame+1: error %v after allocating %d bytes", err, grew)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to a connection's decoder: it must
// not panic and must not allocate beyond what maxFrame allows, and
// whatever it does accept must be something the encoder produces — framed
// again, the accepted frames decode to values that frame to the same
// bytes. The seed corpus is the round-trip test's frames, one by one and
// as a stream, and the hostile streams, so plain `go test` runs it.
func FuzzFrameDecode(f *testing.F) {
	fs := sampleFrames()
	for _, fr := range fs {
		f.Add(encodeAll(f, []frame{fr}))
	}
	f.Add(encodeAll(f, fs))
	for _, stream := range hostileStreams(f) {
		f.Add(stream)
	}
	decodeAll := func(data []byte) []frame {
		var got []frame
		dec := newDecoder(bytes.NewReader(data))
		for {
			fr, err := dec.next()
			if err != nil {
				return got
			}
			got = append(got, fr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := decodeAll(data)
		runtime.ReadMemStats(&after)
		// One frame buffer of at most maxFrame, and values no larger than
		// a small multiple of the bytes that carried them.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxFrame+1<<20+16*len(data)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		again := encodeAll(t, got)
		if twice := encodeAll(t, decodeAll(again)); !bytes.Equal(again, twice) {
			t.Fatalf("%d accepted frames do not survive the encoder:\n% x\n% x", len(got), again, twice)
		}
	})
}

// BenchmarkFrameCodec measures one frame through a connection's codec
// state, encode and decode: the heartbeat and counter traffic (an int64
// request), a read-phase reply from an unwritten register (nil), and a qa
// decision (the gob path, descriptors already across).
func BenchmarkFrameCodec(b *testing.B) {
	req := Request{Op: 1 << 20, Phase: phaseWrite, Reg: "HbRegister[1][2]", To: 2, Src: -1, Client: 1,
		TS: Timestamp{C: 1 << 30, Tag: 1<<28 | 1}, Val: int64(1 << 30)}
	nilRep := Reply{Op: 1 << 20, Phase: phaseRead, Node: 2, Src: -1}
	decision := Reply{Op: 1 << 20, Phase: phaseRead, Node: 2, Src: -1, TS: req.TS, Has: true,
		Val: qa.Decision[objtype.CounterOp]{Decided: true, D: qa.Desc[objtype.CounterOp]{Proc: 2, Seq: 9, Op: objtype.CounterOp{Delta: 1}}}}
	for _, c := range []struct {
		name string
		f    frame
	}{
		{"int64-request", req.frame()},
		{"nil-reply", nilRep.frame()},
		{"decision-reply", decision.frame()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var conn bytes.Buffer
			enc, dec := newEncoder(), newDecoder(&conn)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.append(c.f); err != nil {
					b.Fatal(err)
				}
				if err := enc.flush(&conn); err != nil {
					b.Fatal(err)
				}
				if _, err := dec.next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
