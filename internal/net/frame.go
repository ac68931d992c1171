package net

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"

	"tbwf/internal/prim"
)

// The TCP wire format. A connection carries frames in both directions —
// Requests to the node, Replies back — and both are the same layout:
//
//	length  uint32   bytes that follow, at most maxFrame
//	Op      uint64
//	Phase   uint8
//	Has     uint8    0 or 1 (Reply only)
//	Node    int64    Request.To, Reply.Node
//	Src     int64
//	Client  int64    (Request only)
//	TS.C    int64
//	TS.Tag  int64
//	len(Reg) uint32, Reg   (Request only)
//	kind    uint8    then the value, which runs to the end of the frame
//
// all big-endian. The six value kinds that make up nine frames in ten —
// heartbeats, counters, read-phase requests — are inline; any other type
// crosses as kindGob, a run of messages of the connection's gob stream.
// That stream's encoder and decoder live as long as the connection, so a
// type's descriptor crosses once per connection instead of once per frame,
// and a new connection starts from fresh state on both sides.
const (
	kindNil     byte = iota // no payload
	kindInt64               // 8 bytes
	kindInt                 // 8 bytes
	kindBool                // 1 byte, 0 or 1
	kindString              // the bytes
	kindFloat64             // 8 bytes, IEEE 754 bits
	kindGob                 // gob messages: type descriptors not yet sent, then the value
)

const (
	// maxFrame bounds a frame, to keep a corrupt length prefix from forcing
	// a giant allocation.
	maxFrame = 16 << 20
	// headerLen is the fixed part of a frame, up to and including len(Reg).
	headerLen = 8 + 1 + 1 + 5*8 + 4
	// readBuffer sizes a connection's buffered reader: one read call takes
	// in a whole burst of frames.
	readBuffer = 16 << 10
	// burstBytes is as much as an encoder gathers before it writes, and
	// the largest frame buffer a decoder keeps from one frame to the next.
	burstBytes = 64 << 10
)

// frame is what crosses a connection: the union of Request and Reply.
type frame struct {
	Op     uint64
	Phase  uint8
	Has    bool
	Node   int
	Src    int
	Client int
	TS     Timestamp
	Reg    string
	Val    any
}

func (r *Request) frame() frame {
	return frame{Op: r.Op, Phase: r.Phase, Node: r.To, Src: r.Src, Client: r.Client, TS: r.TS, Reg: r.Reg, Val: r.Val}
}

func (f *frame) request() Request {
	return Request{Op: f.Op, Phase: f.Phase, Reg: f.Reg, To: f.Node, Src: f.Src, Client: f.Client, TS: f.TS, Val: f.Val}
}

func (r *Reply) frame() frame {
	return frame{Op: r.Op, Phase: r.Phase, Has: r.Has, Node: r.Node, Src: r.Src, TS: r.TS, Val: r.Val}
}

func (f *frame) reply() Reply {
	return Reply{Op: f.Op, Phase: f.Phase, Node: f.Node, Src: f.Src, TS: f.TS, Val: f.Val, Has: f.Has}
}

// The gob path needs every concrete type that crosses a register as a
// struct registered with gob. registerWireTypes brings gob up to date with
// the prim registry; both ends call it whenever a value takes the gob
// path, so a type registered after the transport started still crosses.
var (
	wireMu      sync.Mutex
	wireDrained int
	wireSeen    = map[reflect.Type]bool{}
)

func registerWireTypes() {
	wireMu.Lock()
	defer wireMu.Unlock()
	for _, v := range prim.WireTypesFrom(wireDrained) {
		wireDrained++
		if t := reflect.TypeOf(v); v != nil && !wireSeen[t] {
			wireSeen[t] = true
			gob.Register(v)
		}
	}
}

// encoder is the sending half of a connection's codec state. It gathers
// frames in buf until flush writes them out in one call.
type encoder struct {
	buf  []byte
	gob  *gob.Encoder // writes to gobW
	gobW bytes.Buffer // gob output not yet put in a frame
}

func newEncoder() *encoder {
	e := &encoder{}
	e.gob = gob.NewEncoder(&e.gobW)
	return e
}

// append adds one frame to the pending output. An error means the value
// cannot be encoded; the pending output is as it was, and the connection
// is still good.
func (e *encoder) append(f frame) error {
	start := len(e.buf)
	b := append(e.buf, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, f.Op)
	has := byte(0)
	if f.Has {
		has = 1
	}
	b = append(b, f.Phase, has)
	for _, v := range [...]int64{int64(f.Node), int64(f.Src), int64(f.Client), f.TS.C, f.TS.Tag} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.Reg)))
	b = append(b, f.Reg...)
	switch v := f.Val.(type) {
	case nil:
		b = append(b, kindNil)
	case int64:
		b = binary.BigEndian.AppendUint64(append(b, kindInt64), uint64(v))
	case int:
		b = binary.BigEndian.AppendUint64(append(b, kindInt), uint64(v))
	case bool:
		bit := byte(0)
		if v {
			bit = 1
		}
		b = append(b, kindBool, bit)
	case string:
		b = append(append(b, kindString), v...)
	case float64:
		b = binary.BigEndian.AppendUint64(append(b, kindFloat64), math.Float64bits(v))
	default:
		registerWireTypes()
		// A pointer to the interface, so that gob sends an interface value:
		// the concrete type's name, then the value. Descriptors that a
		// failed Encode has already written stay in gobW and cross with
		// the next value, as the encoder believes they did.
		if err := e.gob.Encode(&v); err != nil {
			return fmt.Errorf("net: register %q: value of type %T (see prim.RegisterWireType): %w", f.Reg, f.Val, err)
		}
		b = append(append(b, kindGob), e.gobW.Bytes()...)
		e.gobW.Reset()
	}
	n := len(b) - start - 4
	if n > maxFrame {
		return fmt.Errorf("net: register %q: value of type %T: frame of %d bytes exceeds %d", f.Reg, f.Val, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	e.buf = b
	return nil
}

// flush writes the pending frames to w in one call.
func (e *encoder) flush(w io.Writer) error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := w.Write(e.buf)
	if e.buf = e.buf[:0]; cap(e.buf) > 2*burstBytes {
		e.buf = nil // a rare large frame's buffer is not kept
	}
	return err
}

// decoder is the receiving half of a connection's codec state.
type decoder struct {
	r    *bufio.Reader
	pre  [4]byte      // the length prefix being read
	body []byte       // the frame being decoded, reused
	gob  *gob.Decoder // reads from gobR
	gobR bytes.Reader // the gob payload of the frame being decoded
}

func newDecoder(r io.Reader) *decoder {
	d := &decoder{r: bufio.NewReaderSize(r, readBuffer)}
	d.gob = gob.NewDecoder(&d.gobR)
	return d
}

var errFrame = errors.New("net: malformed frame")

// next reads and decodes one frame. Any error — I/O, a length out of
// range, a malformed body — leaves the stream unusable: the caller closes
// the connection, and its successor starts from fresh state.
func (d *decoder) next() (frame, error) {
	var f frame
	if _, err := io.ReadFull(d.r, d.pre[:]); err != nil {
		return f, err
	}
	n := int(binary.BigEndian.Uint32(d.pre[:]))
	if n < headerLen+1 || n > maxFrame {
		return f, fmt.Errorf("%w: length %d out of range", errFrame, n)
	}
	if cap(d.body) < n {
		d.body = make([]byte, n)
	}
	b := d.body[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return f, err
	}
	f.Op = binary.BigEndian.Uint64(b)
	f.Phase = b[8]
	if b[9] > 1 {
		return f, fmt.Errorf("%w: flag %d", errFrame, b[9])
	}
	f.Has = b[9] == 1
	var w [5]int64
	for i := range w {
		w[i] = int64(binary.BigEndian.Uint64(b[10+8*i:]))
	}
	f.Node, f.Src, f.Client, f.TS = int(w[0]), int(w[1]), int(w[2]), Timestamp{C: w[3], Tag: w[4]}
	reg := int(binary.BigEndian.Uint32(b[headerLen-4:]))
	b = b[headerLen:]
	if reg >= len(b) { // the kind byte follows the name
		return f, fmt.Errorf("%w: register name of %d bytes in %d", errFrame, reg, len(b))
	}
	f.Reg = string(b[:reg])
	kind, b := b[reg], b[reg+1:]
	switch {
	case kind == kindNil && len(b) == 0:
	case kind == kindInt64 && len(b) == 8:
		f.Val = int64(binary.BigEndian.Uint64(b))
	case kind == kindInt && len(b) == 8:
		f.Val = int(int64(binary.BigEndian.Uint64(b)))
	case kind == kindBool && len(b) == 1 && b[0] <= 1:
		f.Val = b[0] == 1
	case kind == kindString:
		f.Val = string(b)
	case kind == kindFloat64 && len(b) == 8:
		f.Val = math.Float64frombits(binary.BigEndian.Uint64(b))
	case kind == kindGob:
		registerWireTypes()
		d.gobR.Reset(b)
		var v any // f itself must not escape: most frames never come here
		if err := d.gob.Decode(&v); err != nil {
			return f, fmt.Errorf("%w: %v", errFrame, err)
		}
		f.Val = v
		if d.gobR.Len() != 0 {
			return f, fmt.Errorf("%w: %d bytes after the gob value", errFrame, d.gobR.Len())
		}
	default:
		return f, fmt.Errorf("%w: kind %d with %d bytes", errFrame, kind, len(b))
	}
	if cap(d.body) > burstBytes {
		d.body = nil // a rare large frame's buffer is not kept
	}
	return f, nil
}

// buffered reports whether a whole frame is already in the read buffer, so
// that next will not block.
func (d *decoder) buffered() bool {
	if d.r.Buffered() < 4 {
		return false
	}
	pre, _ := d.r.Peek(4)
	return d.r.Buffered()-4 >= int(binary.BigEndian.Uint32(pre))
}
