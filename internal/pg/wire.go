package pg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Wire codec: the length-prefixed varint encoding shared by the binary
// graph snapshot (binary.go) and the pipeline checkpoint format
// (internal/schema, internal/vectorize, internal/core). WireWriter buffers
// and defers error checks to Flush; WireReader bounds every claimed length
// so corrupt input cannot trigger huge allocations.

// WireWriter writes wire-format primitives to a buffered stream. Write
// errors are sticky and surface at Flush (the bufio contract), so encoders
// can emit unconditionally and check once. Fixed-size primitives are staged
// in a scratch array the writer owns, so writing one allocates nothing.
type WireWriter struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
}

// NewWireWriter wraps w for wire-format output.
func NewWireWriter(w io.Writer) *WireWriter {
	if bw, ok := w.(*bufio.Writer); ok {
		return &WireWriter{bw: bw}
	}
	return &WireWriter{bw: bufio.NewWriter(w)}
}

// Uvarint writes an unsigned varint.
func (w *WireWriter) Uvarint(x uint64) {
	n := binary.PutUvarint(w.scratch[:], x)
	w.bw.Write(w.scratch[:n]) //nolint:errcheck // surfaces at Flush
}

// Varint writes a signed varint.
func (w *WireWriter) Varint(x int64) {
	n := binary.PutVarint(w.scratch[:], x)
	w.bw.Write(w.scratch[:n]) //nolint:errcheck
}

// Byte writes one byte.
func (w *WireWriter) Byte(b byte) {
	w.bw.WriteByte(b) //nolint:errcheck
}

// Bool writes a boolean as one byte.
func (w *WireWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.Byte(b)
}

// Float64 writes a little-endian IEEE-754 double.
func (w *WireWriter) Float64(f float64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(f))
	w.bw.Write(w.scratch[:8]) //nolint:errcheck
}

// String writes a length-prefixed string.
func (w *WireWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.bw.WriteString(s) //nolint:errcheck
}

// Raw writes the magic or other pre-formatted bytes verbatim.
func (w *WireWriter) Raw(p []byte) {
	w.bw.Write(p) //nolint:errcheck
}

// Value writes a property value as (kind byte, payload).
func (w *WireWriter) Value(v Value) error {
	w.Byte(byte(v.Kind()))
	switch v.Kind() {
	case KindNull:
	case KindInt:
		w.Varint(v.AsInt())
	case KindFloat:
		w.Float64(v.AsFloat())
	case KindBool:
		w.Bool(v.AsBool())
	case KindDate, KindTimestamp:
		w.Varint(v.AsTime().Unix())
	case KindString:
		w.String(v.AsString())
	default:
		return fmt.Errorf("pg: cannot encode value kind %v", v.Kind())
	}
	return nil
}

// Flush drains the buffer and returns the first error encountered by any
// prior write.
func (w *WireWriter) Flush() error { return w.bw.Flush() }

// WireReader reads wire-format primitives. It keeps three pieces of reusable
// decode state: a fixed array that doubles stage their bytes in, a scratch
// buffer that string reads stage their bytes in, and an intern table that
// dedups the short, endlessly repeated strings of a graph stream (labels,
// property keys) so decoding a million "Person" nodes allocates the label
// string once. Reset lets one reader (and its warm state) decode many
// streams.
type WireReader struct {
	br *bufio.Reader
	// fixed stages a double's bytes: a stack array handed to io.ReadFull
	// would escape to the heap on every call.
	fixed [8]byte
	// scratch is the staging buffer for string payloads; valid only until
	// the next read call.
	scratch []byte
	// intern maps seen short strings to their canonical copy. Bounded by
	// maxInternEntries; lookups use the m[string(bytes)] form the compiler
	// optimizes to zero allocations.
	intern map[string]string
}

// Intern-table bounds: only short strings (label/key-sized) are interned,
// and the table stops growing — but keeps hitting — past the entry cap, so
// an adversarial high-cardinality stream cannot balloon it.
const (
	maxInternLen     = 128
	maxInternEntries = 1 << 16
)

// NewWireReader wraps r for wire-format input.
func NewWireReader(r io.Reader) *WireReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &WireReader{br: br}
	}
	return &WireReader{br: bufio.NewReader(r)}
}

// Reset redirects the reader to a new stream, keeping the scratch buffer
// and intern table warm, so a decode loop over many streams reuses one
// reader instead of allocating per stream.
func (r *WireReader) Reset(rd io.Reader) {
	if br, ok := rd.(*bufio.Reader); ok {
		r.br = br
		return
	}
	if r.br == nil {
		r.br = bufio.NewReader(rd)
		return
	}
	r.br.Reset(rd)
}

// Uvarint reads an unsigned varint and rejects values above max (a corrupt
// length claim must not drive huge allocations downstream).
func (r *WireReader) Uvarint(max uint64) (uint64, error) {
	x, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, err
	}
	if x > max {
		return 0, fmt.Errorf("pg: varint %d exceeds bound %d (corrupt snapshot)", x, max)
	}
	return x, nil
}

// Varint reads a signed varint.
func (r *WireReader) Varint() (int64, error) {
	return binary.ReadVarint(r.br)
}

// Byte reads one byte.
func (r *WireReader) Byte() (byte, error) {
	return r.br.ReadByte()
}

// Bool reads a one-byte boolean.
func (r *WireReader) Bool() (bool, error) {
	b, err := r.br.ReadByte()
	return b != 0, err
}

// Float64 reads a little-endian IEEE-754 double.
func (r *WireReader) Float64() (float64, error) {
	if _, err := io.ReadFull(r.br, r.fixed[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.fixed[:])), nil
}

// String reads a length-prefixed string (length capped at 1 GiB). The
// payload stages through the reusable scratch buffer, so each call allocates
// only the returned string itself.
func (r *WireReader) String() (string, error) {
	buf, err := r.stringBytes()
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// InternedString is String for low-cardinality strings — labels, property
// keys — that a stream repeats millions of times: short payloads resolve
// through the intern table, so every occurrence after the first allocates
// nothing. Long or over-cap strings fall back to a plain copy.
func (r *WireReader) InternedString() (string, error) {
	buf, err := r.stringBytes()
	if err != nil {
		return "", err
	}
	if len(buf) > maxInternLen {
		return string(buf), nil
	}
	if s, ok := r.intern[string(buf)]; ok {
		return s, nil
	}
	s := string(buf)
	if r.intern == nil {
		r.intern = make(map[string]string)
	}
	if len(r.intern) < maxInternEntries {
		r.intern[s] = s
	}
	return s, nil
}

// scratchChunk bounds both the chunked-read step and how much scratch a
// single oversized string may leave retained.
const scratchChunk = 64 * 1024

// stringBytes reads a length-prefixed payload into the scratch buffer and
// returns the filled slice, valid until the next read call. Payloads beyond
// scratchChunk stream in chunk-sized steps so a corrupt length claim fails
// on a short read before its bogus size is ever allocated.
func (r *WireReader) stringBytes() ([]byte, error) {
	n, err := r.Uvarint(1 << 30)
	if err != nil {
		return nil, err
	}
	if n <= scratchChunk {
		buf := r.scratchFor(int(n))
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	tmp := r.scratchFor(scratchChunk)
	var out []byte
	for remaining := n; remaining > 0; {
		step := min(remaining, scratchChunk)
		if _, err := io.ReadFull(r.br, tmp[:step]); err != nil {
			return nil, err
		}
		out = append(out, tmp[:step]...)
		remaining -= step
	}
	return out, nil
}

// scratchFor returns the scratch buffer resized to n bytes, growing it
// geometrically up to the chunk bound.
func (r *WireReader) scratchFor(n int) []byte {
	if cap(r.scratch) < n {
		c := 2 * cap(r.scratch)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		r.scratch = make([]byte, c)
	}
	return r.scratch[:n]
}

// Expect consumes len(magic) bytes and verifies them.
func (r *WireReader) Expect(magic string) error {
	buf := r.scratchFor(len(magic))
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("pg: reading magic: %w", err)
	}
	if string(buf) != magic {
		return fmt.Errorf("pg: bad magic %q (want %q)", buf, magic)
	}
	return nil
}

// Value reads a property value written by WireWriter.Value.
func (r *WireReader) Value() (Value, error) {
	kindByte, err := r.Byte()
	if err != nil {
		return Null(), err
	}
	switch Kind(kindByte) {
	case KindNull:
		return Null(), nil
	case KindInt:
		x, err := r.Varint()
		return Int(x), err
	case KindFloat:
		f, err := r.Float64()
		return Float(f), err
	case KindBool:
		b, err := r.Bool()
		return Bool(b), err
	case KindDate:
		sec, err := r.Varint()
		return Date(time.Unix(sec, 0).UTC()), err
	case KindTimestamp:
		sec, err := r.Varint()
		return Timestamp(time.Unix(sec, 0).UTC()), err
	case KindString:
		s, err := r.String()
		return Str(s), err
	default:
		return Null(), fmt.Errorf("pg: unknown value kind byte %d", kindByte)
	}
}
