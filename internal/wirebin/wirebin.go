// Package wirebin is the harness's compact binary codec: a varint-coded,
// schema-pinned encoding of the result type that crosses process
// boundaries in bulk, the run measurement (metrics.Run). It sits next to
// the JSON wire schema (wire v1.1) as the hot-path alternative: the disk
// cache's v3 segment format frames wirebin bodies, where JSON
// marshalling would dominate warm replay.
//
// The encoding has no field names or tags: fields are laid out in the
// fixed column order the codec version pins, so readers and writers must
// agree on the schema generation (the disk cache carries it in its
// segment header). Value encodings:
//
//   - unsigned integers and lengths: LEB128 uvarint
//   - signed integers (durations): zigzag uvarint
//   - float64: 8-byte little-endian IEEE 754 bits, bit-exact round-trip
//   - strings: uvarint byte length + raw bytes
//
// Reads are alloc-free on the warm path: Reader works over a caller-held
// byte slice, and string columns resolve through an Interner so repeated
// values (application and governor names recur across a campaign's
// records) share one allocation.
package wirebin

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dufp/internal/metrics"
	"dufp/internal/units"
)

// AppendUvarint appends v as a LEB128 uvarint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt64 appends v zigzag-coded, small magnitudes staying short
// regardless of sign.
func AppendInt64(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// AppendFloat64 appends the 8 little-endian bytes of f's IEEE 754
// representation; the round-trip is bit-exact, NaN payloads included.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends the uvarint byte length followed by the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Interner deduplicates decoded strings: Intern returns the previously
// allocated string for equal bytes, so a campaign's recurring names cost
// one allocation each instead of one per record. The zero Interner is
// ready to use.
type Interner struct {
	m map[string]string
}

// Intern returns the canonical string for b, allocating only on first
// sight. The lookup itself does not allocate (the compiler recognises
// the map[string(b)] idiom).
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Reader decodes wirebin values from a byte slice. Decoding errors are
// sticky: the first malformed value latches Err, and every later read
// returns zero values, so a decode loop can check once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset re-aims the reader at b, clearing position and error — the
// reuse hook for scan loops that decode many frames with one Reader.
func (r *Reader) Reset(b []byte) { r.buf, r.off, r.err = b, 0, nil }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wirebin: truncated or malformed %s at offset %d", what, r.off)
	}
}

// Uvarint reads one LEB128 uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int64 reads one zigzag-coded signed integer.
func (r *Reader) Int64() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads 8 little-endian bytes as a float64, bit-exactly.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("float64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Bytes reads a length-prefixed byte string as a view into the reader's
// buffer — valid only until the buffer is reused.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("bytes")
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string through the interner; pass nil
// to allocate unconditionally.
func (r *Reader) String(in *Interner) string {
	b := r.Bytes()
	if r.err != nil {
		return ""
	}
	if in != nil {
		return in.Intern(b)
	}
	return string(b)
}

// AppendRun appends run in the pinned column order: app, governor,
// slowdown, time, package energy, DRAM energy, average package and DRAM
// power, average core and uncore frequency — the same ten columns as the
// JSON wire schema, in its field order.
func AppendRun(b []byte, run metrics.Run) []byte {
	b = AppendString(b, run.App)
	b = AppendString(b, run.Governor)
	b = AppendFloat64(b, run.Slowdown)
	b = AppendInt64(b, int64(run.Time))
	b = AppendFloat64(b, float64(run.PkgEnergy))
	b = AppendFloat64(b, float64(run.DramEnergy))
	b = AppendFloat64(b, float64(run.AvgPkgPower))
	b = AppendFloat64(b, float64(run.AvgDramPower))
	b = AppendFloat64(b, float64(run.AvgCoreFreq))
	return AppendFloat64(b, float64(run.AvgUncore))
}

// ReadRun decodes the columns AppendRun wrote. Check r.Err afterwards;
// a partial decode returns zero-filled trailing fields.
func ReadRun(r *Reader, in *Interner) metrics.Run {
	return metrics.Run{
		App:          r.String(in),
		Governor:     r.String(in),
		Slowdown:     r.Float64(),
		Time:         time.Duration(r.Int64()),
		PkgEnergy:    units.Energy(r.Float64()),
		DramEnergy:   units.Energy(r.Float64()),
		AvgPkgPower:  units.Power(r.Float64()),
		AvgDramPower: units.Power(r.Float64()),
		AvgCoreFreq:  units.Frequency(r.Float64()),
		AvgUncore:    units.Frequency(r.Float64()),
	}
}
