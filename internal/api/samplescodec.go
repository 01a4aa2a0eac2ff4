package api

import (
	"encoding/json"
	"math"
	"strconv"
)

// The samples-page codec. A page crosses the wire as the compact JSON
// that encoding/json writes for RunSamples, and both ends of dufpd move
// many such pages a second, so they use this hand-written codec rather
// than reflection:
//
//   - appendSamplesPage and appendSamplePoint write exactly the bytes
//     json.Marshal writes (a page adds the newline json.Encoder ends its
//     values with);
//   - DecodeSamplesPage and DecodeSamplePoint read that canonical layout
//     in one pass and hand any other input to json.Unmarshal, so they
//     accept, reject and return exactly what json.Unmarshal does.
//
// RunSamples and SamplePoint deliberately have no MarshalJSON or
// UnmarshalJSON methods: encoding/json validates an Unmarshaler's whole
// input before calling it and re-compacts a Marshaler's output, and
// without them it stays the unmodified reference that
// TestSamplesCodecMatchesEncodingJSON and FuzzSamplesCodec compare the
// codec against. Those tests also pin the keys below to the struct
// tags.

// pageIntFields are RunSamples' integer fields in struct order, each
// key with the comma before it, and the size json.Unmarshal parses the
// field's type at.
var pageIntFields = [...]struct {
	key  string
	bits int
}{
	{`,"socket":`, strconv.IntSize},
	{`,"sockets":`, strconv.IntSize},
	{`,"seen":`, 64},
	{`,"stride":`, strconv.IntSize},
	{`,"total":`, strconv.IntSize},
	{`,"offset":`, strconv.IntSize},
	{`,"next":`, strconv.IntSize},
}

// pointFloatKeys are SamplePoint's float fields in struct order, each
// with the comma before it.
var pointFloatKeys = [...]string{
	`,"core_hz":`, `,"uncore_hz":`, `,"pkg_w":`, `,"dram_w":`,
	`,"cap_pl1_w":`, `,"cap_pl2_w":`, `,"bw_bps":`, `,"flops":`,
}

const (
	pageIDKey     = `{"id":`
	pagePointsKey = `,"points":`
	pointTimeKey  = `{"time_ns":`

	// minPointBytes is the shortest encoded point, every value 0, plus
	// the comma after it: it bounds how many points the bytes left can
	// hold.
	minPointBytes = len(pointTimeKey + `0,"core_hz":0,"uncore_hz":0,"pkg_w":0,"dram_w":0,"cap_pl1_w":0,"cap_pl2_w":0,"bw_bps":0,"flops":0},`)

	// pointBytesEstimate sizes encode buffers: EP's and CG's points
	// encode to 205–208 bytes, so a page is written into one allocation
	// and only points of unusually long numbers make append grow it.
	pointBytesEstimate = 224
	pageBytesEstimate  = 192 // everything but the id and the points
)

// samplesPageCap is the buffer size appendSamplesPage is expected to
// fill for page.
func samplesPageCap(page *RunSamples) int {
	return pageBytesEstimate + len(page.ID) + len(page.Points)*pointBytesEstimate
}

// appendSamplesPage appends page as json.Marshal encodes it, followed
// by a newline. Like json.Marshal it fails on a NaN or infinite value.
func appendSamplesPage(b []byte, page *RunSamples) ([]byte, error) {
	b = append(b, pageIDKey...)
	b = appendString(b, page.ID)
	ints := [len(pageIntFields)]int64{
		int64(page.Socket), int64(page.Sockets), page.Seen, int64(page.Stride),
		int64(page.Total), int64(page.Offset), int64(page.Next),
	}
	for i, v := range ints {
		b = append(b, pageIntFields[i].key...)
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, pagePointsKey...)
	if page.Points == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range page.Points {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendSamplePoint(b, &page.Points[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendSamplePoint appends p as json.Marshal encodes it. Like
// json.Marshal it fails on a NaN or infinite value.
func appendSamplePoint(b []byte, p *SamplePoint) ([]byte, error) {
	b = append(b, pointTimeKey...)
	b = strconv.AppendInt(b, p.TimeNS, 10)
	floats := [len(pointFloatKeys)]float64{
		p.CoreHz, p.UncoreHz, p.PkgW, p.DramW, p.CapPL1W, p.CapPL2W, p.BwBps, p.Flops,
	}
	for i, f := range floats {
		b = append(b, pointFloatKeys[i]...)
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat appends f by encoding/json's float64 rule, ES6's number
// to string conversion: the shortest 'f' form for 0 and 1e-6 <= |f| <
// 1e21, else the shortest 'e' form with e-0N written as e-N.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves unescaped is copied as is; anything else (HTML
// characters, control bytes, non-ASCII and invalid UTF-8) goes through
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeSamplesPage decodes a GET /v1/runs/{id}/samples page. It returns
// what json.Unmarshal into a RunSamples returns, error included, but
// reads the daemon's own layout without reflection.
func DecodeSamplesPage(b []byte) (RunSamples, error) {
	if page, ok := decodeSamplesPageFast(b); ok {
		return page, nil
	}
	var page RunSamples
	err := json.Unmarshal(b, &page)
	return page, err
}

// DecodeSamplePoint decodes one sample, such as a line of the NDJSON
// stream. It returns what json.Unmarshal into a SamplePoint returns,
// error included.
func DecodeSamplePoint(b []byte) (SamplePoint, error) {
	r := layoutReader{b: b}
	if p, ok := r.point(); ok && r.i == len(b) {
		return p, nil
	}
	var p SamplePoint
	err := json.Unmarshal(b, &p)
	return p, err
}

// decodeSamplesPageFast reads the canonical layout appendSamplesPage
// writes: its key order, no whitespace, an optional trailing newline,
// an id of printable ASCII without escapes, and numbers that JSON's
// grammar admits and strconv parses without error. ok is false on
// anything else, for DecodeSamplesPage to hand to json.Unmarshal.
func decodeSamplesPageFast(b []byte) (page RunSamples, ok bool) {
	r := layoutReader{b: b}
	if !r.lit(pageIDKey) {
		return page, false
	}
	if page.ID, ok = r.plainString(); !ok {
		return page, false
	}
	var ints [len(pageIntFields)]int64
	for i, f := range pageIntFields {
		if !r.lit(f.key) {
			return page, false
		}
		if ints[i], ok = r.int(f.bits); !ok {
			return page, false
		}
	}
	page.Socket, page.Sockets, page.Seen, page.Stride = int(ints[0]), int(ints[1]), ints[2], int(ints[3])
	page.Total, page.Offset, page.Next = int(ints[4]), int(ints[5]), int(ints[6])
	if !r.lit(pagePointsKey) {
		return page, false
	}
	if !r.lit("null") {
		if !r.lit("[") {
			return page, false
		}
		// Size the slice from the header, but never past what the bytes
		// left can hold: a hostile total must not make us allocate.
		n := page.Next - page.Offset
		if page.Next < 0 {
			n = page.Total - page.Offset
		}
		page.Points = make([]SamplePoint, 0, max(0, min(n, (len(b)-r.i)/minPointBytes)))
		if !r.lit("]") {
			for {
				p, ok := r.point()
				if !ok {
					return page, false
				}
				page.Points = append(page.Points, p)
				if r.lit("]") {
					break
				}
				if !r.lit(",") {
					return page, false
				}
			}
		}
	}
	if !r.lit("}") {
		return page, false
	}
	r.lit("\n")
	return page, r.i == len(b)
}

// layoutReader walks the canonical layout of a samples page or point.
type layoutReader struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (r *layoutReader) lit(s string) bool {
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// plainString reads a JSON string of printable ASCII with no escapes,
// which json.Unmarshal decodes to its bytes as they stand.
func (r *layoutReader) plainString() (string, bool) {
	if !r.lit(`"`) {
		return "", false
	}
	for j := r.i; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			s := string(r.b[r.i:j])
			r.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// point reads one sample in appendSamplePoint's layout.
func (r *layoutReader) point() (SamplePoint, bool) {
	if !r.lit(pointTimeKey) {
		return SamplePoint{}, false
	}
	t, ok := r.int(64)
	if !ok {
		return SamplePoint{}, false
	}
	var f [len(pointFloatKeys)]float64
	for i, key := range pointFloatKeys {
		if !r.lit(key) {
			return SamplePoint{}, false
		}
		num, _, ok := r.number()
		if !ok {
			return SamplePoint{}, false
		}
		var err error
		if f[i], err = strconv.ParseFloat(string(num), 64); err != nil {
			return SamplePoint{}, false
		}
	}
	if !r.lit("}") {
		return SamplePoint{}, false
	}
	return SamplePoint{
		TimeNS: t, CoreHz: f[0], UncoreHz: f[1], PkgW: f[2], DramW: f[3],
		CapPL1W: f[4], CapPL2W: f[5], BwBps: f[6], Flops: f[7],
	}, true
}

// int reads an integer JSON number that fits bits, as json.Unmarshal
// parses one into an integer field.
func (r *layoutReader) int(bits int) (int64, bool) {
	num, integer, ok := r.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	return v, err == nil
}

// number reads a number by JSON's grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?
// ([eE][+-]?[0-9]+)?, which is stricter than strconv's: no leading '+'
// or zeros, no bare '.', no underscores, hex, Inf or NaN. integer
// reports that it has neither fraction nor exponent.
func (r *layoutReader) number() (num []byte, integer, ok bool) {
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	num, r.i = b[r.i:i], i
	return num, integer, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
