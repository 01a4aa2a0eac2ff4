package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dufp"
	"dufp/internal/trace"
)

// codecPage is one real samples page and where it came from.
type codecPage struct {
	name string
	page RunSamples
}

// codecPages returns real samples pages: EP and CG under DUFP at 10 %,
// every socket, at offsets 0 and 500 with limit 500.
func codecPages(tb testing.TB) []codecPage {
	tb.Helper()
	session := dufp.NewSession()
	var pages []codecPage
	for _, name := range []string{"EP", "CG"} {
		app, err := dufp.AppNamed(name)
		if err != nil {
			tb.Fatal(err)
		}
		spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
		r := trace.NewReservoir(0)
		if _, err := session.Run(context.Background(), spec, dufp.WithTraceSink(r)); err != nil {
			tb.Fatal(err)
		}
		for socket := 0; socket < r.Sockets(); socket++ {
			for _, offset := range []int{0, 500} {
				page := pageSamples(session.RunID(spec), r, socket, offset, 500)
				if len(page.Points) != 500 {
					tb.Fatalf("%s socket %d offset %d: %d points, want 500", name, socket, offset, len(page.Points))
				}
				pages = append(pages, codecPage{fmt.Sprintf("%s/socket%d/offset%d", name, socket, offset), page})
			}
		}
	}
	return pages
}

// cornerPages are pages of values at the edges of encoding/json's float
// and integer rules.
func cornerPages() []codecPage {
	floats := []float64{
		math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7,
		1e20, 1e21, -1e21, 123456789.125, math.MaxFloat64, -math.MaxFloat64, 2.4e9, 1e-300,
	}
	var points []SamplePoint
	for i, x := range floats {
		points = append(points, SamplePoint{
			TimeNS: int64(i) - 3, CoreHz: x, UncoreHz: -x, PkgW: x / 3, DramW: x * 0.7,
			CapPL1W: x, CapPL2W: x, BwBps: x, Flops: x,
		})
	}
	points = append(points,
		SamplePoint{TimeNS: math.MinInt64, CoreHz: 1},
		SamplePoint{TimeNS: math.MaxInt64, Flops: 1})
	return []codecPage{
		{"corners", RunSamples{ID: "8c5f2a91d03b47e6", Socket: 1, Sockets: 2, Seen: math.MaxInt64,
			Stride: 3, Total: 18, Offset: 0, Next: -1, Points: points}},
		{"empty", RunSamples{ID: "8c5f2a91d03b47e6", Sockets: 2, Total: 4, Offset: 4, Next: -1, Points: []SamplePoint{}}},
		{"nil points", RunSamples{ID: "none", Socket: -1, Seen: math.MinInt64, Next: -1}},
		{"escaped id", RunSamples{ID: "<a&b>\"\\\n é\xff\x7f", Next: -1, Points: points[:2]}},
	}
}

// plainID reports whether appendString writes id without escapes, so
// that its page must decode on the fast path.
func plainID(id string) bool {
	return !strings.ContainsFunc(id, func(c rune) bool {
		return c < 0x20 || c > 0x7e || strings.ContainsRune("\"\\<>&", c)
	})
}

func pointBits(p SamplePoint) [9]uint64 {
	return [9]uint64{uint64(p.TimeNS), math.Float64bits(p.CoreHz), math.Float64bits(p.UncoreHz),
		math.Float64bits(p.PkgW), math.Float64bits(p.DramW), math.Float64bits(p.CapPL1W),
		math.Float64bits(p.CapPL2W), math.Float64bits(p.BwBps), math.Float64bits(p.Flops)}
}

// samePage compares two pages field by field, floats bit for bit and a
// nil Points apart from an empty one.
func samePage(a, b RunSamples) bool {
	if a.ID != b.ID || a.Socket != b.Socket || a.Sockets != b.Sockets || a.Seen != b.Seen ||
		a.Stride != b.Stride || a.Total != b.Total || a.Offset != b.Offset || a.Next != b.Next ||
		(a.Points == nil) != (b.Points == nil) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if pointBits(a.Points[i]) != pointBits(b.Points[i]) {
			return false
		}
	}
	return true
}

// checkDecoders requires both decoders to agree with json.Unmarshal on
// b: the same error or no error, and then the same values.
func checkDecoders(t *testing.T, b []byte) {
	t.Helper()
	var wantPage RunSamples
	wantErr := json.Unmarshal(b, &wantPage)
	page, err := DecodeSamplesPage(b)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("page %q: error %v, json.Unmarshal %v", b, err, wantErr)
	}
	if err == nil && !samePage(page, wantPage) {
		t.Fatalf("page %q: decoded %+v, json.Unmarshal %+v", b, page, wantPage)
	}
	var wantPoint SamplePoint
	wantErr = json.Unmarshal(b, &wantPoint)
	point, err := DecodeSamplePoint(b)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("point %q: error %v, json.Unmarshal %v", b, err, wantErr)
	}
	if err == nil && pointBits(point) != pointBits(wantPoint) {
		t.Fatalf("point %q: decoded %+v, json.Unmarshal %+v", b, point, wantPoint)
	}
}

// checkEncoders requires the appenders to write what json.Marshal
// writes for page and each of its points, or to fail where it fails.
// What they write must decode as json.Unmarshal decodes it, a page with
// a plain id on the fast path.
func checkEncoders(t *testing.T, page RunSamples) {
	t.Helper()
	want, wantErr := json.Marshal(page)
	got, err := appendSamplesPage(nil, &page)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("page %+v: error %v, json.Marshal %v", page, err, wantErr)
	}
	if err != nil {
		return
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("page bytes differ:\n got %s\nwant %s", got, want)
	}
	checkDecoders(t, got)
	if _, ok := decodeSamplesPageFast(got); !ok && plainID(page.ID) {
		t.Fatalf("canonical page %s left the fast path", got)
	}
	for i := range page.Points {
		want, _ := json.Marshal(page.Points[i])
		got, _ := appendSamplePoint(nil, &page.Points[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("point %d bytes differ:\n got %s\nwant %s", i, got, want)
		}
		r := layoutReader{b: got}
		if _, ok := r.point(); !ok || r.i != len(got) {
			t.Fatalf("canonical point %s left the fast path", got)
		}
	}
}

// TestSamplesCodecMatchesEncodingJSON holds the codec to encoding/json
// on real pages and on corner values: the same bytes out, the same
// values back, and the daemon's pages read without the fallback.
func TestSamplesCodecMatchesEncodingJSON(t *testing.T) {
	for _, c := range append(codecPages(t), cornerPages()...) {
		t.Run(c.name, func(t *testing.T) {
			if _, err := appendSamplesPage(nil, &c.page); err != nil {
				t.Fatal(err)
			}
			checkEncoders(t, c.page)
		})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		page := RunSamples{ID: "bad", Points: []SamplePoint{{CoreHz: 2e9}, {DramW: bad}}}
		if _, err := appendSamplesPage(nil, &page); err == nil {
			t.Errorf("%v encoded without error", bad)
		}
		checkEncoders(t, page)
	}
}

// FuzzSamplesCodec holds the codec to encoding/json on fuzzed input. On
// arbitrary bytes, each decoder fails exactly when json.Unmarshal fails
// and otherwise returns its values, nil against empty Points included.
// A page built from a fuzzed id, integers and float bits (72 bytes of
// raw per point: time_ns, then the eight floats) is encoded to
// json.Marshal's bytes plus a newline, or both fail.
func FuzzSamplesCodec(f *testing.F) {
	short := codecPages(f)[0].page
	short.Points = short.Points[:1] // small seeds keep minimizing new inputs quick
	canon, err := appendSamplesPage(nil, &short)
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(short, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	corners := cornerPages()[0].page
	corners.Points = []SamplePoint{corners.Points[2], corners.Points[4], corners.Points[9]}
	cornerBody, err := appendSamplesPage(nil, &corners)
	if err != nil {
		f.Fatal(err)
	}
	header := `{"id":"8c5f2a91d03b47e6","socket":0,"sockets":2,"seen":4,"stride":1,"total":4,"offset":0,"next":-1,`
	point := `{"time_ns":10,"core_hz":%s,"uncore_hz":1.2e9,"pkg_w":80.5,"dram_w":%s,"cap_pl1_w":100,"cap_pl2_w":120,"bw_bps":0,"flops":1e+21}`
	withNums := func(x, y string) string {
		return header + `"points":[` + fmt.Sprintf(point, x, y) + "]}\n"
	}
	for _, s := range []string{
		string(canon),
		string(cornerBody),
		string(indented),
		`{"socket":0,"id":"x","sockets":2,"seen":4,"stride":1,"total":4,"offset":0,"next":-1,"points":[]}`,
		strings.Replace(string(canon), `,"socket":`, `,"extra":[1,{"a":null}],"socket":`, 1),
		strings.Replace(string(canon), "}\n", `,"points":[{"time_ns":7}]}`, 1),
		strings.Replace(string(canon), `"id":"`+short.ID+`"`, `"id":"8c5fA\"\\\/\ud800x"`, 1),
		withNums("1e400", "-0"), withNums("01", "2"), withNums(".5", "2"), withNums("+1", "2"),
		withNums("1.", "2"), withNums("1e", "2"), withNums("-", "2"), withNums("0x1p-2", "Inf"),
		withNums("1E+2", "-0.0e-0"), withNums("1e-400", "9007199254740993"),
		strings.Replace(withNums("1", "2"), `"time_ns":10`, `"time_ns":1.5`, 1),
		strings.Replace(withNums("1", "2"), `"time_ns":10`, `"time_ns":99999999999999999999`, 1),
		strings.Replace(withNums("1", "2"), `"seen":4`, `"seen":4e0`, 1),
		string(canon) + "x",
		string(canon) + "\n\n",
		string(canon[:len(canon)/2]),
		"null",
		header + `"points":[]}`,
		header + `"points":null}`,
		`{"id":"x","socket":0,"sockets":1,"seen":1,"stride":1,"total":1000000000000000000,"offset":0,"next":-1,"points":[]}`,
		withNums("1", "2")[len(header)+len(`"points":[`) : len(withNums("1", "2"))-3],
	} {
		f.Add([]byte(s), "", int64(0), []byte(nil))
	}
	raw := func(ts int64, fs ...float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(ts))
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add([]byte(nil), "8c5f2a91d03b47e6", int64(7), raw(-1, 5e-324, 1e-7, 1e21, math.MaxFloat64, -0.0, 2.4e9, 85.25, 1e-6))
	f.Add([]byte(nil), "< \xff>", int64(-1), raw(math.MaxInt64, math.NaN()))
	f.Add([]byte(nil), "run", int64(1), []byte(nil))
	f.Add([]byte(nil), "", int64(2), raw(0, math.Inf(-1)))

	f.Fuzz(func(t *testing.T, body []byte, id string, n int64, raw []byte) {
		checkDecoders(t, body)

		page := RunSamples{ID: id, Socket: int(n), Sockets: int(n >> 1), Seen: n, Stride: int(n >> 2),
			Total: int(n >> 3), Offset: int(-n), Next: int(n >> 4)}
		if n&1 == 1 || len(raw) > 0 {
			page.Points = []SamplePoint{}
		}
		for ; len(raw) > 0; raw = raw[min(len(raw), 72):] {
			var w [72]byte
			copy(w[:], raw)
			v := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(w[8*k:])) }
			page.Points = append(page.Points, SamplePoint{
				TimeNS: int64(binary.LittleEndian.Uint64(w[:])), CoreHz: v(1), UncoreHz: v(2), PkgW: v(3),
				DramW: v(4), CapPL1W: v(5), CapPL2W: v(6), BwBps: v(7), Flops: v(8),
			})
		}
		checkEncoders(t, page)
	})
}

var benchSink any

// BenchmarkSamplesPageCodec encodes and decodes one 500-point page (CG
// under DUFP at 10 %, socket 1, offset 500) with encoding/json and with
// the codec; DESIGN §15.4 quotes its per-page figures.
func BenchmarkSamplesPageCodec(b *testing.B) {
	var page RunSamples
	for _, c := range codecPages(b) {
		if c.name == "CG/socket1/offset500" {
			page = c.page
		}
	}
	body, err := appendSamplesPage(nil, &page)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, op func() (any, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := op()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
	run("encode/json", func() (any, error) { return json.Marshal(&page) })
	run("encode/codec", func() (any, error) {
		return appendSamplesPage(make([]byte, 0, samplesPageCap(&page)), &page)
	})
	run("decode/json", func() (any, error) {
		var p RunSamples
		err := json.Unmarshal(body, &p)
		return p, err
	})
	run("decode/codec", func() (any, error) { return DecodeSamplesPage(body) })
}
