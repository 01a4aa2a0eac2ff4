package api

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dufp"
	"dufp/internal/sim"
	"dufp/internal/units"
)

// runTracedJob submits one EP run and waits for it; the daemon's sample
// store fills as the dispatch streams the trace into its reservoir.
func runTracedJob(t *testing.T, d *Daemon) RunStatus {
	t.Helper()
	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline()}
	status, err := d.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitRun(t, d, status.ID)
}

// getJSON fetches a URL and decodes the 2xx JSON body into out,
// returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestRunSamplesPagination(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	status := runTracedJob(t, d)
	if status.State != StateDone {
		t.Fatalf("run state %q: %s", status.State, status.Error)
	}

	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()
	base := ts.URL + "/v1/runs/" + status.ID + "/samples"

	// The whole retained view in one unbounded page.
	var all RunSamples
	if code := getJSON(t, base, &all); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if all.Total == 0 || len(all.Points) != all.Total || all.Next != -1 {
		t.Fatalf("full page: total=%d len=%d next=%d", all.Total, len(all.Points), all.Next)
	}
	if all.Seen < int64(all.Total) || all.Stride < 1 {
		t.Fatalf("seen=%d stride=%d", all.Seen, all.Stride)
	}

	// Page through with a small limit and require the same sequence.
	var paged []SamplePoint
	pages := 0
	for off := 0; off >= 0; {
		var page RunSamples
		url := fmt.Sprintf("%s?socket=0&offset=%d&limit=7", base, off)
		if code := getJSON(t, url, &page); code != http.StatusOK {
			t.Fatalf("HTTP %d at offset %d", code, off)
		}
		if len(page.Points) == 0 && page.Next >= 0 {
			t.Fatal("empty non-final page")
		}
		paged = append(paged, page.Points...)
		off = page.Next
		pages++
	}
	if pages < 2 {
		t.Fatalf("pagination collapsed into %d page(s)", pages)
	}
	if len(paged) != len(all.Points) {
		t.Fatalf("paged %d points, full view has %d", len(paged), len(all.Points))
	}
	for i := range paged {
		if paged[i] != all.Points[i] {
			t.Fatalf("point %d differs between paged and full reads", i)
		}
	}

	// One raw page, byte for byte: the run's samples, field names and
	// order, and the compact body encoding.
	resp, err := http.Get(base + "?socket=0&offset=0&limit=7")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const goldenPage = "aa78774701a718d11724bca421870725dbb29c493ca6d40c1c75060b8d06e95b"
	if sum := fmt.Sprintf("%x", sha256.Sum256(body)); sum != goldenPage {
		t.Errorf("golden page: sha256 %s, want %s; body:\n%s", sum, goldenPage, body)
	}

	// Unknown runs and bad parameters fail loudly.
	if code := getJSON(t, ts.URL+"/v1/runs/nope/samples", nil); code != http.StatusNotFound {
		t.Errorf("unknown run: HTTP %d, want 404", code)
	}
	if code := getJSON(t, base+"?offset=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative offset: HTTP %d, want 400", code)
	}
	if code := getJSON(t, base+"?socket=x", nil); code != http.StatusBadRequest {
		t.Errorf("bad socket: HTTP %d, want 400", code)
	}
}

func TestRunStatusIncludeTrace(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	status := runTracedJob(t, d)

	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()

	// The default status body stays artifact-free.
	var plain RunStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+status.ID, &plain); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if plain.Result != nil {
		t.Error("default status body carries the trace artifact")
	}

	// ?include=trace embeds the full wire v1.1 result.
	var rich RunStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+status.ID+"?include=trace", &rich); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if rich.Result == nil {
		t.Fatal("include=trace returned no result")
	}
	if rich.Result.Run != *status.Run {
		t.Errorf("embedded run differs: %+v vs %+v", rich.Result.Run, *status.Run)
	}
	if rich.Result.Trace == nil || rich.Result.Trace.Len(0) == 0 {
		t.Fatal("embedded result has no trace series")
	}
	sum := rich.Result.TraceSummary
	if sum == nil || sum.Sockets() == 0 {
		t.Fatal("embedded result has no trace summary")
	}
	// The streamed summary average is exact over the sampled cadence; its
	// node total lands within a watt of the run's per-tick average.
	var got float64
	for s := 0; s < sum.Sockets(); s++ {
		got += sum.AvgPkgPower[s].Watts()
	}
	if want := rich.Result.Run.AvgPkgPower.Watts(); math.Abs(got-want) > 1 {
		t.Errorf("summary node avg %f W vs run avg %f W", got, want)
	}

	// The raw body, byte for byte: the status, the measurement, the
	// retained series of every socket and their summary.
	resp, err := http.Get(ts.URL + "/v1/runs/" + status.ID + "?include=trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const goldenBody = "9d05ea364c72f6bde5327069b6011928286c3b2f542b0533751c26dfaa76b124"
	if sum := fmt.Sprintf("%x", sha256.Sum256(body)); sum != goldenBody {
		t.Errorf("include=trace body: sha256 %s, want %s (%d bytes)", sum, goldenBody, len(body))
	}
}

// TestSamplesEncodeFailure serves a retained series [80 W, bad, 81 W]
// whose middle point JSON cannot encode, and requires a 500 rather than
// a 200 with an empty or gapped body: a page that holds the point fails,
// and so does an NDJSON stream whose first page holds it, while a later
// page's failure ends the stream just before the point.
func TestSamplesEncodeFailure(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(strconv.FormatFloat(bad, 'g', -1, 64), func(t *testing.T) {
			d, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			const id = "badrun"
			r := d.records.start(id).samples
			for i, w := range []float64{80, bad, 81} {
				r.Consume(0, sim.TracePoint{Time: time.Duration(i) * 10 * time.Millisecond, PkgPower: units.Power(w)})
			}
			h := d.FullHandler()
			for _, tc := range []struct {
				query string
				code  int
				lines int // NDJSON lines served with a 200
			}{
				{"", http.StatusInternalServerError, 0},
				{"offset=1&limit=1", http.StatusInternalServerError, 0},
				{"limit=1", http.StatusOK, 0},
				{"format=ndjson", http.StatusInternalServerError, 0},
				{"format=ndjson&offset=1", http.StatusInternalServerError, 0},
				{"format=ndjson&limit=1", http.StatusOK, 1},
				{"format=ndjson&offset=2", http.StatusOK, 1},
			} {
				req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/samples?"+tc.query, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != tc.code {
					t.Fatalf("?%s: HTTP %d, want %d; body %q", tc.query, rec.Code, tc.code, rec.Body)
				}
				if tc.code != http.StatusOK {
					var e errorBody
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
						t.Fatalf("?%s: error body %q: %v", tc.query, rec.Body, err)
					}
					continue
				}
				if tc.lines == 0 {
					var page RunSamples
					if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || len(page.Points) != 1 {
						t.Fatalf("?%s: page %q: %v", tc.query, rec.Body, err)
					}
					continue
				}
				want := r.Snapshot(0)
				offset, _ := strconv.Atoi(req.URL.Query().Get("offset"))
				var got []SamplePoint
				for dec := json.NewDecoder(rec.Body); ; {
					var p SamplePoint
					if err := dec.Decode(&p); errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						t.Fatalf("?%s: NDJSON line %d: %v", tc.query, len(got), err)
					}
					got = append(got, p)
				}
				if msg := samePoints(got, want[offset:offset+tc.lines]); msg != "" {
					t.Fatalf("?%s: NDJSON %s", tc.query, msg)
				}
			}
		})
	}
}

// FuzzSamplesQuery sends arbitrary query strings to GET
// /v1/runs/{id}/samples over one retained reservoir holding a fixed
// synthetic series on two sockets, decimated past stride 1, and checks
// each answer against the reservoir: 200 or 400 and nothing else, a page
// equal to its slice of Snapshot with at most limit points, next either
// -1 or the page's end, a total that follows from seen and stride, and
// NDJSON lines equal to Snapshot from the offset on.
func FuzzSamplesQuery(f *testing.F) {
	cfg := testConfig()
	cfg.SamplePointsPerSocket = 16
	d, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	const id = "fuzzrun"
	r := d.records.start(id).samples
	for socket, n := range []int{100, 37} {
		for i := 0; i < n; i++ {
			r.Consume(socket, sim.TracePoint{
				Time:     time.Duration(i) * 10 * time.Millisecond,
				CoreFreq: units.Frequency(2e9 + float64(i%7)*1e8),
				PkgPower: units.Power(80 + float64(i%11)),
				CapPL1:   units.Power(100 + socket),
			})
		}
	}
	if r.Stride(0) < 2 || r.Stride(1) < 2 {
		f.Fatalf("strides %d, %d: the series must be decimated", r.Stride(0), r.Stride(1))
	}
	for _, q := range []string{
		"", "socket=1", "socket=-1", "socket=99", "offset=-1", "offset=40",
		"limit=0", "limit=-5", "offset=9223372036854775807", "socket=x",
		"offset=1e3", "limit=seven", "format=ndjson",
		"socket=1&offset=3&limit=4&format=ndjson", "offset=5&limit=3",
	} {
		f.Add(q)
	}
	h := d.FullHandler()

	f.Fuzz(func(t *testing.T, q string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/samples", nil)
		req.URL.RawQuery = q
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("?%s: HTTP %d: %s", q, rec.Code, rec.Body)
		}
		// A 200 means every parameter parsed (missing ones default to 0)
		// and the offset is not negative.
		vals := req.URL.Query()
		socket, _ := strconv.Atoi(vals.Get("socket"))
		offset, _ := strconv.Atoi(vals.Get("offset"))
		limit, _ := strconv.Atoi(vals.Get("limit"))
		snap := r.Snapshot(socket)
		from := min(offset, len(snap))

		if vals.Get("format") == "ndjson" {
			dec := json.NewDecoder(rec.Body)
			var got []SamplePoint
			for {
				var p SamplePoint
				if err := dec.Decode(&p); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatalf("?%s: NDJSON line %d: %v", q, len(got), err)
				}
				got = append(got, p)
			}
			if msg := samePoints(got, snap[from:]); msg != "" {
				t.Fatalf("?%s: NDJSON %s", q, msg)
			}
			return
		}

		var page RunSamples
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("?%s: %v", q, err)
		}
		if page.Socket != socket || page.Offset != from || page.Total != len(snap) {
			t.Fatalf("?%s: socket %d offset %d total %d, want %d, %d, %d",
				q, page.Socket, page.Offset, page.Total, socket, from, len(snap))
		}
		if limit > 0 && len(page.Points) > limit {
			t.Fatalf("?%s: %d points over limit %d", q, len(page.Points), limit)
		}
		if page.Next != -1 && page.Next != page.Offset+len(page.Points) {
			t.Fatalf("?%s: next %d, page ends at %d", q, page.Next, page.Offset+len(page.Points))
		}
		if page.Seen == 0 {
			if page.Total != 0 {
				t.Fatalf("?%s: total %d with nothing seen", q, page.Total)
			}
		} else {
			seen, stride := int(page.Seen), page.Stride
			want := (seen + stride - 1) / stride
			if (seen-1)%stride != 0 {
				want++
			}
			if page.Total != want {
				t.Fatalf("?%s: seen %d stride %d total %d, want %d", q, seen, stride, page.Total, want)
			}
		}
		if msg := samePoints(page.Points, snap[from:from+len(page.Points)]); msg != "" {
			t.Fatalf("?%s: page %s", q, msg)
		}
	})
}

// samePoints compares served points with the reservoir's, by value.
func samePoints(got []SamplePoint, want []sim.TracePoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != samplePoint(want[i]) {
			return fmt.Sprintf("point %d differs", i)
		}
	}
	return ""
}
