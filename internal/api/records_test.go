package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dufp"
)

// TestRecordStoreEviction dispatches 12 runs one after another through a
// store of 4 records: the last 4 keep their span trace and samples, the
// 8 before them answer 404 on both, and every run still answers its
// status and event stream. A store sized 0 or less holds the default.
func TestRecordStoreEviction(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if got := newRecords(capacity, 0, 0, nil, nil).capacity; got != DefaultSampleCapacity {
			t.Errorf("capacity %d holds %d records, want %d", capacity, got, DefaultSampleCapacity)
		}
	}
	cfg := testConfig()
	cfg.SampleCapacity = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.FullHandler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 12; i++ {
		id := submit(t, d, dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline(), Idx: i})
		if st := waitRun(t, d, id); st.State != StateDone {
			t.Fatalf("run %d: %+v", i, st)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		retained := i >= len(ids)-4
		want := http.StatusNotFound
		if retained {
			want = http.StatusOK
		}
		for _, route := range []string{"/trace", "/samples"} {
			if code := getJSON(t, ts.URL+"/v1/runs/"+id+route, nil); code != want {
				t.Errorf("run %d (retained %v) %s: HTTP %d, want %d", i, retained, route, code, want)
			}
		}
		if code := getJSON(t, ts.URL+"/v1/runs/"+id, nil); code != http.StatusOK {
			t.Errorf("run %d status: HTTP %d", i, code)
		}
		resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("run %d events: HTTP %d", i, resp.StatusCode)
		} else if err := endsOnOneDone(t, string(body)); err != nil {
			t.Errorf("run %d events %v", i, err)
		}
	}
}

// TestRecordEvictionDuringDispatch runs a store of one record under four
// dispatchers, so records are evicted while their runs still stream
// into them, and reads traces and samples all the while; the race
// detector (make tier1-api) checks the store against the dispatches.
func TestRecordEvictionDuringDispatch(t *testing.T) {
	cfg := testConfig()
	cfg.SampleCapacity = 1
	cfg.Workers = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var ids []string
	for i := 0; i < 12; i++ {
		ids = append(ids, submit(t, d, dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.Baseline(), Idx: i}))
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, id := range ids {
					if tr, ok := d.Spans().Get(id); ok {
						tr.Summary()
					}
					d.RunSamples(id, 0, 0, 16)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, id := range ids {
		if st := waitRun(t, d, id); st.State != StateDone {
			t.Errorf("run %s: %+v", id, st)
		}
	}
	close(done)
	readers.Wait()

	var retained []string
	for _, id := range ids {
		_, traced := d.Spans().Get(id)
		_, sampled := d.RunSamples(id, 0, 0, 1)
		if traced != sampled {
			t.Errorf("run %s: trace retained %v, samples retained %v", id, traced, sampled)
		}
		if traced {
			retained = append(retained, id)
		}
	}
	if len(retained) != 1 {
		t.Errorf("%d runs retained in a store of 1: %v", len(retained), retained)
	}
}

// TestDispatchedRunHeapGrowth pins the store's bound as a memory bound:
// once the store is full, a dispatched run grows the live heap only by
// its job and cached result, not by the span trace or reservoir of a
// record the store has evicted.
func TestDispatchedRunHeapGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts under the race detector")
	}
	cfg := testConfig()
	cfg.SampleCapacity = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	runs := func(n int) {
		for i := 0; i < n; i++ {
			if st := waitRun(t, d, submit(t, d, spec)); st.State != StateDone {
				t.Fatalf("run %d: %+v", spec.Idx, st)
			}
			spec.Idx++
		}
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const measured = 200
	runs(40)
	before := liveHeap()
	runs(measured)
	after := liveHeap()
	per := (int64(after) - int64(before)) / measured
	t.Logf("live heap grew %d B per dispatched run", per)
	if per >= 4<<10 {
		t.Errorf("live heap grew %d B per dispatched run, want < 4 KiB", per)
	}
}

// TestDiskRunStatusMatchesLive restarts a daemon over the disk cache of
// one that completed EP under DUFP@10 % at index 1, and requires the
// run's status body and its event stream's status to be the first
// daemon's, byte for byte.
func TestDiskRunStatusMatchesLive(t *testing.T) {
	cacheDir := t.TempDir()
	spec := dufp.RunSpec{App: mustApp(t, "EP"), Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10)), Idx: 1}
	bodies := func(serve func(*Daemon)) (status, event string) {
		cfg := testConfig()
		cfg.Executor = dufp.NewExecutor(dufp.ExecDiskCache(cacheDir))
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cfg.Executor.Close()
		defer d.Close()
		serve(d)
		ts := httptest.NewServer(d.FullHandler())
		defer ts.Close()
		id := d.session.RunID(spec)
		get := func(path string) string {
			resp, err := http.Get(ts.URL + "/v1/runs/" + id + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d, %v", path, resp.StatusCode, err)
			}
			return string(b)
		}
		status = get("")
		events := parseSSE(t, get("/events"))
		if len(events) != 2 || events[0].event != "status" {
			t.Fatalf("event stream of a done run: %+v", events)
		}
		return status, events[0].data
	}
	liveStatus, liveEvent := bodies(func(d *Daemon) { waitRun(t, d, submit(t, d, spec)) })
	diskStatus, diskEvent := bodies(func(*Daemon) {})
	if !strings.Contains(liveStatus, `"idx":1`) {
		t.Fatalf("live status lacks the run index: %s", liveStatus)
	}
	if diskStatus != liveStatus {
		t.Errorf("status body after restart:\n%s\nwant the live body:\n%s", diskStatus, liveStatus)
	}
	if diskEvent != liveEvent {
		t.Errorf("event status after restart:\n%s\nwant the live one:\n%s", diskEvent, liveEvent)
	}
}
