package diskcache

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dufp/internal/metrics"
)

const physV = "physics-test-1"

func testKeyAt(idx int) Key {
	return Key{App: "app#aa", Governor: "gov#bb", Session: "sess#cc", Idx: idx}
}

func testRun(idx int) metrics.Run {
	return metrics.Run{
		App:          "app",
		Governor:     "gov",
		Slowdown:     0.1,
		Time:         time.Duration(idx+1) * time.Second,
		PkgEnergy:    1234.5678901234567,
		DramEnergy:   98.76543210987654,
		AvgPkgPower:  110.00000000000001,
		AvgDramPower: 13.37,
		AvgCoreFreq:  2.1e9,
		AvgUncore:    1.9283746574839201e9,
	}
}

// openOrDie opens a cache and fails the test on error.
func openOrDie(t *testing.T, dir, version string) *Cache {
	t.Helper()
	c, err := Open(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	want := testRun(0)
	c.Put(testKeyAt(0), want)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new handle) must reload the identical bits.
	c2 := openOrDie(t, dir, physV)
	defer c2.Close()
	got, ok := c2.Get(testKeyAt(0))
	if !ok {
		t.Fatal("persisted run not found after reopen")
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Slowdown", got.Slowdown, want.Slowdown},
		{"PkgEnergy", float64(got.PkgEnergy), float64(want.PkgEnergy)},
		{"DramEnergy", float64(got.DramEnergy), float64(want.DramEnergy)},
		{"AvgPkgPower", float64(got.AvgPkgPower), float64(want.AvgPkgPower)},
		{"AvgDramPower", float64(got.AvgDramPower), float64(want.AvgDramPower)},
		{"AvgCoreFreq", float64(got.AvgCoreFreq), float64(want.AvgCoreFreq)},
		{"AvgUncore", float64(got.AvgUncore), float64(want.AvgUncore)},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %x != %x (value %v vs %v)", f.name,
				math.Float64bits(f.got), math.Float64bits(f.want), f.got, f.want)
		}
	}
	if got != want {
		t.Errorf("round-tripped run differs: %+v vs %+v", got, want)
	}
	if st := c2.Stats(); st.Loaded != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 loaded, 1 hit", st)
	}
}

// soleSegment returns the directory's single binary segment file.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "runs-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", segs, err)
	}
	return segs[0]
}

// segFrames parses a binary segment, returning the [start, end) byte
// range of each frame (length prefix included). Test-side framing: if
// the writer's layout drifts, the corruption tests fail loudly here.
func segFrames(t *testing.T, raw []byte) [][2]int {
	t.Helper()
	off := len(segMagic)
	for i := 0; i < 2; i++ { // format version, then stamp length
		v, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			t.Fatalf("bad header varint at %d", off)
		}
		off += n
		if i == 1 {
			off += int(v) // skip the stamp bytes
		}
	}
	var frames [][2]int
	for off < len(raw) {
		start := off
		n, sz := binary.Uvarint(raw[off:])
		if sz <= 0 {
			t.Fatalf("bad frame length at %d", off)
		}
		off += sz + 4 + int(n)
		frames = append(frames, [2]int{start, off})
	}
	return frames
}

func TestCorruptRecordsSkippedAndCounted(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	for i := 0; i < 3; i++ {
		c.Put(testKeyAt(i), testRun(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	seg := soleSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frames := segFrames(t, raw)
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(frames))
	}
	// Flip a byte inside the first frame's body (CRC catches it; framing
	// stays aligned so the next record still loads) and truncate the
	// last frame mid-body — the torn tail of a crashed writer.
	raw[frames[0][1]-1] ^= 0x01
	raw = raw[:frames[2][0]+(frames[2][1]-frames[2][0])/2]
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openOrDie(t, dir, physV)
	defer c2.Close()
	st := c2.Stats()
	if st.Corrupt != 2 {
		t.Fatalf("stats = %+v, want 2 corrupt records", st)
	}
	if st.Loaded != 1 || c2.Len() != 1 {
		t.Fatalf("stats = %+v len=%d, want exactly the intact record", st, c2.Len())
	}
	if _, ok := c2.Get(testKeyAt(1)); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := c2.Get(testKeyAt(0)); ok {
		t.Fatal("corrupt record served")
	}
}

func TestBadHeaderStopsSegment(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	c.Put(testKeyAt(0), testRun(0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	seg := soleSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff // break the magic
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A zero-byte segment (writer crashed before its first flush) is
	// skipped silently, not counted corrupt.
	if err := os.WriteFile(filepath.Join(dir, "runs-empty.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openOrDie(t, dir, physV)
	defer c2.Close()
	if st := c2.Stats(); st.Corrupt != 1 || st.Loaded != 0 || c2.Len() != 0 {
		t.Fatalf("stats = %+v len=%d, want 1 corrupt and nothing loaded", st, c2.Len())
	}
}

func TestPhysicsVersionMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, "physics-old")
	c.Put(testKeyAt(0), testRun(0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openOrDie(t, dir, "physics-new")
	defer c2.Close()
	if _, ok := c2.Get(testKeyAt(0)); ok {
		t.Fatal("stale-physics record served as a hit")
	}
	st := c2.Stats()
	if st.Stale != 1 || st.Loaded != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want the record counted stale, not corrupt", st)
	}
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

func TestConcurrentProcessesShareDirectory(t *testing.T) {
	dir := t.TempDir()
	// Two handles open simultaneously model two processes: each writes
	// its own segment, neither clobbers the other.
	a := openOrDie(t, dir, physV)
	b := openOrDie(t, dir, physV)
	a.Put(testKeyAt(0), testRun(0))
	b.Put(testKeyAt(1), testRun(1))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "runs-*.seg"))
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want one per process", segs)
	}
	c := openOrDie(t, dir, physV)
	defer c.Close()
	if c.Len() != 2 {
		t.Fatalf("merged index holds %d runs, want 2", c.Len())
	}
	for i := 0; i < 2; i++ {
		if got, ok := c.Get(testKeyAt(i)); !ok || got != testRun(i) {
			t.Fatalf("key %d: got %+v ok=%v", i, got, ok)
		}
	}
}

func TestReadOnlyDirectoryDegrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	seed := openOrDie(t, dir, physV)
	seed.Put(testKeyAt(0), testRun(0))
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	c, err := Open(dir, physV)
	if err != nil {
		t.Fatalf("read-only dir must degrade, not fail: %v", err)
	}
	defer c.Close()
	if c.Warning() == "" || !c.ReadOnly() {
		t.Fatalf("warning = %q readOnly = %v, want degraded handle", c.Warning(), c.ReadOnly())
	}
	// Existing records still serve; new Puts stay memory-only but visible.
	if _, ok := c.Get(testKeyAt(0)); !ok {
		t.Fatal("read-only cache lost existing records")
	}
	c.Put(testKeyAt(1), testRun(1))
	if _, ok := c.Get(testKeyAt(1)); !ok {
		t.Fatal("memory-only Put not visible to the same process")
	}
	if st := c.Stats(); st.Written != 0 {
		t.Fatalf("stats = %+v, read-only handle must persist nothing", st)
	}
}

func TestUncreatableDirectoryDegrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(parent, 0o755)
	c, err := Open(filepath.Join(parent, "cache"), physV)
	if err != nil {
		t.Fatalf("uncreatable dir must degrade, not fail: %v", err)
	}
	defer c.Close()
	if c.Warning() == "" {
		t.Fatal("want a degradation warning")
	}
}

func TestOpenEmptyDirErrors(t *testing.T) {
	if _, err := Open("", physV); err == nil {
		t.Fatal("Open(\"\") must error")
	}
}

func TestDuplicatePutsWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	for i := 0; i < 5; i++ {
		c.Put(testKeyAt(0), testRun(0))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Written != 1 {
		t.Fatalf("stats = %+v, want a single write for duplicate Puts", st)
	}
}

func TestEmptySegmentRemovedOnClose(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "runs-*"))
	if len(segs) != 0 {
		t.Fatalf("empty segment left behind: %v", segs)
	}
}

func TestGetByIDSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c := openOrDie(t, dir, physV)
	key, want := testKeyAt(7), testRun(7)
	c.Put(key, want)
	id := RunID(key)
	if len(id) != 16 {
		t.Fatalf("RunID %q is not 16 hex digits", id)
	}
	if id != RunID(key) {
		t.Fatal("RunID not deterministic")
	}
	if other := RunID(testKeyAt(8)); other == id {
		t.Fatalf("different keys share run ID %q", id)
	}
	gotKey, got, ok := c.GetByID(id)
	if !ok || gotKey != key || got != want {
		t.Fatalf("GetByID before close: ok=%v key=%+v", ok, gotKey)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The ID index must be rebuilt from disk on reopen: this is what
	// lets a restarted daemon answer /v1/runs/<id> for old runs.
	c2 := openOrDie(t, dir, physV)
	defer c2.Close()
	gotKey, got, ok = c2.GetByID(id)
	if !ok {
		t.Fatal("run not found by ID after reopen")
	}
	if gotKey != key || got != want {
		t.Fatalf("GetByID after reopen: key=%+v run=%+v", gotKey, got)
	}
	if _, _, ok := c2.GetByID("doesnotexist0000"); ok {
		t.Fatal("bogus ID found")
	}
}

// TestGetByIDIndex table-tests the ID index, which is keyed by the
// 64-bit sum behind RunID: only the canonical spelling of a stored
// record's ID finds it — from the handle that wrote it and from a fresh
// Open of its directory — and every other spelling misses and counts as
// a miss. A record written under another physics version is never
// found.
func TestGetByIDIndex(t *testing.T) {
	key, want := testKeyAt(7), testRun(7)
	id := RunID(key)
	if strings.ToUpper(id) == id {
		t.Fatalf("RunID %s has no hex letters to upper-case", id)
	}
	// written returns a directory holding key's record, persisted by a
	// closed handle under version.
	written := func(t *testing.T, version string) string {
		dir := t.TempDir()
		c := openOrDie(t, dir, version)
		c.Put(key, want)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	handles := []struct {
		name  string
		open  func(t *testing.T) *Cache
		holds bool  // the record is findable through this handle
		stale int64 // Stats().Stale after Open
	}{
		{
			name: "writing handle",
			open: func(t *testing.T) *Cache {
				c := openOrDie(t, t.TempDir(), physV)
				c.Put(key, want)
				return c
			},
			holds: true,
		},
		{
			name: "after close and reopen",
			open: func(t *testing.T) *Cache {
				return openOrDie(t, written(t, physV), physV)
			},
			holds: true,
		},
		{
			name: "other physics version",
			open: func(t *testing.T) *Cache {
				return openOrDie(t, written(t, "physics-old"), physV)
			},
			stale: 1,
		},
	}
	ids := []struct {
		name      string
		id        string
		canonical bool
	}{
		{name: "canonical", id: id, canonical: true},
		{name: "upper case", id: strings.ToUpper(id)},
		{name: "15 digits", id: id[:15]},
		{name: "17 digits", id: id + "0"},
		{name: "0x prefix", id: "0x" + id[2:]},
		{name: "non-hex", id: "g" + id[1:]},
		{name: "empty", id: ""},
	}
	for _, h := range handles {
		for _, tt := range ids {
			t.Run(h.name+"/"+tt.name, func(t *testing.T) {
				c := h.open(t)
				defer c.Close()
				before := c.Stats()
				if before.Stale != h.stale {
					t.Fatalf("stats after open = %+v, want %d stale", before, h.stale)
				}
				gotKey, got, ok := c.GetByID(tt.id)
				after := c.Stats()
				if hit := h.holds && tt.canonical; hit {
					if !ok || gotKey != key || got != want {
						t.Fatalf("GetByID(%q) = %+v, %+v, %v; want the stored record", tt.id, gotKey, got, ok)
					}
					if after.Hits != before.Hits+1 || after.Misses != before.Misses {
						t.Fatalf("stats %+v -> %+v, want one hit", before, after)
					}
					return
				}
				if ok {
					t.Fatalf("GetByID(%q) found %+v", tt.id, gotKey)
				}
				if after.Misses != before.Misses+1 || after.Hits != before.Hits {
					t.Fatalf("stats %+v -> %+v, want one miss", before, after)
				}
			})
		}
	}
}

// TestPutDropsPastPendingBound pins the write-behind bound. While the
// writer is held inside its first record, Put queues up to maxPending
// records, drops and counts the rest, and still indexes every one; Close
// then drains the queue, so exactly the queued records reach the
// segment.
func TestPutDropsPastPendingBound(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	c, err := Open(dir, physV, WithWriteObserver(func(float64) { <-release }))
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	for i := 0; i < maxPending+extra; i++ {
		c.Put(testKeyAt(i), testRun(i))
	}
	if st := c.Stats(); st.Dropped != extra {
		t.Errorf("dropped %d of %d records, want %d", st.Dropped, maxPending+extra, extra)
	}
	if _, ok := c.Get(testKeyAt(maxPending + extra - 1)); !ok {
		t.Error("a dropped record does not serve Get in its own process")
	}
	close(release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Written != maxPending {
		t.Errorf("wrote %d records, want %d", st.Written, maxPending)
	}
	re, err := Open(dir, physV)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Loaded != maxPending || st.Corrupt != 0 {
		t.Errorf("reopened: %+v, want %d loaded and none corrupt", st, maxPending)
	}
}
