package diskcache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dufp/internal/metrics"
	"dufp/internal/wirebin"
)

// fuzzRecords is the number of records in FuzzSegmentScan's seed segment.
const fuzzRecords = 3

// writtenSegment returns the bytes of the segment a cache stamped version
// leaves after Put of testRun(i) under testKeyAt(i) for every i below
// fuzzRecords, and Close.
func writtenSegment(f *testing.F, version string) []byte {
	f.Helper()
	dir := f.TempDir()
	c, err := Open(dir, version)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < fuzzRecords; i++ {
		c.Put(testKeyAt(i), testRun(i))
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "runs-*.seg"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments = %v (err %v), want exactly one", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// runBitsEqual reports whether two runs agree in every field, floats
// compared by their IEEE 754 bits.
func runBitsEqual(a, b metrics.Run) bool {
	pairs := [][2]float64{
		{a.Slowdown, b.Slowdown},
		{float64(a.PkgEnergy), float64(b.PkgEnergy)},
		{float64(a.DramEnergy), float64(b.DramEnergy)},
		{float64(a.AvgPkgPower), float64(b.AvgPkgPower)},
		{float64(a.AvgDramPower), float64(b.AvgDramPower)},
		{float64(a.AvgCoreFreq), float64(b.AvgCoreFreq)},
		{float64(a.AvgUncore), float64(b.AvgUncore)},
	}
	for _, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return a.App == b.App && a.Governor == b.Governor && a.Time == b.Time
}

// frameOf appends one record frame — length prefix, CRC-32C and body —
// to b, whatever the body holds.
func frameOf(b, body []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, crcTable))
	return append(b, body...)
}

// FuzzSegmentScan feeds arbitrary bytes to the segment reader as a
// DUFPSEG3 file and checks that Open never panics or fails, that its
// counters are consistent with what a scan of that many bytes can see
// (exactly so for the seeds), that nothing loads but the records the
// seed segment was written with, bit for bit, and that each loaded run
// answers GetByID of its RunID with itself. Every seed derives from
// those records, so any record that loads must be one of them; only a
// CRC-32C collision could load a damaged frame.
func FuzzSegmentScan(f *testing.F) {
	seg := writtenSegment(f, physV)
	hdr := wirebin.AppendString(binary.AppendUvarint([]byte(segMagic), formatVersion), physV)
	padded := append(encodeFrameBody(nil, testKeyAt(0), testRun(0)), 0)
	// Each seed comes with the counts a correct scan reports for it.
	type seed struct {
		data []byte
		want Stats
	}
	seeds := []seed{
		{seg, Stats{Loaded: fuzzRecords}},
		{[]byte{}, Stats{}},
		{seg[:len(seg)-3], Stats{Loaded: fuzzRecords - 1, Corrupt: 1}}, // torn tail
		{seg[:len(hdr)-1], Stats{Corrupt: 1}},                          // torn header
		{writtenSegment(f, "stale"), Stats{Stale: fuzzRecords}},
		{frameOf(hdr, padded), Stats{Corrupt: 1}}, // a body with a trailing byte
	}
	for _, m := range []struct {
		mutate func(b []byte)
		want   Stats
	}{
		{func(b []byte) { b[0] ^= 0xff }, Stats{Corrupt: 1}},                                 // wrong magic
		{func(b []byte) { b[len(segMagic)]++ }, Stats{Corrupt: 1}},                           // wrong format version
		{func(b []byte) { b[len(b)-1] ^= 0x10 }, Stats{Loaded: fuzzRecords - 1, Corrupt: 1}}, // bit flip in the last body
		{func(b []byte) { b[len(segMagic)+2] ^= 0x01 }, Stats{Stale: fuzzRecords}},           // bit flip in the stamp
	} {
		b := bytes.Clone(seg)
		m.mutate(b)
		seeds = append(seeds, seed{b, m.want})
	}
	want := make(map[string]Stats, len(seeds))
	for _, sd := range seeds {
		f.Add(sd.data)
		want[string(sd.data)] = sd.want
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "runs-f.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, physV)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer c.Close()
		st := c.Stats()

		if w, ok := want[string(data)]; ok && (st.Loaded != w.Loaded || st.Corrupt != w.Corrupt || st.Stale != w.Stale) {
			t.Fatalf("stats = %+v, want %d loaded, %d corrupt, %d stale", st, w.Loaded, w.Corrupt, w.Stale)
		}
		// The header costs at most one corrupt count, and every other
		// count consumes a frame of at least five bytes (length prefix
		// and CRC).
		if seen := st.Loaded + st.Corrupt + st.Stale; seen > int64(len(data)/5+1) {
			t.Fatalf("stats = %+v: %d records counted in %d bytes", st, seen, len(data))
		}
		if st.Loaded > 0 && st.Stale > 0 {
			t.Fatalf("stats = %+v: one segment, one stamp, yet both loaded and stale records", st)
		}
		if int64(c.Len()) > st.Loaded {
			t.Fatalf("stats = %+v: index holds %d runs", st, c.Len())
		}

		for key, run := range c.mem {
			i := key.Idx
			if i < 0 || i >= fuzzRecords || key != testKeyAt(i) {
				t.Fatalf("loaded a record under %+v, which was never written", key)
			}
			if !runBitsEqual(run, testRun(i)) {
				t.Fatalf("key %d loaded %+v, want %+v bit for bit", i, run, testRun(i))
			}
			// Every loaded run answers its ID with itself.
			byKey, byRun, ok := c.GetByID(RunID(key))
			if !ok || byKey != key || !runBitsEqual(byRun, run) {
				t.Fatalf("GetByID(RunID(%+v)) = %+v, %+v, %v; want the loaded run bit for bit", key, byKey, byRun, ok)
			}
		}
	})
}
