package wirebin

import (
	"bytes"
	"math"
	"testing"
	"time"

	"dufp/internal/metrics"
)

// runBits lists a run's fields with every float as its IEEE 754 bits, so
// two runs compare equal exactly when they agree bit for bit, NaNs
// included.
func runBits(r metrics.Run) [10]any {
	return [10]any{
		r.App, r.Governor, math.Float64bits(r.Slowdown), r.Time,
		math.Float64bits(float64(r.PkgEnergy)), math.Float64bits(float64(r.DramEnergy)),
		math.Float64bits(float64(r.AvgPkgPower)), math.Float64bits(float64(r.AvgDramPower)),
		math.Float64bits(float64(r.AvgCoreFreq)), math.Float64bits(float64(r.AvgUncore)),
	}
}

// FuzzReadRun feeds arbitrary bytes to the run decoder, the one the disk
// cache's Open runs on every CRC-valid frame. It never panics, and
// whenever it reports no error the run it read survives AppendRun and
// ReadRun again bit for bit.
func FuzzReadRun(f *testing.F) {
	rec := AppendRun(nil, metrics.Run{
		App: "CG", Governor: "DUFP", Slowdown: 0.1, Time: 61 * time.Second,
		PkgEnergy: 9876.5, DramEnergy: 1234.25, AvgPkgPower: 161.9, AvgDramPower: 20.2,
		AvgCoreFreq: 2.3e9, AvgUncore: 1.9e9,
	})
	f.Add(rec)
	f.Add(rec[:len(rec)-3])                           // truncated inside the last float
	f.Add([]byte{})                                   // empty
	f.Add(bytes.Repeat([]byte{0xff}, 11))             // a uvarint longer than 64 bits
	f.Add(append(AppendUvarint(nil, 1<<20), "CG"...)) // a string length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Interner
		r := NewReader(data)
		run := ReadRun(r, &in)
		if r.Err() != nil {
			return
		}
		back := NewReader(AppendRun(nil, run))
		again := ReadRun(back, nil)
		if err := back.Err(); err != nil || back.Len() != 0 {
			t.Fatalf("re-reading %+v: err %v, %d trailing bytes", run, err, back.Len())
		}
		if runBits(again) != runBits(run) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", again, run)
		}
	})
}
