package wirebin

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dufp/internal/metrics"
	"dufp/internal/units"
)

func randRun(rng *rand.Rand) metrics.Run {
	f := func() float64 { return math.Float64frombits(rng.Uint64()) }
	// Avoid NaN in the struct-equality check below; bit-level NaN
	// round-tripping has its own test.
	fin := func() float64 {
		for {
			v := f()
			if !math.IsNaN(v) {
				return v
			}
		}
	}
	return metrics.Run{
		App:          string(rune('A' + rng.Intn(26))),
		Governor:     []string{"", "duf", "dufp", "baseline", "static-cap-110W"}[rng.Intn(5)],
		Slowdown:     fin(),
		Time:         time.Duration(rng.Int63() - rng.Int63()),
		PkgEnergy:    units.Energy(fin()),
		DramEnergy:   units.Energy(fin()),
		AvgPkgPower:  units.Power(fin()),
		AvgDramPower: units.Power(fin()),
		AvgCoreFreq:  units.Frequency(fin()),
		AvgUncore:    units.Frequency(fin()),
	}
}

func TestRunRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in Interner
	r := NewReader(nil)
	for trial := 0; trial < 2000; trial++ {
		want := randRun(rng)
		b := AppendRun(nil, want)
		r.Reset(b)
		got := ReadRun(r, &in)
		if err := r.Err(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.Len() != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, r.Len())
		}
		if got != want {
			t.Fatalf("trial %d: round trip differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestFloat64BitExact(t *testing.T) {
	specials := []uint64{
		0, 1, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), 0x7ff8000000000123, // NaN payload
		math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(-0.0),
	}
	for _, bits := range specials {
		b := AppendFloat64(nil, math.Float64frombits(bits))
		r := NewReader(b)
		if got := math.Float64bits(r.Float64()); got != bits || r.Err() != nil {
			t.Fatalf("bits %016x round-tripped to %016x (err %v)", bits, got, r.Err())
		}
	}
}

func TestInt64ZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, int64(5 * time.Second)} {
		b := AppendInt64(nil, v)
		r := NewReader(b)
		if got := r.Int64(); got != v || r.Err() != nil {
			t.Fatalf("%d round-tripped to %d (err %v)", v, got, r.Err())
		}
	}
	// Small magnitudes must stay short in either sign.
	if n := len(AppendInt64(nil, -3)); n != 1 {
		t.Fatalf("zigzag -3 took %d bytes, want 1", n)
	}
}

func TestTruncationLatchesError(t *testing.T) {
	run := randRun(rand.New(rand.NewSource(2)))
	full := AppendRun(nil, run)
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		ReadRun(r, nil)
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
		// Sticky: later reads keep failing without panicking.
		r.Uvarint()
		r.Float64()
		if r.Err() == nil {
			t.Fatal("error unlatched")
		}
	}
}

func TestInternerDeduplicates(t *testing.T) {
	var in Interner
	a := in.Intern([]byte("duf"))
	b := in.Intern([]byte("duf"))
	if a != b {
		t.Fatal("interner returned different strings for equal bytes")
	}
	// Same backing allocation: mutating the source must not affect them.
	src := []byte("dufp")
	c := in.Intern(src)
	src[0] = 'X'
	if c != "dufp" || in.Intern([]byte("dufp")) != c {
		t.Fatal("interned string aliased caller bytes")
	}
}

func TestReaderInternZeroAlloc(t *testing.T) {
	run := metrics.Run{App: "CG", Governor: "dufp", Time: time.Second}
	b := AppendRun(nil, run)
	var in Interner
	r := NewReader(b)
	ReadRun(r, &in) // warm the interner
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(b)
		if got := ReadRun(r, &in); got != run {
			t.Fatal("decode mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %v per record, want 0", allocs)
	}
}
