package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dufp/internal/arch"
	"dufp/internal/units"
)

func testShape() PhaseShape {
	return PhaseShape{
		Name:         "test",
		FlopFrac:     0.1,
		MemFrac:      0.5,
		ComputeShare: 0.6,
		Overlap:      0.4,
		BWUncoreKnee: 2.0 * units.Gigahertz,
		BWCoreExp:    0.2,
		BWCoreKnee:   1.3 * units.Gigahertz,
		Duration:     time.Second,
	}
}

func TestCompileReproducesDefaultDuration(t *testing.T) {
	spec := arch.XeonGold6130()
	for _, share := range []float64{0, 0.02, 0.3, 0.5, 0.7, 0.98, 1} {
		for _, ov := range []float64{0, 0.4, 1} {
			sh := testShape()
			sh.ComputeShare = share
			sh.Overlap = ov
			k, err := Compile(spec, sh)
			if err != nil {
				t.Fatalf("share=%v ov=%v: %v", share, ov, err)
			}
			r := k.At(spec.MaxCoreFreq, spec.MaxUncoreFreq)
			// Progress at the default operating point must complete the
			// phase in its nominal duration.
			if gotDur := 1 / r.Progress; math.Abs(gotDur-1) > 1e-9 {
				t.Errorf("share=%v ov=%v: duration at default = %v s, want 1 s", share, ov, gotDur)
			}
		}
	}
}

func TestCompileReproducesDefaultRates(t *testing.T) {
	spec := arch.XeonGold6130()
	k, err := Compile(spec, testShape())
	if err != nil {
		t.Fatal(err)
	}
	r := k.At(spec.MaxCoreFreq, spec.MaxUncoreFreq)
	wantFlops := 0.1 * float64(spec.PeakFlops(spec.MaxCoreFreq))
	if rel := math.Abs(float64(r.FlopRate)-wantFlops) / wantFlops; rel > 1e-9 {
		t.Errorf("FlopRate = %v, want %v", r.FlopRate, wantFlops)
	}
	wantBW := 0.5 * float64(spec.PeakMemoryBandwidth)
	if rel := math.Abs(float64(r.Bandwidth)-wantBW) / wantBW; rel > 1e-9 {
		t.Errorf("Bandwidth = %v, want %v", r.Bandwidth, wantBW)
	}
}

func TestRatesSlowWithCoreFrequency(t *testing.T) {
	spec := arch.XeonGold6130()
	k := MustCompile(spec, testShape())
	prev := math.Inf(1)
	for f := spec.MaxCoreFreq; f >= spec.MinCoreFreq; f -= spec.CoreFreqStep {
		r := k.At(f, spec.MaxUncoreFreq)
		if r.Progress > prev {
			t.Fatalf("progress increased as frequency dropped at %v", f)
		}
		prev = r.Progress
	}
}

func TestUncoreKneeIsFree(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.ComputeShare = 0.1 // memory-critical
	sh.UncoreLatSens = 0
	k := MustCompile(spec, sh)
	atMax := k.At(spec.MaxCoreFreq, spec.MaxUncoreFreq)
	atKnee := k.At(spec.MaxCoreFreq, sh.BWUncoreKnee)
	if rel := math.Abs(atKnee.Progress-atMax.Progress) / atMax.Progress; rel > 1e-9 {
		t.Fatalf("lowering uncore to the knee changed progress by %.2f %%", rel*100)
	}
	below := k.At(spec.MaxCoreFreq, sh.BWUncoreKnee-200*units.Megahertz)
	if below.Progress >= atKnee.Progress {
		t.Fatal("progress did not drop below the uncore knee")
	}
}

func TestUncoreLatencySensitivity(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.UncoreLatSens = 0.6
	sh.BWUncoreKnee = 0 // isolate the latency path
	k := MustCompile(spec, sh)
	hi := k.At(spec.MaxCoreFreq, spec.MaxUncoreFreq)
	lo := k.At(spec.MaxCoreFreq, spec.MinUncoreFreq)
	if lo.Progress >= hi.Progress {
		t.Fatal("latency-sensitive phase unaffected by uncore")
	}
	sh.UncoreLatSens = 0
	k2 := MustCompile(spec, sh)
	if got := k2.At(spec.MaxCoreFreq, spec.MinUncoreFreq); got.Progress != k2.At(spec.MaxCoreFreq, spec.MaxUncoreFreq).Progress {
		t.Fatal("insensitive phase affected by uncore")
	}
}

func TestBWCoreKneeCollapse(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.ComputeShare = 0.05
	sh.BWCoreExp = 0
	sh.BWCoreKnee = 2.0 * units.Gigahertz
	k := MustCompile(spec, sh)
	above := k.At(2.0*units.Gigahertz, spec.MaxUncoreFreq)
	below := k.At(1.5*units.Gigahertz, spec.MaxUncoreFreq)
	// Below the knee, bandwidth collapses linearly with frequency.
	ratio := below.Bandwidth / above.Bandwidth
	if ratio > units.Bandwidth(1.5/2.0)+0.05 {
		t.Fatalf("bandwidth ratio below knee = %v, want ≈0.75", ratio)
	}
}

func TestOperationalIntensityMatchesRates(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	k := MustCompile(spec, sh)
	r := k.At(2.0*units.Gigahertz, 1.8*units.Gigahertz)
	oiFromRates := float64(r.FlopRate) / float64(r.Bandwidth)
	oiFromShape := sh.OperationalIntensity(spec)
	// OI is a work-volume ratio: invariant across operating points.
	if rel := math.Abs(oiFromRates-oiFromShape) / oiFromShape; rel > 1e-9 {
		t.Fatalf("OI from rates %v != OI from shape %v", oiFromRates, oiFromShape)
	}
}

func TestOperationalIntensityPureCompute(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.MemFrac = 0
	if oi := sh.OperationalIntensity(spec); oi < 1e8 {
		t.Fatalf("pure-compute OI = %v, want effectively infinite", oi)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name  string
		mutil func(*PhaseShape)
	}{
		{"zero duration", func(s *PhaseShape) { s.Duration = 0 }},
		{"negative FlopFrac", func(s *PhaseShape) { s.FlopFrac = -0.1 }},
		{"FlopFrac above 1", func(s *PhaseShape) { s.FlopFrac = 1.1 }},
		{"MemFrac above 1", func(s *PhaseShape) { s.MemFrac = 2 }},
		{"no work", func(s *PhaseShape) { s.FlopFrac, s.MemFrac = 0, 0 }},
		{"share above 1", func(s *PhaseShape) { s.ComputeShare = 1.2 }},
		{"negative overlap", func(s *PhaseShape) { s.Overlap = -0.5 }},
		{"latsens above 1", func(s *PhaseShape) { s.UncoreLatSens = 1.5 }},
		{"negative bw exponent", func(s *PhaseShape) { s.BWCoreExp = -1 }},
		{"activity extra out of range", func(s *PhaseShape) { s.ActivityExtra = 0.9 }},
		{"infinite uncore knee", func(s *PhaseShape) { s.BWUncoreKnee = units.Frequency(math.Inf(1)) }},
		{"NaN core knee", func(s *PhaseShape) { s.BWCoreKnee = units.Frequency(math.NaN()) }},
	}
	spec := arch.XeonGold6130()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := testShape()
			tc.mutil(&sh)
			if _, err := Compile(spec, sh); err == nil {
				t.Errorf("Compile accepted shape with %s", tc.name)
			}
		})
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic on invalid shape")
		}
	}()
	sh := testShape()
	sh.Duration = 0
	MustCompile(arch.XeonGold6130(), sh)
}

func TestProgressAlwaysPositiveQuick(t *testing.T) {
	spec := arch.XeonGold6130()
	prop := func(ff, mf, cs, ov uint8, fSel, uSel uint8) bool {
		sh := PhaseShape{
			Name:         "q",
			FlopFrac:     float64(ff%100+1) / 100,
			MemFrac:      float64(mf%101) / 100,
			ComputeShare: float64(cs%101) / 100,
			Overlap:      float64(ov%101) / 100,
			Duration:     time.Second,
		}
		k, err := Compile(spec, sh)
		if err != nil {
			return false
		}
		f := spec.ClampCoreFreq(spec.MinCoreFreq + units.Frequency(fSel%19)*spec.CoreFreqStep)
		u := spec.ClampUncoreFreq(spec.MinUncoreFreq + units.Frequency(uSel%13)*spec.UncoreFreqStep)
		r := k.At(f, u)
		return r.Progress > 0 && !math.IsInf(r.Progress, 0) && !math.IsNaN(r.Progress) &&
			r.Load.FlopUtil >= 0 && r.Load.MemUtil >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSlowdownNeverExceedsFrequencyRatioQuick(t *testing.T) {
	// Physics sanity: cutting core frequency by factor r cannot slow a
	// phase by more than r (plus knee collapse, excluded here).
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.BWCoreKnee = 0
	k := MustCompile(spec, sh)
	ref := k.At(spec.MaxCoreFreq, spec.MaxUncoreFreq)
	prop := func(fSel uint8) bool {
		f := spec.ClampCoreFreq(spec.MinCoreFreq + units.Frequency(fSel%19)*spec.CoreFreqStep)
		r := k.At(f, spec.MaxUncoreFreq)
		maxSlow := float64(spec.MaxCoreFreq) / float64(f)
		return ref.Progress/r.Progress <= maxSlow*(1+1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestShapeAccessor(t *testing.T) {
	spec := arch.XeonGold6130()
	sh := testShape()
	sh.ActivityExtra = 0.15
	k := MustCompile(spec, sh)
	if k.Shape().Name != sh.Name {
		t.Fatal("Shape() lost the shape")
	}
	if k.ActivityExtra() != sh.ActivityExtra {
		t.Fatalf("ActivityExtra() = %v, want %v", k.ActivityExtra(), sh.ActivityExtra)
	}
}
