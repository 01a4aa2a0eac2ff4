package msr

import (
	"math"
	"testing"
	"testing/quick"

	"dufp/internal/units"
)

func TestDecodeDefaultUnits(t *testing.T) {
	u := DefaultUnits()
	if got := float64(u.PowerUnit); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("power unit = %v, want 0.125 W (PU=3)", got)
	}
	if got := float64(u.EnergyUnit); math.Abs(got-1.0/16384) > 1e-15 {
		t.Errorf("energy unit = %v, want 2^-14 J (ESU=14)", got)
	}
	if got := u.TimeUnit; math.Abs(got-1.0/1024) > 1e-15 {
		t.Errorf("time unit = %v, want 2^-10 s (TU=10)", got)
	}
}

func TestPkgPowerLimitRoundTrip(t *testing.T) {
	u := DefaultUnits()
	in := PkgPowerLimit{
		PL1: PowerLimit{Limit: 125 * units.Watt, Window: 1.0, Enabled: true, Clamp: true},
		PL2: PowerLimit{Limit: 150 * units.Watt, Window: 0.01, Enabled: true, Clamp: true},
	}
	out := DecodePkgPowerLimit(u, EncodePkgPowerLimit(u, in))
	if out.PL1.Limit != in.PL1.Limit || out.PL2.Limit != in.PL2.Limit {
		t.Errorf("limits: got %v/%v, want %v/%v", out.PL1.Limit, out.PL2.Limit, in.PL1.Limit, in.PL2.Limit)
	}
	if !out.PL1.Enabled || !out.PL2.Enabled || !out.PL1.Clamp || !out.PL2.Clamp {
		t.Errorf("flags lost: %+v", out)
	}
	// Windows are snapped to the 2^Y(1+Z/4)·TU grid; require ≤12.5 % error.
	if rel := math.Abs(out.PL1.Window-1.0) / 1.0; rel > 0.125 {
		t.Errorf("PL1 window = %v, want ≈1.0 s", out.PL1.Window)
	}
	if rel := math.Abs(out.PL2.Window-0.01) / 0.01; rel > 0.125 {
		t.Errorf("PL2 window = %v, want ≈0.01 s", out.PL2.Window)
	}
}

func TestPowerLimitRoundTripQuick(t *testing.T) {
	u := DefaultUnits()
	prop := func(p1, p2 uint16, en1, en2 bool) bool {
		// Power fields are 15 bits of 1/8 W: representable range is
		// [0, 4095.875] W; use eighth-watt-aligned inputs so the round
		// trip is exact.
		l1 := units.Power(float64(p1&0x7FFF) * 0.125)
		l2 := units.Power(float64(p2&0x7FFF) * 0.125)
		in := PkgPowerLimit{
			PL1: PowerLimit{Limit: l1, Window: 1, Enabled: en1},
			PL2: PowerLimit{Limit: l2, Window: 0.01, Enabled: en2},
		}
		out := DecodePkgPowerLimit(u, EncodePkgPowerLimit(u, in))
		return out.PL1.Limit == l1 && out.PL2.Limit == l2 &&
			out.PL1.Enabled == en1 && out.PL2.Enabled == en2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerLimitSaturates(t *testing.T) {
	u := DefaultUnits()
	in := PkgPowerLimit{PL1: PowerLimit{Limit: 1e6 * units.Watt, Window: 1}}
	out := DecodePkgPowerLimit(u, EncodePkgPowerLimit(u, in))
	want := units.Power(float64((1<<15)-1) * 0.125)
	if out.PL1.Limit != want {
		t.Fatalf("saturated limit = %v, want %v", out.PL1.Limit, want)
	}
}

func TestPowerLimitLockBit(t *testing.T) {
	u := DefaultUnits()
	raw := EncodePkgPowerLimit(u, PkgPowerLimit{Locked: true})
	if raw>>63 != 1 {
		t.Fatalf("lock bit not set: %#x", raw)
	}
	if !DecodePkgPowerLimit(u, raw).Locked {
		t.Fatal("lock bit not decoded")
	}
}

func TestWindowEncodingMonotonic(t *testing.T) {
	u := DefaultUnits()
	prev := -1.0
	for _, w := range []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 10, 40} {
		raw := EncodePkgPowerLimit(u, PkgPowerLimit{PL1: PowerLimit{Limit: 100, Window: w}})
		got := DecodePkgPowerLimit(u, raw).PL1.Window
		if got < prev {
			t.Errorf("window %v decodes to %v, below previous %v", w, got, prev)
		}
		if rel := math.Abs(got-w) / w; rel > 0.125 {
			t.Errorf("window %v decodes to %v (%.1f %% error)", w, got, rel*100)
		}
		prev = got
	}
}

// exhaustiveEncodeWindow is the reference window encoder: it evaluates
// all 128 encodings through math.Exp2, Y-major, and keeps the first one
// strictly nearest the target. encodeWindow must agree with it on every
// input.
func exhaustiveEncodeWindow(u Units, w float64) uint8 {
	if w <= 0 || u.TimeUnit <= 0 {
		return 0
	}
	target := w / u.TimeUnit
	if target < 1 {
		target = 1
	}
	bestY, bestZ := 0, 0
	bestErr := math.Inf(1)
	for y := 0; y < 32; y++ {
		for z := 0; z < 4; z++ {
			got := math.Exp2(float64(y)) * (1 + float64(z)/4)
			if err := math.Abs(got - target); err < bestErr {
				bestErr, bestY, bestZ = err, y, z
			}
		}
	}
	return uint8(bestY | bestZ<<5)
}

// windowCodes returns the 128 window encodings in ascending order of the
// window they represent, with those windows in time units.
func windowCodes() (codes []uint8, steps []float64) {
	for y := 0; y < 32; y++ {
		for z := 0; z < 4; z++ {
			codes = append(codes, uint8(y|z<<5))
			steps = append(steps, math.Exp2(float64(y))*(1+float64(z)/4))
		}
	}
	return codes, steps
}

func TestEncodeWindowMatchesExhaustiveSearch(t *testing.T) {
	codes, steps := windowCodes()
	var mids []float64
	for i := 1; i < len(steps); i++ {
		mids = append(mids, (steps[i-1]+steps[i])/2)
	}
	tests := []struct {
		name    string
		targets []float64 // windows in time units
		// toCodes additionally requires targets[i] to encode to codes[i].
		toCodes bool
	}{
		{name: "ladder values", targets: steps, toCodes: true},
		// A midpoint is equally far from both neighbours: the lower wins.
		{name: "midpoints", targets: mids, toCodes: true},
		{name: "below one", targets: []float64{0.5, 0.999, 1e-300, math.SmallestNonzeroFloat64}},
		{name: "above the ladder", targets: []float64{steps[len(steps)-1] * 1.1, 1e12, 1e300}},
		{name: "zero", targets: []float64{0}},
		{name: "negative", targets: []float64{-1, -1e-9, -1e300}},
		{name: "NaN", targets: []float64{math.NaN()}},
		{name: "+Inf", targets: []float64{math.Inf(1)}},
		{name: "-Inf", targets: []float64{math.Inf(-1)}},
	}
	timeUnits := []struct {
		name string
		tu   uint64 // the MSR_RAPL_POWER_UNIT TU field
	}{
		{"1/1024 s", 10},
		{"1/8 s", 3},
		{"1 s", 0},
	}
	for _, tu := range timeUnits {
		u := DecodeUnits(tu.tu << 16)
		for _, tt := range tests {
			t.Run(tu.name+"/"+tt.name, func(t *testing.T) {
				for i, x := range tt.targets {
					w := x * u.TimeUnit
					got, want := encodeWindow(u, w), exhaustiveEncodeWindow(u, w)
					if got != want {
						t.Errorf("target %v TU: encodeWindow = %#x, exhaustive search = %#x", x, got, want)
					}
					if tt.toCodes && got != codes[i] {
						t.Errorf("target %v TU: encodeWindow = %#x, want %#x", x, got, codes[i])
					}
				}
			})
		}
	}
}

func TestDecodeWindowMatchesExp2(t *testing.T) {
	for _, tu := range []uint64{10, 3, 0} {
		u := DecodeUnits(tu << 16)
		for code := 0; code < 128; code++ {
			y, z := code&0x1F, code>>5
			want := math.Exp2(float64(y)) * (1 + float64(z)/4) * u.TimeUnit
			if got := decodeWindow(u, uint8(code)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("TU=2^-%d code %#x: decodeWindow = %v, want %v", tu, code, got, want)
			}
		}
	}
}

func TestUncoreRatioLimitRoundTrip(t *testing.T) {
	prop := func(min, max uint8) bool {
		in := UncoreRatioLimit{Min: min & 0x7F, Max: max & 0x7F}
		return DecodeUncoreRatioLimit(EncodeUncoreRatioLimit(in)) == in
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUncoreRatioFrequency(t *testing.T) {
	if got := RatioToFrequency(24); got != 2.4*units.Gigahertz {
		t.Errorf("RatioToFrequency(24) = %v, want 2.4 GHz", got)
	}
	if got := FrequencyToRatio(1.2 * units.Gigahertz); got != 12 {
		t.Errorf("FrequencyToRatio(1.2 GHz) = %d, want 12", got)
	}
	// Saturation.
	if got := FrequencyToRatio(100 * units.Gigahertz); got != 0x7F {
		t.Errorf("FrequencyToRatio(100 GHz) = %d, want 127", got)
	}
	if got := FrequencyToRatio(-1 * units.Gigahertz); got != 0 {
		t.Errorf("FrequencyToRatio(-1 GHz) = %d, want 0", got)
	}
}

func TestRatioFrequencyRoundTripQuick(t *testing.T) {
	prop := func(r uint8) bool {
		r &= 0x7F
		return FrequencyToRatio(RatioToFrequency(r)) == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyCounterWraparound(t *testing.T) {
	unit := DefaultUnits().EnergyUnit
	// Near the 32-bit wrap point.
	before := uint64(0xFFFFFF00)
	after := uint64(0x00000100)
	got := EnergyCounterDelta(unit, before, after)
	want := units.Energy(float64(0x200) * float64(unit))
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Fatalf("wraparound delta = %v, want %v", got, want)
	}
}

func TestEnergyCounterDeltaQuick(t *testing.T) {
	unit := units.Energy(1.0 / 16384)
	prop := func(before uint32, add uint32) bool {
		b := uint64(before)
		a := (uint64(before) + uint64(add)) & 0xFFFFFFFF
		got := EnergyCounterDelta(unit, b, a)
		want := units.Energy(float64(add) * float64(unit))
		return math.Abs(float64(got-want)) <= 1e-9*math.Max(1, float64(want))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeEnergyCounter(t *testing.T) {
	unit := units.Energy(1.0 / 16384)
	if got := EncodeEnergyCounter(unit, 1*units.Joule); got != 16384 {
		t.Fatalf("EncodeEnergyCounter(1 J) = %d, want 16384", got)
	}
	// Wraps at 32 bits.
	big := units.Energy(float64(unit) * float64(1<<33))
	if got := EncodeEnergyCounter(unit, big); got != 0 {
		t.Fatalf("EncodeEnergyCounter(2^33 ticks) = %d, want 0", got)
	}
	if got := EncodeEnergyCounter(0, 5); got != 0 {
		t.Fatalf("EncodeEnergyCounter with zero unit = %d, want 0", got)
	}
}

func TestEncodeDeltaComposition(t *testing.T) {
	// Sampling the encoded counter before and after an accumulation must
	// recover the accumulated energy, across wraps.
	unit := DefaultUnits().EnergyUnit
	prop := func(startMJ, addMJ uint32) bool {
		start := units.Energy(float64(startMJ) * 1e-3)
		add := units.Energy(float64(addMJ%1_000_000) * 1e-3)
		before := EncodeEnergyCounter(unit, start)
		after := EncodeEnergyCounter(unit, start+add)
		got := EnergyCounterDelta(unit, before, after)
		// Quantisation loses at most one tick per encode.
		return math.Abs(float64(got-add)) <= 2*float64(unit)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPkgPowerLimitString(t *testing.T) {
	u := DefaultUnits()
	l := DecodePkgPowerLimit(u, EncodePkgPowerLimit(u, PkgPowerLimit{
		PL1: PowerLimit{Limit: 125, Window: 1, Enabled: true},
		PL2: PowerLimit{Limit: 150, Window: 0.01, Enabled: true},
	}))
	s := l.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
