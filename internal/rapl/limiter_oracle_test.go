package rapl

import (
	"math"
	"math/rand"
	"testing"

	"dufp/internal/arch"
	"dufp/internal/msr"
	"dufp/internal/units"
)

// oracleLimiter is the reference Limiter.Step: every tick re-evaluates
// the decision from the programmed limits, with only the EMA gains
// cached. The kernel-built Step must agree with it on every returned
// frequency and on the bits of the running averages.
type oracleLimiter struct {
	spec  arch.Spec
	limit msr.PkgPowerLimit

	ema1, ema2 float64
	primed     bool
	upMargin   float64

	gainDT     float64
	gainW1     float64
	gainW2     float64
	gain1      float64
	gain2      float64
	gainPrimed bool
}

func newOracleLimiter(spec arch.Spec) *oracleLimiter {
	return &oracleLimiter{spec: spec, limit: DefaultLimits(spec), upMargin: 0.02}
}

func (l *oracleLimiter) Step(power units.Power, dt float64, cur, request units.Frequency) units.Frequency {
	p := float64(power)
	if !l.primed {
		l.ema1, l.ema2 = p, p
		l.primed = true
	} else {
		w1, w2 := l.limit.PL1.Window, l.limit.PL2.Window
		if !l.gainPrimed || dt != l.gainDT || w1 != l.gainW1 || w2 != l.gainW2 {
			l.gain1 = ema(dt, w1)
			l.gain2 = ema(dt, w2)
			l.gainDT, l.gainW1, l.gainW2 = dt, w1, w2
			l.gainPrimed = true
		}
		l.ema1 += l.gain1 * (p - l.ema1)
		l.ema2 += l.gain2 * (p - l.ema2)
	}

	over := (l.limit.PL1.Enabled && l.ema1 > float64(l.limit.PL1.Limit)) ||
		(l.limit.PL2.Enabled && l.ema2 > float64(l.limit.PL2.Limit))
	if over {
		return l.spec.ClampCoreFreq(cur - l.spec.CoreFreqStep)
	}

	room := (!l.limit.PL1.Enabled || l.ema1 < float64(l.limit.PL1.Limit)*(1-l.upMargin)) &&
		(!l.limit.PL2.Enabled || l.ema2 < float64(l.limit.PL2.Limit)*(1-l.upMargin))
	if room && cur < request {
		return l.spec.ClampCoreFreq(cur + l.spec.CoreFreqStep)
	}
	return cur
}

// oracleCase is one scenario of the kernel-versus-oracle comparison: the
// limits, the tick, the starting delivered and requested frequency and a
// seed for the drawn power sequence.
type oracleCase struct {
	name         string
	limits       msr.PkgPowerLimit
	dt           float64
	cur, request units.Frequency
	seed         int64
}

// raceOracle runs the scenario on a Limiter and on the oracle side by
// side. Each tick both see the same power and the same delivered
// frequency, which then follows the returned one, so the operating point
// moves and the kernel is rebuilt along the way. Halfway through, PL1 and
// PL2 swap places (a reprogramming mid-run), and for the last quarter the
// request drops to the minimum frequency.
func raceOracle(t *testing.T, c oracleCase) {
	t.Helper()
	const ticks = 400
	spec := arch.XeonGold6130()
	got, want := NewLimiter(spec), newOracleLimiter(spec)
	got.SetLimits(c.limits)
	want.limit = c.limits
	r := rand.New(rand.NewSource(c.seed))
	cur, request := c.cur, c.request
	for i := 0; i < ticks; i++ {
		if i == ticks/2 {
			swapped := msr.PkgPowerLimit{PL1: c.limits.PL2, PL2: c.limits.PL1}
			got.SetLimits(swapped)
			want.limit = swapped
		}
		if i == 3*ticks/4 {
			request = spec.MinCoreFreq
		}
		p := units.Power(40 + 160*r.Float64())
		g, w := got.Step(p, c.dt, cur, request), want.Step(p, c.dt, cur, request)
		if math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
			t.Fatalf("%s: tick %d (power %v, cur %v, request %v): kernel steps to %v, oracle to %v",
				c.name, i, p, cur, request, g, w)
		}
		g1, g2 := got.Averages()
		if math.Float64bits(float64(g1)) != math.Float64bits(want.ema1) ||
			math.Float64bits(float64(g2)) != math.Float64bits(want.ema2) {
			t.Fatalf("%s: tick %d: averages %v/%v, oracle %v/%v", c.name, i, g1, g2, want.ema1, want.ema2)
		}
		cur = w
	}
}

func limits(pl1, pl2 msr.PowerLimit) msr.PkgPowerLimit {
	return msr.PkgPowerLimit{PL1: pl1, PL2: pl2}
}

// long and short are constraints with the default 1 s and 10 ms windows.
func long(w units.Power, on bool) msr.PowerLimit {
	return msr.PowerLimit{Limit: w, Window: 1, Enabled: on, Clamp: true}
}

func short(w units.Power, on bool) msr.PowerLimit {
	return msr.PowerLimit{Limit: w, Window: 0.01, Enabled: on, Clamp: true}
}

// TestKernelMatchesOracle pins the kernel-built Step to the oracle over
// the edge cases of the decision: either constraint or both disabled,
// the delivered frequency at the bottom or the top of the ladder, a
// request below the delivered frequency, a cap no power reaches, one
// every power exceeds, zero-length windows and a fresh, unprimed limiter
// (every case starts unprimed). In the one-disabled cases the disabled
// constraint's average sits above its hysteresis bound while the enabled
// one walks the frequency down and back up, so a room test that consulted
// the disabled constraint would show.
func TestKernelMatchesOracle(t *testing.T) {
	spec := arch.XeonGold6130()
	lo, hi := spec.MinCoreFreq, spec.MaxCoreFreq
	cases := []oracleCase{
		{"default", DefaultLimits(spec), 1e-3, hi, hi, 1},
		{"PL1 disabled", limits(long(20, false), short(125, true)), 1e-3, hi, hi, 2},
		{"PL2 disabled", limits(short(125, true), long(20, false)), 1e-3, hi, hi, 3},
		{"both disabled", limits(long(60, false), short(60, false)), 1e-3, hi, hi, 4},
		{"at min", limits(long(50, true), short(60, true)), 1e-3, lo, hi, 5},
		{"at max", limits(long(250, true), short(250, true)), 1e-3, hi, hi, 6},
		{"request below delivered", limits(long(110, true), short(130, true)), 1e-3, hi, 1.5 * units.Gigahertz, 7},
		{"request at min", limits(long(110, true), short(130, true)), 1e-3, 2 * units.Gigahertz, lo, 8},
		{"off-ladder delivered", limits(long(110, true), short(130, true)), 1e-3, 2.05 * units.Gigahertz, hi, 9},
		{"never over", limits(long(500, true), short(500, true)), 1e-3, lo, hi, 10},
		{"always over", limits(long(10, true), short(20, true)), 1e-3, hi, hi, 11},
		{"zero windows", limits(
			msr.PowerLimit{Limit: 110, Enabled: true},
			msr.PowerLimit{Limit: 130, Enabled: true},
		), 1e-3, hi, hi, 12},
		{"long tick", limits(long(110, true), short(130, true)), 0.05, hi, hi, 13},
	}
	for _, c := range cases {
		raceOracle(t, c)
	}
}

// FuzzLimiterKernel races the kernel-built Step against the oracle over
// arbitrary limits, windows, enable bits, tick, delivered and requested
// frequency and power sequence.
func FuzzLimiterKernel(f *testing.F) {
	f.Add(125.0, 150.0, 1.0, 0.01, true, true, 1e-3, 2.8e9, 2.8e9, int64(1))
	f.Add(90.0, 130.0, 1.0, 0.01, false, true, 1e-3, 2.8e9, 2.8e9, int64(2))
	f.Add(90.0, 130.0, 1.0, 0.01, true, false, 1e-3, 1.0e9, 2.8e9, int64(3))
	f.Add(110.0, 130.0, 0.0, -1.0, true, true, 1e-3, 2.8e9, 1.5e9, int64(4))
	f.Add(60.0, 60.0, 1.0, 0.01, false, false, 0.5, 2.05e9, 1.0e9, int64(5))
	f.Fuzz(func(t *testing.T, pl1, pl2, w1, w2 float64, on1, on2 bool, dt, cur, request float64, seed int64) {
		raceOracle(t, oracleCase{
			name: "fuzz",
			limits: msr.PkgPowerLimit{
				PL1: msr.PowerLimit{Limit: units.Power(pl1), Window: w1, Enabled: on1},
				PL2: msr.PowerLimit{Limit: units.Power(pl2), Window: w2, Enabled: on2},
			},
			dt:      dt,
			cur:     units.Frequency(cur),
			request: units.Frequency(request),
			seed:    seed,
		})
	})
}
