package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/units"
)

// socketState snapshots every accumulator and actuation register of a
// socket for bitwise comparison between the fast path and the reference
// loop.
type socketState struct {
	pkgEnergy, dramEnergy           units.Energy
	flops, bytes                    float64
	aperf, mperf                    float64
	busySecs, coreHzSecs, uncHzSecs float64
	coreFreq, uncoreFreq            units.Frequency
	finished                        time.Duration
	lastPower, lastDram             units.Power
	lastBW                          units.Bandwidth
	lastFlopRate                    units.FlopRate
	idx                             int
}

func snapshot(m *Machine) []socketState {
	out := make([]socketState, m.Sockets())
	for i, s := range m.sockets {
		out[i] = socketState{
			pkgEnergy: s.pkgEnergy, dramEnergy: s.dramEnergy,
			flops: s.flops, bytes: s.bytes,
			aperf: s.aperf, mperf: s.mperf,
			busySecs: s.busySecs, coreHzSecs: s.coreHzSecs, uncHzSecs: s.uncHzSecs,
			coreFreq: s.coreFreq, uncoreFreq: s.uncoreFreq,
			finished:  s.finished,
			lastPower: s.lastPower, lastDram: s.lastDram,
			lastBW: s.lastBW, lastFlopRate: s.lastFlopRate,
			idx: s.idx,
		}
	}
	return out
}

// pairSpec is one randomized scenario of the fast-vs-exact property test.
type pairSpec struct {
	name     string
	jitterSD float64
	phases   []model.PhaseShape
	overhead time.Duration
	ctrl     time.Duration
	trace    bool
	// governors builds fresh per-machine governor slices (stateful
	// governors must not be shared between the two machines).
	governors func(m *Machine) []Governor
}

// runPair executes the same scenario on two identical machines — one free
// to macro-step, one pinned to the reference loop — and requires the
// results, socket accumulators and trace series to be bit-identical.
func runPair(t *testing.T, spec pairSpec) (fast, exact *Machine) {
	t.Helper()
	build := func() *Machine {
		cfg := DefaultConfig()
		cfg.PowerJitterSD = spec.jitterSD
		cfg.Seed = 7
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(spec.phases); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast, exact = build(), build()

	var fastTrace, exactTrace [][]TracePoint
	opts := func(m *Machine, sink *[][]TracePoint, exactLoop bool) RunOpts {
		o := RunOpts{ExactLoop: exactLoop}
		if spec.governors != nil {
			o.Governors = spec.governors(m)
			o.ControlPeriod = spec.ctrl
			o.GovernorOverhead = spec.overhead
		}
		if spec.trace {
			*sink = make([][]TracePoint, m.Sockets())
			o.Trace = func(s int, p TracePoint) { (*sink)[s] = append((*sink)[s], p) }
		}
		return o
	}

	resFast, errFast := fast.Run(opts(fast, &fastTrace, false))
	resExact, errExact := exact.Run(opts(exact, &exactTrace, true))
	if errFast != nil || errExact != nil {
		t.Fatalf("%s: run errors: fast=%v exact=%v", spec.name, errFast, errExact)
	}
	if resFast.Duration != resExact.Duration ||
		resFast.PkgEnergy != resExact.PkgEnergy ||
		resFast.DramEnergy != resExact.DramEnergy ||
		resFast.AvgPkgPower != resExact.AvgPkgPower ||
		resFast.AvgDramPower != resExact.AvgDramPower ||
		resFast.AvgCoreFreq != resExact.AvgCoreFreq ||
		resFast.AvgUncoreFreq != resExact.AvgUncoreFreq {
		t.Fatalf("%s: results diverge:\nfast:  %+v\nexact: %+v", spec.name, resFast, resExact)
	}
	for i := range resFast.SocketDurations {
		if resFast.SocketDurations[i] != resExact.SocketDurations[i] {
			t.Fatalf("%s: socket %d duration %v != %v", spec.name, i,
				resFast.SocketDurations[i], resExact.SocketDurations[i])
		}
	}
	fs, es := snapshot(fast), snapshot(exact)
	for i := range fs {
		if fs[i] != es[i] {
			t.Fatalf("%s: socket %d state diverges:\nfast:  %+v\nexact: %+v", spec.name, i, fs[i], es[i])
		}
	}
	if spec.trace {
		for s := range fastTrace {
			if len(fastTrace[s]) != len(exactTrace[s]) {
				t.Fatalf("%s: socket %d trace length %d != %d", spec.name, s,
					len(fastTrace[s]), len(exactTrace[s]))
			}
			for j := range fastTrace[s] {
				if fastTrace[s][j] != exactTrace[s][j] {
					t.Fatalf("%s: socket %d trace[%d] diverges:\nfast:  %+v\nexact: %+v",
						spec.name, s, j, fastTrace[s][j], exactTrace[s][j])
				}
			}
		}
	}
	if exact.FastTicks() != 0 {
		t.Fatalf("%s: ExactLoop run macro-stepped %d ticks", spec.name, exact.FastTicks())
	}
	return fast, exact
}

func randShape(r *rand.Rand, i int) model.PhaseShape {
	return model.PhaseShape{
		Name:         fmt.Sprintf("rand-%d", i),
		FlopFrac:     0.1 + 0.6*r.Float64(),
		MemFrac:      0.05 + 0.45*r.Float64(),
		ComputeShare: 0.5 + 0.45*r.Float64(),
		Overlap:      0.8 * r.Float64(),
		BWUncoreKnee: units.Frequency(1.5+r.Float64()) * units.Gigahertz,
		Duration:     time.Duration(200+r.Intn(500)) * time.Millisecond,
	}
}

// capStepper is a stateful governor that walks PL1 down then back up via
// the architectural MSR, exercising limiter transitions inside windows.
type capStepper struct {
	m     *Machine
	cpu   int
	round int
}

func (g *capStepper) Tick(time.Duration) error {
	g.round++
	limit := 120.0 - 5*float64(g.round%8)
	raw := msr.EncodePkgPowerLimit(msr.DefaultUnits(), msr.PkgPowerLimit{
		PL1: msr.PowerLimit{Limit: units.Power(limit), Window: 1, Enabled: true},
		PL2: msr.PowerLimit{Limit: units.Power(limit + 20), Window: 0.01, Enabled: true},
	})
	return g.m.MSR().Write(g.cpu, msr.MSRPkgPowerLimit, raw)
}

// bandStepper walks the uncore band, forcing ramp (ineligible) and
// steady (eligible) stretches to alternate.
type bandStepper struct {
	m     *Machine
	cpu   int
	round int
}

func (g *bandStepper) Tick(time.Duration) error {
	g.round++
	hi := uint8(24 - 3*(g.round%4)) // 2.4, 2.1, 1.8, 1.5 GHz
	raw := msr.EncodeUncoreRatioLimit(msr.UncoreRatioLimit{Min: 12, Max: hi})
	return g.m.MSR().Write(g.cpu, msr.MSRUncoreRatioLimit, raw)
}

// TestFastPathPropertyBitIdentical sweeps randomized workloads across
// governor styles, jitter, monitoring overhead and tracing, asserting the
// event-horizon fast path never changes a single bit of the outcome and
// engages on every run, jittered or not.
func TestFastPathPropertyBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	govStyles := []struct {
		name  string
		build func(m *Machine) []Governor
	}{
		{"nil", nil},
		{"caps", func(m *Machine) []Governor {
			govs := make([]Governor, m.Sockets())
			for i := range govs {
				govs[i] = &capStepper{m: m, cpu: m.Socket(i).CPU0()}
			}
			return govs
		}},
		{"uncore", func(m *Machine) []Governor {
			govs := make([]Governor, m.Sockets())
			for i := range govs {
				govs[i] = &bandStepper{m: m, cpu: m.Socket(i).CPU0()}
			}
			return govs
		}},
		// A fixed cap, the steady state a DUFP campaign point settles
		// into.
		{"steady", func(m *Machine) []Governor {
			govs := make([]Governor, m.Sockets())
			for i := range govs {
				govs[i] = newSteadyCapGov(m, i, 110*units.Watt, 130*units.Watt)
			}
			return govs
		}},
	}
	for trial := 0; trial < 6; trial++ {
		nPhases := 1 + r.Intn(3)
		phases := make([]model.PhaseShape, nPhases)
		for i := range phases {
			phases[i] = randShape(r, trial*10+i)
		}
		for _, gs := range govStyles {
			for _, jitter := range []float64{0, 0.4} {
				spec := pairSpec{
					name:     fmt.Sprintf("trial%d/%s/jitter=%v", trial, gs.name, jitter),
					jitterSD: jitter,
					phases:   phases,
					ctrl:     200 * time.Millisecond,
					overhead: time.Duration(r.Intn(2)) * 500 * time.Microsecond,
					trace:    trial%2 == 0,
				}
				if gs.build != nil {
					spec.governors = gs.build
				}
				fast, _ := runPair(t, spec)
				if fast.FastTicks() == 0 {
					t.Fatalf("%s: run never macro-stepped", spec.name)
				}
			}
		}
	}
}

// TestFastPathGolden pins the bit patterns of one canonical clean run so
// any change to either loop's floating-point story is caught even if it
// changes both sides identically.
func TestFastPathGolden(t *testing.T) {
	m := newMachine(t, steadyShape(2*time.Second))
	res, err := m.Run(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if m.FastTicks() == 0 {
		t.Fatal("canonical clean run never macro-stepped")
	}
	golden := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Duration", uint64(res.Duration), goldenDuration},
		{"PkgEnergy", math.Float64bits(float64(res.PkgEnergy)), goldenPkgEnergy},
		{"DramEnergy", math.Float64bits(float64(res.DramEnergy)), goldenDramEnergy},
		{"AvgPkgPower", math.Float64bits(float64(res.AvgPkgPower)), goldenAvgPkgPower},
		{"AvgCoreFreq", math.Float64bits(float64(res.AvgCoreFreq)), goldenAvgCoreFreq},
		{"AvgUncoreFreq", math.Float64bits(float64(res.AvgUncoreFreq)), goldenAvgUncoreFreq},
		{"Socket0Flops", math.Float64bits(m.sockets[0].flops), goldenSock0Flops},
		{"Socket0APerf", math.Float64bits(m.sockets[0].aperf), goldenSock0APerf},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("golden %s: got %#016x want %#016x", g.name, g.got, g.want)
		}
	}
}

// TestFastPathCoversSteadyState asserts the macro-step owns essentially
// the whole run for a steady ungoverned workload, with and without power
// jitter — the speedup claim rests on this engagement rate.
func TestFastPathCoversSteadyState(t *testing.T) {
	for _, jitterSD := range []float64{0, 0.4} {
		cfg := DefaultConfig()
		cfg.PowerJitterSD = jitterSD
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load([]model.PhaseShape{steadyShape(2 * time.Second)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(RunOpts{}); err != nil {
			t.Fatal(err)
		}
		// 2000 ticks total; everything after the first window-establishing
		// tick should macro-step.
		if m.FastTicks() < 1900 {
			t.Fatalf("jitter=%v: macro-stepped only %d of ~2000 ticks", jitterSD, m.FastTicks())
		}
		if m.FastWindows() == 0 || m.FastWindows() > 100 {
			t.Fatalf("jitter=%v: window count %d, want few large windows", jitterSD, m.FastWindows())
		}
	}
}

// Pinned bit patterns for TestFastPathGolden (amd64 reference platform;
// see DESIGN.md §11 on cross-platform FP determinism).
const (
	goldenDuration      = 0x0000000077359400
	goldenPkgEnergy     = 0x4088daf90bd84348
	goldenDramEnergy    = 0x405b8f5c28f5c35c
	goldenAvgPkgPower   = 0x4078daf90bd84348
	goldenAvgCoreFreq   = 0x41e4dc9380000141
	goldenAvgUncoreFreq = 0x41e1e1a300000113
	goldenSock0Flops    = 0x4260b075ffffffff
	goldenSock0APerf    = 0x41f4dc9380000000
)

// TestZeroAllocsPerTick verifies the steady-state tick loop allocates
// nothing: the allocation cost of a 1 s and a 2 s run must be identical
// (setup-only) on both the fast and the exact path, with and without
// power jitter.
func TestZeroAllocsPerTick(t *testing.T) {
	measure := func(d time.Duration, exact bool, jitterSD float64) float64 {
		cfg := DefaultConfig()
		cfg.PowerJitterSD = jitterSD
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := m.Load([]model.PhaseShape{steadyShape(d)}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(RunOpts{ExactLoop: exact}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, jitterSD := range []float64{0, 0.4} {
		for _, exact := range []bool{false, true} {
			a1, a2 := measure(time.Second, exact, jitterSD), measure(2*time.Second, exact, jitterSD)
			if a2 != a1 {
				t.Errorf("jitter=%v exact=%v: allocations scale with ticks: %v for 1s vs %v for 2s",
					jitterSD, exact, a1, a2)
			}
		}
	}
}
