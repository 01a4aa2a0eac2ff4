package dufp_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"dufp"
	"dufp/internal/control"
	"dufp/internal/exec"
	"dufp/internal/metrics"
)

// fastApp builds a short synthetic application so executor tests stay
// quick.
func fastApp(t *testing.T) dufp.App {
	t.Helper()
	app, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestCachedRunBitIdentical(t *testing.T) {
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()

	cachedSession := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	first, err := cachedSession.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := cachedSession.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if first.Run != cached.Run {
		t.Fatalf("cached run differs from original:\n%+v\n%+v", first.Run, cached.Run)
	}

	// A fresh executor recomputes the run from scratch; determinism makes
	// the result bit-identical to the memoised one.
	freshSession := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	fresh, err := freshSession.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Run != cached.Run {
		t.Fatalf("uncached run differs from cached:\n%+v\n%+v", fresh.Run, cached.Run)
	}
}

func TestMemoisationAcrossSessionsAndGovernorValues(t *testing.T) {
	app := fastApp(t)
	e := dufp.NewExecutor()
	ctx := context.Background()

	// Two independently built sessions and governor values with equal
	// configuration content-address identically.
	a := dufp.NewSession(dufp.WithExecutor(e))
	b := dufp.NewSession(dufp.WithExecutor(e))
	if _, err := a.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUF(dufp.DefaultControlConfig(0.10))}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUF(dufp.DefaultControlConfig(0.10))}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Started != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want one execution and one cache hit", st)
	}

	// A different configuration is a different computation.
	if _, err := a.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUF(dufp.DefaultControlConfig(0.20))}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Started != 2 {
		t.Fatalf("stats = %+v, want a second execution", st)
	}
}

func TestSummarizeReusesRunResults(t *testing.T) {
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	e := dufp.NewExecutor()
	session := dufp.NewSession(dufp.WithExecutor(e))
	ctx := context.Background()

	// Individual Session.Run calls and a subsequent SummarizeCtx over the
	// same (app, governor) pairs are the same computations: the summary
	// must be served entirely from the memoised runs.
	for idx := 0; idx < 3; idx++ {
		if _, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov, Idx: idx}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := session.SummarizeCtx(ctx, app, gov, 3); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Started != 3 || st.CacheHits != 3 {
		t.Fatalf("stats = %+v, want the summary served from the three memoised runs", st)
	}
}

func TestSummarizeCtxCancellation(t *testing.T) {
	// Long enough that the summary cannot complete before the cancel.
	app, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	_, err = session.SummarizeCtx(ctx, app, dufp.DUFP(dufp.DefaultControlConfig(0.10)), 4)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is checked between decision rounds (200 ms of simulated
	// time, far less of wall time), so the return must be prompt.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunPreCancelled(t *testing.T) {
	app := fastApp(t)
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSessionFunctionalOptions(t *testing.T) {
	jit := dufp.Jitter{}
	s := dufp.NewSession(
		dufp.WithSeed(7),
		dufp.WithControlPeriod(100*time.Millisecond),
		dufp.WithNoise(0.001),
		dufp.WithJitter(jit),
		dufp.WithMonitorOverhead(time.Millisecond),
	)
	if s.Seed != 7 || s.ControlPeriod != 100*time.Millisecond || s.NoiseSD != 0.001 ||
		s.Jitter != jit || s.MonitorOverhead != time.Millisecond {
		t.Fatalf("options not applied: %+v", s)
	}
	// No options means the paper's defaults.
	d := dufp.NewSession()
	if d.Seed != 42 || d.ControlPeriod != 200*time.Millisecond {
		t.Fatalf("defaults changed: %+v", d)
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := dufp.AppNamed("NOPE"); !errors.Is(err, dufp.ErrUnknownApp) {
		t.Fatalf("AppNamed error = %v, want ErrUnknownApp", err)
	}
	app, err := dufp.AppNamed("CG")
	if err != nil || app.Name != "CG" {
		t.Fatalf("AppNamed(CG) = %v, %v", app.Name, err)
	}

	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	if _, err := session.SummarizeCtx(context.Background(), app, dufp.Baseline(), 0); !errors.Is(err, dufp.ErrBadConfig) {
		t.Fatalf("SummarizeCtx(n=0) error = %v, want ErrBadConfig", err)
	}
}

func TestTracedRunsBypassCache(t *testing.T) {
	app := fastApp(t)
	e := dufp.NewExecutor()
	session := dufp.NewSession(dufp.WithExecutor(e))
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()

	res1, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Trace == nil || res2.Trace == nil || res1.Trace == res2.Trace {
		t.Fatal("recorded runs must produce fresh traces")
	}
	if res1.Trace.Len(0) == 0 {
		t.Fatal("empty trace")
	}
	if res1.Run != res2.Run {
		t.Fatalf("traced runs diverged:\n%+v\n%+v", res1.Run, res2.Run)
	}
	if st := e.Stats(); st.CacheHits != 0 || st.Started != 2 {
		t.Fatalf("stats = %+v, traced runs must not be memoised", st)
	}
}

func TestGovernorIdentity(t *testing.T) {
	cfg := dufp.DefaultControlConfig(0.10)
	if a, b := dufp.DUFP(cfg).ID(), dufp.DUFP(cfg).ID(); a != b {
		t.Fatalf("equal configs produced different identities: %q vs %q", a, b)
	}
	if a, b := dufp.DUFP(cfg).ID(), dufp.DUF(cfg).ID(); a == b {
		t.Fatalf("different governors share identity %q", a)
	}
	if a, b := dufp.DUFP(cfg).ID(), dufp.DUFP(dufp.DefaultControlConfig(0.20)).ID(); a == b {
		t.Fatalf("different configs share identity %q", a)
	}
	if got := dufp.Baseline().ID(); got != "default" {
		t.Fatalf("baseline identity = %q", got)
	}
	// Wrapped bare funcs get process-unique identities: never wrongly
	// deduplicated.
	mk := func(control.Actuators) (control.Instance, error) { return nil, nil }
	if a, b := dufp.GovernorOf(mk).ID(), dufp.GovernorOf(mk).ID(); a == b {
		t.Fatalf("anonymous governors share identity %q", a)
	}
}

func TestDiskCachedRunBitIdentical(t *testing.T) {
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()
	dir := t.TempDir()

	// First process: compute fresh and persist.
	e1 := dufp.NewExecutor(dufp.ExecDiskCache(dir))
	if w := e1.DiskWarning(); w != "" {
		t.Fatalf("unexpected disk warning: %q", w)
	}
	s1 := dufp.NewSession(dufp.WithExecutor(e1))
	fresh, err := s1.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: the same configuration is served from disk. Every
	// float must survive the JSONL round trip with identical bits — pin
	// them individually so a near-miss names the field.
	e2 := dufp.NewExecutor(dufp.ExecDiskCache(dir))
	defer e2.Close()
	s2 := dufp.NewSession(dufp.WithExecutor(e2))
	warm, err := s2.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.DiskHits != 1 || st.Started != 0 {
		t.Fatalf("stats = %+v, want the run served from disk", st)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Slowdown", warm.Run.Slowdown, fresh.Run.Slowdown},
		{"PkgEnergy", float64(warm.Run.PkgEnergy), float64(fresh.Run.PkgEnergy)},
		{"DramEnergy", float64(warm.Run.DramEnergy), float64(fresh.Run.DramEnergy)},
		{"AvgPkgPower", float64(warm.Run.AvgPkgPower), float64(fresh.Run.AvgPkgPower)},
		{"AvgDramPower", float64(warm.Run.AvgDramPower), float64(fresh.Run.AvgDramPower)},
		{"AvgCoreFreq", float64(warm.Run.AvgCoreFreq), float64(fresh.Run.AvgCoreFreq)},
		{"AvgUncore", float64(warm.Run.AvgUncore), float64(fresh.Run.AvgUncore)},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: disk-cached bits %x != fresh bits %x (%v vs %v)",
				f.name, math.Float64bits(f.got), math.Float64bits(f.want), f.got, f.want)
		}
	}
	if warm.Run != fresh.Run {
		t.Fatalf("disk-cached run differs from fresh:\n%+v\n%+v", warm.Run, fresh.Run)
	}
}

// TestRunIDGolden pins the content address of one default-session run.
// Disk caches and daemon journals are keyed by these bytes: a change to
// any fingerprint (session, application, governor or the ID hash)
// silently orphans every cache and journal already written, so it must
// fail here first.
func TestRunIDGolden(t *testing.T) {
	app, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10)), Idx: 3}
	const want = "3dbed243192515ac"
	if got := dufp.NewSession().RunID(spec); got != want {
		t.Fatalf("RunID = %s, want %s: the content address changed", got, want)
	}
}

// TestDefaultPhysicsGolden pins the bits of the run TestRunIDGolden
// addresses. The macro-step and the reference loop are checked against
// each other elsewhere; this catches a change that moves both together,
// which would silently serve stale results from every cache keyed by
// PhysicsVersion.
func TestDefaultPhysicsGolden(t *testing.T) {
	app, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10)), Idx: 3}
	res, err := dufp.NewSession().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Run
	if r.Time != 39703572498 {
		t.Errorf("Time = %d ns, want 39703572498", r.Time)
	}
	golden := []struct {
		name string
		got  float64
		want uint64
	}{
		{"Slowdown", r.Slowdown, 0x3fb999999999999a},
		{"PkgEnergy", float64(r.PkgEnergy), 0x40cebb948b5d883b},
		{"DramEnergy", float64(r.DramEnergy), 0x40a7fce35d7e5698},
		{"AvgPkgPower", float64(r.AvgPkgPower), 0x4078c50e47e2cdaa},
		{"AvgDramPower", float64(r.AvgDramPower), 0x405355638e5ad581},
		{"AvgCoreFreq", float64(r.AvgCoreFreq), 0x41e2f7853193bac9},
		{"AvgUncore", float64(r.AvgUncore), 0x41dda5bbce266546},
	}
	for _, g := range golden {
		if got := math.Float64bits(g.got); got != g.want {
			t.Errorf("%s = %v (%#016x), want %#016x", g.name, g.got, got, g.want)
		}
	}
}

func TestSummarizeAllMatchesSummarizeCtx(t *testing.T) {
	app := fastApp(t)
	// A twin shares the application's name but not its phase program, so
	// it must not share its address either.
	twin := app
	twin.Loops = slices.Clone(app.Loops)
	twin.Loops[0].Count++
	ctx := context.Background()
	var mu sync.Mutex
	var started []dufp.RunKey
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor(dufp.ExecObserver(func(ev dufp.ExecutorEvent) {
		if ev.Kind == dufp.ExecStarted {
			mu.Lock()
			started = append(started, ev.Key)
			mu.Unlock()
		}
	}))))

	const n = 3
	reqs := []dufp.SummaryRequest{
		{App: app, Governor: dufp.Baseline()},
		{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))},
		{App: twin, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))},
	}
	outcomes := session.SummarizeAll(ctx, reqs, n)
	if len(outcomes) != len(reqs) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(reqs))
	}

	// The batch addresses each configuration once; every key it
	// submitted must still carry the address RunID gives its spec.
	want := map[string]bool{}
	for _, req := range reqs {
		for i := 0; i < n; i++ {
			want[session.RunID(dufp.RunSpec{App: req.App, Governor: req.Governor, Idx: i})] = true
		}
	}
	if len(want) != len(reqs)*n {
		t.Fatalf("%d distinct RunIDs for %d specs", len(want), len(reqs)*n)
	}
	mu.Lock()
	if len(started) != len(want) {
		t.Errorf("batch started %d runs, want %d", len(started), len(want))
	}
	for _, key := range started {
		id := exec.RunID(key.ID())
		if !want[id] {
			t.Errorf("batch key %v has RunID %s, which no other spec of the batch has", key, id)
		}
		delete(want, id)
	}
	mu.Unlock()
	if len(want) != 0 {
		t.Errorf("no batch key carries RunIDs %v", want)
	}
	// The independent path: every run alone through Session.Run on a cold
	// executor, aggregated with the paper's protocol directly.
	solo := session.OnExecutor(dufp.NewExecutor())
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		runs := make([]dufp.Run, n)
		for idx := range runs {
			res, err := solo.Run(ctx, dufp.RunSpec{App: reqs[i].App, Governor: reqs[i].Governor, Idx: idx})
			if err != nil {
				t.Fatal(err)
			}
			runs[idx] = res.Run
		}
		want, err := metrics.Summarize(runs)
		if err != nil {
			t.Fatal(err)
		}
		if o.Summary != want {
			t.Errorf("outcome %d differs from its runs' summary:\n%+v\n%+v", i, o.Summary, want)
		}
		got, err := session.SummarizeCtx(ctx, reqs[i].App, reqs[i].Governor, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("SummarizeCtx of request %d differs from its runs' summary:\n%+v\n%+v", i, got, want)
		}
	}
}

func TestSummarizeAllPropagatesCancellation(t *testing.T) {
	app := fastApp(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	outcomes := session.SummarizeAll(ctx, []dufp.SummaryRequest{{App: app, Governor: dufp.Baseline()}}, 3)
	if err := outcomes[0].Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSummarizeAllEmptyAndBadRuns(t *testing.T) {
	session := dufp.NewSession()
	if out := session.SummarizeAll(context.Background(), nil, 3); len(out) != 0 {
		t.Fatalf("empty batch returned %d outcomes", len(out))
	}
	out := session.SummarizeAll(context.Background(), []dufp.SummaryRequest{{App: fastApp(t), Governor: dufp.Baseline()}}, 0)
	if err := out[0].Err; !errors.Is(err, dufp.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestPooledMachineRunsBitIdentical pins the worker-scratch pooling
// contract end to end: with one worker every distinct run of a session
// reclaims the same pooled simulator, and each result must still be
// bit-identical to the same run computed on a one-shot executor that
// built its machine fresh.
func TestPooledMachineRunsBitIdentical(t *testing.T) {
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()

	// One worker slot: runs 0..3 execute back to back on one arena, so
	// every run after the first reuses the previous run's machine.
	pooled := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor(dufp.ExecWorkers(1))))
	for idx := 0; idx < 4; idx++ {
		got, err := pooled.Run(ctx, dufp.RunSpec{App: app, Governor: gov, Idx: idx})
		if err != nil {
			t.Fatal(err)
		}
		fresh := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor(dufp.ExecWorkers(1))))
		want, err := fresh.Run(ctx, dufp.RunSpec{App: app, Governor: gov, Idx: idx})
		if err != nil {
			t.Fatal(err)
		}
		if got.Run != want.Run {
			t.Fatalf("run %d on pooled machine diverged from fresh machine:\n pooled: %+v\n fresh:  %+v", idx, got.Run, want.Run)
		}
	}
}

// startedIDs returns an executor that records the run ID of every
// computation it starts, and the recorded IDs so far.
func startedIDs() (*dufp.Executor, func() []string) {
	var mu sync.Mutex
	var ids []string
	exe := dufp.NewExecutor(dufp.ExecObserver(func(ev dufp.ExecutorEvent) {
		if ev.Kind == dufp.ExecStarted {
			mu.Lock()
			ids = append(ids, exec.RunID(ev.Key.ID()))
			mu.Unlock()
		}
	}))
	return exe, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ids)
	}
}

// TestSummarizeAllAddressesAppsByValue pins that a batch reuses an
// application's rendered address only for the same value: two requests
// of one batch whose apps share a name but differ in one phase get
// different keys, each the key Session.RunID names.
func TestSummarizeAllAddressesAppsByValue(t *testing.T) {
	exe, started := startedIDs()
	s := dufp.NewSession().OnExecutor(exe)
	a, b := fastApp(t), fastApp(t)
	b.Loops[0].Body[0].FlopFrac *= 1.25
	reqs := []dufp.SummaryRequest{{App: a, Governor: dufp.Baseline()}, {App: b, Governor: dufp.Baseline()}}
	for _, o := range s.SummarizeAll(context.Background(), reqs, 1) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	idA := s.RunID(dufp.RunSpec{App: a, Governor: dufp.Baseline()})
	idB := s.RunID(dufp.RunSpec{App: b, Governor: dufp.Baseline()})
	got := started()
	slices.Sort(got)
	want := []string{idA, idB}
	slices.Sort(want)
	if idA == idB || !slices.Equal(got, want) {
		t.Errorf("started %v, want the two distinct IDs %v", got, want)
	}
}

// TestSummarizeAllSeesInPlaceEdit pins that no render outlives its
// batch: an app whose phase program is edited in place between two
// batches, same Loops slice and length, gets its new ID in the second.
func TestSummarizeAllSeesInPlaceEdit(t *testing.T) {
	exe, started := startedIDs()
	s := dufp.NewSession().OnExecutor(exe)
	app := fastApp(t)
	reqs := []dufp.SummaryRequest{{App: app, Governor: dufp.Baseline()}}
	spec := dufp.RunSpec{App: app, Governor: dufp.Baseline()}
	before := s.RunID(spec)
	for edit := 0; edit < 2; edit++ {
		if edit == 1 {
			app.Loops[0].Body[0].FlopFrac *= 1.25
		}
		if o := s.SummarizeAll(context.Background(), reqs, 1)[0]; o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	after := s.RunID(spec)
	if got := started(); before == after || !slices.Equal(got, []string{before, after}) {
		t.Errorf("started %v, want %s then the edited app's %s", got, before, after)
	}
}
