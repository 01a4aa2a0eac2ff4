// Command trafficbench is the repository's benchmark. Each invocation
// runs one workload of the traffic the repository actually serves — the
// paper's Fig-3 campaign on an empty and on a warm disk cache, and dufpd
// under a mixed client load — checks every output it produced, and
// prints one JSON result line: end-to-end metrics from an untraced run,
// or per-layer metrics from a traced run (-trace 1). See README.md.
//
//	bash trafficbench/run.sh --workload fig3-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// controlKinds are the controller decision kinds control_events_total
// counts (internal/control/events.go).
var controlKinds = []string{
	"phase-change", "cap-lower", "cap-raise", "cap-reset",
	"uncore-lower", "uncore-raise", "uncore-reset", "rule-1", "rule-2",
	"power-over-cap", "sample-rejected", "sensor-degraded", "sensor-recovered",
}

// apiClasses are dufpd-mixed's request classes.
var apiClasses = []string{"cold", "resubmit", "status", "samples"}

// handlerNames maps each warm request class to the metric suffix of its
// direct daemon call: a re-submission is a SubmitRun.
var handlerNames = map[string]string{"resubmit": "submit", "status": "status", "samples": "samples"}

// perLayer lists the metrics a traced run reports. A layer the workload
// leaves idle reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.runs", "count"},
		{"sim.ticks", "count"},
		{"sim.ns_per_tick", "ns"},
		{"sim.fast_tick_share", "1"},
		{"sim.skipped_rounds", "count"},
	}
	for _, k := range controlKinds {
		defs = append(defs, metricDef{"control.decisions." + k, "count"})
	}
	defs = append(defs,
		metricDef{"control.round_us_p50", "us"},
		metricDef{"control.round_us_p95", "us"},
		metricDef{"dufp.run_id_us_p50", "us"},
		metricDef{"dufp.setup_us_p50", "us"},
		metricDef{"dufp.wire_encode_us", "us"},
		metricDef{"dufp.wire_decode_us", "us"},
		metricDef{"exec.submitted", "count"},
		metricDef{"exec.started", "count"},
		metricDef{"exec.cache_hits", "count"},
		metricDef{"exec.disk_hits", "count"},
		metricDef{"exec.coalesced", "count"},
		metricDef{"exec.reuse_ratio", "1"},
		metricDef{"exec.resimulated", "count"},
		metricDef{"exec.slot_wait_ms_p50", "ms"},
		metricDef{"exec.slot_wait_ms_p95", "ms"},
		metricDef{"exec.submit_us_p50", "us"},
		metricDef{"diskcache.open_ms", "ms"},
		metricDef{"diskcache.get_us", "us"},
		metricDef{"diskcache.records", "count"},
		metricDef{"diskcache.bytes", "bytes"},
		metricDef{"diskcache.write_s", "s"},
		metricDef{"diskcache.corrupt", "count"},
		metricDef{"diskcache.stale", "count"},
		metricDef{"api.queue_wait_ms_p50", "ms"},
		metricDef{"api.queue_wait_ms_p95", "ms"},
		metricDef{"api.dispatch_ms_p50", "ms"},
	)
	for _, c := range apiClasses[1:] {
		defs = append(defs, metricDef{"api.handler_us_p50." + handlerNames[c], "us"})
	}
	for _, c := range apiClasses[1:] {
		defs = append(defs, metricDef{"api.http_us_p50." + handlerNames[c], "us"})
	}
	for _, c := range apiClasses {
		defs = append(defs,
			metricDef{"api.client_ms_p50." + c, "ms"},
			metricDef{"api.client_ms_p95." + c, "ms"})
	}
	defs = append(defs,
		metricDef{"api.rejected", "count"},
		metricDef{"trace.points_per_run", "count"},
		metricDef{"runtime.cpu_s_per_op", "s"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"bench.latency_ms_p50", "ms"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.closure_pct", "%"},
		metricDef{"bench.failed_ratio", "1"},
	)
	return defs
}()

// inputSets is how many distinct input sets the benchmark generates:
// --seed n selects set n mod inputSets. digests.json commits the output
// digest of every set at the full size, so no seed escapes the output
// check.
const inputSets = 16

// config is one invocation's command line.
type config struct {
	args     []string
	workload string
	// seed is the input set, --seed folded into [0, inputSets).
	seed    int64
	seconds int
	traced  bool
	// workDir holds per-invocation scratch directories and the span
	// dump; it must lie inside the checkout.
	workDir string
	// digests is the table of expected output digests; recordDigest
	// writes this run's digests into it instead of checking them.
	digests      string
	recordDigest bool
	// campaignRuns and apps shrink the Fig-3 campaign (self-test).
	campaignRuns int
	apps         []string
	// cpuProfile, when set, receives a CPU profile of the untraced
	// run's timed window.
	cpuProfile string
	// setupProbe makes the process a set-up probe (see timeSetups).
	setupProbe bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line an invocation prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic shape (BENCHMARK.json says why each
// was chosen). setup builds everything its timed traffic needs from
// nothing; setupReps is how many set-up probes an untraced run times
// for setup_s. With interleave the probes run between slices of the
// timed traffic instead of before it (see phase.between), so that a run
// samples the host over its whole length.
type workload struct {
	setupReps  int
	interleave bool
	setup      func(e *env) (fixture, error)
}

// fixture is one set-up workload, ready for its timed traffic.
type fixture interface {
	// run drives the traffic once, records it on p and checks its
	// outputs. With p.traced it also records layer spans and timings.
	run(p *phase) error
	close() error
}

var workloads = map[string]workload{
	"fig3-cold": {
		setupReps: 31,
		setup:     setupFig3Cold,
	},
	"fig3-warm": {
		setupReps:  3,
		interleave: true,
		setup:      setupFig3Warm,
	},
	"dufpd-mixed": {
		setupReps: 5,
		setup:     setupDufpdMixed,
	},
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "trafficbench:", err)
		return 2
	}
	e, err := newEnv(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "trafficbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	if cfg.setupProbe {
		if err := setupProbe(e, stdout, os.Stdin); err != nil {
			fmt.Fprintln(stderr, "trafficbench: set-up probe:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(e)
	if err != nil {
		fmt.Fprintln(stderr, "trafficbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "trafficbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("trafficbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{args: args}
	var traced int
	var apps string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: fig3-cold, fig3-warm or dufpd-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed: selects input set seed mod %d, which fixes the session seed and the request sequence", inputSets))
	fs.IntVar(&cfg.seconds, "seconds", 20, "traffic size, in seconds of the reference host")
	fs.IntVar(&traced, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "scratch directory inside the checkout")
	fs.StringVar(&cfg.digests, "digests", "digests.json", "expected-digest table")
	fs.BoolVar(&cfg.recordDigest, "record-digest", false, "write this run's output digests into the table instead of checking them")
	fs.IntVar(&cfg.campaignRuns, "campaign-runs", 10, "repetitions per Fig-3 cell (the paper's protocol: 10)")
	fs.StringVar(&apps, "apps", "", "comma-separated Fig-3 applications (default: the full suite)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced timed window to this file")
	fs.BoolVar(&cfg.setupProbe, "setup-probe", false, "set the workload up, print a line, and close it when stdin closes (used to time setup_s)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.campaignRuns < 1 {
		return cfg, errors.New("-seconds and -campaign-runs must be positive")
	}
	if traced != 0 && traced != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	cfg.traced = traced == 1
	cfg.seed = (cfg.seed%inputSets + inputSets) % inputSets
	if apps != "" {
		cfg.apps = strings.Split(apps, ",")
	}
	return cfg, nil
}

// env is what a workload's set-up and traffic share: the inputs and a
// scratch directory removed when the invocation ends.
type env struct {
	cfg     config
	dir     string
	digests *digestTable
	log     io.Writer
	ndirs   int
}

// newDir returns a fresh empty directory under the scratch directory.
func (e *env) newDir(name string) (string, error) {
	e.ndirs++
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.ndirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// newEnv loads the digest table and makes the invocation's scratch
// directory, which the caller removes.
func newEnv(cfg config, log io.Writer) (*env, error) {
	table, err := loadDigests(cfg.digests)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{cfg: cfg, dir: dir, digests: table, log: log}, nil
}

func runWorkload(e *env) (result, error) {
	w := workloads[e.cfg.workload]
	var res result
	var err error
	if e.cfg.traced {
		res, err = tracedRun(e, w)
	} else {
		res, err = untracedRun(e, w)
	}
	if err != nil {
		return result{}, err
	}
	if e.cfg.recordDigest {
		if err := e.digests.save(e.cfg.digests); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// untracedRun times setupReps set-up probes, sets the workload up
// itself, and measures its traffic once without tracing. The probes run
// before the set-up, or between slices of the traffic when the workload
// interleaves them.
func untracedRun(e *env, w workload) (result, error) {
	probe, err := setupProber(e)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	timeSetup := func() error {
		d, err := probe()
		setups = append(setups, d.Seconds())
		return err
	}
	if !w.interleave {
		for range w.setupReps {
			if err := timeSetup(); err != nil {
				return result{}, err
			}
		}
	}
	fx, err := w.setup(e)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	p := newPhase(false)
	if w.interleave {
		p.interlude, p.interludes = timeSetup, w.setupReps
	}
	if e.cfg.cpuProfile != "" {
		f, err := os.Create(e.cfg.cpuProfile)
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		p.profile = f
	}
	runErr := fx.run(p)
	if err := fx.close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && len(setups) != w.setupReps {
		runErr = fmt.Errorf("workload ran %d of %d set-up probes", len(setups), w.setupReps)
	}
	if runErr != nil {
		return result{}, runErr
	}
	p.report(e.log, "untraced")
	fmt.Fprintf(e.log, "trafficbench: set-ups (s): %.4g\n", setups)
	m := map[string]metric{
		"setup_s":          {quantile(setups, 0.5), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"throughput_per_s": {float64(p.ops) / p.window.Seconds(), "1/s"},
		"latency_ms_mean":  {mean(p.lat), "ms"},
		"latency_ms_p95":   {quantile(p.lat, 0.95), "ms"},
	}
	return p.result(m), nil
}

// setupProber returns how setup_s is measured: each call starts a fresh
// process of this binary with this invocation's arguments and times it
// from its start until it reports the workload set up — everything a
// user waits for before the first timed operation, process start
// included.
func setupProber(e *env) (func() (time.Duration, error), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append(append([]string(nil), e.cfg.args...), "-setup-probe", "-workdir", e.dir)
	return func() (time.Duration, error) {
		d, err := probeSetup(self, args, e.log)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return d, nil
	}, nil
}

// probeSetup starts one set-up probe and returns the time until it
// reported ready; it then closes the probe's stdin and waits for it.
func probeSetup(self string, args []string, log io.Writer) (time.Duration, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("set-up probe printed %q", line)
	}
	stdin.Close()
	return d, errors.Join(err, cmd.Wait())
}

// setupProbe is a set-up probe's side: it sets the workload up, prints
// "ready", and closes the set-up once stdin closes.
func setupProbe(e *env, stdout io.Writer, stdin io.Reader) error {
	fx, err := workloads[e.cfg.workload].setup(e)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	_, err = io.Copy(io.Discard, stdin)
	return errors.Join(err, fx.close())
}

// tracedRun measures the traffic untraced and then traced, each on its
// own set-up with the same seed and size, and reports the per-layer
// metrics: counters and spans from the traced pass, host cost from the
// untraced one, and the difference between the two as tracing overhead.
func tracedRun(e *env, w workload) (result, error) {
	passes := make([]*phase, 2)
	for i, traced := range []bool{false, true} {
		fx, err := w.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		p := newPhase(traced)
		runErr := fx.run(p)
		if err := fx.close(); err != nil && runErr == nil {
			runErr = err
		}
		if runErr != nil {
			return result{}, runErr
		}
		label := "untraced"
		if traced {
			label = "traced"
		}
		p.report(e.log, label)
		passes[i] = p
	}
	plain, traced := passes[0], passes[1]
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{0, d.unit}
	}
	for name, v := range traced.layers {
		d, ok := m[name]
		if !ok {
			return result{}, fmt.Errorf("workload reported undeclared layer metric %q", name)
		}
		m[name] = metric{v, d.Unit}
	}
	for name, v := range plain.host {
		m[name] = metric{v, m[name].Unit}
	}
	m["bench.latency_ms_p50"] = metric{quantile(plain.lat, 0.5), "ms"}
	if base := mean(plain.lat); base > 0 {
		m["bench.trace_overhead_pct"] = metric{(mean(traced.lat)/base - 1) * 100, "%"}
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	m["bench.failed_ratio"] = metric{float64(failed) / float64(max(attempted, 1)), "1"}
	if err := writeSpans(e, traced.spans); err != nil {
		return result{}, err
	}
	res := traced.result(m)
	res.Attempted, res.Failed = attempted, failed
	res.Correct = plain.correct() && traced.correct()
	for _, msg := range plain.mismatches {
		fmt.Fprintln(e.log, "trafficbench: untraced pass:", msg)
	}
	return res, nil
}

// writeSpans dumps the traced pass's benchmark spans as JSON beside the
// scratch directories: <workdir>/spans-<workload>-seed<n>.json.
func writeSpans(e *env, l *spanLog) error {
	path := filepath.Join(e.cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", e.cfg.workload, e.cfg.seed))
	b, err := json.Marshal(l.snapshot())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(e.log, "trafficbench: spans written to", path)
	return nil
}
