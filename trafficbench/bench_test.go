package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dufp"
)

// The self-test runs the benchmark as it is meant to run — one workload
// per process — by re-executing the test binary as the command.
func TestMain(m *testing.M) {
	if os.Getenv("TRAFFICBENCH_CHILD") == "1" {
		os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// reduced shrinks each workload for the self-test: a two-application,
// two-repetition campaign and one second of dufpd traffic.
var reduced = map[string][]string{
	"fig3-cold":   {"-campaign-runs", "2", "-apps", "CG,EP", "-seconds", "1"},
	"fig3-warm":   {"-campaign-runs", "2", "-apps", "CG,EP", "-seconds", "1"},
	"dufpd-mixed": {"-seconds", "1"},
}

// invocation is one finished benchmark process.
type invocation struct {
	code   int
	res    result
	stderr string
}

func invoke(t *testing.T, args ...string) invocation {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-workdir", t.TempDir()}, args...)...)
	cmd.Env = append(os.Environ(), "TRAFFICBENCH_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	inv := invocation{stderr: stderr.String()}
	if exit, ok := err.(*exec.ExitError); ok {
		inv.code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &inv.res); err != nil {
			t.Fatalf("last stdout line of %v is not a result: %v\n%s", args, err, last)
		}
	}
	return inv
}

// run invokes one workload at the reduced size and requires success.
func run(t *testing.T, workload string, traced bool, extra ...string) invocation {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	args := append([]string{"-workload", workload, "-seed", "3", "-trace", trace}, reduced[workload]...)
	inv := invoke(t, append(args, extra...)...)
	if inv.code != 0 || !inv.res.Correct || inv.res.Failed != 0 || inv.res.Attempted < 1 {
		t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", workload, trace, inv.code, inv.res, inv.stderr)
	}
	return inv
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestEveryMetricReported runs each workload untraced and traced and
// requires exactly the metrics BENCHMARK.json names, with its units.
func TestEveryMetricReported(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	want := func(defs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
		for _, traced := range []bool{false, true} {
			defs := want(bj.EndToEnd)
			if traced {
				defs = want(bj.PerLayer)
			}
			got := map[string]string{}
			for name, m := range run(t, w.Name, traced).res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, defs) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json names %v", w.Name, traced, got, defs)
			}
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// fixed seed and size.
func exactCounts(m map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		if name == "sim.runs" || name == "sim.ticks" || strings.HasPrefix(name, "control.decisions.") ||
			(strings.HasPrefix(name, "exec.") && v.Unit == "count") {
			out[name] = v.Value
		}
	}
	return out
}

func TestCountsRepeatForOneSeed(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := exactCounts(run(t, name, true).res.Metrics)
			b := exactCounts(run(t, name, true).res.Metrics)
			if len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Errorf("counts differ between two invocations with one seed:\n%v\n%v", a, b)
			}
			if name != "fig3-warm" && a["sim.runs"] == 0 {
				t.Errorf("no simulations counted: %v", a)
			}
		})
	}
}

// TestWarmReplaySimulatesNothing pins fig3-warm's contract: every run
// is served from disk.
func TestWarmReplaySimulatesNothing(t *testing.T) {
	m := run(t, "fig3-warm", true).res.Metrics
	if m["sim.runs"].Value != 0 || m["exec.started"].Value != 0 || m["exec.reuse_ratio"].Value != 1 {
		t.Errorf("warm replay: sim.runs %v, exec.started %v, exec.reuse_ratio %v",
			m["sim.runs"].Value, m["exec.started"].Value, m["exec.reuse_ratio"].Value)
	}
}

func TestSeedDrivesRequestSequence(t *testing.T) {
	session := dufp.NewSession()
	ids := func(seed int64) []string {
		_, _, clients := sequence(seed, session, 2, 8)
		var out []string
		for _, c := range clients {
			for _, op := range c.ops {
				out = append(out, op.class+" "+op.id)
			}
		}
		return out
	}
	if !reflect.DeepEqual(ids(1), ids(1)) {
		t.Error("one seed produced two request sequences")
	}
	if reflect.DeepEqual(ids(1), ids(2)) {
		t.Error("seeds 1 and 2 produced the same request sequence")
	}
}

// TestColdRunsIndependentOfClients pins what makes dufpd-mixed's digest
// hold on any host: the runs it simulates do not depend on how many
// clients share the sequence.
func TestColdRunsIndependentOfClients(t *testing.T) {
	session := dufp.NewSession()
	ids := func(clients int) []string {
		_, colds, _ := sequence(5, session, clients, 24)
		var out []string
		for _, op := range colds {
			out = append(out, op.id)
		}
		return out
	}
	one := ids(1)
	if len(one) != warmupColds+24 {
		t.Fatalf("%d cold runs, want %d", len(one), warmupColds+24)
	}
	for _, clients := range []int{2, 3, warmupColds} {
		if got := ids(clients); !reflect.DeepEqual(got, one) {
			t.Errorf("%d clients simulate other runs than one client", clients)
		}
	}
}

func TestSeedSelectsInputSet(t *testing.T) {
	for seed, want := range map[string]int64{"0": 0, "1": 1, "17": 1, "-1": inputSets - 1} {
		cfg, err := parseFlags([]string{"-workload", "fig3-cold", "-seed", seed}, os.Stderr)
		if err != nil || cfg.seed != want {
			t.Errorf("-seed %s: input set %d (%v), want %d", seed, cfg.seed, err, want)
		}
	}
}

// TestDigestMismatchFails records a reduced campaign's digest, checks
// that it passes against it, then requires the command to fail for
// another seed of that committed size and for a corrupted digest.
func TestDigestMismatchFails(t *testing.T) {
	table := filepath.Join(t.TempDir(), "digests.json")
	run(t, "fig3-cold", false, "-digests", table, "-record-digest")
	run(t, "fig3-cold", false, "-digests", table)

	against := func(seed string) invocation {
		args := []string{"-workload", "fig3-cold", "-seed", seed, "-trace", "0", "-digests", table}
		return invoke(t, append(args, reduced["fig3-cold"]...)...)
	}
	if inv := against("4"); inv.code == 0 || inv.res.Correct {
		t.Fatalf("seed without a committed digest passed: exit %d, result %+v", inv.code, inv.res)
	}

	b, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	var entries map[string]string
	if err := json.Unmarshal(b, &entries); err != nil || len(entries) != 1 {
		t.Fatalf("recorded table %s: %v", b, err)
	}
	for k, v := range entries {
		entries[k] = strings.Repeat("0", len(v))
	}
	b, _ = json.Marshal(entries)
	if err := os.WriteFile(table, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if inv := against("3"); inv.code == 0 || inv.res.Correct {
		t.Fatalf("corrupted digest passed: exit %d, result %+v", inv.code, inv.res)
	}
}

func TestCPUProfileWritten(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	run(t, "fig3-cold", false, "-cpuprofile", prof)
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("no CPU profile written: %v", err)
	}
}

// TestCommittedDigestsCoverEveryInputSet checks the table holds the
// reference of every input set for each workload at the size
// BENCHMARK.json runs it.
func TestCommittedDigestsCoverEveryInputSet(t *testing.T) {
	table, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	seconds := loadBenchmarkJSON(t).RunSeconds
	for _, shape := range []string{
		"fig3/apps=all/runs=10",
		fmt.Sprintf("dufpd-mixed/colds=%d", warmupColds+blocksPerSecond*seconds),
	} {
		for seed := 0; seed < inputSets; seed++ {
			if key := fmt.Sprintf("%s/seed=%d", shape, seed); table.entries[key] == "" {
				t.Errorf("digests.json has no entry %s", key)
			}
		}
	}
}

// TestFailsWithoutTheRepository runs the command in a directory holding
// only BENCHMARK.json and the benchmark's sources: it must fail without
// printing a result.
func TestFailsWithoutTheRepository(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	dir := t.TempDir()
	copyFile(t, filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json"))
	srcs, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		copyFile(t, src, filepath.Join(dir, "trafficbench", src))
	}
	cmd := exec.Command("bash", "trafficbench/run.sh", "-workload", "fig3-cold", "-seed", "1", "-seconds", "1", "-trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil || strings.Contains(string(out), `"correct"`) {
		t.Fatalf("command succeeded or printed a result without the repository: %v\n%s", err, out)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
