package dufp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dufp"
	"dufp/internal/control"
)

// TestRunSpecRoundTrip encodes a spec and decodes it back, requiring the
// governor identity (and so the executor cache key) to survive exactly.
func TestRunSpecRoundTrip(t *testing.T) {
	app, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	specs := []dufp.RunSpec{
		{App: app, Governor: dufp.Baseline()},
		{App: app, Governor: dufp.DUF(dufp.DefaultControlConfig(0.05)), Idx: 3},
		{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))},
		{App: app, Governor: dufp.DNPC(dufp.DefaultControlConfig(0.20))},
		{App: app, Governor: dufp.DUFPF(dufp.DefaultControlConfig(0.10))},
		{App: app, Governor: dufp.StaticCap(105*dufp.Watt, 126*dufp.Watt)},
		{App: app, Governor: dufp.StaticCapDUF(dufp.DefaultControlConfig(0.10), 105*dufp.Watt, 126*dufp.Watt)},
		{App: app, Governor: dufp.TimedCap(dufp.DefaultControlConfig(0.10), 105*dufp.Watt, 126*dufp.Watt, 30*time.Second)},
	}
	for _, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %s: %v", spec.Governor.ID(), err)
		}
		var back dufp.RunSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", spec.Governor.ID(), err, b)
		}
		if back.Governor.ID() != spec.Governor.ID() {
			t.Errorf("governor identity changed: %q -> %q", spec.Governor.ID(), back.Governor.ID())
		}
		if back.App.Name != spec.App.Name || back.Idx != spec.Idx {
			t.Errorf("spec changed: %+v -> %+v", spec, back)
		}
		// Decoding must reproduce the encoder's executor cache key, or a
		// daemon would recompute runs the client already has.
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(b2) {
			t.Errorf("re-encode of %s not canonical:\n%s\n%s", spec.Governor.ID(), b, b2)
		}
	}
}

// TestRunSpecAppShorthand accepts a suite name in place of the inline
// application definition (the curl ergonomics path).
func TestRunSpecAppShorthand(t *testing.T) {
	var spec dufp.RunSpec
	raw := `{"v":1,"app":"CG","governor":{"kind":"dufp","slowdown":0.1},"idx":2}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.App.Name != "CG" || spec.Idx != 2 {
		t.Fatalf("decoded %+v", spec)
	}
	want := dufp.DUFP(dufp.DefaultControlConfig(0.10)).ID()
	if spec.Governor.ID() != want {
		t.Fatalf("slowdown shorthand built %q, want %q", spec.Governor.ID(), want)
	}
}

// TestRunSpecRejections: unknown fields, missing/foreign versions and
// anonymous governors must fail loudly.
func TestRunSpecRejections(t *testing.T) {
	var spec dufp.RunSpec
	cases := map[string]string{
		"unknown field":  `{"v":1,"app":"CG","governor":{"kind":"baseline"},"bogus":true}`,
		"unknown gfield": `{"v":1,"app":"CG","governor":{"kind":"baseline","bogus":1}}`,
		"no version":     `{"app":"CG","governor":{"kind":"baseline"}}`,
		"future version": `{"v":99,"app":"CG","governor":{"kind":"baseline"}}`,
		"unknown app":    `{"v":1,"app":"NOPE","governor":{"kind":"baseline"}}`,
		"unknown kind":   `{"v":1,"app":"CG","governor":{"kind":"zzz"}}`,
		"no config":      `{"v":1,"app":"CG","governor":{"kind":"dufp"}}`,
	}
	for name, raw := range cases {
		if err := json.Unmarshal([]byte(raw), &spec); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	anon := dufp.GovernorOf(func(control.Actuators) (control.Instance, error) { return nil, nil })
	if _, err := json.Marshal(dufp.RunSpec{Governor: anon}); err == nil {
		t.Error("anonymous governor marshalled without error")
	}
	if anon.Serializable() {
		t.Error("anonymous governor claims to be serializable")
	}
	if !dufp.Baseline().Serializable() || !dufp.DUF(dufp.DefaultControlConfig(0.1)).Serializable() {
		t.Error("canonical governor claims not to be serializable")
	}
}

// TestRunResultRoundTrip runs a real recorded run and pushes the full
// result through the wire, requiring bit-identical measurements and
// artifacts on the far side.
func TestRunResultRoundTrip(t *testing.T) {
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	res, err := session.Run(context.Background(), dufp.RunSpec{App: app, Governor: gov},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back dufp.RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Run != res.Run {
		t.Errorf("run changed over the wire:\n%+v\n%+v", res.Run, back.Run)
	}
	if len(back.Events) != len(res.Events) {
		t.Fatalf("events %d -> %d", len(res.Events), len(back.Events))
	}
	for i := range res.Events {
		if back.Events[i] != res.Events[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, res.Events[i], back.Events[i])
		}
	}
	if back.Trace == nil || back.Trace.Sockets() != res.Trace.Sockets() {
		t.Fatal("trace lost over the wire")
	}
	for s := 0; s < res.Trace.Sockets(); s++ {
		a, b := slices.Collect(res.Trace.Points(s)), slices.Collect(back.Trace.Points(s))
		if len(a) != len(b) {
			t.Fatalf("socket %d: %d points -> %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("socket %d point %d changed: %+v -> %+v", s, i, a[i], b[i])
			}
		}
	}
	if !reflect.DeepEqual(back.Timeline(), res.Timeline()) {
		t.Error("timeline view changed over the wire")
	}

	// A decoded trace keeps its socket count: a last series without
	// points re-encodes as an empty series, not as a missing one.
	run, err := json.Marshal(res.Run)
	if err != nil {
		t.Fatal(err)
	}
	sparse := `{"v":1,"run":` + string(run) + `,"trace":[[{"time_ns":0,"core_hz":2800000000,` +
		`"uncore_hz":2400000000,"pkg_w":100,"dram_w":10,"cap_pl1_w":125,"cap_pl2_w":150,` +
		`"bw_bps":1000000000,"flops":1000000000}],[]]}`
	var dec dufp.RunResult
	if err := json.Unmarshal([]byte(sparse), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Trace.Sockets() != 2 || dec.Trace.Len(1) != 0 {
		t.Fatalf("decoded trace has %d sockets, %d points on the last", dec.Trace.Sockets(), dec.Trace.Len(1))
	}
	again, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != sparse {
		t.Errorf("sparse trace re-encoded differently:\n%s\n%s", sparse, again)
	}
}

// recordEP records EP under DUFP at 10 %, the run the record pins
// below share, with the wall-clock span fields cleared. Fault and guard
// counters are zero, so the wire omits them.
func recordEP(t *testing.T) dufp.RunResult {
	t.Helper()
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	res.Spans, res.SpanTrace = nil, nil
	return res
}

// TestRecordWireGolden pins the wire bytes of one recorded run: the
// lossless trace, its summary and socket 0's events.
func TestRecordWireGolden(t *testing.T) {
	b, err := json.Marshal(recordEP(t))
	if err != nil {
		t.Fatal(err)
	}
	const golden = "cc0d6f90c9b1a7e50d23ff9ff0789434c68522c2d868f0af4225f5c3c863235b"
	if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != golden {
		t.Errorf("recorded result: sha256 %s, want %s (%d bytes)", sum, golden, len(b))
	}
}

// TestRecordTimelineGolden pins the timeline view of the same run, as
// JSONL: decisions joined with socket 0's samples.
func TestRecordTimelineGolden(t *testing.T) {
	var b bytes.Buffer
	if err := recordEP(t).Timeline().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	const golden = "9f0872042d07e8dd1b34c25622e92a1b3701a5b734741d7bee3ffde253019ff8"
	if sum := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); sum != golden {
		t.Errorf("timeline: sha256 %s, want %s (%d bytes)", sum, golden, b.Len())
	}
}

// TestRecordDecodesOlderTimeline decodes a result encoded when the wire
// still carried the timeline beside the events and trace it joins. The
// key is accepted and ignored, and the view rebuilt from the decoded
// record equals the original.
func TestRecordDecodesOlderTimeline(t *testing.T) {
	res := recordEP(t)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := json.Marshal(res.Timeline())
	if err != nil {
		t.Fatal(err)
	}
	// Older encoders wrote the timeline after the trace, the last field
	// of this result.
	older := append(append(append(b[:len(b)-1:len(b)-1], `,"timeline":`...), tl...), '}')
	const olderGolden = "d7f75a9895f98c461cb7c64c2c1849bbc14150c0a92ff03b86676f30f35e0a4f"
	if sum := fmt.Sprintf("%x", sha256.Sum256(older)); sum != olderGolden {
		t.Fatalf("spliced bytes: sha256 %s, want the older encoding's %s", sum, olderGolden)
	}
	var back dufp.RunResult
	if err := json.Unmarshal(older, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Timeline(), res.Timeline()) {
		t.Error("timeline view of the older encoding differs from the original")
	}
}

// TestRunWireSchema pins the canonical field names: renaming one is a
// wire version bump, and this test is the tripwire.
func TestRunWireSchema(t *testing.T) {
	run := dufp.Run{App: "CG", Governor: "DUFP", Slowdown: 0.1, Time: 3 * time.Second}
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"app"`, `"governor"`, `"slowdown"`, `"time_ns"`,
		`"pkg_energy_j"`, `"dram_energy_j"`, `"avg_pkg_power_w"`,
		`"avg_dram_power_w"`, `"avg_core_freq_hz"`, `"avg_uncore_freq_hz"`,
	} {
		if !strings.Contains(string(b), field) {
			t.Errorf("run wire schema lost field %s:\n%s", field, b)
		}
	}
	var back dufp.Run
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != run {
		t.Errorf("run round trip changed: %+v -> %+v", run, back)
	}
	if err := json.Unmarshal([]byte(`{"app":"CG","bogus":1}`), &back); err == nil {
		t.Error("unknown run field decoded without error")
	}
}

// TestSummaryRoundTrip pins the Summary codec used by campaign results.
func TestSummaryRoundTrip(t *testing.T) {
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := session.SummarizeCtx(context.Background(), app, dufp.Baseline(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back dufp.Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sum {
		t.Errorf("summary round trip changed:\n%+v\n%+v", sum, back)
	}
}

// TestWireMinorRevision pins the v1.1 envelope behaviour: the minor tag
// appears only when post-1.0 fields are used, trace_summary round-trips
// bit-exactly, and unknown fields are rejected from peers at or below
// this build's minor but ignored from newer minors.
func TestWireMinorRevision(t *testing.T) {
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	app, err := dufp.AppNamed("EP")
	if err != nil {
		t.Fatal(err)
	}
	spec := dufp.RunSpec{App: app, Governor: dufp.Baseline()}

	// A plain result is pure v1.0: no minor tag on the wire.
	plain, err := session.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"minor"`) {
		t.Errorf("plain result carries a minor tag:\n%s", b)
	}

	// A sink-observed run carries the v1.1 trace_summary and the tag.
	traced, err := session.Run(context.Background(), spec,
		dufp.WithTraceSink(dufp.NewTraceReservoir(0)))
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceSummary == nil {
		t.Fatal("sink-observed run has no TraceSummary")
	}
	b, err = json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"minor":1`) || !strings.Contains(string(b), `"trace_summary"`) {
		t.Errorf("v1.1 fields missing from the wire:\n%.200s", b)
	}
	var back dufp.RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceSummary == nil {
		t.Fatal("trace_summary lost over the wire")
	}
	got, want := *back.TraceSummary, *traced.TraceSummary
	if got.Sockets() != want.Sockets() {
		t.Fatalf("summary sockets %d -> %d", want.Sockets(), got.Sockets())
	}
	for s := 0; s < want.Sockets(); s++ {
		if got.Points[s] != want.Points[s] ||
			got.AvgCoreFreq[s] != want.AvgCoreFreq[s] ||
			got.AvgPkgPower[s] != want.AvgPkgPower[s] {
			t.Fatalf("summary socket %d changed: %+v -> %+v", s, want, got)
		}
	}

	// An unknown field at our minor is a typo: rejected.
	run, _ := json.Marshal(plain.Run)
	strict := `{"v":1,"minor":1,"run":` + string(run) + `,"bogus":true}`
	if err := json.Unmarshal([]byte(strict), &back); err == nil {
		t.Error("unknown field at minor 1 decoded without error")
	}
	// The same field from a future minor is a feature we predate: ignored.
	future := `{"v":1,"minor":2,"run":` + string(run) + `,"bogus":true}`
	if err := json.Unmarshal([]byte(future), &back); err != nil {
		t.Errorf("future-minor result rejected: %v", err)
	}
	if back.Run != plain.Run {
		t.Error("future-minor decode lost the run")
	}
	// Specs tolerate future minors the same way.
	var s2 dufp.RunSpec
	futureSpec := `{"v":1,"minor":2,"app":"CG","governor":{"kind":"baseline"},"bogus":true}`
	if err := json.Unmarshal([]byte(futureSpec), &s2); err != nil {
		t.Errorf("future-minor spec rejected: %v", err)
	}
	// But a foreign major version is still refused outright.
	if err := json.Unmarshal([]byte(`{"v":2,"minor":0,"run":`+string(run)+`}`), &back); err == nil {
		t.Error("foreign wire version decoded without error")
	}
}

// nestedRun and nestedGov are what the rows of wireNestedCases that
// decode must decode to.
var (
	nestedRun = dufp.Run{App: "EP", Governor: "DUFP", Slowdown: 0.1, Time: time.Second,
		PkgEnergy: 1.5, AvgCoreFreq: 2.3e9}
	nestedGov = dufp.DUFP(dufp.DefaultControlConfig(0.1))
)

// wireNestedCase is one envelope with an unknown key in a nested value,
// decoded into a fresh value of into's type.
type wireNestedCase struct {
	name, in string
	into     func() any
	ok       bool
}

// wireNestedCases returns envelopes with an unknown key inside the run,
// the governor, an inline app and the plain nested values, at minors 0,
// 1 and 2, plus a bare run.
func wireNestedCases(tb testing.TB) []wireNestedCase {
	app, err := dufp.AppNamed("EP")
	if err != nil {
		tb.Fatal(err)
	}
	appJSON, err := json.Marshal(app)
	if err != nil {
		tb.Fatal(err)
	}
	runJSON, err := json.Marshal(nestedRun)
	if err != nil {
		tb.Fatal(err)
	}
	bogus := func(obj []byte) string { return `{"bogus":1,` + string(obj[1:]) }
	result := func(minor, run string) string {
		return `{"v":1` + minor + `,"run":` + run + `}`
	}
	spec := func(minor, app, gov string) string {
		return `{"v":1` + minor + `,"app":` + app + `,"governor":` + gov + `}`
	}
	govJSON := `{"kind":"dufp","slowdown":0.1}`
	govBogus := `{"kind":"dufp","slowdown":0.1,"bogus":1}`
	newResult := func() any { return new(dufp.RunResult) }
	newSpec := func() any { return new(dufp.RunSpec) }
	return []wireNestedCase{
		{"result minor 0, run", result("", bogus(runJSON)), newResult, false},
		{"result minor 1, run", result(`,"minor":1`, bogus(runJSON)), newResult, false},
		{"result minor 2, run", result(`,"minor":2`, bogus(runJSON)), newResult, true},
		{"result minor 2, events, trace_summary, spans",
			`{"v":1,"minor":2,"run":` + string(runJSON) +
				`,"events":[{"time_ns":1,"kind":"cap-lower","cap_w":100,"uncore_hz":2e9,"bogus":1}]` +
				`,"trace_summary":{"points":[1],"avg_core_hz":[2e9],"avg_pkg_w":[100],"bogus":1}` +
				`,"spans":{"total_ns":5,"bogus":1}}`, newResult, true},
		{"spec minor 0, governor", spec("", `"EP"`, govBogus), newSpec, false},
		{"spec minor 1, governor", spec(`,"minor":1`, `"EP"`, govBogus), newSpec, false},
		{"spec minor 2, governor", spec(`,"minor":2`, `"EP"`, govBogus), newSpec, true},
		{"spec minor 0, inline app", spec("", bogus(appJSON), govJSON), newSpec, false},
		{"spec minor 1, inline app", spec(`,"minor":1`, bogus(appJSON), govJSON), newSpec, false},
		{"spec minor 2, inline app", spec(`,"minor":2`, bogus(appJSON), govJSON), newSpec, true},
		{"bare run", bogus(runJSON), func() any { return new(dufp.Run) }, false},
	}
}

// TestWireNestedUnknownKeys pins how far an envelope's strictness
// reaches: an unknown key inside the run, the governor or an inline app
// is rejected at or below this build's minor and ignored from a newer
// minor, like one at the envelope's top level. A bare run has no
// envelope and stays strict.
func TestWireNestedUnknownKeys(t *testing.T) {
	for _, tc := range wireNestedCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			into := tc.into()
			err := json.Unmarshal([]byte(tc.in), into)
			if tc.ok != (err == nil) {
				t.Fatalf("decode error %v, want ok=%v for\n%s", err, tc.ok, tc.in)
			}
			if !tc.ok {
				return
			}
			switch v := into.(type) {
			case *dufp.RunResult:
				if v.Run != nestedRun {
					t.Errorf("run decoded as %+v, want %+v", v.Run, nestedRun)
				}
			case *dufp.RunSpec:
				if v.App.Name != "EP" || v.Governor.ID() != nestedGov.ID() {
					t.Errorf("spec decoded as app %q governor %q, want EP and %q", v.App.Name, v.Governor.ID(), nestedGov.ID())
				}
			}
		})
	}
}

// twoSocketResult is a small recorded result in wire form: two sockets'
// series, events, both counter sets, a trace summary and a span summary.
const twoSocketResult = `{"v":1,"minor":1,` +
	`"run":{"app":"CG","governor":"DUFP","slowdown":0.1,"time_ns":61000000000,"pkg_energy_j":9876.5,"dram_energy_j":1234.25,"avg_pkg_power_w":161.9,"avg_dram_power_w":20.2,"avg_core_freq_hz":2300000000,"avg_uncore_freq_hz":1900000000},` +
	`"trace_summary":{"points":[2,1],"avg_core_hz":[2300000000,2200000000],"avg_pkg_w":[161.9,150.5]},` +
	`"events":[{"time_ns":200000000,"kind":"phase-change","cap_w":0,"uncore_hz":2400000000},{"time_ns":400000000,"kind":"cap-lower","cap_w":120,"uncore_hz":2400000000},{"time_ns":600000000,"kind":"uncore-lower","cap_w":120,"uncore_hz":2300000000}],` +
	`"trace":[[{"time_ns":0,"core_hz":2300000000,"uncore_hz":2400000000,"pkg_w":160,"dram_w":20,"cap_pl1_w":125,"cap_pl2_w":150,"bw_bps":1e10,"flops":2e10},` +
	`{"time_ns":100000000,"core_hz":2300000000,"uncore_hz":2300000000,"pkg_w":163.8,"dram_w":20.4,"cap_pl1_w":120,"cap_pl2_w":150,"bw_bps":1.1e10,"flops":2.1e10}],` +
	`[{"time_ns":0,"core_hz":2200000000,"uncore_hz":2400000000,"pkg_w":150.5,"dram_w":19,"cap_pl1_w":125,"cap_pl2_w":150,"bw_bps":9e9,"flops":1.9e10}]],` +
	`"fault_stats":{"read_failures":1,"stuck_reads":2,"dropped_samples":3,"noisy_reads":4,"delayed_cap_writes":5},` +
	`"guard_stats":{"retries":1,"failures":2,"stale_fallbacks":3,"rejected":4,"degraded_entries":5,"recoveries":6,"held_rounds":7},` +
	`"spans":{"run_id":"r1","total_ns":12000000,"stages":[{"stage":"setup","ns":2000000,"count":1},{"stage":"sim","ns":10000000,"count":1}],"rounds":3,"round_ns":300000}}`

// FuzzRunResultDecode feeds arbitrary bytes to RunResult's wire decoder.
// It never panics, and a result that decodes re-encodes to bytes that
// decode and re-encode to themselves exactly.
func FuzzRunResultDecode(f *testing.F) {
	var seed dufp.RunResult
	if err := seed.UnmarshalJSON([]byte(twoSocketResult)); err != nil || seed.Trace.Sockets() != 2 {
		f.Fatalf("two-socket seed: %v", err)
	}
	f.Add([]byte(twoSocketResult))
	for _, tc := range wireNestedCases(f) {
		f.Add([]byte(tc.in))
	}
	for _, in := range []string{
		`null`, `-0`, `5e-324`,
		`{"v":1,"run":{"app":"","governor":"","slowdown":-0,"time_ns":0,"pkg_energy_j":5e-324,"dram_energy_j":0,"avg_pkg_power_w":0,"avg_dram_power_w":0,"avg_core_freq_hz":0,"avg_uncore_freq_hz":0}}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r dufp.RunResult
		if r.UnmarshalJSON(data) != nil {
			return
		}
		b1, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		var again dufp.RunResult
		if err := json.Unmarshal(b1, &again); err != nil {
			t.Fatalf("re-encoded result does not decode: %v\n%s", err, b1)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip differs:\n%s\n%s", b1, b2)
		}
	})
}
