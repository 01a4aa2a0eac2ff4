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
