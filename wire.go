package dufp

// Canonical wire schema (version 1).
//
// This file defines the single JSON encoding of the harness's run
// vocabulary — RunSpec, RunResult, Governor, ControlConfig, control
// events and trace points. It is the serialization used by the HTTP/JSON
// Run API (internal/api), the persistent disk cache (internal/exec/
// diskcache, via metrics.Run's codec) and the CLI import/export paths,
// so every artifact a run produces decodes with one schema instead of
// per-consumer ad-hoc encodings.
//
// Schema rules:
//
//   - Field names are stable snake_case; renaming a field is a wire
//     version bump, not an edit.
//   - Envelope types (RunSpec, RunResult) carry an explicit version tag
//     "v"; decoding rejects versions this build does not speak.
//   - Additive changes are minor revisions of the same version: an
//     envelope that uses fields introduced after v1.0 also carries
//     "minor". Decoders reject unknown fields from peers at or below
//     their own minor (typos still fail loudly) but ignore them from a
//     newer minor, so old builds read new results minus the fields they
//     predate. The envelope's strictness reaches its nested values,
//     including those with codecs of their own: the run, the governor
//     and an inline app. v1.1 added the optional trace_summary artifact.
//   - Quantities carry their unit in the name (watts, hertz, joules,
//     nanoseconds). Floats round-trip bit-exactly: encoding/json emits
//     the shortest representation that parses back to the identical
//     float64.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"dufp/internal/control"
	"dufp/internal/metrics"
	"dufp/internal/trace"
	"dufp/internal/units"
	"dufp/internal/workload"
)

// WireVersion is the version tag of the canonical JSON schema. Envelope
// types stamp it on encode and reject anything else on decode.
const WireVersion = 1

// WireMinor is the highest minor revision of wire version 1 this build
// emits and understands. Minor revisions are strictly additive —
// optional fields only — so they never invalidate an older decoder:
// envelopes carry "minor" only when they use post-1.0 fields, and a
// decoder that sees a minor above its own ignores the fields it
// predates instead of rejecting the envelope.
const WireMinor = 1

// wireEnvelope probes just the version tags of an encoded envelope.
type wireEnvelope struct {
	V     int `json:"v"`
	Minor int `json:"minor"`
}

// decodeVersioned decodes a versioned envelope: strictly (unknown fields
// rejected) when the peer's minor revision is at or below this build's,
// leniently when a newer minor may have added fields this build
// predates. It reports which, so the caller decodes the envelope's raw
// nested values the same way.
func decodeVersioned(b []byte, v any, what string) (strict bool, err error) {
	var env wireEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return false, fmt.Errorf("dufp: decoding %s: %w", what, err)
	}
	if env.V != WireVersion {
		return false, fmt.Errorf("dufp: %s wire version %d, this build speaks %d", what, env.V, WireVersion)
	}
	strict = env.Minor <= WireMinor
	if err := decodeJSON(b, v, strict); err != nil {
		return false, fmt.Errorf("dufp: decoding %s: %w", what, err)
	}
	return strict, nil
}

// Governor wire kinds, the declarative names of the canonical
// constructors.
const (
	GovKindBaseline     = "baseline"
	GovKindDUF          = "duf"
	GovKindDUFP         = "dufp"
	GovKindDNPC         = "dnpc"
	GovKindDUFPF        = "dufpf"
	GovKindStaticCap    = "static-cap"
	GovKindStaticCapDUF = "static-cap-duf"
	GovKindTimedCap     = "timed-cap"
)

// govSpec is the declarative form of a canonically constructed Governor:
// enough to rebuild it (and therefore its content-addressed identity)
// on the other side of a wire.
type govSpec struct {
	kind     string
	cfg      *ControlConfig
	pl1, pl2 Power
	until    time.Duration
}

// guardJSON is the wire form of control.GuardConfig.
type guardJSON struct {
	Retries       int     `json:"retries"`
	BackoffRounds int     `json:"backoff_rounds"`
	OutlierFactor float64 `json:"outlier_factor"`
	DegradedAfter int     `json:"degraded_after"`
}

// controlConfigJSON is the wire form of control.Config.
type controlConfigJSON struct {
	Slowdown         float64    `json:"slowdown"`
	Epsilon          float64    `json:"epsilon"`
	CapStepW         float64    `json:"cap_step_w"`
	CapFloorW        float64    `json:"cap_floor_w"`
	UncoreStepHz     float64    `json:"uncore_step_hz"`
	HighMemOI        float64    `json:"high_mem_oi"`
	HighCPUOI        float64    `json:"high_cpu_oi"`
	MemOIBoundary    float64    `json:"mem_oi_boundary"`
	PhaseFlopsFactor float64    `json:"phase_flops_factor"`
	WindowSamples    int        `json:"window_samples"`
	PowerMarginW     float64    `json:"power_margin_w"`
	Guard            *guardJSON `json:"guard,omitempty"`

	AblateRateBudget     bool `json:"ablate_rate_budget,omitempty"`
	AblateLatch          bool `json:"ablate_latch,omitempty"`
	AblateProvisionalRef bool `json:"ablate_provisional_ref,omitempty"`
}

func configToJSON(c ControlConfig) controlConfigJSON {
	out := controlConfigJSON{
		Slowdown:             c.Slowdown,
		Epsilon:              c.Epsilon,
		CapStepW:             c.CapStep.Watts(),
		CapFloorW:            c.CapFloor.Watts(),
		UncoreStepHz:         float64(c.UncoreStep),
		HighMemOI:            c.HighMemOI,
		HighCPUOI:            c.HighCPUOI,
		MemOIBoundary:        c.MemOIBoundary,
		PhaseFlopsFactor:     c.PhaseFlopsFactor,
		WindowSamples:        c.WindowSamples,
		PowerMarginW:         c.PowerMargin.Watts(),
		AblateRateBudget:     c.AblateRateBudget,
		AblateLatch:          c.AblateLatch,
		AblateProvisionalRef: c.AblateProvisionalRef,
	}
	if c.Guard.Enabled() {
		out.Guard = &guardJSON{
			Retries:       c.Guard.Retries,
			BackoffRounds: c.Guard.BackoffRounds,
			OutlierFactor: c.Guard.OutlierFactor,
			DegradedAfter: c.Guard.DegradedAfter,
		}
	}
	return out
}

func configFromJSON(in controlConfigJSON) ControlConfig {
	c := ControlConfig{
		Slowdown:             in.Slowdown,
		Epsilon:              in.Epsilon,
		CapStep:              Power(in.CapStepW) * Watt,
		CapFloor:             Power(in.CapFloorW) * Watt,
		UncoreStep:           Frequency(in.UncoreStepHz),
		HighMemOI:            in.HighMemOI,
		HighCPUOI:            in.HighCPUOI,
		MemOIBoundary:        in.MemOIBoundary,
		PhaseFlopsFactor:     in.PhaseFlopsFactor,
		WindowSamples:        in.WindowSamples,
		PowerMargin:          Power(in.PowerMarginW) * Watt,
		AblateRateBudget:     in.AblateRateBudget,
		AblateLatch:          in.AblateLatch,
		AblateProvisionalRef: in.AblateProvisionalRef,
	}
	if in.Guard != nil {
		c.Guard = GuardConfig{
			Retries:       in.Guard.Retries,
			BackoffRounds: in.Guard.BackoffRounds,
			OutlierFactor: in.Guard.OutlierFactor,
			DegradedAfter: in.Guard.DegradedAfter,
		}
	}
	return c
}

// governorJSON is the wire form of a Governor.
type governorJSON struct {
	Kind string `json:"kind"`
	// Config parameterises the controller kinds. Absent means the
	// paper's defaults for Slowdown (DefaultControlConfig).
	Config *controlConfigJSON `json:"config,omitempty"`
	// Slowdown is a shorthand accepted on decode when Config is absent:
	// the controller gets DefaultControlConfig(Slowdown).
	Slowdown *float64 `json:"slowdown,omitempty"`
	// PL1W/PL2W parameterise the capping kinds.
	PL1W float64 `json:"pl1_w,omitempty"`
	PL2W float64 `json:"pl2_w,omitempty"`
	// Until is the timed-cap deadline ("30s").
	Until string `json:"until,omitempty"`
}

// Serializable reports whether the governor was built by a canonical
// constructor and can round-trip through JSON. Anonymous governors
// (GovernorOf) cannot: nothing identifies two funcs as equal across
// processes.
func (g Governor) Serializable() bool { return g.id == "" || g.spec != nil }

// MarshalJSON encodes the governor's declarative form. Governors wrapped
// with GovernorOf are not serializable and return an error.
func (g Governor) MarshalJSON() ([]byte, error) {
	if g.id == "" {
		return json.Marshal(governorJSON{Kind: GovKindBaseline})
	}
	if g.spec == nil {
		return nil, fmt.Errorf("dufp: governor %q was not built by a canonical constructor and cannot be serialized", g.id)
	}
	out := governorJSON{Kind: g.spec.kind, PL1W: g.spec.pl1.Watts(), PL2W: g.spec.pl2.Watts()}
	if g.spec.cfg != nil {
		cj := configToJSON(*g.spec.cfg)
		out.Config = &cj
	}
	if g.spec.until != 0 {
		out.Until = g.spec.until.String()
	}
	return json.Marshal(out)
}

// UnmarshalJSON rebuilds a Governor through its canonical constructor,
// so the decoded governor's content-addressed identity matches the
// encoder's exactly. Unknown fields are rejected.
func (g *Governor) UnmarshalJSON(b []byte) error { return g.decode(b, true) }

// decode is UnmarshalJSON with the strictness of the envelope the
// governor is nested in.
func (g *Governor) decode(b []byte, strict bool) error {
	var in governorJSON
	if err := decodeJSON(b, &in, strict); err != nil {
		return fmt.Errorf("dufp: decoding governor: %w", err)
	}
	cfg := func() (ControlConfig, error) {
		switch {
		case in.Config != nil:
			return configFromJSON(*in.Config), nil
		case in.Slowdown != nil:
			return DefaultControlConfig(*in.Slowdown), nil
		default:
			return ControlConfig{}, fmt.Errorf("dufp: governor kind %q needs a config or a slowdown", in.Kind)
		}
	}
	switch in.Kind {
	case GovKindBaseline, "":
		*g = Baseline()
	case GovKindDUF, GovKindDUFP, GovKindDNPC, GovKindDUFPF:
		c, err := cfg()
		if err != nil {
			return err
		}
		switch in.Kind {
		case GovKindDUF:
			*g = DUF(c)
		case GovKindDUFP:
			*g = DUFP(c)
		case GovKindDNPC:
			*g = DNPC(c)
		case GovKindDUFPF:
			*g = DUFPF(c)
		}
	case GovKindStaticCap:
		*g = StaticCap(Power(in.PL1W)*Watt, Power(in.PL2W)*Watt)
	case GovKindStaticCapDUF:
		c, err := cfg()
		if err != nil {
			return err
		}
		*g = StaticCapDUF(c, Power(in.PL1W)*Watt, Power(in.PL2W)*Watt)
	case GovKindTimedCap:
		c, err := cfg()
		if err != nil {
			return err
		}
		until, err := time.ParseDuration(in.Until)
		if err != nil {
			return fmt.Errorf("dufp: decoding governor: bad until %q: %w", in.Until, err)
		}
		*g = TimedCap(c, Power(in.PL1W)*Watt, Power(in.PL2W)*Watt, until)
	default:
		return fmt.Errorf("dufp: unknown governor kind %q", in.Kind)
	}
	return nil
}

// runSpecJSON is the wire form of RunSpec. App is raw because it accepts
// either a suite name ("CG") or a full inline application definition;
// it and Governor are raw so that they decode with the envelope's
// strictness.
type runSpecJSON struct {
	V        int             `json:"v"`
	Minor    int             `json:"minor,omitempty"`
	App      json.RawMessage `json:"app"`
	Governor json.RawMessage `json:"governor"`
	Idx      int             `json:"idx,omitempty"`
}

// MarshalJSON encodes the spec with the wire version tag and the full
// inline application definition.
func (s RunSpec) MarshalJSON() ([]byte, error) {
	app, err := json.Marshal(s.App)
	if err != nil {
		return nil, err
	}
	gov, err := json.Marshal(s.Governor)
	if err != nil {
		return nil, err
	}
	return json.Marshal(runSpecJSON{V: WireVersion, App: app, Governor: gov, Idx: s.Idx})
}

// UnmarshalJSON decodes a versioned spec. The app may be a suite name
// ("CG") or an inline application definition; unknown fields and foreign
// wire versions are rejected (unknown fields from a newer minor revision
// of version 1 are ignored).
func (s *RunSpec) UnmarshalJSON(b []byte) error {
	var in runSpecJSON
	strict, err := decodeVersioned(b, &in, "run spec")
	if err != nil {
		return err
	}
	if len(in.App) == 0 {
		return fmt.Errorf("dufp: run spec has no app")
	}
	var app App
	if in.App[0] == '"' {
		var name string
		if err := json.Unmarshal(in.App, &name); err != nil {
			return fmt.Errorf("dufp: decoding run spec app name: %w", err)
		}
		if app, err = AppNamed(name); err != nil {
			return err
		}
	} else if app, err = workload.DecodeApp(in.App, strict); err != nil {
		return fmt.Errorf("dufp: decoding run spec app: %w", err)
	}
	var gov Governor
	if len(in.Governor) > 0 {
		if err := gov.decode(in.Governor, strict); err != nil {
			return fmt.Errorf("dufp: decoding run spec: %w", err)
		}
	}
	*s = RunSpec{App: app, Governor: gov, Idx: in.Idx}
	return nil
}

// controlEventJSON is the wire form of one controller decision.
type controlEventJSON struct {
	TimeNS   int64   `json:"time_ns"`
	Kind     string  `json:"kind"`
	CapW     float64 `json:"cap_w"`
	UncoreHz float64 `json:"uncore_hz"`
}

// eventKindNames maps wire names back to control.EventKind. Built by
// probing String() so it can never drift from the enum.
var eventKindNames = func() map[string]control.EventKind {
	m := make(map[string]control.EventKind)
	for k := 0; k < 64; k++ {
		name := control.EventKind(k).String()
		if name == fmt.Sprintf("EventKind(%d)", k) {
			break
		}
		m[name] = control.EventKind(k)
	}
	return m
}()

func eventToJSON(e ControlEvent) controlEventJSON {
	return controlEventJSON{
		TimeNS:   int64(e.Time),
		Kind:     e.Kind.String(),
		CapW:     e.Cap.Watts(),
		UncoreHz: float64(e.Uncore),
	}
}

func eventFromJSON(in controlEventJSON) (ControlEvent, error) {
	kind, ok := eventKindNames[in.Kind]
	if !ok {
		return ControlEvent{}, fmt.Errorf("dufp: unknown control event kind %q", in.Kind)
	}
	return ControlEvent{
		Time:   time.Duration(in.TimeNS),
		Kind:   kind,
		Cap:    Power(in.CapW) * Watt,
		Uncore: Frequency(in.UncoreHz),
	}, nil
}

// tracePointJSON is the wire form of one trace sample.
type tracePointJSON struct {
	TimeNS   int64   `json:"time_ns"`
	CoreHz   float64 `json:"core_hz"`
	UncoreHz float64 `json:"uncore_hz"`
	PkgW     float64 `json:"pkg_w"`
	DramW    float64 `json:"dram_w"`
	CapPL1W  float64 `json:"cap_pl1_w"`
	CapPL2W  float64 `json:"cap_pl2_w"`
	BwBps    float64 `json:"bw_bps"`
	Flops    float64 `json:"flops"`
}

func pointToJSON(p TracePoint) tracePointJSON {
	return tracePointJSON{
		TimeNS:   int64(p.Time),
		CoreHz:   float64(p.CoreFreq),
		UncoreHz: float64(p.UncoreFreq),
		PkgW:     p.PkgPower.Watts(),
		DramW:    p.DramPower.Watts(),
		CapPL1W:  p.CapPL1.Watts(),
		CapPL2W:  p.CapPL2.Watts(),
		BwBps:    float64(p.Bandwidth),
		Flops:    float64(p.FlopRate),
	}
}

func pointFromJSON(in tracePointJSON) TracePoint {
	return TracePoint{
		Time:       time.Duration(in.TimeNS),
		CoreFreq:   Frequency(in.CoreHz),
		UncoreFreq: Frequency(in.UncoreHz),
		PkgPower:   Power(in.PkgW) * Watt,
		DramPower:  Power(in.DramW) * Watt,
		CapPL1:     Power(in.CapPL1W) * Watt,
		CapPL2:     Power(in.CapPL2W) * Watt,
		Bandwidth:  units.Bandwidth(in.BwBps),
		FlopRate:   units.FlopRate(in.Flops),
	}
}

// faultStatsJSON is the wire form of fault.Stats.
type faultStatsJSON struct {
	ReadFailures     int `json:"read_failures"`
	StuckReads       int `json:"stuck_reads"`
	DroppedSamples   int `json:"dropped_samples"`
	NoisyReads       int `json:"noisy_reads"`
	DelayedCapWrites int `json:"delayed_cap_writes"`
}

// guardStatsJSON is the wire form of control.GuardStats.
type guardStatsJSON struct {
	Retries         int `json:"retries"`
	Failures        int `json:"failures"`
	StaleFallbacks  int `json:"stale_fallbacks"`
	Rejected        int `json:"rejected"`
	DegradedEntries int `json:"degraded_entries"`
	Recoveries      int `json:"recoveries"`
	HeldRounds      int `json:"held_rounds"`
}

// traceSummaryJSON is the wire form of the streaming trace summary
// (wire v1.1): per-socket sample counts and exact averages — the O(1)
// artifact that crosses the wire in place of the full series.
type traceSummaryJSON struct {
	Points    []int     `json:"points"`
	AvgCoreHz []float64 `json:"avg_core_hz"`
	AvgPkgW   []float64 `json:"avg_pkg_w"`
}

func summaryToJSON(s TraceSummary) traceSummaryJSON {
	out := traceSummaryJSON{
		Points:    s.Points,
		AvgCoreHz: make([]float64, len(s.AvgCoreFreq)),
		AvgPkgW:   make([]float64, len(s.AvgPkgPower)),
	}
	for i, f := range s.AvgCoreFreq {
		out.AvgCoreHz[i] = float64(f)
	}
	for i, p := range s.AvgPkgPower {
		out.AvgPkgW[i] = p.Watts()
	}
	return out
}

func summaryFromJSON(in traceSummaryJSON) TraceSummary {
	out := TraceSummary{
		Points:      in.Points,
		AvgCoreFreq: make([]Frequency, len(in.AvgCoreHz)),
		AvgPkgPower: make([]Power, len(in.AvgPkgW)),
	}
	for i, f := range in.AvgCoreHz {
		out.AvgCoreFreq[i] = Frequency(f)
	}
	for i, w := range in.AvgPkgW {
		out.AvgPkgPower[i] = Power(w) * Watt
	}
	return out
}

// runResultJSON is the wire form of RunResult: the measurements plus
// whichever sideband artifacts the run produced. Run is raw so that it
// decodes with the envelope's strictness.
type runResultJSON struct {
	V     int             `json:"v"`
	Minor int             `json:"minor,omitempty"`
	Run   json.RawMessage `json:"run"`
	// TraceSummary is the streaming trace aggregate (wire v1.1).
	TraceSummary *traceSummaryJSON  `json:"trace_summary,omitempty"`
	Events       []controlEventJSON `json:"events,omitempty"`
	Trace        [][]tracePointJSON `json:"trace,omitempty"`
	// Timeline is accepted from older encodings and ignored: the
	// timeline is a view rebuilt from Events and Trace.
	Timeline   json.RawMessage `json:"timeline,omitempty"`
	FaultStats *faultStatsJSON `json:"fault_stats,omitempty"`
	GuardStats *guardStatsJSON `json:"guard_stats,omitempty"`
	// Spans is the per-stage wall-clock decomposition of a recorded run
	// (WithRecord). The full span tree stays process-local; only
	// this summary crosses the wire. span.Summary is already in wire
	// shape (snake_case, ns-suffixed), so it embeds as-is.
	Spans *SpanSummary `json:"spans,omitempty"`
}

// MarshalJSON encodes the result with the wire version tag. Artifact
// fields the run did not request are omitted; results using post-1.0
// fields also carry the minor revision tag.
func (r RunResult) MarshalJSON() ([]byte, error) {
	run, err := json.Marshal(r.Run)
	if err != nil {
		return nil, err
	}
	out := runResultJSON{V: WireVersion, Run: run}
	if r.TraceSummary != nil {
		out.Minor = WireMinor
		sj := summaryToJSON(*r.TraceSummary)
		out.TraceSummary = &sj
	}
	for _, e := range r.Events {
		out.Events = append(out.Events, eventToJSON(e))
	}
	if r.Trace != nil {
		for i := 0; i < r.Trace.Sockets(); i++ {
			pts := r.Trace.Snapshot(i)
			series := make([]tracePointJSON, len(pts))
			for j, p := range pts {
				series[j] = pointToJSON(p)
			}
			out.Trace = append(out.Trace, series)
		}
	}
	if r.FaultStats != (FaultStats{}) {
		out.FaultStats = &faultStatsJSON{
			ReadFailures:     r.FaultStats.ReadFailures,
			StuckReads:       r.FaultStats.StuckReads,
			DroppedSamples:   r.FaultStats.DroppedSamples,
			NoisyReads:       r.FaultStats.NoisyReads,
			DelayedCapWrites: r.FaultStats.DelayedCapWrites,
		}
	}
	if r.GuardStats != (GuardStats{}) {
		out.GuardStats = &guardStatsJSON{
			Retries:         r.GuardStats.Retries,
			Failures:        r.GuardStats.Failures,
			StaleFallbacks:  r.GuardStats.StaleFallbacks,
			Rejected:        r.GuardStats.Rejected,
			DegradedEntries: r.GuardStats.DegradedEntries,
			Recoveries:      r.GuardStats.Recoveries,
			HeldRounds:      r.GuardStats.HeldRounds,
		}
	}
	if r.Spans != nil {
		sum := *r.Spans
		out.Spans = &sum
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a versioned result, rebuilding the trace
// reservoir from the serialized series. Unknown fields from a newer
// minor revision of version 1 are ignored.
func (r *RunResult) UnmarshalJSON(b []byte) error {
	var in runResultJSON
	strict, err := decodeVersioned(b, &in, "run result")
	if err != nil {
		return err
	}
	var out RunResult
	if len(in.Run) > 0 {
		if out.Run, err = metrics.DecodeRun(in.Run, strict); err != nil {
			return fmt.Errorf("dufp: decoding run result: %w", err)
		}
	}
	if in.TraceSummary != nil {
		sum := summaryFromJSON(*in.TraceSummary)
		out.TraceSummary = &sum
	}
	for _, ej := range in.Events {
		e, err := eventFromJSON(ej)
		if err != nil {
			return err
		}
		out.Events = append(out.Events, e)
	}
	if in.Trace != nil {
		// A reservoir as large as the longest series keeps every point,
		// and Grow keeps the sockets whose series are empty.
		longest := 0
		for _, sj := range in.Trace {
			longest = max(longest, len(sj))
		}
		rsv := trace.NewReservoir(longest)
		rsv.Grow(len(in.Trace))
		for i, sj := range in.Trace {
			for _, pj := range sj {
				rsv.Consume(i, pointFromJSON(pj))
			}
		}
		out.Trace = rsv
	}
	if in.FaultStats != nil {
		out.FaultStats = FaultStats{
			ReadFailures:     in.FaultStats.ReadFailures,
			StuckReads:       in.FaultStats.StuckReads,
			DroppedSamples:   in.FaultStats.DroppedSamples,
			NoisyReads:       in.FaultStats.NoisyReads,
			DelayedCapWrites: in.FaultStats.DelayedCapWrites,
		}
	}
	if in.GuardStats != nil {
		out.GuardStats = GuardStats{
			Retries:         in.GuardStats.Retries,
			Failures:        in.GuardStats.Failures,
			StaleFallbacks:  in.GuardStats.StaleFallbacks,
			Rejected:        in.GuardStats.Rejected,
			DegradedEntries: in.GuardStats.DegradedEntries,
			Recoveries:      in.GuardStats.Recoveries,
			HeldRounds:      in.GuardStats.HeldRounds,
		}
	}
	if in.Spans != nil {
		sum := *in.Spans
		out.Spans = &sum
	}
	*r = out
	return nil
}

// decodeJSON unmarshals b into v; strict also rejects unknown fields.
// Either way, trailing garbage is an error.
func decodeJSON(b []byte, v any, strict bool) error {
	if !strict {
		return json.Unmarshal(b, v)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
