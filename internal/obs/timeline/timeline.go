// Package timeline builds the run audit trail: a merged, time-ordered
// stream that joins controller decisions (control.Event) with the nearest
// simulator trace sample (sim.TracePoint), so one artifact answers what
// the governor saw, what it decided, and what happened to power. It is
// the join behind RunResult.Timeline, a view over a recorded run, and
// renders as JSONL (dufprun -timeline).
package timeline

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"dufp/internal/control"
	"dufp/internal/sim"
)

// Entry kinds.
const (
	// KindSample is a simulator trace sample.
	KindSample = "sample"
	// KindDecision is a controller decision joined with trace context.
	KindDecision = "decision"
)

// Entry is one record of the merged stream. Sample entries carry their
// own measurements as the trace context; decision entries carry the
// decision plus the context of the nearest sample in time.
type Entry struct {
	// TimeS is the entry's simulation time in seconds.
	TimeS float64 `json:"time_s"`
	// Kind is "sample" or "decision".
	Kind string `json:"kind"`

	// Decision names the controller decision ("cap-lower", "rule-2", ...);
	// empty on samples.
	Decision string `json:"decision,omitempty"`
	// TargetCapW and TargetUncoreGHz are the post-decision lever targets;
	// zero on samples.
	TargetCapW      float64 `json:"target_cap_w,omitempty"`
	TargetUncoreGHz float64 `json:"target_uncore_ghz,omitempty"`

	// TraceTimeS is the simulation time of the joined trace sample (equal
	// to TimeS on samples).
	TraceTimeS float64 `json:"trace_time_s"`
	// CoreGHz and UncoreGHz are the delivered frequencies at the joined
	// sample.
	CoreGHz   float64 `json:"core_ghz"`
	UncoreGHz float64 `json:"uncore_ghz"`
	// PkgW and DramW are the package and DRAM power draws.
	PkgW  float64 `json:"pkg_w"`
	DramW float64 `json:"dram_w"`
	// CapPL1W and CapPL2W are the programmed RAPL constraints.
	CapPL1W float64 `json:"cap_pl1_w"`
	CapPL2W float64 `json:"cap_pl2_w"`
	// BwGBs is the memory bandwidth and Gflops the FLOP rate.
	BwGBs  float64 `json:"bw_gbs"`
	Gflops float64 `json:"gflops"`
}

// Timeline is the merged stream of one socket's run.
type Timeline struct {
	// Socket is the socket index the stream describes.
	Socket int `json:"socket"`
	// Entries are time-ordered; samples precede decisions at equal times.
	Entries []Entry `json:"entries"`
}

// Build merges a controller's decision log with a socket's trace series
// into one time-ordered stream. Either input may be empty: a baseline run
// has no decisions, an untraced run contributes no samples (decisions
// then carry a zero trace context).
func Build(events []control.Event, points []sim.TracePoint) Timeline {
	entries := make([]Entry, 0, len(events)+len(points))
	for _, p := range points {
		entries = append(entries, sampleEntry(p))
	}
	for _, e := range events {
		entry := Entry{
			TimeS:           e.Time.Seconds(),
			Kind:            KindDecision,
			Decision:        e.Kind.String(),
			TargetCapW:      e.Cap.Watts(),
			TargetUncoreGHz: e.Uncore.GHz(),
		}
		if p, ok := nearest(points, e.Time); ok {
			fillContext(&entry, p)
		}
		entries = append(entries, entry)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].TimeS != entries[j].TimeS {
			return entries[i].TimeS < entries[j].TimeS
		}
		// The sample gives the decision its context; show it first.
		return entries[i].Kind == KindSample && entries[j].Kind == KindDecision
	})
	return Timeline{Entries: entries}
}

func sampleEntry(p sim.TracePoint) Entry {
	e := Entry{TimeS: p.Time.Seconds(), Kind: KindSample}
	fillContext(&e, p)
	return e
}

func fillContext(e *Entry, p sim.TracePoint) {
	e.TraceTimeS = p.Time.Seconds()
	e.CoreGHz = p.CoreFreq.GHz()
	e.UncoreGHz = p.UncoreFreq.GHz()
	e.PkgW = p.PkgPower.Watts()
	e.DramW = p.DramPower.Watts()
	e.CapPL1W = p.CapPL1.Watts()
	e.CapPL2W = p.CapPL2.Watts()
	e.BwGBs = p.Bandwidth.GBs()
	e.Gflops = float64(p.FlopRate) / 1e9
}

// nearest returns the trace point closest in time to t. The series is
// time-ordered (the simulator emits it that way), so a binary search
// finds the insertion point and the closer neighbour wins.
func nearest(points []sim.TracePoint, t time.Duration) (sim.TracePoint, bool) {
	if len(points) == 0 {
		return sim.TracePoint{}, false
	}
	i := sort.Search(len(points), func(i int) bool { return points[i].Time >= t })
	if i == 0 {
		return points[0], true
	}
	if i == len(points) {
		return points[len(points)-1], true
	}
	if points[i].Time-t < t-points[i-1].Time {
		return points[i], true
	}
	return points[i-1], true
}

// Decisions returns only the decision entries, in order.
func (t Timeline) Decisions() []Entry {
	var out []Entry
	for _, e := range t.Entries {
		if e.Kind == KindDecision {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL renders the stream as one JSON object per line.
func (t Timeline) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
