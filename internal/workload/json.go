package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dufp/internal/model"
	"dufp/internal/units"
)

// JSON codec for applications, so workloads can be authored, stored and
// shared as files (cmd/dufprun -app-file). Durations are human-readable
// ("1.5s"), frequencies are in GHz.

type phaseJSON struct {
	Name          string  `json:"name"`
	FlopFrac      float64 `json:"flop_frac"`
	MemFrac       float64 `json:"mem_frac"`
	ActivityExtra float64 `json:"activity_extra,omitempty"`
	ComputeShare  float64 `json:"compute_share"`
	Overlap       float64 `json:"overlap"`
	UncoreLatSens float64 `json:"uncore_lat_sens,omitempty"`
	BWUncoreKnee  float64 `json:"bw_uncore_knee_ghz,omitempty"`
	BWCoreExp     float64 `json:"bw_core_exp,omitempty"`
	BWCoreKnee    float64 `json:"bw_core_knee_ghz,omitempty"`
	Duration      string  `json:"duration"`
}

type loopJSON struct {
	Count int         `json:"count"`
	Body  []phaseJSON `json:"body"`
}

type appJSON struct {
	Name        string     `json:"name"`
	Class       string     `json:"class,omitempty"`
	Description string     `json:"description,omitempty"`
	Loops       []loopJSON `json:"loops"`
}

func toJSON(a App) appJSON {
	out := appJSON{Name: a.Name, Class: a.Class, Description: a.Description}
	for _, l := range a.Loops {
		lj := loopJSON{Count: l.Count}
		for _, ph := range l.Body {
			lj.Body = append(lj.Body, phaseJSON{
				Name:          ph.Name,
				FlopFrac:      ph.FlopFrac,
				MemFrac:       ph.MemFrac,
				ActivityExtra: ph.ActivityExtra,
				ComputeShare:  ph.ComputeShare,
				Overlap:       ph.Overlap,
				UncoreLatSens: ph.UncoreLatSens,
				BWUncoreKnee:  ph.BWUncoreKnee.GHz(),
				BWCoreExp:     ph.BWCoreExp,
				BWCoreKnee:    ph.BWCoreKnee.GHz(),
				Duration:      ph.Duration.String(),
			})
		}
		out.Loops = append(out.Loops, lj)
	}
	return out
}

func fromJSON(in appJSON) (App, error) {
	a := App{Name: in.Name, Class: in.Class, Description: in.Description}
	for i, l := range in.Loops {
		lo := Loop{Count: l.Count}
		for j, ph := range l.Body {
			d, err := time.ParseDuration(ph.Duration)
			if err != nil {
				return App{}, fmt.Errorf("workload: loop %d phase %d: bad duration %q: %w", i, j, ph.Duration, err)
			}
			lo.Body = append(lo.Body, model.PhaseShape{
				Name:          ph.Name,
				FlopFrac:      ph.FlopFrac,
				MemFrac:       ph.MemFrac,
				ActivityExtra: ph.ActivityExtra,
				ComputeShare:  ph.ComputeShare,
				Overlap:       ph.Overlap,
				UncoreLatSens: ph.UncoreLatSens,
				BWUncoreKnee:  units.Frequency(ph.BWUncoreKnee) * units.Gigahertz,
				BWCoreExp:     ph.BWCoreExp,
				BWCoreKnee:    units.Frequency(ph.BWCoreKnee) * units.Gigahertz,
				Duration:      d,
			})
		}
		a.Loops = append(a.Loops, lo)
	}
	if err := a.Validate(); err != nil {
		return App{}, err
	}
	return a, nil
}

// MarshalJSON encodes the application in the canonical file/wire schema
// (the same encoding WriteJSON produces), so an App nested in a larger
// wire structure — a RunSpec, a campaign — serialises identically to a
// standalone app file.
func (a App) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSON(a))
}

// UnmarshalJSON decodes and validates the canonical schema, rejecting
// unknown fields.
func (a *App) UnmarshalJSON(b []byte) error {
	decoded, err := DecodeApp(b, true)
	if err != nil {
		return err
	}
	*a = decoded
	return nil
}

// DecodeApp decodes and validates the canonical schema; strict rejects
// unknown fields. An application inline in a wire envelope of a newer
// minor revision decodes with strict false, so it ignores the fields
// this build predates.
func DecodeApp(b []byte, strict bool) (App, error) {
	var in appJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(&in); err != nil {
		return App{}, fmt.Errorf("workload: decoding application: %w", err)
	}
	return fromJSON(in)
}

// WriteJSON serialises the application, indented for hand editing.
func WriteJSON(w io.Writer, a App) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toJSON(a))
}

// ReadJSON parses and validates an application definition.
func ReadJSON(r io.Reader) (App, error) {
	var in appJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return App{}, fmt.Errorf("workload: decoding application: %w", err)
	}
	return fromJSON(in)
}
