package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"dufp/internal/units"
)

// Canonical JSON for the measurement types (wire schema v1, see the
// repository's wire.go). Run and Summary are what crosses every
// serialization boundary — the HTTP Run API, the persistent disk cache,
// the exported experiment tables — so they encode through one explicit
// codec: stable snake_case names with units in the name, unknown fields
// rejected on decode. Durations are integer nanoseconds and floats are
// emitted in encoding/json's shortest round-trip form, so a decoded Run
// is bit-identical to the encoded one.

// runJSON is the wire form of Run.
type runJSON struct {
	App             string  `json:"app"`
	Governor        string  `json:"governor"`
	Slowdown        float64 `json:"slowdown"`
	TimeNS          int64   `json:"time_ns"`
	PkgEnergyJ      float64 `json:"pkg_energy_j"`
	DramEnergyJ     float64 `json:"dram_energy_j"`
	AvgPkgPowerW    float64 `json:"avg_pkg_power_w"`
	AvgDramPowerW   float64 `json:"avg_dram_power_w"`
	AvgCoreFreqHz   float64 `json:"avg_core_freq_hz"`
	AvgUncoreFreqHz float64 `json:"avg_uncore_freq_hz"`
}

// MarshalJSON encodes the run in the canonical wire schema.
func (r Run) MarshalJSON() ([]byte, error) {
	return json.Marshal(runJSON{
		App:             r.App,
		Governor:        r.Governor,
		Slowdown:        r.Slowdown,
		TimeNS:          int64(r.Time),
		PkgEnergyJ:      float64(r.PkgEnergy),
		DramEnergyJ:     float64(r.DramEnergy),
		AvgPkgPowerW:    float64(r.AvgPkgPower),
		AvgDramPowerW:   float64(r.AvgDramPower),
		AvgCoreFreqHz:   float64(r.AvgCoreFreq),
		AvgUncoreFreqHz: float64(r.AvgUncore),
	})
}

// UnmarshalJSON decodes the canonical wire schema, rejecting unknown
// fields.
func (r *Run) UnmarshalJSON(b []byte) error {
	run, err := DecodeRun(b, true)
	if err != nil {
		return err
	}
	*r = run
	return nil
}

// DecodeRun decodes the canonical wire schema; strict rejects unknown
// fields. A run nested in a wire envelope of a newer minor revision
// decodes with strict false, so it ignores the fields this build
// predates.
func DecodeRun(b []byte, strict bool) (Run, error) {
	decode := json.Unmarshal
	if strict {
		decode = strictUnmarshal
	}
	var in runJSON
	if err := decode(b, &in); err != nil {
		return Run{}, fmt.Errorf("metrics: decoding run: %w", err)
	}
	return Run{
		App:          in.App,
		Governor:     in.Governor,
		Slowdown:     in.Slowdown,
		Time:         time.Duration(in.TimeNS),
		PkgEnergy:    units.Energy(in.PkgEnergyJ),
		DramEnergy:   units.Energy(in.DramEnergyJ),
		AvgPkgPower:  units.Power(in.AvgPkgPowerW),
		AvgDramPower: units.Power(in.AvgDramPowerW),
		AvgCoreFreq:  units.Frequency(in.AvgCoreFreqHz),
		AvgUncore:    units.Frequency(in.AvgUncoreFreqHz),
	}, nil
}

// statJSON is the wire form of Stat.
type statJSON struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON encodes the stat in the canonical wire schema.
func (s Stat) MarshalJSON() ([]byte, error) {
	return json.Marshal(statJSON{Mean: s.Mean, Min: s.Min, Max: s.Max})
}

// UnmarshalJSON decodes the canonical wire schema.
func (s *Stat) UnmarshalJSON(b []byte) error {
	var in statJSON
	if err := strictUnmarshal(b, &in); err != nil {
		return fmt.Errorf("metrics: decoding stat: %w", err)
	}
	*s = Stat{Mean: in.Mean, Min: in.Min, Max: in.Max}
	return nil
}

// summaryJSON is the wire form of Summary.
type summaryJSON struct {
	App         string  `json:"app"`
	Governor    string  `json:"governor"`
	Slowdown    float64 `json:"slowdown"`
	N           int     `json:"n"`
	TimeS       Stat    `json:"time_s"`
	PkgPowerW   Stat    `json:"pkg_power_w"`
	DramPowerW  Stat    `json:"dram_power_w"`
	PkgEnergyJ  Stat    `json:"pkg_energy_j"`
	DramEnergyJ Stat    `json:"dram_energy_j"`
	TotalJ      Stat    `json:"total_energy_j"`
	CoreHz      Stat    `json:"core_freq_hz"`
	UncoreHz    Stat    `json:"uncore_freq_hz"`
}

// MarshalJSON encodes the summary in the canonical wire schema.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{
		App:         s.App,
		Governor:    s.Governor,
		Slowdown:    s.Slowdown,
		N:           s.N,
		TimeS:       s.Time,
		PkgPowerW:   s.PkgPower,
		DramPowerW:  s.DramPower,
		PkgEnergyJ:  s.PkgEnergy,
		DramEnergyJ: s.DramEnergy,
		TotalJ:      s.TotalEnergy,
		CoreHz:      s.CoreFreq,
		UncoreHz:    s.UncoreFreq,
	})
}

// UnmarshalJSON decodes the canonical wire schema, rejecting unknown
// fields.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var in summaryJSON
	if err := strictUnmarshal(b, &in); err != nil {
		return fmt.Errorf("metrics: decoding summary: %w", err)
	}
	*s = Summary{
		App:         in.App,
		Governor:    in.Governor,
		Slowdown:    in.Slowdown,
		N:           in.N,
		Time:        in.TimeS,
		PkgPower:    in.PkgPowerW,
		DramPower:   in.DramPowerW,
		PkgEnergy:   in.PkgEnergyJ,
		DramEnergy:  in.DramEnergyJ,
		TotalEnergy: in.TotalJ,
		CoreFreq:    in.CoreHz,
		UncoreFreq:  in.UncoreHz,
	}
	return nil
}

// strictUnmarshal unmarshals b into v rejecting unknown fields and
// trailing garbage.
func strictUnmarshal(b []byte, v any) error {
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
