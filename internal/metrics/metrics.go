// Package metrics implements the paper's measurement protocol (§V): for
// each configuration, run 10 times, drop the runs with the lowest and
// highest execution time, average the remaining 8, and report min/max
// error bars; results are expressed as ratios over the application's
// default configuration.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dufp/internal/units"
)

// Run is one completed execution of an application under a governor.
type Run struct {
	App      string
	Governor string
	Slowdown float64

	Time         time.Duration
	PkgEnergy    units.Energy
	DramEnergy   units.Energy
	AvgPkgPower  units.Power
	AvgDramPower units.Power
	AvgCoreFreq  units.Frequency
	AvgUncore    units.Frequency
}

// TotalEnergy returns processor + DRAM energy (Fig 3c's metric).
func (r Run) TotalEnergy() units.Energy { return r.PkgEnergy + r.DramEnergy }

// Stat is a mean with min/max error bars.
type Stat struct {
	Mean, Min, Max float64
}

func statOf(values []float64) Stat {
	if len(values) == 0 {
		return Stat{}
	}
	s := Stat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range values {
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(len(values))
	return s
}

// Scale returns the stat divided by ref.
func (s Stat) Scale(ref float64) Stat {
	if ref == 0 {
		return Stat{}
	}
	return Stat{Mean: s.Mean / ref, Min: s.Min / ref, Max: s.Max / ref}
}

// SavingsPercent interprets the stat as a ratio over a reference and
// returns (1-mean)·100, positive when below the reference.
func (s Stat) SavingsPercent() float64 { return (1 - s.Mean) * 100 }

// SpreadPercent returns the min-to-max spread relative to the mean, the
// paper's measurement-stability metric (§V: "the measurement difference is
// lower than 2 % for most of the configurations").
func (s Stat) SpreadPercent() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Mean * 100
}

// OverheadPercent interprets the stat as a ratio over a reference and
// returns (mean-1)·100, positive when above the reference.
func (s Stat) OverheadPercent() float64 { return (s.Mean - 1) * 100 }

// String formats the stat as mean [min, max].
func (s Stat) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", s.Mean, s.Min, s.Max)
}

// Summary aggregates repeated runs of one configuration.
type Summary struct {
	App      string
	Governor string
	Slowdown float64
	// N is the number of runs retained after outlier removal.
	N int

	Time        Stat // seconds
	PkgPower    Stat // watts (node total)
	DramPower   Stat // watts (node total)
	PkgEnergy   Stat // joules
	DramEnergy  Stat // joules
	TotalEnergy Stat // joules
	CoreFreq    Stat // hertz
	UncoreFreq  Stat // hertz
}

// Summarize applies the paper's protocol to repeated runs of a single
// configuration. With three or more runs, the runs with the lowest and
// highest execution time are dropped first.
func Summarize(runs []Run) (Summary, error) {
	if len(runs) == 0 {
		return Summary{}, fmt.Errorf("metrics: no runs to summarize")
	}
	for i, r := range runs[1:] {
		if r.App != runs[0].App || r.Governor != runs[0].Governor || r.Slowdown != runs[0].Slowdown {
			return Summary{}, fmt.Errorf("metrics: run %d (%s/%s) does not match run 0 (%s/%s)",
				i+1, r.App, r.Governor, runs[0].App, runs[0].Governor)
		}
	}

	kept := append([]Run(nil), runs...)
	if len(kept) >= 3 {
		sort.Slice(kept, func(i, j int) bool { return kept[i].Time < kept[j].Time })
		kept = kept[1 : len(kept)-1]
	}

	// statOf keeps nothing of its input, so one buffer serves every field.
	vals := make([]float64, len(kept))
	pick := func(f func(Run) float64) Stat {
		for i, r := range kept {
			vals[i] = f(r)
		}
		return statOf(vals)
	}
	return Summary{
		App:      runs[0].App,
		Governor: runs[0].Governor,
		Slowdown: runs[0].Slowdown,
		N:        len(kept),

		Time:        pick(func(r Run) float64 { return r.Time.Seconds() }),
		PkgPower:    pick(func(r Run) float64 { return float64(r.AvgPkgPower) }),
		DramPower:   pick(func(r Run) float64 { return float64(r.AvgDramPower) }),
		PkgEnergy:   pick(func(r Run) float64 { return float64(r.PkgEnergy) }),
		DramEnergy:  pick(func(r Run) float64 { return float64(r.DramEnergy) }),
		TotalEnergy: pick(func(r Run) float64 { return float64(r.TotalEnergy()) }),
		CoreFreq:    pick(func(r Run) float64 { return float64(r.AvgCoreFreq) }),
		UncoreFreq:  pick(func(r Run) float64 { return float64(r.AvgUncore) }),
	}, nil
}

// Comparison expresses a configuration as ratios over a baseline summary,
// the paper's presentation for every figure.
type Comparison struct {
	App      string
	Governor string
	Slowdown float64

	// TimeRatio > 1 is a slowdown.
	TimeRatio Stat
	// PkgPowerRatio, DramPowerRatio and TotalEnergyRatio < 1 are savings.
	PkgPowerRatio    Stat
	DramPowerRatio   Stat
	TotalEnergyRatio Stat
	// CoreFreqGHz and UncoreFreqGHz are absolute averages.
	CoreFreqGHz   float64
	UncoreFreqGHz float64
}

// Compare expresses s relative to the baseline's means.
func Compare(s, baseline Summary) Comparison {
	return Comparison{
		App:              s.App,
		Governor:         s.Governor,
		Slowdown:         s.Slowdown,
		TimeRatio:        s.Time.Scale(baseline.Time.Mean),
		PkgPowerRatio:    s.PkgPower.Scale(baseline.PkgPower.Mean),
		DramPowerRatio:   s.DramPower.Scale(baseline.DramPower.Mean),
		TotalEnergyRatio: s.TotalEnergy.Scale(baseline.TotalEnergy.Mean),
		CoreFreqGHz:      s.CoreFreq.Mean / 1e9,
		UncoreFreqGHz:    s.UncoreFreq.Mean / 1e9,
	}
}

// RespectsSlowdown reports whether the comparison's mean slowdown stays
// within the tolerance plus the given grace (the paper counts a
// configuration as respected when overhead ≤ tolerance).
func (c Comparison) RespectsSlowdown(grace float64) bool {
	return c.TimeRatio.Mean <= 1+c.Slowdown+grace
}
