// Package trace records per-socket time series (frequencies, power, caps)
// during a run, the data behind the paper's Fig 5, and renders them as CSV
// or as summary statistics.
//
// A Sink sees each sample once, as the simulator produces it, and keeps
// only what it needs (sink.go): Reservoir retains the series — bounded
// and decimated, or lossless when sized to the run — Summarizer and
// WindowStats aggregate in O(1) memory, CSVSink writes rows, and Tee
// composes them.
package trace

import (
	"fmt"
	"io"
	"iter"
	"time"

	"dufp/internal/sim"
	"dufp/internal/units"
)

// AvgCoreFreq returns the average delivered core frequency of a socket's
// series, the Fig 5 headline number.
func AvgCoreFreq(points []sim.TracePoint) units.Frequency {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range points {
		sum += float64(p.CoreFreq)
	}
	return units.Frequency(sum / float64(len(points)))
}

// AvgPower returns the average package power of a series.
func AvgPower(points []sim.TracePoint) units.Power {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range points {
		sum += float64(p.PkgPower)
	}
	return units.Power(sum / float64(len(points)))
}

// csvHeader and csvRowFormat define the one CSV dialect every trace
// renderer shares — WriteCSV, WriteCSVSeq and the streaming CSVSink —
// so their outputs are byte-identical for the same samples.
const (
	csvHeader    = "time_s,core_ghz,uncore_ghz,pkg_w,dram_w,cap_pl1_w,cap_pl2_w,bw_gbs"
	csvRowFormat = "%.3f,%.2f,%.2f,%.2f,%.2f,%.1f,%.1f,%.2f\n"
)

// writeCSVRow renders one sample in the shared CSV dialect.
func writeCSVRow(w io.Writer, p sim.TracePoint) error {
	_, err := fmt.Fprintf(w, csvRowFormat,
		p.Time.Seconds(), p.CoreFreq.GHz(), p.UncoreFreq.GHz(),
		p.PkgPower.Watts(), p.DramPower.Watts(),
		p.CapPL1.Watts(), p.CapPL2.Watts(), p.Bandwidth.GBs())
	return err
}

// WriteCSV renders one socket's series with a header row. Times are in
// seconds, frequencies in GHz, powers in watts.
func WriteCSV(w io.Writer, points []sim.TracePoint) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, p := range points {
		if err := writeCSVRow(w, p); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVSeq renders an iterator of samples in the same dialect as
// WriteCSV: byte-identical output for the same points, but fed from any
// source — a Reservoir socket or a custom stream.
func WriteCSVSeq(w io.Writer, points iter.Seq[sim.TracePoint]) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for p := range points {
		if err := writeCSVRow(w, p); err != nil {
			return err
		}
	}
	return nil
}

// Downsample keeps roughly every n-th point, preserving the first and
// last, for compact plotting.
func Downsample(points []sim.TracePoint, n int) []sim.TracePoint {
	if n <= 1 || len(points) <= 2 {
		return points
	}
	out := make([]sim.TracePoint, 0, len(points)/n+2)
	for i := 0; i < len(points); i += n {
		out = append(out, points[i])
	}
	if last := points[len(points)-1]; len(out) == 0 || out[len(out)-1].Time != last.Time {
		out = append(out, last)
	}
	return out
}

// Window returns the sub-series within [from, to).
func Window(points []sim.TracePoint, from, to time.Duration) []sim.TracePoint {
	var out []sim.TracePoint
	for _, p := range points {
		if p.Time >= from && p.Time < to {
			out = append(out, p)
		}
	}
	return out
}
