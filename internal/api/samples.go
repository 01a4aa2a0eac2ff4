package api

import (
	"dufp/internal/sim"
	"dufp/internal/trace"
)

// SamplePoint is the wire form of one trace sample, the tracePointJSON
// vocabulary of wire v1 (time_ns, core_hz, …).
type SamplePoint struct {
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

func samplePoint(p sim.TracePoint) SamplePoint {
	return SamplePoint{
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

// RunSamples is the wire form of one page of GET /v1/runs/{id}/samples.
type RunSamples struct {
	ID string `json:"id"`
	// Socket is the socket this page covers; Sockets counts those that
	// have produced samples.
	Socket  int `json:"socket"`
	Sockets int `json:"sockets"`
	// Seen is the total number of samples the socket has produced;
	// Stride is the reservoir's decimation factor (1: the retained view
	// is lossless so far).
	Seen   int64 `json:"seen"`
	Stride int   `json:"stride"`
	// Total is the number of retained samples; Offset/Next delimit this
	// page within them. Next is -1 on the last page.
	Total  int           `json:"total"`
	Offset int           `json:"offset"`
	Next   int           `json:"next"`
	Points []SamplePoint `json:"points"`
}

// pageSamples cuts the requested page of one socket's retained view in
// one locked read of the reservoir. limit <= 0 means the remainder.
func pageSamples(id string, r *trace.Reservoir, socket, offset, limit int) RunSamples {
	pg := r.Page(socket, offset, limit)
	out := RunSamples{
		ID:      id,
		Socket:  socket,
		Sockets: pg.Sockets,
		Seen:    pg.Seen,
		Stride:  pg.Stride,
		Total:   pg.Total,
		Offset:  pg.Offset,
		Next:    -1,
		Points:  make([]SamplePoint, len(pg.Points)),
	}
	if end := pg.Offset + len(pg.Points); end < pg.Total {
		out.Next = end
	}
	for i, p := range pg.Points {
		out.Points[i] = samplePoint(p)
	}
	return out
}
