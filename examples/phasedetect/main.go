// Command phasedetect builds a custom synthetic application with the public
// API — alternating compute-bound and highly memory-intensive phases — runs
// DUFP on it, and prints a timeline showing how the controller detects each
// phase change, resets both levers and re-descends.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dufp"
)

func main() {
	app := dufp.App{
		Name:        "SYNTH",
		Class:       "demo",
		Description: "alternating compute and highly-memory phases",
		Loops: []dufp.Loop{{
			Count: 6,
			Body: []dufp.PhaseShape{
				{
					Name:         "synth.compute",
					FlopFrac:     0.30,
					MemFrac:      0.20,
					ComputeShare: 0.90,
					Overlap:      0.40,
					Duration:     2 * time.Second,
				},
				{
					Name:         "synth.stream",
					FlopFrac:     0.0006,
					MemFrac:      0.88,
					ComputeShare: 0.03,
					Overlap:      0.30,
					BWUncoreKnee: 2.0 * dufp.Gigahertz,
					Duration:     2 * time.Second,
				},
			},
		}},
	}
	if err := app.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	session := dufp.NewSession(dufp.WithSeed(42))
	cfg := dufp.DefaultControlConfig(0.10)
	traced, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUFP(cfg)}, dufp.WithRecord())
	if err != nil {
		log.Fatal(err)
	}
	run, rec, events := traced.Run, traced.Trace, traced.Events
	baseRes, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		log.Fatal(err)
	}
	base := baseRes.Run

	fmt.Printf("SYNTH under DUFP @10%%: %.2f s (default %.2f s, %+.2f %%), power %.1f W (default %.1f W, %+.1f %%)\n\n",
		run.Time.Seconds(), base.Time.Seconds(),
		(run.Time.Seconds()/base.Time.Seconds()-1)*100,
		float64(run.AvgPkgPower), float64(base.AvgPkgPower),
		(float64(run.AvgPkgPower)/float64(base.AvgPkgPower)-1)*100)

	// The controller's own account of its decisions.
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind.String()]++
	}
	fmt.Printf("controller decision log (socket 0): %d events\n", len(events))
	for _, kind := range []string{"phase-change", "cap-lower", "cap-raise", "cap-reset", "uncore-lower", "uncore-raise", "power-over-cap", "rule-1", "rule-2"} {
		if counts[kind] > 0 {
			fmt.Printf("  %-14s %d\n", kind, counts[kind])
		}
	}
	fmt.Println()

	fmt.Println("timeline (socket 0): cap and uncore react to each phase change")
	fmt.Println("  time    cap      uncore   power    bandwidth")
	i := 0
	for p := range rec.Points(0) {
		if i%40 != 0 { // every 400 ms
			i++
			continue
		}
		i++
		bar := ""
		if p.Bandwidth > 40e9 {
			bar = "  <- memory phase"
		}
		fmt.Printf("  %5.1fs  %5.0f W  %.1f GHz  %5.1f W  %6.1f GB/s%s\n",
			p.Time.Seconds(), p.CapPL1.Watts(), p.UncoreFreq.GHz(),
			p.PkgPower.Watts(), p.Bandwidth.GBs(), bar)
	}
}
