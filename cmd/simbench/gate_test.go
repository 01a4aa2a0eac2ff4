package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, rep report) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fleetReport(cpus int, speedup, warm float64) report {
	return report{
		BenchCPUs:                cpus,
		FleetGridRuns:            1000,
		FleetGridWallSecondsP1:   8.0,
		FleetGridWallSecondsP8:   8.0 / speedup,
		FleetGridSpeedupP8:       speedup,
		FleetGridWallWarmSeconds: warm,
	}
}

func TestScalingGateEnforcesSpeedupFloor(t *testing.T) {
	base := writeBaseline(t, fleetReport(8, 4.0, 0.5))

	// Enough CPUs, speedup below floor: must fail.
	err := gateScalingAgainst(base, fleetReport(8, 1.1, 0.5))
	if err == nil || !strings.Contains(err.Error(), "fleet_grid_speedup_p8") {
		t.Fatalf("gate accepted a 1.1x speedup on an 8-CPU host: %v", err)
	}

	// Enough CPUs, healthy speedup: must pass.
	if err := gateScalingAgainst(base, fleetReport(8, 3.9, 0.5)); err != nil {
		t.Fatalf("gate rejected a 3.9x speedup: %v", err)
	}

	// Too few CPUs: the floor is skipped — the measurement is hardware-
	// bound — but the gate still runs the warm-replay bound.
	if err := gateScalingAgainst(base, fleetReport(1, 1.0, 0.5)); err != nil {
		t.Fatalf("gate enforced the floor on a 1-CPU host: %v", err)
	}
}

func TestScalingGateEnforcesWarmReplay(t *testing.T) {
	base := writeBaseline(t, fleetReport(8, 4.0, 0.5))

	// Warm replay within headroom: pass.
	if err := gateScalingAgainst(base, fleetReport(1, 1.0, 0.74)); err != nil {
		t.Fatalf("gate rejected warm replay within headroom: %v", err)
	}
	// Past headroom: fail, on any host — cache reads do not need cores.
	err := gateScalingAgainst(base, fleetReport(1, 1.0, 0.76))
	if err == nil || !strings.Contains(err.Error(), "warm fleet replay") {
		t.Fatalf("gate accepted a warm replay past headroom: %v", err)
	}

	// Different fleet size than baseline: the bound is skipped loudly
	// rather than comparing incomparable walls.
	cur := fleetReport(1, 1.0, 99.0)
	cur.FleetGridRuns = 100
	if err := gateScalingAgainst(base, cur); err != nil {
		t.Fatalf("gate compared warm walls across fleet sizes: %v", err)
	}
}

func TestScalingGateNeedsFleetMeasurement(t *testing.T) {
	base := writeBaseline(t, fleetReport(8, 4.0, 0.5))
	if err := gateScalingAgainst(base, report{BenchCPUs: 8}); err == nil {
		t.Fatal("gate passed a report with no fleet-grid measurement")
	}
}

func memReport(x1, x100, rss float64) report {
	return report{RunPeakAllocBytes1x: x1, RunPeakAllocBytes10x: x100, RunPeakAllocBytes100x: x100, CampaignPeakRSSBytes: rss}
}

func TestMemGateEnforcesBounds(t *testing.T) {
	base := writeBaseline(t, report{RunPeakAllocBytes100x: 4 << 20, CampaignPeakRSSBytes: 60e6})
	tests := []struct {
		name string
		cur  report
		want string // "" passes, else a substring of the error
	}{
		{"healthy", memReport(600, 728, 50e6), ""},
		{"100x at the flatness bound", memReport(2<<20, 1.25*(2<<20)+1<<20, 50e6), ""},
		{"100x past the flatness bound", memReport(2<<20, 1.25*(2<<20)+1<<20+1, 50e6), "no longer O(1)"},
		{"100x at 2x baseline", memReport(7<<20, 8<<20, 50e6), ""},
		{"100x past 2x baseline", memReport(7<<20, 8<<20+1, 50e6), "regressed past 2.0× baseline"},
		{"rss at 1.5x baseline", memReport(600, 728, 90e6), ""},
		{"rss past 1.5x baseline", memReport(600, 728, 90e6+1), "campaign_peak_rss_bytes"},
	}
	for _, tc := range tests {
		err := gateMem(base, tc.cur)
		if tc.want == "" && err != nil {
			t.Errorf("%s: gate failed: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	// A baseline without memory fields bounds nothing but flatness, which
	// needs no baseline.
	empty := writeBaseline(t, report{})
	if err := gateMem(empty, memReport(7<<20, 8<<20, 1e12)); err != nil {
		t.Errorf("gate enforced a bound the baseline does not carry: %v", err)
	}
	if err := gateMem(empty, memReport(600, 2<<20, 50e6)); err == nil {
		t.Error("gate skipped the flatness bound for a baseline without memory fields")
	}
}

func TestCacheGateEnforcesReadFloor(t *testing.T) {
	base := writeBaseline(t, report{DiskCacheReadRunsPerS: 800_000})
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{1_000_000, true},
		{400_000, true},
		{399_999, false},
		{0, false},
	} {
		err := gateCache(base, report{DiskCacheReadRunsPerS: tc.rate})
		if tc.ok && err != nil {
			t.Errorf("%.0f runs/s: gate failed: %v", tc.rate, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "disk_cache_read_runs_per_s")) {
			t.Errorf("%.0f runs/s against an 800k baseline: err = %v", tc.rate, err)
		}
	}
	if err := gateCache(writeBaseline(t, report{}), report{DiskCacheReadRunsPerS: 1}); err != nil {
		t.Errorf("gate enforced a floor the baseline does not carry: %v", err)
	}
}
