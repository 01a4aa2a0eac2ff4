package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLIRejectsMissingOrUnknownMode(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"sim"},
		{"-short"},
		{"mem", "cache"},
		{"mem", "-gate", "baseline.json"}, // flags go before the mode
		{"-compare", "baseline.json", "mem"},
	} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("simbench %q exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: simbench") {
			t.Errorf("simbench %q printed no usage: %q", args, stderr.String())
		}
	}
}

// TestCLIEachModeAppliesItsOwnGate runs every mode at its short size
// against a baseline that only that mode's gate rejects, on any host:
// the mode must fail its own gate, and its report must hold its own
// fields and no other mode's.
func TestCLIEachModeAppliesItsOwnGate(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		baseline report
		prefixes []string // of the report's measured fields
	}{
		{"mem", report{CampaignPeakRSSBytes: 1}, []string{"run_peak_alloc_bytes_", "campaign_peak_rss_bytes"}},
		{"cache", report{DiskCacheReadRunsPerS: 1e15}, []string{"disk_cache_"}},
		{"fleet", report{FleetGridRuns: fleetGridRunsShort, FleetGridWallWarmSeconds: 1e-12}, []string{"fleet_grid_", "bench_cpus"}},
	} {
		out := filepath.Join(t.TempDir(), "report.json")
		var stderr bytes.Buffer
		if code := run([]string{"-short", "-out", out, "-gate", writeBaseline(t, tc.baseline), tc.mode}, &stderr); code != 1 {
			t.Errorf("%s against its own violated bound exited %d, want 1 (%s)", tc.mode, code, stderr.String())
		}
		if want := "simbench: " + tc.mode + " gate:"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s failed with %q, want its own gate's error %q", tc.mode, stderr.String(), want)
		}

		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		measured := 0
		for key := range fields {
			if key == "go_version" {
				continue
			}
			own := false
			for _, p := range tc.prefixes {
				own = own || strings.HasPrefix(key, p)
			}
			if !own {
				t.Errorf("%s report carries another mode's field %q", tc.mode, key)
			}
			measured++
		}
		if measured == 0 {
			t.Errorf("%s report measured nothing: %s", tc.mode, raw)
		}
	}
}
