package dufp_test

import (
	"context"
	"runtime"
	"testing"

	"dufp"
)

// TestPlainRunAllocates pins what a plain governed run costs the heap
// once its worker slot is warm: the slot's machine and generators are
// reseeded in place, and the controllers keep no decision log that
// nobody reads.
func TestPlainRunAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("heap counts under the race detector")
	}
	app, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	s := dufp.NewSession().OnExecutor(dufp.NewExecutor(dufp.ExecWorkers(1)))
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	ctx := context.Background()
	if _, err := s.Run(ctx, spec); err != nil { // warms the slot
		t.Fatal(err)
	}
	spec.Idx = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = s.Run(ctx, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 96<<10 {
		t.Errorf("a plain CG/DUFP@10%% run allocated %d KiB, want < 96 KiB", b>>10)
	}
}
