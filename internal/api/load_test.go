package api_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/api/client"
	"dufp/internal/obs/span"
)

// queueWaitBudget bounds the p99 queue wait of a Fig-3 grid's runs. An
// idle two-vCPU host reads 45–90 ms, so a p99 past it means queued jobs
// are starving behind dispatch.
const queueWaitBudget = 600 * time.Millisecond

// TestGridQueueWaitBudget puts a Fig-3 grid through an idle daemon and
// then concurrent clients over the warm campaign. The grid's runs must
// leave the queue within the budget, by their span traces, and every
// client request must succeed. The budget is skipped under the race
// detector, whose slowdown is not the daemon's; the clients still run.
func TestGridQueueWaitBudget(t *testing.T) {
	const (
		clients  = 32
		requests = 30 // per client
	)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Two executor workers, so four dispatchers on any host.
	exe := dufp.NewExecutor(dufp.ExecWorkers(2))
	defer exe.Close()
	d, err := api.New(api.Config{
		Session:  dufp.NewSession(),
		Executor: exe,
		Registry: dufp.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.FullHandler())
	defer srv.Close()
	c := client.New(srv.URL)

	accepted, err := c.SubmitCampaign(ctx, api.CampaignSpec{
		V: dufp.WireVersion, Kind: api.KindGrid, Apps: []string{"CG"}, Runs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitCampaign(ctx, accepted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// CG × {baseline, DUF and DUFP at 0/5/10/20 %} × 2 runs.
	if final.State != api.StateDone || final.Total != 18 || len(final.RunIDs) != 18 {
		t.Fatalf("grid campaign = %+v", final)
	}

	waits := make([]time.Duration, 0, len(final.RunIDs))
	for _, id := range final.RunIDs {
		tr, ok := d.Spans().Get(id)
		if !ok {
			t.Fatalf("run %s has no span trace", id)
		}
		waits = append(waits, tr.Summary().Stage(span.StageQueue))
	}
	slices.Sort(waits)
	p99 := waits[int(0.99*float64(len(waits)-1))]
	t.Logf("queue wait over %d runs: p50 %v, p99 %v", len(waits), waits[len(waits)/2], p99)
	if !api.RaceEnabled && p99 > queueWaitBudget {
		t.Errorf("queue wait p99 %v exceeds the %v budget: queued jobs starve behind dispatch", p99, queueWaitBudget)
	}

	// The clients' mix over the warm campaign: resubmit one of its runs,
	// read one, read the campaign. Every answer is the done state.
	cg, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	govs := []dufp.Governor{dufp.Baseline()}
	for _, tol := range []float64{0, 0.05, 0.10, 0.20} {
		cfg := dufp.DefaultControlConfig(tol)
		govs = append(govs, dufp.DUF(cfg), dufp.DUFP(cfg))
	}
	var specs []dufp.RunSpec
	for _, gov := range govs {
		for i := 0; i < 2; i++ {
			specs = append(specs, dufp.RunSpec{App: cg, Governor: gov, Idx: i})
		}
	}
	member := make(map[string]bool, len(final.RunIDs))
	for _, id := range final.RunIDs {
		member[id] = true
	}
	doneRun := func(st api.RunStatus, err error) error {
		if err == nil && (!member[st.ID] || st.State != api.StateDone) {
			err = fmt.Errorf("run %s answered state %q", st.ID, st.State)
		}
		return err
	}
	doneCampaign := func(st api.CampaignStatus, err error) error {
		if err == nil && (st.ID != final.ID || st.State != api.StateDone || st.Done != final.Total) {
			err = fmt.Errorf("campaign %s answered state %q with %d runs done", st.ID, st.State, st.Done)
		}
		return err
	}

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				var err error
				switch (w + i) % 3 {
				case 0:
					err = doneRun(c.SubmitRun(ctx, specs[(w*7+i)%len(specs)]))
				case 1:
					err = doneRun(c.Run(ctx, final.RunIDs[(w*5+i)%len(final.RunIDs)]))
				default:
					err = doneCampaign(c.Campaign(ctx, final.ID))
				}
				if err != nil {
					errs <- fmt.Errorf("client %d, request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
