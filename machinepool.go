package dufp

import (
	"context"
	"math/rand"

	"dufp/internal/exec"
	"dufp/internal/sim"
)

// The facade's entries in a worker slot's scratch arena (see
// exec.Scratch): the pooled simulator and the pooled generators of the
// slot's runs.
const (
	scratchMachineKey = "sim.machine"
	scratchGensKey    = "dufp.generators"
)

// machineFor returns a machine configured as cfg. When ctx belongs to a
// run executing on an executor worker, the worker slot's pooled machine
// is reclaimed in place — MSR space, sockets, limiters, RNG streams all
// reset to factory state, bit-identical to a fresh build (see
// sim.Machine.Reset and its identity test) — which removes the dominant
// per-run allocation from campaign hot paths. A pooled machine whose
// construction-time config is incompatible with cfg, or a run outside
// the executor, falls back to sim.New; the fresh machine is parked in
// the arena for the slot's next run.
//
// The machine never escapes the run that reclaimed it: results are
// values and run artifacts own their state, so handing the same machine
// to the slot's next run is safe under the scratch single-owner rule.
func machineFor(ctx context.Context, cfg sim.Config) (*sim.Machine, error) {
	sc := exec.ScratchFromContext(ctx)
	if m, ok := sc.Get(scratchMachineKey).(*sim.Machine); ok && m.Reset(cfg) {
		return m, nil
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	sc.Put(scratchMachineKey, m) // nil-safe no-op outside a worker
	return m, nil
}

// generators are a run's math/rand generators: one for App.Unroll and
// one per socket's PAPI monitor, each a 4.9 KB source. On an executor
// worker they are the slot's, reseeded in place for each run; outside
// one every generator is fresh. Like the machine, a generator never
// escapes the run that seeded it.
type generators struct {
	pool []*rand.Rand
}

// generatorsFor returns the worker slot's generators when ctx belongs to
// a run executing on an executor worker, and an empty set otherwise.
func generatorsFor(ctx context.Context) *generators {
	sc := exec.ScratchFromContext(ctx)
	if g, ok := sc.Get(scratchGensKey).(*generators); ok {
		return g
	}
	g := &generators{}
	sc.Put(scratchGensKey, g) // nil-safe no-op outside a worker
	return g
}

// seeded returns generator i seeded with seed. Reseeding with
// (*rand.Rand).Seed restores exactly the state rand.NewSource(seed)
// builds, so a reused generator draws what a fresh one would.
func (g *generators) seeded(i int, seed int64) *rand.Rand {
	for len(g.pool) <= i {
		g.pool = append(g.pool, nil)
	}
	if r := g.pool[i]; r != nil {
		r.Seed(seed)
		return r
	}
	r := rand.New(rand.NewSource(seed))
	g.pool[i] = r
	return r
}
