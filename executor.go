package dufp

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"dufp/internal/exec"
	"dufp/internal/exec/diskcache"
	"dufp/internal/metrics"
	"dufp/internal/obs"
	"dufp/internal/sim"
)

// The run executor is the single execution path of the harness: every
// Session method and every experiment entry point submits runs to one,
// which bounds concurrency, coalesces identical in-flight runs and
// memoises completed ones (see internal/exec). These aliases expose the
// scheduler's types on the public facade.
type (
	// Executor is the shared concurrent run scheduler.
	Executor = exec.Executor
	// ExecutorStats aggregates an executor's counters.
	ExecutorStats = exec.Stats
	// ExecutorEvent is one structured scheduler progress event.
	ExecutorEvent = exec.Event
	// ExecutorOption configures NewExecutor.
	ExecutorOption = exec.Option
	// RunKey content-addresses one run inside the executor.
	RunKey = exec.Key
	// ExecutorEventKind classifies an ExecutorEvent.
	ExecutorEventKind = exec.EventKind
	// RunOutcome is one resolved submission of a batch (see
	// Session.SummarizeAll and Executor.SubmitAll).
	RunOutcome = exec.Outcome
	// DiskCacheStats aggregates the persistent run cache's counters.
	DiskCacheStats = diskcache.Stats
)

// Executor progress event kinds.
const (
	// ExecStarted fires when a run acquires a worker and begins.
	ExecStarted = exec.EventStarted
	// ExecCompleted fires when a run finishes successfully.
	ExecCompleted = exec.EventCompleted
	// ExecFailed fires when a run returns an error.
	ExecFailed = exec.EventFailed
	// ExecCached fires when a submission is served from the memo cache.
	ExecCached = exec.EventCached
	// ExecCoalesced fires when a submission joins an in-flight run.
	ExecCoalesced = exec.EventCoalesced
	// ExecDiskHit fires when a submission is served from the persistent
	// disk cache (see ExecDiskCache).
	ExecDiskHit = exec.EventDiskHit
	// ExecDiskDegraded fires once at construction when the configured
	// cache directory is unusable and the executor falls back to
	// memory-only operation.
	ExecDiskDegraded = exec.EventDiskDegraded
)

// Executor option constructors.

// ExecWorkers bounds an executor's concurrent runs; n <= 0 means
// GOMAXPROCS.
func ExecWorkers(n int) ExecutorOption { return exec.WithWorkers(n) }

// ExecCacheSize bounds an executor's completed-run LRU; n <= 0 restores
// the default (exec.DefaultCacheSize).
func ExecCacheSize(n int) ExecutorOption { return exec.WithCacheSize(n) }

// ExecObserver registers an executor's progress observer.
func ExecObserver(fn func(ExecutorEvent)) ExecutorOption { return exec.WithObserver(fn) }

// ExecDiskCache adds a persistent second cache tier under dir: completed
// runs are appended to content-addressed binary segments and reloaded by
// later processes, so a warmed directory turns whole campaigns into disk
// reads. Entries are stamped with the simulator's physics version
// (sim.PhysicsVersion) and silently invalidated when it changes; runs
// served from disk are bit-identical to fresh ones. An unusable directory
// degrades the executor to memory-only with a warning (Executor.
// DiskWarning, ExecDiskDegraded) — it never fails construction. Call
// Executor.Close to flush and fsync the cache before process exit.
func ExecDiskCache(dir string) ExecutorOption {
	return exec.WithDiskCache(dir, sim.PhysicsVersion)
}

// execWithRegistry backs ExecRegistry (see telemetry.go).
func execWithRegistry(r *obs.Registry) ExecutorOption { return exec.WithRegistry(r) }

// NewExecutor builds an isolated run executor backed by the session run
// path. Use it when cache statistics must not be shared (tests) or when a
// campaign needs its own concurrency bound; everything else should use
// SharedExecutor.
func NewExecutor(opts ...ExecutorOption) *Executor { return exec.New(executeKey, opts...) }

var (
	sharedOnce sync.Once
	sharedExec *Executor
)

// SharedExecutor returns the process-wide run executor that sessions use
// by default. Because keys are content-addressed, independent sessions
// and tables safely share it — and profit from each other's cached runs.
func SharedExecutor() *Executor {
	sharedOnce.Do(func() { sharedExec = NewExecutor() })
	return sharedExec
}

// runPayload carries the materialised inputs of one executor key. Only
// Session.Run sets rec, on a fresh submission that owns its payload,
// never on the memoised path, so payload sharing across a batch fan-out
// is race-free: runKey's payload carries no record, and a batch shares
// it across all run indices of one configuration.
type runPayload struct {
	session Session
	app     App
	// mk is the governor's constructor; nil is the baseline.
	mk GovernorFunc
	// rec, when non-nil, is the record the run fills (see runRecord).
	// Payload-only: it never joins the key's content address, because
	// observing a run does not change it.
	rec *runRecord
}

// executeKey is the Runner behind every executor built by this package.
func executeKey(ctx context.Context, key exec.Key) (metrics.Run, error) {
	p, ok := key.Payload.(*runPayload)
	if !ok {
		return metrics.Run{}, fmt.Errorf("%w: executor key %v carries no run payload", ErrBadConfig, key)
	}
	return p.session.execute(ctx, p.app, p.mk, key.Idx, p.rec)
}

// hash64 returns the FNV-1a fingerprint of s as fixed-width hex.
func hash64(s string) string {
	h := fnv.New64a()
	io.WriteString(h, s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// appFingerprint content-addresses an application: the name for
// readability plus a structure hash, so synthetic apps that reuse a name
// with different phase programs do not collide.
func appFingerprint(a App) string {
	return a.Name + "#" + hash64(fmt.Sprintf("%+v", a))
}

// appRenders memoises appFingerprint within one batch. A render is
// reused only for the same application value: equal name, class and
// description over the same phase program, the Loops slice's backing
// array and length. Never by name alone, since synthetic apps reuse
// names; and never across batches, since a caller may edit Loops in
// place between them.
type appRenders map[appIdentity]string

// appIdentity is what makes two App values one application in a batch.
type appIdentity struct {
	name, class, description string
	loops                    *Loop
	n                        int
}

// of returns appFingerprint(a), rendering it on a's first request.
func (r appRenders) of(a App) string {
	id := appIdentity{name: a.Name, class: a.Class, description: a.Description, n: len(a.Loops)}
	if id.n > 0 {
		id.loops = &a.Loops[0]
	}
	fp, ok := r[id]
	if !ok {
		fp = appFingerprint(a)
		r[id] = fp
	}
	return fp
}

// fingerprint content-addresses the session configuration. The executor
// handle is excluded: two sessions with equal configuration are the same
// computation wherever their runs are scheduled.
func (s Session) fingerprint() string {
	s.exec = nil
	return hash64(fmt.Sprintf("%+v", s))
}

// runKey is the one addressing path of every run this package submits
// or names: the content-addressed executor key of run idx of (app, gov)
// under s. sessionFP must be s.fingerprint() and appFP
// appFingerprint(app). Rendering fingerprints is the expensive part of
// addressing, so a batch renders sessionFP once and each distinct
// application once (appRenders) for all its keys, builds one key per
// configuration and copies it across the configuration's run indices,
// sharing its payload.
func (s Session) runKey(sessionFP, appFP string, app App, gov Governor, idx int) exec.Key {
	return exec.Key{
		App:      appFP,
		Governor: gov.ID(),
		Session:  sessionFP,
		Idx:      idx,
		Payload:  &runPayload{session: s, app: app, mk: gov.mk},
	}
}

// specKey is runKey for one RunSpec.
func (s Session) specKey(spec RunSpec) exec.Key {
	return s.runKey(s.fingerprint(), appFingerprint(spec.App), spec.App, spec.Governor, spec.Idx)
}

// RunID returns the stable identifier of the run spec under this
// session's configuration: a 16-hex-digit fingerprint of the content
// address (application, governor, session, run index). It is the ID the
// Run API serves runs under, and the key Executor.DiskGetByID resolves
// after a restart — two processes with the same session and spec compute
// the same ID.
func (s Session) RunID(spec RunSpec) string {
	return exec.RunID(s.specKey(spec).ID())
}

// executor returns the scheduler this session's runs submit to.
func (s Session) executor() *Executor {
	if s.exec != nil {
		return s.exec
	}
	return SharedExecutor()
}

// OnExecutor returns a copy of the session whose runs schedule on e. A
// nil e restores the shared executor.
func (s Session) OnExecutor(e *Executor) Session {
	s.exec = e
	return s
}
