// Package sim is the discrete-time simulator of the target node: a
// multi-socket machine whose packages execute phase-structured workloads
// under the analytic power/performance model, with RAPL firmware enforcing
// power limits by DVFS every millisecond tick and all architectural state
// exposed through the MSR register file.
package sim

import (
	"fmt"
	"time"

	"dufp/internal/arch"
	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/papi"
	"dufp/internal/rapl"
	"dufp/internal/units"
)

// PhysicsVersion stamps every persisted run with the generation of the
// simulator's numerical model. Bump it whenever a change alters simulated
// results in any bit — power-model coefficients, tick integration order,
// RAPL limiter behaviour, RNG derivation — so disk-cached runs recorded
// under the old physics are invalidated instead of silently served (see
// internal/exec/diskcache and DESIGN.md §12). Purely structural changes
// that keep results bit-identical (like the event-horizon fast path) must
// NOT bump it, or warm caches would be thrown away for nothing.
const PhysicsVersion = "sim-physics-v1"

// Config parameterises a machine.
type Config struct {
	// Topo is the node topology; defaults to the paper's yeti-2.
	Topo arch.Topology
	// Power holds the power-model calibration.
	Power model.PowerParams
	// Tick is the physics step; RAPL enforcement and uncore transitions
	// advance once per tick.
	Tick time.Duration
	// Seed drives all stochastic elements (power jitter) deterministically.
	Seed int64
	// PowerJitterSD is the per-tick Gaussian jitter of package power, in
	// watts, modelling sensor and workload micro-variability.
	PowerJitterSD float64
	// IdlePower is the package draw once its workload has finished.
	IdlePower units.Power
	// MaxDuration aborts runaway runs.
	MaxDuration time.Duration
}

// DefaultConfig returns the yeti-2 configuration with a 1 ms tick.
func DefaultConfig() Config {
	return Config{
		Topo:          arch.Yeti2(),
		Power:         model.DefaultPowerParams(),
		Tick:          time.Millisecond,
		Seed:          1,
		PowerJitterSD: 0.4,
		IdlePower:     18 * units.Watt,
		MaxDuration:   30 * time.Minute,
	}
}

// Machine is one simulated node. It is not safe for concurrent use; run
// independent machines in parallel instead.
type Machine struct {
	cfg     Config
	space   *msr.Space
	sockets []*Socket
	now     time.Duration
	// stall is pending monitoring-overhead time (seconds) during which
	// the workload makes no progress.
	stall float64
	// clampTicks counts socket-ticks on which the RAPL limiter throttled
	// the delivered core frequency, flushed to the telemetry registry at
	// the end of Run.
	clampTicks int64

	// dt and tickDur are the physics step hoisted out of the tick loop:
	// cfg.Tick in seconds and the same value converted back through the
	// exact float64 expression the per-tick code historically used, so
	// both loops observe one bit pattern. tickSecs is tickDur.Seconds(),
	// the divisor of every per-tick energy/power conversion; tickDur is
	// at least 1 ns for any positive Tick, so the conversions never meet
	// the zero-duration case of units.Energy.DividedBy.
	dt       float64
	tickDur  time.Duration
	tickSecs float64

	// fast holds the per-socket constants of the event-horizon macro
	// step, sized once so the hot loop never allocates; fastTicksRun and
	// fastWindowsRun count the current run's macro-stepped ticks and
	// windows, flushed to telemetry at the end of Run.
	fast           []fastSock
	fastTicksRun   int64
	fastWindowsRun int64
	// fastProgress is the global progress rate of the currently
	// established window, stashed by establish for window.
	fastProgress float64
}

// New builds a machine and wires the architectural MSRs of every package.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("sim: tick must be positive, got %v", cfg.Tick)
	}
	if cfg.MaxDuration <= 0 {
		return nil, fmt.Errorf("sim: max duration must be positive, got %v", cfg.MaxDuration)
	}
	dt := cfg.Tick.Seconds()
	tickDur := time.Duration(dt * float64(time.Second))
	m := &Machine{
		cfg:      cfg,
		space:    msr.NewSpace(cfg.Topo.TotalCores()),
		dt:       dt,
		tickDur:  tickDur,
		tickSecs: tickDur.Seconds(),
		fast:     make([]fastSock, cfg.Topo.Sockets),
	}
	spec := cfg.Topo.Spec
	for i := 0; i < cfg.Topo.Sockets; i++ {
		s := &Socket{
			m:          m,
			id:         i,
			cpu0:       i * spec.Cores,
			spec:       spec,
			limiter:    rapl.NewLimiter(spec),
			request:    spec.MaxCoreFreq,
			coreFreq:   spec.MaxCoreFreq,
			uncoreFreq: spec.MaxUncoreFreq,
			band: msr.UncoreRatioLimit{
				Min: msr.FrequencyToRatio(spec.MinUncoreFreq),
				Max: msr.FrequencyToRatio(spec.MaxUncoreFreq),
			},
		}
		s.jitter.seed(jitterSeed(cfg.Seed, i))
		m.sockets = append(m.sockets, s)
	}
	m.wireMSRs()
	return m, nil
}

// jitterSeed derives socket i's power-jitter seed from the machine seed.
func jitterSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// Reset returns the machine to its just-constructed state under cfg
// without allocating: the MSR space, sockets, limiters and RNGs are all
// reused in place, and every RNG is reseeded exactly as New would, so a
// Reset machine produces bit-identical runs to a fresh one. It reports
// false — leaving the machine untouched — when cfg differs from the
// construction config in anything beyond Seed or PowerJitterSD, since
// topology, power model and tick are baked into wired handlers and
// hoisted constants. Callers must Load a workload before Run, as with a
// new machine.
func (m *Machine) Reset(cfg Config) bool {
	same := m.cfg
	same.Seed = cfg.Seed
	same.PowerJitterSD = cfg.PowerJitterSD
	if same != cfg {
		return false
	}
	m.cfg = cfg
	m.space.Reset()
	m.now, m.stall = 0, 0
	m.clampTicks = 0
	m.fastTicksRun, m.fastWindowsRun = 0, 0
	m.fastProgress = 0
	for i := range m.fast {
		m.fast[i] = fastSock{}
	}
	for i, s := range m.sockets {
		s.jitter.seed(jitterSeed(cfg.Seed, i))
		s.reset(nil)
	}
	return true
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// MSR returns the machine's register file, the device controllers talk to.
func (m *Machine) MSR() *msr.Space { return m.space }

// Now returns the current simulation time.
func (m *Machine) Now() time.Duration { return m.now }

// Sockets returns the number of packages.
func (m *Machine) Sockets() int { return len(m.sockets) }

// Socket returns package i.
func (m *Machine) Socket(i int) *Socket { return m.sockets[i] }

// socketOf maps a logical CPU to its package.
func (m *Machine) socketOf(cpu int) *Socket {
	return m.sockets[cpu/m.cfg.Topo.Spec.Cores]
}

// wireMSRs installs the handlers that give the architectural registers
// their behaviour.
func (m *Machine) wireMSRs() {
	sp := m.space
	spec := m.cfg.Topo.Spec

	sp.Seed(msr.MSRRaplPowerUnit, msr.DefaultUnitsValue)
	baseRatio := uint64(msr.FrequencyToRatio(spec.BaseCoreFreq))
	sp.Seed(msr.MSRPlatformInfo, baseRatio<<8)

	raplUnits := msr.DefaultUnits()
	tdpField := uint64(float64(spec.TDP) / float64(raplUnits.PowerUnit))
	sp.Seed(msr.MSRPkgPowerInfo, tdpField)

	sp.Handle(msr.MSRPkgPowerLimit, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return msr.EncodePkgPowerLimit(raplUnits, m.socketOf(cpu).limiter.Limits()), nil
		},
		Write: func(cpu int, v uint64) error {
			m.socketOf(cpu).limiter.SetLimits(msr.DecodePkgPowerLimit(raplUnits, v))
			return nil
		},
	})
	sp.Handle(msr.MSRPkgEnergyStatus, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return msr.EncodeEnergyCounter(raplUnits.EnergyUnit, m.socketOf(cpu).pkgEnergy), nil
		},
		ReadOnly: true,
	})
	sp.Handle(msr.MSRDramEnergyStatus, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return msr.EncodeEnergyCounter(msr.DramEnergyUnit, m.socketOf(cpu).dramEnergy), nil
		},
		ReadOnly: true,
	})
	// DRAM power capping is not available on the Xeon Gold 6130 (§II-B).
	sp.Handle(msr.MSRDramPowerLimit, msr.Handler{
		Read: func(int) (uint64, error) { return 0, nil },
		Write: func(int, uint64) error {
			return fmt.Errorf("%w: DRAM power limit not supported on this model", msr.ErrReadOnly)
		},
	})
	sp.Handle(msr.MSRUncoreRatioLimit, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return msr.EncodeUncoreRatioLimit(m.socketOf(cpu).band), nil
		},
		Write: func(cpu int, v uint64) error {
			s := m.socketOf(cpu)
			l := msr.DecodeUncoreRatioLimit(v)
			if l.Min > l.Max {
				return fmt.Errorf("sim: inverted uncore band %d..%d", l.Min, l.Max)
			}
			s.band = l
			return nil
		},
	})
	sp.Handle(msr.MSRUncorePerfStatus, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return uint64(msr.FrequencyToRatio(m.socketOf(cpu).uncoreFreq)), nil
		},
		ReadOnly: true,
	})
	sp.Handle(msr.IA32PerfStatus, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return uint64(msr.FrequencyToRatio(m.socketOf(cpu).coreFreq)) << 8, nil
		},
		ReadOnly: true,
	})
	sp.Handle(msr.IA32PerfCtl, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return uint64(msr.FrequencyToRatio(m.socketOf(cpu).request)) << 8, nil
		},
		Write: func(cpu int, v uint64) error {
			s := m.socketOf(cpu)
			s.request = s.spec.ClampCoreFreq(msr.RatioToFrequency(uint8(v >> 8 & 0x7F)))
			return nil
		},
	})
	sp.Handle(msr.IA32APerf, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return uint64(m.socketOf(cpu).aperf), nil
		},
		ReadOnly: true,
	})
	sp.Handle(msr.IA32MPerf, msr.Handler{
		Read: func(cpu int) (uint64, error) {
			return uint64(m.socketOf(cpu).mperf), nil
		},
		ReadOnly: true,
	})
}

// Load assigns the same phase sequence to every socket (the SPMD execution
// of the paper's OpenMP/MPI benchmarks across the four packages).
func (m *Machine) Load(phases []model.PhaseShape) error {
	if len(phases) == 0 {
		return fmt.Errorf("sim: empty phase sequence")
	}
	spec := m.cfg.Topo.Spec
	compiled := make([]model.Kinetics, len(phases))
	for i, ph := range phases {
		k, err := model.Compile(spec, ph)
		if err != nil {
			return fmt.Errorf("sim: phase %d: %w", i, err)
		}
		compiled[i] = k
	}
	for _, s := range m.sockets {
		s.reset(compiled)
	}
	m.now = 0
	m.stall = 0
	return nil
}

// done reports whether every socket has finished its workload.
func (m *Machine) done() bool {
	for _, s := range m.sockets {
		if !s.done {
			return false
		}
	}
	return true
}

var _ papi.Source = (*Socket)(nil)
