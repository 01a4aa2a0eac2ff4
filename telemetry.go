package dufp

import (
	"dufp/internal/obs"
	"dufp/internal/obs/timeline"
)

// Telemetry facade: the unified observability layer of internal/obs on
// the public API. The harness's built-in instrumentation — executor
// scheduling counters and run-latency histogram, simulator tick and RAPL
// clamp counts, controller decision counters and per-phase time/energy
// attribution — publishes to Metrics(); a recorded run (WithRecord)
// reads its audit trail through RunResult.Timeline().

type (
	// MetricsRegistry is a lock-free registry of counters, gauges and
	// histograms, rendered as Prometheus text or JSON.
	MetricsRegistry = obs.Registry
	// MetricFamily is one named metric in a registry snapshot.
	MetricFamily = obs.FamilySnapshot
	// Timeline is a run's audit trail: controller decisions joined with
	// the nearest trace samples, time-ordered.
	Timeline = timeline.Timeline
	// TimelineEntry is one record of a Timeline.
	TimelineEntry = timeline.Entry
)

// Metrics returns the process-wide telemetry registry that the harness's
// built-in instrumentation publishes to. Serve it live with
// dufpbench -listen, or render it with WritePrometheus / WriteJSON.
func Metrics() *MetricsRegistry { return obs.Default() }

// NewMetricsRegistry returns an isolated registry, for tests or embedders
// that must not share the process-wide one.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ExecRegistry directs an executor's telemetry at an isolated registry
// instead of Metrics().
func ExecRegistry(r *MetricsRegistry) ExecutorOption { return execWithRegistry(r) }
