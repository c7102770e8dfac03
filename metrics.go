// Consolidated engine observability: the one Metrics() snapshot of every
// engine counter (Rebuilds and SnapshotStats remain as single-number
// accessors reading the same instruments), and the Prometheus text
// exporter behind the /metrics debug endpoint.
package fastliveness

import (
	"io"

	"fastliveness/internal/telemetry"
)

// Tracer is the engine's lifecycle hook interface; see
// telemetry.Tracer for the callback contract (fast, non-blocking, no
// calls back into the engine). Set one via EngineConfig.Tracer; embed
// NopTracer to implement a subset.
type Tracer = telemetry.Tracer

// NopTracer ignores every trace event; it is the default when
// EngineConfig.Tracer is nil and the embedding base for partial tracers.
type NopTracer = telemetry.NopTracer

// HistogramSnapshot is a point-in-time latency distribution with
// P50/P90/P99/P999, Count/Sum and element-wise Merge; see
// telemetry.HistogramSnapshot.
type HistogramSnapshot = telemetry.HistogramSnapshot

// engineMetrics is the engine's atomic instrument block. Everything here
// is written with lock-free atomic operations from the hot paths and read
// by Metrics()/WriteMetrics; none of it takes the engine mutex.
type engineMetrics struct {
	// builds counts runBuild executions: first builds, eviction refills,
	// staleness rebuilds — every analysis execution, successful or not
	// (snapshot hits count too; Snapshot.Computes is the full-precompute
	// subset).
	builds telemetry.Counter
	// buildNs observes each build's wall-clock nanoseconds.
	buildNs telemetry.Histogram
	// queries counts individual liveness questions answered: one per entry
	// of every batch, one per Oracle query.
	queries telemetry.Counter
	// batches counts batched query executions.
	batches telemetry.Counter
	// batchNs observes each batch execution's wall-clock nanoseconds
	// (query execution only, not the analysis fetch).
	batchNs telemetry.Histogram
	// quarantined gauges how many functions are currently quarantined
	// (a panicking build recorded, not yet cleared by an edit or
	// Invalidate).
	quarantined telemetry.Gauge
	// rebuilds counts staleness-forced re-analyses paid on the query path.
	rebuilds telemetry.Counter
	// Snapshot-tier latency (the hit/miss/store counts live in
	// snapshotCounters, surfaced as SnapshotStats).
	snapLoadNs telemetry.Histogram
	snapSaveNs telemetry.Histogram
}

// EngineMetrics is one consistent-enough snapshot of everything the
// engine counts: the struct behind livecheck -stats, and the data the /metrics endpoint
// renders. Counters are read atomically; fields sourced from different
// instruments may be skewed by in-flight operations (this is a health
// summary, not a transaction log).
type EngineMetrics struct {
	// Funcs is the number of registered functions; Resident of them have
	// a cached analysis right now. Exact at the moment of the snapshot.
	Funcs    int
	Resident int

	// Builds counts analysis executions engine-wide (every build path;
	// see BuildNs for their latency). Queries counts individual liveness
	// questions answered (batch entries + Oracle queries); Batches counts
	// batched executions.
	Builds  int64
	Queries int64
	Batches int64

	// Rebuilds counts staleness-forced re-analyses paid on the query path
	// (the paper's asymmetry, see Engine.Rebuilds).
	Rebuilds int

	// Quarantined is how many functions are currently failing fast after
	// a panicking build (ErrQuarantined) and have not been edited or
	// invalidated since.
	Quarantined int

	// Snapshot is the disk tier's traffic (hits, misses, stores, computes,
	// bytes) — SnapshotStats verbatim. SnapshotGCRuns/SnapshotGCNs count
	// the store directory's byte-budget GC passes and their cumulative
	// nanoseconds.
	Snapshot       SnapshotStats
	SnapshotGCRuns int
	SnapshotGCNs   int64

	// Latency distributions, in nanoseconds: analysis builds, batched
	// query executions, and snapshot-tier loads and saves. Mergeable
	// across engines with HistogramSnapshot.Merge.
	BuildNs        HistogramSnapshot
	BatchNs        HistogramSnapshot
	SnapshotLoadNs HistogramSnapshot
	SnapshotSaveNs HistogramSnapshot
}

// Metrics returns a snapshot of every engine counter, gauge and latency
// histogram. Safe to call concurrently with queries, edits and rebuilds;
// every counter is an atomic read, and the cost is dominated by four
// histogram copies.
func (e *Engine) Metrics() EngineMetrics {
	m := EngineMetrics{
		Resident: int(e.resident.Load()),

		Builds:  e.met.builds.Load(),
		Queries: e.met.queries.Load(),
		Batches: e.met.batches.Load(),

		Rebuilds:    int(e.met.rebuilds.Load()),
		Quarantined: int(e.met.quarantined.Load()),

		Snapshot: e.SnapshotStats(),

		BuildNs:        e.met.buildNs.Snapshot(),
		BatchNs:        e.met.batchNs.Snapshot(),
		SnapshotLoadNs: e.met.snapLoadNs.Snapshot(),
		SnapshotSaveNs: e.met.snapSaveNs.Snapshot(),
	}
	e.regMu.Lock()
	m.Funcs = len(e.funcs)
	e.regMu.Unlock()
	if ss := e.config.SnapshotStore; ss != nil {
		m.SnapshotGCRuns, m.SnapshotGCNs = ss.store.GCStats()
	}
	return m
}

// WriteMetrics writes the engine's metrics in Prometheus text exposition
// format (the payload of the /metrics debug endpoint). Output passes
// telemetry.CheckExposition; series names are stable API once scraped, so
// additions are fine and renames are not.
func (e *Engine) WriteMetrics(w io.Writer) {
	m := e.Metrics()
	WriteEngineMetrics(w, m)
}

// WriteEngineMetrics renders an already-taken metrics snapshot — split
// from WriteMetrics so end-of-run reporters can snapshot once and both
// print and export.
func WriteEngineMetrics(w io.Writer, m EngineMetrics) {
	g := func(name, help string, v int64) { telemetry.WriteGauge(w, "fastliveness_engine_"+name, help, v) }
	c := func(name, help string, v int64) { telemetry.WriteCounter(w, "fastliveness_engine_"+name, help, v) }
	h := func(name, help string, s HistogramSnapshot) {
		telemetry.WriteHistogram(w, "fastliveness_engine_"+name, help, s)
	}
	g("funcs", "registered functions", int64(m.Funcs))
	g("resident", "functions with a cached analysis", int64(m.Resident))
	c("builds_total", "analysis builds executed", m.Builds)
	c("queries_total", "individual liveness queries answered", m.Queries)
	c("batches_total", "batched query executions", m.Batches)
	c("query_rebuilds_total", "staleness rebuilds paid on the query path", int64(m.Rebuilds))
	g("quarantined", "functions currently quarantined after a panicking build", int64(m.Quarantined))
	c("snapshot_hits_total", "builds served by a validated snapshot load", m.Snapshot.Hits)
	c("snapshot_misses_total", "builds that fell through to a full precompute", m.Snapshot.Misses)
	c("snapshot_stores_total", "snapshots written back to disk", m.Snapshot.Stores)
	c("computes_total", "full precomputes executed", m.Snapshot.Computes)
	c("snapshot_loaded_bytes_total", "snapshot bytes read on hits", m.Snapshot.LoadedBytes)
	c("snapshot_stored_bytes_total", "snapshot bytes written on stores", m.Snapshot.StoredBytes)
	c("snapshot_decoded_cache_hits_total", "store loads absorbed by the in-process decoded cache", m.Snapshot.DecodedCacheHits)
	c("snapshot_decoded_cache_misses_total", "store loads that touched a snapshot file", m.Snapshot.DecodedCacheMisses)
	c("snapshot_section_scans_total", "per-section checksum scans run", m.Snapshot.SectionScans)
	c("snapshot_section_skips_total", "per-section checksum scans avoided", m.Snapshot.SectionSkips)
	c("snapshot_gc_runs_total", "snapshot directory byte-budget GC passes", int64(m.SnapshotGCRuns))
	c("snapshot_gc_ns_total", "cumulative snapshot GC nanoseconds", m.SnapshotGCNs)
	h("build_ns", "analysis build latency in nanoseconds", m.BuildNs)
	h("batch_ns", "batched query execution latency in nanoseconds", m.BatchNs)
	h("snapshot_load_ns", "snapshot load latency in nanoseconds", m.SnapshotLoadNs)
	h("snapshot_save_ns", "snapshot save latency in nanoseconds", m.SnapshotSaveNs)
}
