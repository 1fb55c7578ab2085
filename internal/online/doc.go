// Package online closes the paper's profile → advise loop at runtime: it
// turns the one-shot pipeline of §3.4 (profile offline, search once, deploy
// forever) into a continuously operating advisor for workloads that drift —
// the HTAP oscillation between transactional and analytical phases that the
// related work frames as the normal case, not the exception.
//
// The subsystem has three parts, composed by Manager:
//
//   - Collector accumulates a live workload profile in rolling windows. It
//     implements the engine's I/O-charge interfaces (bufferpool.IOCharger,
//     iosim.Charger), so installing it as the engine's tap
//     (engine.DB.SetTap) makes the running workload profile itself as a
//     side effect of execution — every buffer-pool miss and row write is
//     mirrored into the current window. Windows can also be ingested whole
//     (Collector.Observe), which is how dotserve's /observe endpoint feeds
//     remotely captured profiles.
//
//   - Detector decides whether the observed profile has drifted from the
//     profile the deployed layout was optimized for. The cheap gate is a
//     workload.Fingerprint comparison (equal digests → provably no drift);
//     past it, the detector computes the relative I/O-time divergence of
//     the two profiles under the deployed layout — the service-time-
//     weighted L1 distance between the rate-normalized profiles, divided
//     by the reference profile's I/O time — and reports drift only above a
//     configurable threshold. Re-advising therefore triggers on material
//     departures (read/write mix shifts, object heat changes), not on
//     sampling noise.
//
//   - Re-advising is incremental: core.OptimizeIncremental seeds the
//     search engine's compiled/delta path with the currently deployed
//     layout and admits candidates through a migration gate
//     (MigrationModel): a candidate's migration time — the bytes it moves
//     off the deployed layout, read sequentially from the source class and
//     rewritten at the destination class's write rate — must fit within a
//     configured fraction of the SLA headroom. Small drifts thus yield
//     small layout moves; only when no gated feasible layout exists does
//     the Manager fall back to a full cold search.
//
// Concurrency contract: Collector is safe for concurrent use — every
// charge and every read takes the collector mutex, so engine sessions on
// multiple goroutines may share one tap; Manager serializes its own state
// behind a mutex, so Observe/Check/ReAdvise may be called from concurrent
// server handlers. Neither takes locks while calling the search engine's
// estimators beyond its own, so a Manager re-advise may overlap Collector
// ingestion. Windowing is virtual-time based and caller
// paced: the driver decides when a window closes (Collector.Roll with the
// elapsed virtual time it covered) or ships pre-closed windows; the
// Manager aggregates the most recent AggregateWindows windows for every
// drift check. Windows with fewer than one I/O are considered too thin to
// judge and never trigger re-advising.
package online
