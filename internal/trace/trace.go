// Package trace implements the observability layer behind the paper's
// "logging capabilities: results are traceable, analyzable and (in
// limits) repeatable" — transport-independent, so the same machinery
// measures the deterministic simulator and the real TCP cluster.
//
// Two pieces:
//
//   - Distributed query tracing (span.go): a Ctx rides every overlay
//     request that carries a query id, each serving peer records a
//     Span, and a compact WireSpan piggybacks home on the response so
//     the coordinator assembles a full QueryTrace tree (a bounded
//     TraceLog keeps the recent ones). No extra messages are ever sent
//     for tracing.
//   - A unified metrics Registry (registry.go): lock-cheap atomic
//     counters, gauges and fixed-bucket histograms under stable dotted
//     names, snapshotable and renderable as Prometheus text.
package trace
