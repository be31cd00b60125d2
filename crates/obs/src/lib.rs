//! `eclat-obs` — the observability substrate for the Eclat reproduction.
//!
//! Three small, zero-third-party-dependency facilities, shared by the
//! mining core, the distributed runtime, the serving layer, and the CLI:
//!
//! * [`trace`] — a low-overhead span/event tracer, and the clock of every
//!   measured phase: a span reads the monotonic clock when it opens and
//!   [`SpanGuard::finish`] returns its seconds, which is where the stats
//!   reports get their phase timings. Every participating thread records
//!   into its own ring buffer; recording is guarded by a single
//!   process-global atomic flag, so with tracing disabled a span costs a
//!   clock read, one relaxed load and a branch (the
//!   `disabled_fast_path_is_cheap` test and the `ablations` bench row pin
//!   this). Buffers drain to a line-oriented JSONL format that merges
//!   across processes (worker rank + run id tags) and converts to Chrome
//!   `trace_event` JSON via `eclat trace`.
//! * [`metrics`] — counters, gauges, and log-bucketed latency histograms
//!   behind a name-keyed [`metrics::Registry`] that renders
//!   Prometheus-style text. The serving layer exposes this over the wire
//!   as the `Metrics` query.
//! * [`log`] — a leveled stderr logger configured by `ECLAT_LOG`
//!   (`error|warn|info|debug`, default `warn`), so fleet runs are quiet
//!   by default and debuggable on demand.
//!
//! The crate deliberately depends only on `mining-types` (for the
//! workspace's hand-rolled JSON reader/writer); it must stay buildable
//! offline and cheap enough to link everywhere.

pub mod log;
pub mod metrics;
pub mod trace;

pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{SpanGuard, TraceSummary, COORDINATOR_RANK, TRACE_SCHEMA_VERSION};
