//! Zero-dependency observability for the NADINO reproduction.
//!
//! Everything the evaluation needs to see *inside* the data plane:
//!
//! - [`metrics`] — a labelled registry of level gauges and log-bucketed
//!   histograms, with cheap recording handles and deterministic
//!   snapshots;
//! - [`span`] — per-request causal span tracing over virtual time: one
//!   store entry per trace, keyed by the request id carried in the
//!   payload header, taken whole when the request finishes;
//! - [`ctx`] — the compact on-wire trace context (parent span id +
//!   sampling bit) that rides request payloads across node boundaries;
//! - [`critical_path`] — per-trace latency attribution that partitions a
//!   request's end-to-end time across stages exactly;
//! - [`sampler`] — tail-based sampling: keep the slowest-k and all-error
//!   traces, discard the boring majority;
//! - [`flight`] — the anomaly-triggered flight recorder and the
//!   [`flight::TracePipeline`] glue;
//! - [`burn`] — multi-window (fast AND slow) per-tenant SLO burn-rate
//!   alerting over sim-time windows, Google-SRE style;
//! - [`exemplar`] — bounded per-bucket histogram exemplars linking
//!   metric buckets back to concrete traces;
//! - [`agg`] — windowed fleet-level aggregation over a
//!   [`metrics::MetricsRegistry`]: stale-aware gauge rollups and
//!   exactly-merged histograms with tail quantiles;
//! - [`profile`] — SoC-core utilization attribution (per-stage busy
//!   cores, "cores freed" vs a host-only baseline);
//! - [`perfetto`] — Chrome-trace-event JSON export for
//!   <https://ui.perfetto.dev>, with cross-node flow arrows;
//! - [`json`] — the hand-rolled JSON tree, [`json::ToJson`] trait and
//!   [`impl_to_json!`] macro backing every exporter (the workspace builds
//!   fully offline, so there is no serde).
//!
//! Tracing is flag-gated at run time: a default [`span::Tracer`] is
//! disabled and costs one branch per call site.

pub mod agg;
pub mod burn;
pub mod critical_path;
pub mod ctx;
pub mod exemplar;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod sampler;
pub mod span;

pub use agg::Aggregator;
pub use burn::{BurnConfig, BurnMonitor, BurnPoint};
pub use critical_path::{CriticalPath, StageShare, TenantBreakdown};
pub use ctx::{
    read_ctx, read_deadline_ns, wire_version, write_ctx, write_ctx_at, write_deadline_ns, TraceCtx,
    CTX_CURRENT, CTX_REGION, CTX_V1, CTX_V2,
};
pub use exemplar::{Exemplar, ExemplarSet};
pub use flight::{FlightRecorder, PipelineConfig, TracePipeline, TriggerReason};
pub use json::{parse, JsonValue, ToJson};
pub use metrics::{Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
pub use perfetto::chrome_trace;
pub use profile::{CoresFreed, SocStageTable};
pub use sampler::{TailSampler, TraceSummary};
pub use span::{SpanRecord, Stage, StageTotal, Tracer};
