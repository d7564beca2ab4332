//! Anomaly-triggered flight recorder and the trace-pipeline glue.
//!
//! A production data plane cannot afford to persist every trace, but when
//! something goes wrong the traces that explain it have usually already
//! been discarded. The [`FlightRecorder`] squares that: it keeps a fixed
//! ring of the most recent completed trace trees, and on a trigger —
//! a typed `DeliveryFailure`, a multi-window SLO burn detected by
//! [`BurnMonitor`], or an explicit operator call — freezes the ring into
//! a self-contained JSON bundle (traces, per-trace critical paths, burn
//! counters). All timestamps are virtual, so the same seed produces a
//! byte-identical dump.
//!
//! The [`TracePipeline`] is the glue the cluster wires to its completion
//! and failure paths: it drains each finished trace out of the tracer
//! exactly once and fans it to the recorder, the burn monitor and the
//! tail-based [`TailSampler`].

use std::collections::BTreeSet;
use std::collections::VecDeque;

use simcore::SimTime;

use crate::burn::{BurnConfig, BurnMonitor};
use crate::critical_path;
use crate::json::JsonValue;
use crate::sampler::{TailSampler, TraceSummary};
use crate::span::{SpanRecord, Tracer};

/// Why a flight-recorder dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// A request exhausted its retry budget and surfaced a typed failure.
    DeliveryFailure,
    /// A tenant's latency-SLO breach fraction crossed the burn threshold.
    SloBurn,
    /// An operator asked for a dump (`Cluster::dump_flight_recorder`).
    Explicit,
}

impl TriggerReason {
    /// Stable exported name of the trigger.
    pub fn name(self) -> &'static str {
        match self {
            TriggerReason::DeliveryFailure => "delivery_failure",
            TriggerReason::SloBurn => "slo_burn",
            TriggerReason::Explicit => "explicit",
        }
    }
}

/// A bounded ring of the most recently completed trace trees.
pub struct FlightRecorder {
    ring: VecDeque<TraceSummary>,
    capacity: usize,
    evicted: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` traces.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::new(),
            capacity,
            evicted: 0,
        }
    }

    /// Records a completed trace, evicting the oldest when full.
    /// Returns the trace evicted to make room (if any) so the caller can
    /// recycle its span storage instead of freeing it.
    pub fn record(&mut self, summary: TraceSummary) -> Option<TraceSummary> {
        if self.capacity == 0 {
            self.evicted += 1;
            return Some(summary);
        }
        let evicted = if self.ring.len() >= self.capacity {
            self.evicted += 1;
            self.ring.pop_front()
        } else {
            None
        };
        self.ring.push_back(summary);
        evicted
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = &TraceSummary> {
        self.ring.iter()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when no trace has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of traces evicted after the ring filled.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Knobs for [`TracePipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Slowest-k successful traces retained by the tail sampler.
    pub tail_k: usize,
    /// Flight-recorder ring capacity, in traces.
    pub flight_cap: usize,
    /// Multi-window per-tenant SLO burn alerting; `None` disables it.
    pub burn: Option<BurnConfig>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            tail_k: 16,
            flight_cap: 64,
            burn: None,
        }
    }
}

/// Fans completed traces to the flight recorder, burn monitor and tail
/// sampler, and freezes dumps on triggers.
pub struct TracePipeline {
    tracer: Tracer,
    tail: TailSampler,
    flight: FlightRecorder,
    burn: Option<BurnMonitor>,
    last_dump: Option<JsonValue>,
    dumps: u64,
}

impl TracePipeline {
    /// Creates a pipeline draining completed traces from `tracer`.
    pub fn new(tracer: Tracer, cfg: PipelineConfig) -> TracePipeline {
        TracePipeline {
            tracer,
            tail: TailSampler::new(cfg.tail_k),
            flight: FlightRecorder::new(cfg.flight_cap),
            burn: cfg.burn.map(BurnMonitor::new),
            last_dump: None,
            dumps: 0,
        }
    }

    /// Handles a successfully completed request: drains its trace and
    /// offers it to the recorder, burn monitor and tail sampler. Returns
    /// the dump taken if the completion was the rising edge of a
    /// two-window SLO burn alert.
    pub fn on_complete(&mut self, now: SimTime, trace_id: u64) -> Option<&JsonValue> {
        let spans = self.tracer.take_trace(trace_id);
        let summary = TraceSummary::from_spans(trace_id, false, spans)?;
        let mut burning = false;
        if let Some(burn) = &mut self.burn {
            burning = burn.observe(summary.tenant, now, summary.duration_ns());
        }
        self.tail.offer(&summary);
        if let Some(evicted) = self.flight.record(summary) {
            self.tracer.recycle(evicted.spans);
        }
        if burning {
            Some(self.trigger(TriggerReason::SloBurn, now))
        } else {
            None
        }
    }

    /// Handles a typed delivery failure: drains the trace as an error and
    /// takes a dump. The failed trace itself is the newest ring entry.
    pub fn on_failure(&mut self, now: SimTime, trace_id: u64) -> &JsonValue {
        let spans = self.tracer.take_trace(trace_id);
        if let Some(summary) = TraceSummary::from_spans(trace_id, true, spans) {
            self.tail.offer(&summary);
            if let Some(evicted) = self.flight.record(summary) {
                self.tracer.recycle(evicted.spans);
            }
        }
        self.trigger(TriggerReason::DeliveryFailure, now)
    }

    /// Freezes the current ring into a self-contained JSON bundle and
    /// remembers it as the last dump.
    pub fn trigger(&mut self, reason: TriggerReason, now: SimTime) -> &JsonValue {
        self.dumps += 1;
        let traces: Vec<JsonValue> = self
            .flight
            .traces()
            .map(|t| {
                let spans: Vec<JsonValue> = t.spans.iter().map(span_json).collect();
                let path =
                    critical_path::analyze(&t.spans).map_or(JsonValue::Null, |p| p.to_json());
                JsonValue::obj(vec![
                    ("trace_id", JsonValue::UInt(t.trace_id)),
                    ("tenant", JsonValue::UInt(t.tenant as u64)),
                    ("error", JsonValue::Bool(t.error)),
                    ("start_ns", JsonValue::UInt(t.start_ns)),
                    ("end_ns", JsonValue::UInt(t.end_ns)),
                    ("duration_ns", JsonValue::UInt(t.duration_ns())),
                    ("critical_path", path),
                    ("spans", JsonValue::Arr(spans)),
                ])
            })
            .collect();
        let burn = self.burn.as_ref().map_or(JsonValue::Null, |b| b.to_json());
        let dump = JsonValue::obj(vec![
            ("reason", JsonValue::Str(reason.name().to_string())),
            ("at_ns", JsonValue::UInt(now.as_nanos())),
            ("dump_seq", JsonValue::UInt(self.dumps)),
            ("ring_evicted", JsonValue::UInt(self.flight.evicted())),
            ("traces", JsonValue::Arr(traces)),
            ("burn", burn),
        ]);
        self.last_dump = Some(dump);
        self.last_dump.as_ref().unwrap()
    }

    /// The most recent dump, if any trigger has fired.
    pub fn last_dump(&self) -> Option<&JsonValue> {
        self.last_dump.as_ref()
    }

    /// Number of dumps taken so far.
    pub fn dump_count(&self) -> u64 {
        self.dumps
    }

    /// The tail sampler (retained slowest/error traces).
    pub fn tail(&self) -> &TailSampler {
        &self.tail
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Per-tenant burn counters `(tenant, total, breached, alerts)`,
    /// when burn detection is enabled.
    pub fn burn_counters(&self) -> Option<Vec<(u16, u64, u64, u64)>> {
        self.burn.as_ref().map(|b| b.counters())
    }

    /// The burn monitor, when enabled.
    pub fn burn(&self) -> Option<&BurnMonitor> {
        self.burn.as_ref()
    }

    /// Tenants currently in the two-window alerting state (empty when
    /// burn detection is disabled).
    pub fn alerting_tenants(&self) -> Vec<u16> {
        self.burn
            .as_ref()
            .map_or_else(Vec::new, |b| b.alerting_tenants())
    }

    /// Samples every tenant's burn rates into their report series.
    /// Driven at the obs-sampler cadence.
    pub fn sample_burn(&mut self, now: SimTime) {
        if let Some(burn) = &mut self.burn {
            burn.sample(now);
        }
    }

    /// Every trace id currently retained by either the flight-recorder
    /// ring or the tail sampler — the set exemplars must resolve into.
    pub fn retained_trace_ids(&self) -> BTreeSet<u64> {
        let mut ids: BTreeSet<u64> = self.flight.traces().map(|t| t.trace_id).collect();
        ids.extend(self.tail.kept().iter().map(|t| t.trace_id));
        ids
    }
}

/// JSON form of one span record (shared by dumps and trace exports).
pub fn span_json(s: &SpanRecord) -> JsonValue {
    JsonValue::obj(vec![
        ("span_id", JsonValue::UInt(s.span_id as u64)),
        ("parent_id", JsonValue::UInt(s.parent_id as u64)),
        ("req_id", JsonValue::UInt(s.req_id)),
        ("tenant", JsonValue::UInt(s.tenant as u64)),
        ("node", JsonValue::UInt(s.node as u64)),
        ("stage", JsonValue::Str(s.stage.name().to_string())),
        ("start_ns", JsonValue::UInt(s.start_ns)),
        ("end_ns", JsonValue::UInt(s.end_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn pipeline_with(cfg: PipelineConfig) -> (Tracer, TracePipeline) {
        let tracer = Tracer::enabled();
        let p = TracePipeline::new(tracer.clone(), cfg);
        (tracer, p)
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut fr = FlightRecorder::new(2);
        let t = Tracer::enabled();
        for id in 0..4u64 {
            t.span(id, 0, 0, Stage::FnExec, at(0), at(1));
            fr.record(TraceSummary::from_spans(id, false, t.take_trace(id)).unwrap());
        }
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.evicted(), 2);
        let kept: Vec<u64> = fr.traces().map(|t| t.trace_id).collect();
        assert_eq!(kept, vec![2, 3], "newest survive");
    }

    #[test]
    fn retained_trace_ids_cover_ring_and_tail() {
        let (tracer, mut p) = pipeline_with(PipelineConfig {
            tail_k: 2,
            flight_cap: 2,
            burn: None,
        });
        for id in 0..4u64 {
            tracer.span(id, 0, 0, Stage::FnExec, at(0), at(1 + id));
            p.on_complete(at(10), id);
        }
        let ids = p.retained_trace_ids();
        // Ring keeps the newest two (2, 3); the tail sampler keeps the
        // slowest two (also 2, 3 here) — the union is what exemplars may
        // legally point at.
        assert!(ids.contains(&2) && ids.contains(&3));
        assert!(!ids.contains(&0), "evicted and not slow enough");
    }

    #[test]
    fn failure_takes_a_dump_with_the_error_trace() {
        let (tracer, mut p) = pipeline_with(PipelineConfig::default());
        tracer.span(7, 1, 0, Stage::Gateway, at(0), at(10));
        tracer.span(7, 1, 0, Stage::RetryBackoff, at(10), at(500));
        let dump = p.on_failure(at(600), 7).clone();
        assert_eq!(
            dump.get("reason").unwrap().as_str(),
            Some("delivery_failure")
        );
        assert_eq!(dump.get("at_ns").unwrap().as_u64(), Some(600));
        let traces = dump.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].get("error"), Some(&JsonValue::Bool(true)));
        let cp = traces[0].get("critical_path").unwrap();
        assert_eq!(cp.get("total_ns").unwrap().as_u64(), Some(500));
        assert_eq!(p.dump_count(), 1);
        assert!(p.last_dump().is_some());
        // The trace was drained: the tracer no longer holds it.
        assert!(tracer.take_trace(7).is_empty());
    }

    #[test]
    fn slo_burn_triggers_a_dump_on_complete() {
        use simcore::SimDuration;
        let cfg = PipelineConfig {
            burn: Some(crate::burn::BurnConfig {
                target_ns: 10,
                budget: 0.1,
                fast_window: SimDuration::from_nanos(1_000),
                slow_window: SimDuration::from_nanos(12_000),
                burn_threshold: 5.0,
                min_events: 2,
            }),
            ..PipelineConfig::default()
        };
        let (tracer, mut p) = pipeline_with(cfg);
        for id in 0..2u64 {
            tracer.span(id, 3, 0, Stage::FnExec, at(0), at(50));
        }
        assert!(
            p.on_complete(at(100), 0).is_none(),
            "below the min-event floor"
        );
        let dump = p
            .on_complete(at(150), 1)
            .expect("second breach crosses both windows")
            .clone();
        assert_eq!(dump.get("reason").unwrap().as_str(), Some("slo_burn"));
        assert_eq!(p.burn_counters(), Some(vec![(3, 2, 2, 1)]));
        assert_eq!(p.alerting_tenants(), vec![3]);
        // The dump embeds the burn monitor's state.
        let burn = dump.get("burn").unwrap();
        let tenants = burn.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants[0].get("alerts").unwrap().as_u64(), Some(1));
    }
}
