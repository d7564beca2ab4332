//! The traced run's consumer of the program's virtual-time spans.
//!
//! With tracing on, every finished request's spans are taken out of the
//! `obs::Tracer` at completion (as the repo's trace pipeline does, so the
//! hot rings stay small), every `ANALYZE_EVERY`-th trace is attributed to
//! stages by `obs::critical_path`, and the span vectors are recycled.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use obs::JsonValue;

/// One in this many finished traces gets a critical-path analysis; the
/// others are only counted. Keeps the consumer's own host cost out of
/// `obs.trace_overhead_pct` as far as possible.
const ANALYZE_EVERY: u64 = 8;

#[derive(Default)]
struct Acc {
    traces: u64,
    spans: u64,
    analyzed: u64,
    /// Critical-path self time per stage over the analysed traces, ns.
    stage_ns: BTreeMap<String, u64>,
}

/// What the traced repetition learned about the program's spans.
pub struct TraceOut {
    pub traces: u64,
    pub spans: u64,
    pub dropped: u64,
    pub analyzed: u64,
    pub stage_ns: BTreeMap<String, u64>,
}

impl TraceOut {
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("traces", JsonValue::UInt(self.traces)),
            ("spans", JsonValue::UInt(self.spans)),
            ("dropped", JsonValue::UInt(self.dropped)),
            ("analyzed", JsonValue::UInt(self.analyzed)),
            (
                "stage_ns",
                JsonValue::Obj(
                    self.stage_ns
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Owns the tracer handed to the cluster and the accumulator behind the
/// completion hook.
pub struct TraceSink {
    tracer: obs::Tracer,
    acc: Rc<RefCell<Acc>>,
}

impl TraceSink {
    pub fn new(enabled: bool) -> TraceSink {
        TraceSink {
            tracer: if enabled {
                obs::Tracer::enabled()
            } else {
                obs::Tracer::disabled()
            },
            acc: Rc::default(),
        }
    }

    pub fn tracer(&self) -> obs::Tracer {
        self.tracer.clone()
    }

    /// The hook workloads call with a finished request's trace id.
    pub fn done_hook(&self) -> Rc<dyn Fn(u64)> {
        if !self.tracer.is_enabled() {
            return Rc::new(|_| {});
        }
        let tracer = self.tracer.clone();
        let acc = self.acc.clone();
        Rc::new(move |trace_id| {
            let spans = tracer.take_trace(trace_id);
            let mut acc = acc.borrow_mut();
            acc.traces += 1;
            acc.spans += spans.len() as u64;
            if acc.traces.is_multiple_of(ANALYZE_EVERY) {
                if let Some(path) = obs::critical_path::analyze(&spans) {
                    acc.analyzed += 1;
                    for share in path.stages {
                        *acc.stage_ns.entry(share.stage).or_default() += share.ns;
                    }
                }
            }
            tracer.recycle(spans);
        })
    }

    pub fn finish(self) -> Option<TraceOut> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let acc = self.acc.take();
        Some(TraceOut {
            traces: acc.traces,
            spans: acc.spans,
            dropped: self.tracer.dropped(),
            analyzed: acc.analyzed,
            stage_ns: acc.stage_ns,
        })
    }
}
