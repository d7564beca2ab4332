//! A labelled metrics registry with cheap recording handles.
//!
//! Components register named, labelled instruments once at wiring time and
//! keep the returned handle; recording through a handle is a `Cell`/`RefCell`
//! poke with no name hashing on the hot path. The registry itself produces a
//! deterministic [`MetricsSnapshot`] (JSON or plain text) at any instant.
//!
//! Two instrument kinds: [`Gauge`] for *levels* — values that can fall
//! (queue depths, deficits, hit rates, lifecycle states) — and
//! [`HistogramHandle`] for log-bucketed latency distributions from
//! `simcore::stats`. Running totals are not instruments: a total lives in
//! the struct that counts it and is read from there (DESIGN.md §2.4). How a
//! level moves over time is the [`crate::Aggregator`]'s per-window rollup
//! of these gauges.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simcore::{Histogram, SimDuration};

use crate::exemplar::ExemplarSet;
use crate::json::{JsonValue, ToJson};

/// Label set attached to an instrument, e.g. `[("tenant", "3")]`.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn labels_json(labels: &Labels) -> JsonValue {
    JsonValue::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect(),
    )
}

fn labels_text(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

/// An instantaneous-level gauge handle.
///
/// Every successful write stamps the registry's current *sample epoch*
/// (bumped by [`MetricsRegistry::begin_sample`]); a gauge whose stamp
/// lags the epoch at snapshot time is **stale** — the sampling pass had
/// nothing to write to it — and rollups render it as `null` instead of
/// re-reporting the last value as current.
#[derive(Clone)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
    /// Sample epoch of the last successful write.
    stamp: Rc<Cell<u64>>,
    /// The registry's shared sample epoch.
    epoch: Rc<Cell<u64>>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.value.set(v);
        self.stamp.set(self.epoch.get());
    }

    /// Returns the current level.
    pub fn get(&self) -> f64 {
        self.value.get()
    }

    /// Sample epoch of the last successful write (0 = never written
    /// under an epoch).
    pub fn last_updated_epoch(&self) -> u64 {
        self.stamp.get()
    }
}

/// A latency histogram handle.
#[derive(Clone)]
pub struct HistogramHandle {
    hist: Rc<RefCell<Histogram>>,
    exemplars: Rc<RefCell<ExemplarSet>>,
}

impl HistogramHandle {
    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: SimDuration) {
        self.hist.borrow_mut().record(d);
    }

    /// Records one duration sample, optionally attaching the current
    /// sampled trace context `(trace_id, span_id)` as the exemplar of
    /// the bucket the sample lands in (one slot per bucket,
    /// last-writer-wins; see [`crate::exemplar::ExemplarSet`]).
    #[inline]
    pub fn record_traced(&self, d: SimDuration, ctx: Option<(u64, u32)>) {
        self.hist.borrow_mut().record(d);
        if let Some((trace_id, span_id)) = ctx {
            self.exemplars
                .borrow_mut()
                .offer(d.as_nanos(), trace_id, span_id);
        }
    }

    /// Returns a copy of the underlying histogram.
    pub fn histogram(&self) -> Histogram {
        self.hist.borrow().clone()
    }

    /// Returns a copy of the recorded exemplars.
    pub fn exemplar_set(&self) -> ExemplarSet {
        self.exemplars.borrow().clone()
    }
}

struct Registered<H> {
    name: String,
    labels: Labels,
    handle: H,
}

#[derive(Default)]
struct RegistryInner {
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<HistogramHandle>>,
    /// The sample epoch shared with every gauge (see
    /// [`MetricsRegistry::begin_sample`]).
    epoch: Rc<Cell<u64>>,
}

/// The process-wide metrics registry; cloning shares the same store.
///
/// # Examples
///
/// ```
/// use obs::metrics::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let depth = reg.gauge("dne_engine_queued", &[("node", "1")]);
/// depth.set(3.0);
/// let snap = reg.snapshot();
/// assert_eq!(snap.gauge("dne_engine_queued", &[("node", "1")]), Some(3.0));
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the gauge registered under `name` + `labels`, creating it
    /// on first use. Re-registering returns a handle to the same gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = labels_of(labels);
        let mut inner = self.inner.borrow_mut();
        if let Some(r) = inner
            .gauges
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            return r.handle.clone();
        }
        let handle = Gauge {
            value: Rc::new(Cell::new(0.0)),
            stamp: Rc::new(Cell::new(0)),
            epoch: inner.epoch.clone(),
        };
        inner.gauges.push(Registered {
            name: name.to_string(),
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Returns the histogram registered under `name` + `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let labels = labels_of(labels);
        let mut inner = self.inner.borrow_mut();
        if let Some(r) = inner
            .histograms
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            return r.handle.clone();
        }
        let handle = HistogramHandle {
            hist: Rc::new(RefCell::new(Histogram::new())),
            exemplars: Rc::new(RefCell::new(ExemplarSet::new())),
        };
        inner.histograms.push(Registered {
            name: name.to_string(),
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Opens a new sample epoch and returns it. Call at the top of every
    /// sampling pass (the cluster's `sample_obs` does): gauges written
    /// during the pass carry the new epoch; a gauge the pass skipped keeps
    /// its old stamp and reads as *stale* in the next snapshot, instead of
    /// replaying its last value as current forever.
    pub fn begin_sample(&self) -> u64 {
        let inner = self.inner.borrow();
        let next = inner.epoch.get() + 1;
        inner.epoch.set(next);
        next
    }

    /// Captures a point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let epoch = inner.epoch.get();
        MetricsSnapshot {
            gauges: inner
                .gauges
                .iter()
                .map(|r| {
                    // A gauge is stale when sampling passes have started
                    // (epoch > 0) and its last write predates the current
                    // epoch: this pass skipped it.
                    let stale = epoch > 0 && r.handle.last_updated_epoch() < epoch;
                    (r.name.clone(), r.labels.clone(), r.handle.get(), stale)
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.labels.clone(),
                        r.handle.histogram(),
                        r.handle.exemplar_set(),
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of every registered instrument.
pub struct MetricsSnapshot {
    /// `(name, labels, value, stale)` — stale gauges were skipped by the
    /// sampling pass that opened the current epoch.
    gauges: Vec<(String, Labels, f64, bool)>,
    histograms: Vec<(String, Labels, Histogram, ExemplarSet)>,
}

impl MetricsSnapshot {
    /// Looks up a gauge level by name and exact labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let labels = labels_of(labels);
        self.gauges
            .iter()
            .find(|(n, l, _, _)| n == name && *l == labels)
            .map(|(_, _, v, _)| *v)
    }

    /// Whether the gauge is stale (its sampling pass skipped it), or
    /// `None` if unregistered.
    pub fn gauge_stale(&self, name: &str, labels: &[(&str, &str)]) -> Option<bool> {
        let labels = labels_of(labels);
        self.gauges
            .iter()
            .find(|(n, l, _, _)| n == name && *l == labels)
            .map(|(_, _, _, stale)| *stale)
    }

    /// Every gauge as `(name, labels, value, stale)`, in registration
    /// order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&str, &Labels, f64, bool)> {
        self.gauges
            .iter()
            .map(|(n, l, v, s)| (n.as_str(), l, *v, *s))
    }

    /// Every histogram as `(name, labels, histogram, exemplars)`, in
    /// registration order.
    pub fn histograms_iter(
        &self,
    ) -> impl Iterator<Item = (&str, &Labels, &Histogram, &ExemplarSet)> {
        self.histograms
            .iter()
            .map(|(n, l, h, e)| (n.as_str(), l, h, e))
    }

    /// Renders a Prometheus-style plain-text exposition.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, labels, v, stale) in &self.gauges {
            if *stale {
                out.push_str(&format!("{name}{} stale\n", labels_text(labels)));
            } else {
                out.push_str(&format!("{name}{} {v}\n", labels_text(labels)));
            }
        }
        for (name, labels, h, _) in &self.histograms {
            let s = h.summary();
            out.push_str(&format!(
                "{name}{} count={} mean_us={:.2} p50_us={:.2} p99_us={:.2} max_us={:.2}\n",
                labels_text(labels),
                s.count,
                s.mean_us,
                s.p50_us,
                s.p99_us,
                s.max_us
            ));
        }
        out
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> JsonValue {
        let gauges = self
            .gauges
            .iter()
            .map(|(name, labels, v, stale)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    (
                        "value",
                        if *stale {
                            JsonValue::Null
                        } else {
                            JsonValue::Float(*v)
                        },
                    ),
                    ("stale", JsonValue::Bool(*stale)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, labels, h, exemplars)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    ("summary", h.summary().to_json()),
                    ("exemplars", exemplars.to_json()),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("gauges", JsonValue::Arr(gauges)),
            ("histograms", JsonValue::Arr(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipped_gauge_reads_stale_not_current() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hit_rate", &[]);
        // Pass 1: the gauge is written — fresh.
        reg.begin_sample();
        g.set(0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge_stale("hit_rate", &[]), Some(false));
        // Pass 2: nothing to report, so the write is skipped — the old
        // value must read as stale, not as the current level.
        reg.begin_sample();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("hit_rate", &[]), Some(0.75), "value retained");
        assert_eq!(snap.gauge_stale("hit_rate", &[]), Some(true));
        let json = snap.to_json();
        let gauges = json.get("gauges").unwrap().as_arr().unwrap();
        assert_eq!(gauges[0].get("value"), Some(&JsonValue::Null));
        assert_eq!(gauges[0].get("stale"), Some(&JsonValue::Bool(true)));
        // Pass 3: a real write refreshes it.
        reg.begin_sample();
        g.set(0.5);
        assert_eq!(reg.snapshot().gauge_stale("hit_rate", &[]), Some(false));
    }

    #[test]
    fn staleness_is_off_until_sampling_begins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[]);
        g.set(1.0);
        // No begin_sample yet: epoch 0, nothing is stale.
        assert_eq!(reg.snapshot().gauge_stale("depth", &[]), Some(false));
    }

    #[test]
    fn histogram_exemplars_ride_the_snapshot() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        h.record_traced(SimDuration::from_micros(10), Some((7, 3)));
        h.record_traced(SimDuration::from_micros(10_000), None);
        let snap = reg.snapshot();
        let (_, _, hist, exemplars) = snap
            .histograms_iter()
            .next()
            .map(|(n, l, h, e)| (n.to_string(), l.clone(), h.clone(), e.clone()))
            .unwrap();
        assert_eq!(hist.count(), 2, "untraced samples still count");
        assert_eq!(exemplars.len(), 1, "only the traced sample left a pointer");
        let ex = exemplars.exemplars().next().unwrap();
        assert_eq!((ex.trace_id, ex.span_id), (7, 3));
    }

    #[test]
    fn gauge_handles_are_keyed_by_name_and_labels() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[("tenant", "1")]);
        g.set(4.0);
        // Re-registering hands back the same gauge; other labels do not.
        reg.gauge("depth", &[("tenant", "1")]).set(2.5);
        reg.gauge("depth", &[("tenant", "2")]).set(9.0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("depth", &[("tenant", "1")]), Some(2.5));
        assert_eq!(snap.gauge("depth", &[("tenant", "2")]), Some(9.0));
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let reg = MetricsRegistry::new();
        reg.gauge("g", &[("k", "v")]).set(1.0);
        reg.histogram("h", &[]).record(SimDuration::from_micros(5));
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(json.get("gauges").unwrap().as_arr().unwrap().len(), 1);
        let text = snap.to_text();
        assert!(text.contains("g{k=\"v\"} 1"));
        // The document parses back.
        assert!(crate::json::parse(&json.to_string_pretty()).is_ok());
    }
}
