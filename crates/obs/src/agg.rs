//! Windowed fleet-level aggregation over a [`MetricsRegistry`](crate::MetricsRegistry).
//!
//! Raw per-node series answer "what did node 3 do"; the evaluation
//! needs "what did the *fleet* do per window". The [`Aggregator`]
//! consumes the same [`MetricsSnapshot`]s the obs sampler already takes
//! and produces per-window rollups keyed by `(metric, label-projection)`:
//!
//! - **gauges** — mean and max over the *fresh* series only (stale
//!   series — e.g. a ratio gauge whose denominator was zero all window —
//!   are counted but excluded, and a group that is all-stale rolls up as
//!   `null`);
//! - **histograms** — bucketwise-merged log-linear histograms with
//!   p50/p90/p99/p999. The merge is exact: [`simcore::Histogram`] merges
//!   bucket counts, so a merged quantile equals the quantile of a single
//!   histogram fed the union of samples. Exemplars merge alongside.
//!
//! The label projection drops the `node` key so per-node families
//! collapse into fleet series. Everything iterates in
//! `BTreeMap` order and all timestamps are virtual, so serialization is
//! byte-stable for a fixed seed.

use std::collections::BTreeMap;

use simcore::{Histogram, SimTime};

use crate::exemplar::ExemplarSet;
use crate::json::JsonValue;
use crate::metrics::{Labels, MetricsSnapshot};

/// The report's fixed quantile set.
const QUANTILES: [(f64, &str); 4] = [
    (0.50, "p50_ns"),
    (0.90, "p90_ns"),
    (0.99, "p99_ns"),
    (0.999, "p999_ns"),
];

/// The label key dropped before grouping, collapsing per-node series into
/// fleet series.
const DROP_LABEL: &str = "node";

/// Group key after label projection.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Labels,
}

/// One gauge group in one window.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRollup {
    pub name: String,
    pub labels: Labels,
    /// Mean over fresh series; `None` when every series was stale.
    pub mean: Option<f64>,
    /// Max over fresh series; `None` when every series was stale.
    pub max: Option<f64>,
    /// Series that projected into this group.
    pub series: u32,
    /// Of those, how many were stale at the sample.
    pub stale: u32,
}

/// One histogram group in one window (cumulative at window close).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRollup {
    pub name: String,
    pub labels: Labels,
    pub count: u64,
    /// `(quantile-name, lower-bound ns)` in `QUANTILES` order.
    pub quantiles: [(&'static str, u64); 4],
    pub max_ns: u64,
}

/// One aggregation window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRollup {
    pub start_ns: u64,
    pub end_ns: u64,
    pub gauges: Vec<GaugeRollup>,
    pub histograms: Vec<HistogramRollup>,
}

/// Windowed fleet aggregator; feed it one snapshot per sampling window.
#[derive(Default)]
pub struct Aggregator {
    windows: Vec<WindowRollup>,
    /// Latest cumulative merged histogram + exemplars per group.
    merged: BTreeMap<Key, (Histogram, ExemplarSet)>,
    last_at_ns: u64,
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    fn project(name: &str, labels: &Labels) -> Key {
        Key {
            name: name.to_string(),
            labels: labels
                .iter()
                .filter(|(k, _)| k != DROP_LABEL)
                .cloned()
                .collect(),
        }
    }

    /// Closes one window ending at `now` over `snap`. Windows must be
    /// observed in nondecreasing time order.
    pub fn observe(&mut self, now: SimTime, snap: &MetricsSnapshot) {
        let start_ns = self.last_at_ns;
        let end_ns = now.as_nanos();

        // Gauges: mean + max over fresh series.
        struct GaugeAcc {
            sum: f64,
            max: Option<f64>,
            series: u32,
            stale: u32,
        }
        let mut gauge_acc: BTreeMap<Key, GaugeAcc> = BTreeMap::new();
        for (name, labels, value, stale) in snap.gauges_iter() {
            let acc = gauge_acc
                .entry(Self::project(name, labels))
                .or_insert(GaugeAcc {
                    sum: 0.0,
                    max: None,
                    series: 0,
                    stale: 0,
                });
            acc.series += 1;
            if stale {
                acc.stale += 1;
                continue;
            }
            acc.sum += value;
            acc.max = Some(acc.max.map_or(value, |m: f64| m.max(value)));
        }
        let gauges = gauge_acc
            .into_iter()
            .map(|(key, acc)| {
                let fresh = acc.series - acc.stale;
                GaugeRollup {
                    name: key.name,
                    labels: key.labels,
                    mean: (fresh > 0).then(|| acc.sum / f64::from(fresh)),
                    max: acc.max,
                    series: acc.series,
                    stale: acc.stale,
                }
            })
            .collect();

        // Histograms: exact bucketwise merge per group, cumulative.
        let mut merged: BTreeMap<Key, (Histogram, ExemplarSet)> = BTreeMap::new();
        for (name, labels, hist, exemplars) in snap.histograms_iter() {
            let entry = merged
                .entry(Self::project(name, labels))
                .or_insert_with(|| (Histogram::new(), ExemplarSet::new()));
            entry.0.merge(hist);
            entry.1.merge(exemplars);
        }
        let histograms = merged
            .iter()
            .map(|(key, (hist, _))| HistogramRollup {
                name: key.name.clone(),
                labels: key.labels.clone(),
                count: hist.count(),
                quantiles: QUANTILES.map(|(q, label)| (label, hist.percentile(q).as_nanos())),
                max_ns: hist.max().as_nanos(),
            })
            .collect();
        self.merged = merged;

        self.windows.push(WindowRollup {
            start_ns,
            end_ns,
            gauges,
            histograms,
        });
        self.last_at_ns = end_ns;
    }

    /// The closed windows, oldest first.
    pub fn windows(&self) -> &[WindowRollup] {
        &self.windows
    }

    /// The latest cumulative merged histogram + exemplars per group,
    /// sorted by `(name, labels)`.
    pub fn merged_histograms(
        &self,
    ) -> impl Iterator<Item = (&str, &Labels, &Histogram, &ExemplarSet)> {
        self.merged
            .iter()
            .map(|(k, (h, e))| (k.name.as_str(), &k.labels, h, e))
    }

    /// Drops every merged-histogram exemplar whose trace id is not in
    /// `keep` — after this, every exemplar in [`Aggregator::to_json`]
    /// resolves to a retained trace. Returns `(kept, dropped)` totals.
    pub fn retain_exemplars(&mut self, keep: &std::collections::BTreeSet<u64>) -> (usize, usize) {
        let mut kept = 0;
        let mut dropped = 0;
        for (_, (_, exemplars)) in self.merged.iter_mut() {
            dropped += exemplars.retain(|ex| keep.contains(&ex.trace_id));
            kept += exemplars.len();
        }
        (kept, dropped)
    }

    fn labels_json(labels: &Labels) -> JsonValue {
        JsonValue::Obj(
            labels
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                .collect(),
        )
    }

    /// The full rollup document: every window plus the final merged
    /// histograms with their exemplars.
    pub fn to_json(&self) -> JsonValue {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                let gauges = w
                    .gauges
                    .iter()
                    .map(|g| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::Str(g.name.clone())),
                            ("labels", Self::labels_json(&g.labels)),
                            ("mean", g.mean.map_or(JsonValue::Null, JsonValue::Float)),
                            ("max", g.max.map_or(JsonValue::Null, JsonValue::Float)),
                            ("series", JsonValue::UInt(g.series as u64)),
                            ("stale", JsonValue::UInt(g.stale as u64)),
                        ])
                    })
                    .collect();
                let histograms = w
                    .histograms
                    .iter()
                    .map(|h| {
                        let mut fields = vec![
                            ("name", JsonValue::Str(h.name.clone())),
                            ("labels", Self::labels_json(&h.labels)),
                            ("count", JsonValue::UInt(h.count)),
                        ];
                        for (label, ns) in h.quantiles {
                            fields.push((label, JsonValue::UInt(ns)));
                        }
                        fields.push(("max_ns", JsonValue::UInt(h.max_ns)));
                        JsonValue::obj(fields)
                    })
                    .collect();
                JsonValue::obj(vec![
                    ("start_ns", JsonValue::UInt(w.start_ns)),
                    ("end_ns", JsonValue::UInt(w.end_ns)),
                    ("gauges", JsonValue::Arr(gauges)),
                    ("histograms", JsonValue::Arr(histograms)),
                ])
            })
            .collect();
        let final_hists = self
            .merged
            .iter()
            .map(|(k, (hist, exemplars))| {
                let mut fields = vec![
                    ("name", JsonValue::Str(k.name.clone())),
                    ("labels", Self::labels_json(&k.labels)),
                    ("count", JsonValue::UInt(hist.count())),
                ];
                for (q, label) in QUANTILES {
                    fields.push((label, JsonValue::UInt(hist.percentile(q).as_nanos())));
                }
                fields.push(("max_ns", JsonValue::UInt(hist.max().as_nanos())));
                fields.push(("exemplars", exemplars.to_json()));
                JsonValue::obj(fields)
            })
            .collect();
        JsonValue::obj(vec![
            (
                "drop_labels",
                JsonValue::Arr(vec![JsonValue::Str(DROP_LABEL.to_string())]),
            ),
            ("windows", JsonValue::Arr(windows)),
            ("histograms", JsonValue::Arr(final_hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use simcore::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn stale_gauges_are_excluded_and_all_stale_rolls_up_null() {
        let reg = MetricsRegistry::new();
        let fresh = reg.gauge("hit_rate", &[("node", "1"), ("tenant", "7")]);
        // Registered, never written: stale from the first pass on.
        reg.gauge("hit_rate", &[("node", "2"), ("tenant", "7")]);
        reg.begin_sample();
        fresh.set(0.8);
        let mut agg = Aggregator::new();
        agg.observe(at(1), &reg.snapshot());
        assert_eq!(
            agg.windows()[0].gauges.len(),
            1,
            "node label projected away"
        );
        let g = &agg.windows()[0].gauges[0];
        assert_eq!(g.labels, vec![("tenant".into(), "7".into())]);
        assert_eq!((g.series, g.stale), (2, 1));
        assert_eq!(g.mean, Some(0.8), "stale series excluded from the mean");
        // Next window: nobody writes — the whole group goes stale.
        reg.begin_sample();
        agg.observe(at(2), &reg.snapshot());
        let g = &agg.windows()[1].gauges[0];
        assert_eq!((g.mean, g.max), (None, None));
        assert_eq!(g.stale, 2);
    }

    #[test]
    fn retained_exemplar_filter_drops_unretained_traces() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        h.record_traced(simcore::SimDuration::from_nanos(100), Some((1, 0)));
        h.record_traced(simcore::SimDuration::from_nanos(50_000), Some((2, 0)));
        let mut agg = Aggregator::new();
        agg.observe(at(1), &reg.snapshot());
        let keep: std::collections::BTreeSet<u64> = [2].into_iter().collect();
        let (kept, dropped) = agg.retain_exemplars(&keep);
        assert_eq!((kept, dropped), (1, 1));
        let (_, _, _, exemplars) = agg.merged_histograms().next().unwrap();
        assert_eq!(exemplars.exemplars().next().unwrap().trace_id, 2);
    }

    #[test]
    fn merged_quantiles_equal_single_histogram_quantiles() {
        // Property: feeding the union of samples into ONE histogram and
        // merging N per-node histograms must agree on every quantile —
        // the merge is bucketwise and buckets never split.
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram("lat", &[("node", "1")]);
        let h2 = reg.histogram("lat", &[("node", "2")]);
        let h3 = reg.histogram("lat", &[("node", "3")]);
        let mut single = Histogram::new();
        // A deterministic pseudo-random stream spread over decades.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..3_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = (x >> 33) % 10_000_000;
            let d = SimDuration::from_nanos(ns);
            [&h1, &h2, &h3][(i % 3) as usize].record(d);
            single.record(d);
        }
        let mut agg = Aggregator::new();
        agg.observe(at(1), &reg.snapshot());
        let (_, _, merged, _) = agg.merged_histograms().next().unwrap();
        assert_eq!(merged.count(), single.count());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.percentile(q),
                single.percentile(q),
                "quantile {q} diverged"
            );
        }
        assert_eq!(merged.max(), single.max());
    }

    #[test]
    fn json_is_deterministic_for_identical_inputs() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.gauge("depth", &[("node", "1")]).set(2.0);
            reg.histogram("lat", &[("node", "1")])
                .record_traced(SimDuration::from_micros(5), Some((11, 2)));
            let mut agg = Aggregator::new();
            agg.observe(at(1_000), &reg.snapshot());
            agg.to_json().to_string_pretty()
        };
        let a = build();
        assert_eq!(a, build(), "same inputs must serialize byte-identically");
        assert!(crate::json::parse(&a).is_ok());
        assert!(a.contains("exemplars"));
    }
}
