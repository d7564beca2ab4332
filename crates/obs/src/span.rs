//! Per-request causal span tracing over virtual time.
//!
//! A [`Tracer`] is a cheap cloneable handle shared by every component a
//! request passes through. Components record [`SpanRecord`]s — closed
//! `[start, end)` virtual-time intervals tagged with a pipeline [`Stage`] —
//! keyed by the request id carried in the first eight payload bytes of
//! every buffer. Each span additionally carries a `span_id` and a
//! `parent_id`, so a completed request reconstructs into a causal tree:
//! within one node spans chain on a per-`(trace, node)` cursor, and across
//! nodes the sender's cursor travels inside the payload as a [`crate::ctx`]
//! trace context that the receiver adopts.
//!
//! # Span store
//!
//! A span lives in its trace's entry: the trace's [`SpanRecord`]s in
//! record order plus one causal cursor per node the trace touched, found
//! by one hash lookup on the request id. Recording a span is that lookup,
//! a cursor swap and a `Vec` push; [`Tracer::take_trace`] removes the entry
//! and sorts its spans, so a completion costs O(that trace) however many
//! other requests are in flight. The store retains at most [`MAX_SPANS`]
//! spans: past that the *oldest* trace is evicted whole and its spans are
//! counted in [`Tracer::dropped`], never silently lost. No request id is
//! reserved; any `u64` is a trace.
//!
//! # Sampling contract
//!
//! The sample/no-sample decision is made **once, at ingress** (gateway
//! admission or direct cluster injection) via [`Tracer::decide_sample`]
//! and travels in the payload's [`crate::ctx`] sampled bit. Downstream
//! components check that one bit instead of consulting the tracer, so an
//! unsampled request costs a single branch per instrumentation site. A
//! default-constructed tracer is disabled and every recording call returns
//! after one `Option` discriminant test.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use simcore::SimTime;

/// The pipeline stages a request traverses, in data-plane order.
///
/// One request produces one span per stage it visits; chained functions
/// repeat the DNE/fabric stages once per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Ingress HTTP/1.1 request parse.
    HttpParse,
    /// RSS flow-hash dispatch to a gateway worker.
    RssDispatch,
    /// Gateway worker service (HTTP/TCP-to-RDMA conversion).
    Gateway,
    /// Descriptor submission crossing the host→DPU Comch channel.
    ComchSubmit,
    /// Waiting in the per-tenant TX queue until the DWRR scheduler
    /// dequeues the descriptor.
    DwrrQueue,
    /// DNE run-to-completion TX service (engine core occupancy).
    DneTx,
    /// RC connection-pool pick, including shadow-QP activation.
    ConnPick,
    /// SoC DMA staging for on-path offload.
    SocDma,
    /// Posting the work request to the RNIC send queue.
    RnicPost,
    /// Network fabric flight time (post → remote completion).
    Fabric,
    /// DNE RX completion handling.
    RxCompletion,
    /// Receive-buffer-registry lookup and replenishment.
    RbrRecover,
    /// Descriptor delivery crossing the DPU→host Comch channel.
    ComchDeliver,
    /// Intra-node SK_MSG delivery between co-located functions.
    SkMsg,
    /// Serverless function execution.
    FnExec,
    /// Backoff / reconnect wait between delivery attempts (a parked
    /// retry's park → repost interval).
    RetryBackoff,
    /// A fault-plane event (wire loss, corruption, outage drop) annotated
    /// into the trace as an instant marker.
    FaultInject,
    /// A request cancelled because its deadline expired (annotated at the
    /// stage that noticed the expiry: gateway queue, DNE send path, or
    /// function dispatch).
    DeadlineDrop,
    /// A health-monitor transition (node marked Suspect/Down/Draining/
    /// Recovered) annotated as an instant marker on the affected node.
    HealthEvent,
}

impl Stage {
    /// Returns the stable exported name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::HttpParse => "http_parse",
            Stage::RssDispatch => "rss_dispatch",
            Stage::Gateway => "gateway",
            Stage::ComchSubmit => "comch_submit",
            Stage::DwrrQueue => "dwrr_queue",
            Stage::DneTx => "dne_tx",
            Stage::ConnPick => "conn_pick",
            Stage::SocDma => "soc_dma",
            Stage::RnicPost => "rnic_post",
            Stage::Fabric => "fabric",
            Stage::RxCompletion => "rx_completion",
            Stage::RbrRecover => "rbr_recover",
            Stage::ComchDeliver => "comch_deliver",
            Stage::SkMsg => "sk_msg",
            Stage::FnExec => "fn_exec",
            Stage::RetryBackoff => "retry_backoff",
            Stage::FaultInject => "fault_inject",
            Stage::DeadlineDrop => "deadline_drop",
            Stage::HealthEvent => "health_event",
        }
    }
}

/// One closed stage interval of one request, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request id (first eight payload bytes, little-endian). Doubles as
    /// the trace id: every span of one request shares it.
    pub req_id: u64,
    /// Tracer-unique span id (1-based; ids are assigned in record order).
    pub span_id: u32,
    /// Causal parent within the same trace; 0 marks a root span.
    pub parent_id: u32,
    /// Owning tenant.
    pub tenant: u16,
    /// Node where the stage executed.
    pub node: u32,
    /// Pipeline stage.
    pub stage: Stage,
    /// Interval start, virtual ns.
    pub start_ns: u64,
    /// Interval end, virtual ns.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Returns the span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// FxHash-style hasher (the rustc hash): one multiply-rotate-xor per word.
/// Every span write looks its trace up by request id; the ids are under
/// our own control, so SipHash's DoS resistance buys nothing here.
#[derive(Default, Clone)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The most spans an enabled tracer retains (40 B each, so 40 MiB). A
/// run whose traces are taken as requests finish holds only the in-flight
/// ones and never comes near it.
pub const MAX_SPANS: usize = 1 << 20;

/// Cap on each of the store's two freelists — enough for every in-flight
/// trace of a busy run without hoarding memory after a burst.
const MAX_FREE_VECS: usize = 64;

/// One trace's entry in the store.
struct Trace {
    /// Creation number: its key in [`Store::order`].
    seq: u64,
    /// The trace's spans, in record order.
    spans: Vec<SpanRecord>,
    /// Causal cursors as `(node, latest span id)`. A new span parents on
    /// its node's cursor and becomes it; a cross-node hand-off overwrites
    /// the receiver's cursor with the sender's (carried in the payload
    /// ctx). A trace touches a handful of nodes, so this is a scan.
    cursors: Vec<(u32, u32)>,
}

impl Trace {
    fn cursor(&self, node: u32) -> u32 {
        self.cursors
            .iter()
            .find(|&&(n, _)| n == node)
            .map_or(0, |&(_, span_id)| span_id)
    }

    #[inline]
    fn cursor_mut(&mut self, node: u32) -> &mut u32 {
        let at = match self.cursors.iter().position(|&(n, _)| n == node) {
            Some(at) => at,
            None => {
                self.cursors.push((node, 0));
                self.cursors.len() - 1
            }
        };
        &mut self.cursors[at].1
    }
}

struct Store {
    traces: HashMap<u64, Trace, FxBuild>,
    /// Creation number → request id of every stored trace; the first
    /// entry is the oldest trace, the one eviction takes.
    order: BTreeMap<u64, u64>,
    next_seq: u64,
    /// Spans retained across all traces, at most `max_spans`.
    spans: usize,
    max_spans: usize,
    dropped: u64,
    next_span_id: u32,
    /// Head-sampling modulus: record only traces with `req_id % n == 0`
    /// (0 or 1 keeps everything). The cheap fallback knob when tail-based
    /// sampling is too expensive.
    head_every: u64,
    /// Recycled span vectors (see [`Tracer::recycle`]) and cursor vectors
    /// (from taken traces): every new trace takes one of each, so reuse
    /// turns the allocs-per-trace into freelist pops.
    free_vecs: Vec<Vec<SpanRecord>>,
    free_cursors: Vec<Vec<(u32, u32)>>,
}

impl Store {
    fn new(max_spans: usize) -> Store {
        Store {
            traces: HashMap::default(),
            order: BTreeMap::new(),
            next_seq: 0,
            spans: 0,
            max_spans,
            dropped: 0,
            next_span_id: 0,
            head_every: 0,
            free_vecs: Vec::new(),
            free_cursors: Vec::new(),
        }
    }

    #[inline]
    fn head_keep(&self, req_id: u64) -> bool {
        self.head_every <= 1 || req_id.is_multiple_of(self.head_every)
    }

    /// The entry of `req_id`, created (as the newest trace) when absent.
    #[inline]
    fn trace_mut(&mut self, req_id: u64) -> &mut Trace {
        self.traces.entry(req_id).or_insert_with(|| {
            self.next_seq += 1;
            self.order.insert(self.next_seq, req_id);
            Trace {
                seq: self.next_seq,
                // Pre-sized for a typical trace so its vector is one
                // allocation, not a growth ladder — or zero, when the
                // freelist has one.
                spans: self
                    .free_vecs
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(32)),
                cursors: self.free_cursors.pop().unwrap_or_default(),
            }
        })
    }

    /// Takes `req_id`'s entry out of the map, the eviction order and the
    /// span count, and returns its spans in record order.
    fn remove(&mut self, req_id: u64) -> Option<Vec<SpanRecord>> {
        let Trace {
            seq,
            spans,
            mut cursors,
        } = self.traces.remove(&req_id)?;
        self.order.remove(&seq);
        self.spans -= spans.len();
        if self.free_cursors.len() < MAX_FREE_VECS {
            cursors.clear();
            self.free_cursors.push(cursors);
        }
        Some(spans)
    }

    /// Evicts the oldest trace whole; `false` when the store is empty.
    fn evict_oldest(&mut self) -> bool {
        let Some((_, &req_id)) = self.order.first_key_value() else {
            return false;
        };
        let spans = self.remove(req_id).expect("ordered trace is stored");
        self.dropped += spans.len() as u64;
        self.recycle(spans);
        true
    }

    fn push(
        &mut self,
        req_id: u64,
        tenant: u16,
        node: u32,
        stage: Stage,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.head_keep(req_id) {
            return 0;
        }
        while self.spans >= self.max_spans && self.evict_oldest() {}
        self.next_span_id += 1;
        let span_id = self.next_span_id;
        let trace = self.trace_mut(req_id);
        let parent_id = std::mem::replace(trace.cursor_mut(node), span_id);
        trace.spans.push(SpanRecord {
            req_id,
            span_id,
            parent_id,
            tenant,
            node,
            stage,
            start_ns,
            end_ns,
        });
        self.spans += 1;
        span_id
    }

    fn recycle(&mut self, mut spans: Vec<SpanRecord>) {
        if self.free_vecs.len() < MAX_FREE_VECS {
            spans.clear();
            self.free_vecs.push(spans);
        }
    }

    /// Every retained span, trace by trace in no particular order.
    fn all_spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.traces.values().flat_map(|t| &t.spans)
    }
}

/// A shared handle for recording request spans.
///
/// `Tracer::default()` / [`Tracer::disabled`] produce a no-op handle:
/// every record call tests one `Option` discriminant and returns. Cloning
/// an enabled tracer shares the same span store.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Store>>>,
}

impl Tracer {
    /// Creates a disabled tracer (all recording calls are no-ops).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Creates an enabled tracer retaining at most [`MAX_SPANS`] spans.
    pub fn enabled() -> Tracer {
        Tracer::with_max_spans(MAX_SPANS)
    }

    fn with_max_spans(max_spans: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Store::new(max_spans)))),
        }
    }

    /// Returns `true` when spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the head-sampling modulus: only traces with `req_id % every ==
    /// 0` are recorded (0 or 1 records everything). The cheap fallback
    /// when buffering whole traces for tail-based sampling costs too much.
    pub fn set_head_sample(&self, every: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().head_every = every;
        }
    }

    /// The ingress sampling decision: `true` when this request's spans
    /// should be recorded. Made once at request admission (gateway or
    /// direct cluster injection) and carried downstream in the payload's
    /// [`crate::ctx`] sampled bit — components on the request path check
    /// that bit instead of calling back into the tracer.
    #[inline]
    pub fn decide_sample(&self, req_id: u64) -> bool {
        match &self.inner {
            Some(inner) => inner.borrow().head_keep(req_id),
            None => false,
        }
    }

    /// Records a closed stage interval, returning the new span's id (0
    /// when disabled or head-sampled out). The span parents on the
    /// `(trace, node)` causal cursor and becomes the new cursor.
    #[inline]
    pub fn span(
        &self,
        req_id: u64,
        tenant: u16,
        node: u32,
        stage: Stage,
        start: SimTime,
        end: SimTime,
    ) -> u32 {
        let Some(inner) = &self.inner else { return 0 };
        inner.borrow_mut().push(
            req_id,
            tenant,
            node,
            stage,
            start.as_nanos(),
            end.as_nanos(),
        )
    }

    /// Overwrites the `(trace, node)` causal cursor with a span id carried
    /// across a node boundary (the payload trace context). The next span
    /// recorded for this trace on `node` parents on `parent_span`. A zero
    /// parent is ignored.
    #[inline]
    pub fn adopt_parent(&self, req_id: u64, node: u32, parent_span: u32) {
        if parent_span == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            *inner.borrow_mut().trace_mut(req_id).cursor_mut(node) = parent_span;
        }
    }

    /// Returns the `(trace, node)` causal cursor — the span id the next
    /// span on this node would parent on (0 when none).
    #[inline]
    pub fn cursor(&self, req_id: u64, node: u32) -> u32 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .borrow()
                .traces
                .get(&req_id)
                .map_or(0, |t| t.cursor(node))
        })
    }

    /// Returns a copy of all recorded spans, ordered by start time.
    pub fn records(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut records: Vec<SpanRecord> = inner.borrow().all_spans().copied().collect();
        records.sort_by_key(|r| (r.start_ns, r.req_id, r.span_id));
        records
    }

    /// Removes and returns every span of one trace (ordered by start time,
    /// then span id) together with its causal cursors: a later span under
    /// the same id starts a fresh trace. The trace pipeline calls this
    /// exactly once per completed request.
    pub fn take_trace(&self, req_id: u64) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let Some(mut taken) = inner.borrow_mut().remove(req_id) else {
            return Vec::new();
        };
        // Span ids are unique within a trace, so the unstable sort is
        // deterministic — and it never allocates, unlike the stable one.
        taken.sort_unstable_by_key(|r| (r.start_ns, r.span_id));
        taken
    }

    /// Returns a consumed trace's span vector to the store so the next new
    /// trace reuses its allocation. The steady-state trace pipeline (take
    /// → summarize → evict) then runs without touching the allocator.
    /// Bounded by `MAX_FREE_VECS`; excess vectors are simply dropped.
    pub fn recycle(&self, spans: Vec<SpanRecord>) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().recycle(spans);
        }
    }

    /// Returns the number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().spans)
    }

    /// Returns `true` when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of spans dropped with evicted traces.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().dropped)
    }

    /// Aggregates total time and span count per stage, sorted by total
    /// time descending — the "where did the time go" view.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut by_stage: HashMap<Stage, StageTotal> = HashMap::new();
        for r in inner.borrow().all_spans() {
            let entry = by_stage.entry(r.stage).or_insert(StageTotal {
                stage: r.stage,
                spans: 0,
                total_ns: 0,
                max_ns: 0,
            });
            entry.spans += 1;
            entry.total_ns += r.duration_ns();
            entry.max_ns = entry.max_ns.max(r.duration_ns());
        }
        let mut totals: Vec<StageTotal> = by_stage.into_values().collect();
        totals.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.stage.cmp(&b.stage)));
        totals
    }

    /// Returns the distinct stages recorded for one request.
    pub fn stages_of(&self, req_id: u64) -> Vec<Stage> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let store = inner.borrow();
        let spans = store.traces.get(&req_id).map_or(&[][..], |t| &t.spans);
        let mut stages: Vec<Stage> = spans.iter().map(|r| r.stage).collect();
        stages.sort();
        stages.dedup();
        stages
    }
}

/// Aggregate time attribution for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotal {
    pub stage: Stage,
    pub spans: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl StageTotal {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.spans as f64 / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span(1, 0, 0, Stage::Fabric, at(0), at(10)), 0);
        t.adopt_parent(1, 0, 3);
        assert!(!t.is_enabled());
        assert!(!t.decide_sample(1));
        assert!(t.is_empty());
        assert!(t.records().is_empty());
        assert!(t.stage_totals().is_empty());
        assert_eq!(t.cursor(1, 0), 0);
        assert!(t.take_trace(1).is_empty());
    }

    #[test]
    fn clones_share_the_store() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.span(1, 0, 0, Stage::FnExec, at(0), at(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn the_bound_keeps_the_newest_traces_and_counts_drops() {
        let t = Tracer::with_max_spans(2);
        for i in 0..5 {
            t.span(i, 0, 0, Stage::FnExec, at(i), at(i + 1));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let kept: Vec<u64> = t.records().iter().map(|r| r.req_id).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn eviction_takes_the_oldest_trace_whole() {
        let t = Tracer::with_max_spans(6);
        // Trace 1 is the oldest and spans two nodes; 2 and 3 interleave.
        t.span(1, 0, 0, Stage::Gateway, at(0), at(1));
        t.span(2, 0, 0, Stage::Gateway, at(1), at(2));
        t.span(1, 0, 1, Stage::Fabric, at(2), at(3));
        t.span(3, 0, 0, Stage::Gateway, at(3), at(4));
        t.span(1, 0, 1, Stage::FnExec, at(4), at(5));
        t.span(2, 0, 1, Stage::Fabric, at(5), at(6));
        assert_eq!((t.len(), t.dropped()), (6, 0));
        // The seventh span does not fit: all three spans of trace 1 go,
        // not the oldest span of each node.
        t.span(3, 0, 1, Stage::Fabric, at(6), at(7));
        assert_eq!((t.len(), t.dropped()), (4, 3));
        assert!(t.records().iter().all(|r| r.req_id != 1));
        assert!(t.take_trace(1).is_empty(), "an evicted trace is gone");
        assert_eq!(t.cursor(1, 1), 0, "and so are its cursors");
        // A taken trace no longer stands in the eviction order, and a later
        // span under the evicted id starts a fresh trace at its end: the
        // next eviction takes trace 3.
        assert_eq!(t.take_trace(2).len(), 2);
        let fresh = t.span(1, 0, 1, Stage::RxCompletion, at(7), at(8));
        for i in 0..3 {
            t.span(4, 0, 0, Stage::FnExec, at(8 + i), at(9 + i));
        }
        assert_eq!((t.len(), t.dropped()), (6, 3));
        t.span(4, 0, 1, Stage::SkMsg, at(11), at(12));
        assert_eq!((t.len(), t.dropped()), (5, 5));
        assert!(t.take_trace(3).is_empty());
        let taken = t.take_trace(1);
        assert_eq!(taken.len(), 1);
        assert_eq!((taken[0].span_id, taken[0].parent_id), (fresh, 0));
        assert_eq!(t.take_trace(4).len(), 4);
        assert_eq!((t.len(), t.dropped()), (0, 5));
    }

    #[test]
    fn stage_totals_rank_by_time() {
        let t = Tracer::enabled();
        t.span(1, 0, 0, Stage::Fabric, at(0), at(100));
        t.span(1, 0, 0, Stage::FnExec, at(100), at(110));
        t.span(2, 0, 0, Stage::Fabric, at(0), at(50));
        let totals = t.stage_totals();
        assert_eq!(totals[0].stage, Stage::Fabric);
        assert_eq!(totals[0].spans, 2);
        assert_eq!(totals[0].total_ns, 150_000);
        assert_eq!(totals[0].max_ns, 100_000);
        assert_eq!(totals[1].stage, Stage::FnExec);
    }

    #[test]
    fn stages_of_deduplicates() {
        let t = Tracer::enabled();
        t.span(1, 0, 0, Stage::Fabric, at(0), at(1));
        t.span(1, 0, 0, Stage::Fabric, at(2), at(3));
        t.span(1, 0, 0, Stage::FnExec, at(3), at(4));
        t.span(2, 0, 0, Stage::Gateway, at(0), at(1));
        assert_eq!(t.stages_of(1), vec![Stage::Fabric, Stage::FnExec]);
        assert!(t.stages_of(3).is_empty());
    }

    #[test]
    fn spans_chain_on_the_per_node_cursor() {
        let t = Tracer::enabled();
        let a = t.span(9, 1, 0, Stage::Gateway, at(0), at(1));
        let b = t.span(9, 1, 0, Stage::ComchSubmit, at(1), at(2));
        // A different node starts its own chain until a ctx is adopted.
        let c = t.span(9, 1, 1, Stage::RxCompletion, at(3), at(4));
        let records = t.records();
        assert_eq!(records[0].span_id, a);
        assert_eq!(records[0].parent_id, 0, "first span is a root");
        assert_eq!(records[1].span_id, b);
        assert_eq!(records[1].parent_id, a);
        assert_eq!(records[2].span_id, c);
        assert_eq!(records[2].parent_id, 0, "no ctx adopted yet");
    }

    #[test]
    fn adopt_parent_links_across_nodes() {
        let t = Tracer::enabled();
        let sender = t.span(9, 1, 0, Stage::ConnPick, at(0), at(1));
        t.adopt_parent(9, 1, sender);
        let rx = t.span(9, 1, 1, Stage::RxCompletion, at(2), at(3));
        let records = t.records();
        let rx_rec = records.iter().find(|r| r.span_id == rx).unwrap();
        assert_eq!(rx_rec.parent_id, sender);
        // Zero parents are ignored (no ctx in the payload).
        t.adopt_parent(9, 1, 0);
        assert_eq!(t.cursor(9, 1), rx);
    }

    #[test]
    fn take_trace_drains_one_trace_only() {
        let t = Tracer::enabled();
        t.span(1, 0, 0, Stage::FnExec, at(0), at(1));
        t.span(2, 0, 0, Stage::FnExec, at(0), at(1));
        t.span(1, 0, 1, Stage::FnExec, at(2), at(3));
        let taken = t.take_trace(1);
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().all(|r| r.req_id == 1));
        assert_eq!(t.len(), 1, "other traces stay");
        assert_eq!(t.cursor(1, 0), 0, "cursors cleared");
        assert!(t.take_trace(1).is_empty(), "second take finds nothing");
    }

    #[test]
    fn head_sampling_keeps_every_nth_trace() {
        let t = Tracer::enabled();
        t.set_head_sample(4);
        for req in 0..8 {
            t.span(req, 0, 0, Stage::FnExec, at(req), at(req + 1));
        }
        let kept: Vec<u64> = t.records().iter().map(|r| r.req_id).collect();
        assert_eq!(kept, vec![0, 4]);
        assert!(t.decide_sample(4) && !t.decide_sample(5));
        t.set_head_sample(0);
        assert!(t.decide_sample(5));
    }

    /// `nadino::control` records health events under trace id `u64::MAX`; the
    /// ring-based store used that value to mark an empty cursor-cache slot,
    /// so a health span lost its parent once another trace touched its node.
    #[test]
    fn no_request_id_is_reserved() {
        let t = Tracer::enabled();
        let first = t.span(u64::MAX, 0, 0, Stage::HealthEvent, at(0), at(0));
        t.span(5, 1, 0, Stage::FnExec, at(1), at(2));
        assert_eq!(t.cursor(u64::MAX, 0), first);
        let second = t.span(u64::MAX, 0, 0, Stage::HealthEvent, at(3), at(3));
        let taken = t.take_trace(u64::MAX);
        assert_eq!(taken.len(), 2);
        assert_eq!((taken[1].span_id, taken[1].parent_id), (second, first));
    }

    /// The store's specification: one flat span list and one
    /// `(trace, node) → span id` map.
    #[derive(Default)]
    struct Model {
        spans: Vec<SpanRecord>,
        cursors: HashMap<(u64, u32), u32>,
        issued: u32,
    }

    impl Model {
        fn span(&mut self, req_id: u64, node: u32, stage: Stage, start_ns: u64) -> u32 {
            self.issued += 1;
            self.spans.push(SpanRecord {
                req_id,
                span_id: self.issued,
                parent_id: self
                    .cursors
                    .insert((req_id, node), self.issued)
                    .unwrap_or(0),
                tenant: 1,
                node,
                stage,
                start_ns,
                end_ns: start_ns + 10,
            });
            self.issued
        }

        fn take_trace(&mut self, req_id: u64) -> Vec<SpanRecord> {
            self.cursors.retain(|&(r, _), _| r != req_id);
            let (mut taken, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.spans)
                .into_iter()
                .partition(|s| s.req_id == req_id);
            self.spans = kept;
            taken.sort_by_key(|s| (s.start_ns, s.span_id));
            taken
        }
    }

    #[test]
    fn random_operations_match_the_flat_model() {
        const REQS: [u64; 5] = [0, 1, 2, 7, u64::MAX];
        const NODES: [u32; 4] = [0, 1, 2, u32::MAX];
        const STAGES: [Stage; 3] = [Stage::Gateway, Stage::Fabric, Stage::FnExec];
        let pick = |rng: &mut simcore::SimRng, n: usize| rng.gen_range(n as u64) as usize;
        for seed in 0..8 {
            let mut rng = simcore::SimRng::new(seed);
            let (t, mut m) = (Tracer::enabled(), Model::default());
            for _ in 0..4_000 {
                let req = REQS[pick(&mut rng, REQS.len())];
                let node = NODES[pick(&mut rng, NODES.len())];
                match rng.gen_range(16) {
                    0 => assert_eq!(t.take_trace(req), m.take_trace(req)),
                    1 => {
                        let mut want = m.spans.clone();
                        want.sort_by_key(|s| (s.start_ns, s.req_id, s.span_id));
                        assert_eq!(t.records(), want);
                        assert_eq!(t.len(), want.len());
                    }
                    2..=4 => {
                        // Any id ever issued, or 0 (ignored).
                        let parent = rng.gen_range(m.issued as u64 + 1) as u32;
                        t.adopt_parent(req, node, parent);
                        if parent != 0 {
                            m.cursors.insert((req, node), parent);
                        }
                    }
                    _ => {
                        // Few distinct starts, so sorts have ties to break.
                        let start_ns = rng.gen_range(8) * 100;
                        let stage = STAGES[pick(&mut rng, STAGES.len())];
                        let start = SimTime::from_nanos(start_ns);
                        let end = SimTime::from_nanos(start_ns + 10);
                        let got = t.span(req, 1, node, stage, start, end);
                        assert_eq!(got, m.span(req, node, stage, start_ns));
                    }
                }
                let want = m.cursors.get(&(req, node)).copied().unwrap_or(0);
                assert_eq!(t.cursor(req, node), want);
            }
            assert_eq!(t.dropped(), 0);
        }
    }
}
