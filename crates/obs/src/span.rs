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
//! # Two-tier storage
//!
//! The record path is split into a **hot tier** and a **cold tier** so the
//! data plane never pays for trace assembly:
//!
//! - *Hot:* one fixed-capacity [`SpanRing`] per node holds plain-old-data
//!   spans (`u8` stage ids interned from [`Stage::ALL`], no `String`, no
//!   per-span heap allocation once the ring has grown). Recording a span
//!   is one hash-map cursor update plus one indexed ring write. When a
//!   ring fills, the *oldest* span on that node is evicted and counted in
//!   [`Tracer::dropped`], bounding memory on long runs.
//! - *Cold:* [`Tracer::flush_closed`] (driven out of band, e.g. by a
//!   low-priority simulation timer) drains every ring into a per-trace
//!   staging area, where the causal-tree / critical-path / flight-recorder
//!   machinery picks complete traces up via [`Tracer::take_trace`]. Each
//!   span is moved exactly once, so draining is amortized O(1) per span. A
//!   flush between two spans of the same request never splits its causal
//!   tree: `take_trace` merges the staged spans with whatever is still in
//!   the rings.
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
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use simcore::SimTime;

/// The pipeline stages a request traverses, in data-plane order.
///
/// One request produces one span per stage it visits; chained functions
/// repeat the DNE/fabric stages once per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
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
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 19] = [
        Stage::HttpParse,
        Stage::RssDispatch,
        Stage::Gateway,
        Stage::ComchSubmit,
        Stage::DwrrQueue,
        Stage::DneTx,
        Stage::ConnPick,
        Stage::SocDma,
        Stage::RnicPost,
        Stage::Fabric,
        Stage::RxCompletion,
        Stage::RbrRecover,
        Stage::ComchDeliver,
        Stage::SkMsg,
        Stage::FnExec,
        Stage::RetryBackoff,
        Stage::FaultInject,
        Stage::DeadlineDrop,
        Stage::HealthEvent,
    ];

    /// Returns the pre-interned `u8` id of the stage (its index in
    /// [`Stage::ALL`]) — what the hot-tier ring stores instead of the enum.
    #[inline]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Recovers a stage from its interned id.
    #[inline]
    pub fn from_id(id: u8) -> Stage {
        Stage::ALL[id as usize]
    }

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
/// SipHash dominates the old record path's cost; span recording only keys
/// on request ids under our own control, so DoS resistance buys nothing.
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
    fn write_u32(&mut self, n: u32) {
        self.hash = (self.hash.rotate_left(5) ^ n as u64).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The hot-tier span layout: 32 bytes, node implied by the owning ring,
/// stage interned to its `u8` id.
#[derive(Clone, Copy)]
struct PackedSpan {
    req_id: u64,
    start_ns: u64,
    end_ns: u64,
    span_id: u32,
    parent_id: u32,
    tenant: u16,
    stage: u8,
}

/// One node's fixed-capacity span ring plus its per-trace causal cursors.
///
/// Storage grows lazily up to `capacity` and then wraps, evicting the
/// oldest span on this node; eviction is counted, never silent.
///
/// Cache-line aligned: rings live in a `Vec` indexed by node and are
/// written on every traced event; the alignment keeps two nodes' hot
/// fields (`head`, `cache_req`, `cache_span`) off one line (before/after
/// in the notes of `results/BENCH_obs.json`).
#[repr(align(64))]
struct SpanRing {
    /// The node every span in this ring belongs to.
    node: u32,
    buf: Vec<PackedSpan>,
    /// Index of the oldest span once the ring has wrapped.
    head: usize,
    evicted: u64,
    capacity: usize,
    /// Causal cursor: the latest span id per trace on this node. A new
    /// span parents on the cursor; a cross-node hand-off overwrites the
    /// receiver's cursor with the sender's (carried in the payload ctx).
    cursor: HashMap<u64, u32, FxBuild>,
    /// Single-entry cursor cache: a request's spans on one node land in
    /// bursts (several per simulator callback), so the hottest cursor is
    /// almost always the one just written. While `cache_req` holds a
    /// trace, the cache — not the map — is authoritative for it; the map
    /// entry is written back lazily when another trace takes the slot.
    /// `NO_CACHED_REQ` marks the slot empty.
    cache_req: u64,
    cache_span: u32,
}

/// Sentinel for an empty [`SpanRing::cache_req`] slot (`u64::MAX` is not
/// a usable request id: ids are allocated from zero upward).
const NO_CACHED_REQ: u64 = u64::MAX;

impl SpanRing {
    fn new(node: u32, capacity: usize) -> SpanRing {
        SpanRing {
            node,
            // Preallocate up to the wrap point (capped so an effectively
            // unbounded test capacity doesn't reserve gigabytes): growth
            // reallocs on the record path show up as page-fault noise in
            // the overhead bench.
            buf: Vec::with_capacity(capacity.min(1 << 16)),
            head: 0,
            evicted: 0,
            capacity,
            cursor: HashMap::default(),
            cache_req: NO_CACHED_REQ,
            cache_span: 0,
        }
    }

    /// Reads the causal cursor for `req_id` (cache first, then the map).
    #[inline]
    fn cursor_of(&self, req_id: u64) -> u32 {
        if self.cache_req == req_id {
            self.cache_span
        } else {
            self.cursor.get(&req_id).copied().unwrap_or(0)
        }
    }

    /// Overwrites the causal cursor for `req_id`, pulling it into the
    /// cache slot: an adoption is always followed by span records for the
    /// same trace on this node, which then hit the cache map-free. Any
    /// stale map entry is harmless — the cache is authoritative while it
    /// holds the trace, and the write-back overwrites the map copy.
    #[inline]
    fn set_cursor(&mut self, req_id: u64, span_id: u32) {
        if self.cache_req != req_id && self.cache_req != NO_CACHED_REQ {
            self.cursor.insert(self.cache_req, self.cache_span);
        }
        self.cache_req = req_id;
        self.cache_span = span_id;
    }

    /// Advances the cursor to `span_id`, returning the previous cursor
    /// (the new span's parent). The hot path: a cache hit touches no map.
    #[inline]
    fn advance_cursor(&mut self, req_id: u64, span_id: u32) -> u32 {
        if self.cache_req == req_id {
            return std::mem::replace(&mut self.cache_span, span_id);
        }
        // Another trace takes the cache slot: write the displaced cursor
        // back to the map, then read the incoming trace's last cursor.
        if self.cache_req != NO_CACHED_REQ {
            self.cursor.insert(self.cache_req, self.cache_span);
        }
        let parent = self.cursor.get(&req_id).copied().unwrap_or(0);
        self.cache_req = req_id;
        self.cache_span = span_id;
        parent
    }

    /// Drops `req_id`'s cursor state entirely (request finished).
    #[inline]
    fn forget_cursor(&mut self, req_id: u64) {
        if self.cache_req == req_id {
            self.cache_req = NO_CACHED_REQ;
        }
        self.cursor.remove(&req_id);
    }

    /// The hot-path write: one indexed store (plus amortized growth up to
    /// the fixed capacity).
    #[inline]
    fn push(&mut self, span: PackedSpan) {
        if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else if self.capacity == 0 {
            self.evicted += 1;
        } else {
            self.buf[self.head] = span;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.evicted += 1;
        }
    }

    /// Visits the ring's spans oldest-first.
    fn for_each(&self, mut f: impl FnMut(&PackedSpan)) {
        let (wrapped, first) = self.buf.split_at(self.head);
        for s in first.iter().chain(wrapped) {
            f(s);
        }
    }

    fn record_of(&self, s: &PackedSpan) -> SpanRecord {
        SpanRecord {
            req_id: s.req_id,
            span_id: s.span_id,
            parent_id: s.parent_id,
            tenant: s.tenant,
            node: self.node,
            stage: Stage::from_id(s.stage),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        }
    }
}

/// Reserved node id for the ingress gateway (`u32::MAX`); maps to ring
/// slot 0 so worker nodes `n` occupy slot `n + 1`.
const GATEWAY_SLOT_NODE: u32 = u32::MAX;

#[inline]
fn slot_of(node: u32) -> usize {
    if node == GATEWAY_SLOT_NODE {
        0
    } else {
        node as usize + 1
    }
}

fn node_of_slot(slot: usize) -> u32 {
    if slot == 0 {
        GATEWAY_SLOT_NODE
    } else {
        (slot - 1) as u32
    }
}

struct TraceInner {
    /// Hot tier: slot 0 is the gateway pseudo-node, slot `n + 1` node `n`.
    rings: Vec<SpanRing>,
    /// Cold tier: closed spans staged per trace by [`TraceInner::drain`],
    /// awaiting `take_trace` from the pipeline.
    staged: HashMap<u64, Vec<SpanRecord>, FxBuild>,
    staged_len: usize,
    /// Open intervals keyed by (request, stage) for begin/end call sites
    /// where the two endpoints live in different callbacks.
    open: HashMap<(u64, Stage), (u16, u32, u64)>,
    capacity: usize,
    next_span_id: u32,
    /// Head-sampling modulus: record only traces with `req_id % n == 0`
    /// (0 or 1 keeps everything). The cheap fallback knob when tail-based
    /// sampling is too expensive.
    head_every: u64,
    flushes: u64,
    flush_wall_ns: u64,
    /// Recycled span vectors (see [`Tracer::recycle`]): the staging area
    /// hands one out per trace, so reuse turns the pipeline's
    /// alloc-per-trace into a freelist pop.
    free_vecs: Vec<Vec<SpanRecord>>,
}

/// Cap on the [`TraceInner::free_vecs`] freelist — enough for every
/// in-flight trace of a busy run without hoarding memory after a burst.
const MAX_FREE_VECS: usize = 64;

impl TraceInner {
    fn new(capacity: usize) -> TraceInner {
        TraceInner {
            rings: Vec::new(),
            staged: HashMap::default(),
            staged_len: 0,
            open: HashMap::new(),
            capacity,
            next_span_id: 0,
            head_every: 0,
            flushes: 0,
            flush_wall_ns: 0,
            free_vecs: Vec::new(),
        }
    }

    #[inline]
    fn head_keep(&self, req_id: u64) -> bool {
        self.head_every <= 1 || req_id.is_multiple_of(self.head_every)
    }

    #[inline]
    fn ring_mut(&mut self, node: u32) -> &mut SpanRing {
        let slot = slot_of(node);
        if slot >= self.rings.len() {
            let capacity = self.capacity;
            for s in self.rings.len()..=slot {
                self.rings.push(SpanRing::new(node_of_slot(s), capacity));
            }
        }
        &mut self.rings[slot]
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
        self.next_span_id += 1;
        let span_id = self.next_span_id;
        let ring = self.ring_mut(node);
        if ring.capacity == 0 {
            ring.evicted += 1;
            return span_id;
        }
        let parent_id = ring.advance_cursor(req_id, span_id);
        ring.push(PackedSpan {
            req_id,
            start_ns,
            end_ns,
            span_id,
            parent_id,
            tenant,
            stage: stage.id(),
        });
        span_id
    }

    /// Drains every ring into the cold staging area, oldest-first per ring
    /// in slot order. Each span is moved exactly once. Returns the number
    /// of spans moved.
    fn drain(&mut self) -> usize {
        let mut moved = 0;
        // Split borrows: rings are drained into `staged`.
        let staged = &mut self.staged;
        let free_vecs = &mut self.free_vecs;
        for ring in &mut self.rings {
            if ring.buf.is_empty() {
                continue;
            }
            moved += ring.buf.len();
            let node = ring.node;
            let (wrapped, first) = ring.buf.split_at(ring.head);
            for part in [first, wrapped] {
                // A request's spans on one node arrive in bursts, so
                // chunking by trace id pays one staging-map probe per
                // burst instead of per span.
                for run in part.chunk_by(|a, b| a.req_id == b.req_id) {
                    staged
                        .entry(run[0].req_id)
                        // Pre-size for a typical trace so a request's
                        // staging vector is one allocation, not a growth
                        // ladder — or zero, when the freelist has one.
                        .or_insert_with(|| {
                            free_vecs.pop().unwrap_or_else(|| Vec::with_capacity(32))
                        })
                        .extend(run.iter().map(|s| SpanRecord {
                            req_id: s.req_id,
                            span_id: s.span_id,
                            parent_id: s.parent_id,
                            tenant: s.tenant,
                            node,
                            stage: Stage::from_id(s.stage),
                            start_ns: s.start_ns,
                            end_ns: s.end_ns,
                        }));
                }
            }
            ring.buf.clear();
            ring.head = 0;
        }
        self.staged_len += moved;
        moved
    }

    fn len(&self) -> usize {
        self.staged_len + self.rings.iter().map(|r| r.buf.len()).sum::<usize>()
    }

    fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.evicted).sum()
    }

    /// Every retained span (both tiers) as public records, unsorted.
    fn all_records(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.len());
        for spans in self.staged.values() {
            out.extend_from_slice(spans);
        }
        for ring in &self.rings {
            ring.for_each(|s| out.push(ring.record_of(s)));
        }
        out
    }
}

/// A shared handle for recording request spans.
///
/// `Tracer::default()` / [`Tracer::disabled`] produce a no-op handle:
/// every record call tests one `Option` discriminant and returns. Cloning
/// an enabled tracer shares the same ring buffers.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceInner>>>,
}

impl Tracer {
    /// Creates a disabled tracer (all recording calls are no-ops).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Creates an enabled tracer with a default per-node ring capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(1 << 20)
    }

    /// Creates an enabled tracer whose per-node rings retain at most
    /// `capacity` spans each: once full the oldest span on that node is
    /// evicted (and counted in [`Tracer::dropped`]) rather than growing
    /// without bound on long runs.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceInner::new(capacity)))),
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

    /// Returns `true` when the head-sampling policy keeps this trace
    /// (always `true` on a disabled tracer's default policy — callers gate
    /// on [`Tracer::is_enabled`] first).
    pub fn head_keep(&self, req_id: u64) -> bool {
        match &self.inner {
            Some(inner) => inner.borrow().head_keep(req_id),
            None => false,
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
            inner
                .borrow_mut()
                .ring_mut(node)
                .set_cursor(req_id, parent_span);
        }
    }

    /// Returns the `(trace, node)` causal cursor — the span id the next
    /// span on this node would parent on (0 when none).
    #[inline]
    pub fn cursor(&self, req_id: u64, node: u32) -> u32 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .borrow()
                .rings
                .get(slot_of(node))
                .map_or(0, |r| r.cursor_of(req_id))
        })
    }

    /// Opens an interval whose end will arrive in a later callback.
    ///
    /// A second `begin` for the same (request, stage) before the matching
    /// [`Tracer::end`] overwrites the first.
    #[inline]
    pub fn begin(&self, req_id: u64, tenant: u16, node: u32, stage: Stage, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        inner
            .borrow_mut()
            .open
            .insert((req_id, stage), (tenant, node, at.as_nanos()));
    }

    /// Closes an interval opened by [`Tracer::begin`]; unmatched ends are
    /// ignored. Returns the new span's id (0 when unmatched or disabled).
    #[inline]
    pub fn end(&self, req_id: u64, stage: Stage, at: SimTime) -> u32 {
        let Some(inner) = &self.inner else { return 0 };
        let mut inner = inner.borrow_mut();
        if let Some((tenant, node, start_ns)) = inner.open.remove(&(req_id, stage)) {
            inner.push(req_id, tenant, node, stage, start_ns, at.as_nanos())
        } else {
            0
        }
    }

    /// Drains every per-node ring into the cold per-trace staging area —
    /// the out-of-band flush a low-priority simulation timer drives. Each
    /// span is moved exactly once; a flush mid-request never splits the
    /// request's causal tree (see [`Tracer::take_trace`]). Returns the
    /// number of spans moved.
    pub fn flush_closed(&self) -> usize {
        let Some(inner) = &self.inner else { return 0 };
        let t0 = std::time::Instant::now();
        let mut inner = inner.borrow_mut();
        let moved = inner.drain();
        inner.flushes += 1;
        inner.flush_wall_ns += t0.elapsed().as_nanos() as u64;
        moved
    }

    /// Returns the number of out-of-band flushes performed.
    pub fn ring_flushes(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().flushes)
    }

    /// Returns the cumulative wall-clock nanoseconds spent in
    /// [`Tracer::flush_closed`] (a cost metric, not virtual time).
    pub fn flush_wall_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().flush_wall_ns)
    }

    /// Returns a copy of all recorded spans, ordered by start time.
    pub fn records(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut records = inner.borrow().all_records();
        records.sort_by_key(|r| (r.start_ns, r.req_id, r.span_id));
        records
    }

    /// Removes and returns every span of one trace (ordered by start time,
    /// then span id), clearing the trace's causal cursors. The trace
    /// pipeline calls this exactly once per completed request. Spans still
    /// in the hot rings are drained first, so a trace is never split
    /// between tiers.
    pub fn take_trace(&self, req_id: u64) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let inner = &mut *inner.borrow_mut();
        // Any portion the out-of-band flusher already staged.
        let mut taken = match inner.staged.remove(&req_id) {
            Some(v) => {
                inner.staged_len -= v.len();
                v
            }
            None => Vec::new(),
        };
        // Extract the rest straight out of the hot rings, leaving every
        // other request's spans in place for their own take (or the next
        // flush). Unlike a full drain this touches no staging-map entries
        // — the per-completion pipeline path pays one compaction pass
        // over the in-flight spans instead of hashing every closed burst.
        let free_vecs = &mut inner.free_vecs;
        for ring in &mut inner.rings {
            // Cursors outlive a flushed buffer, so always clear them.
            ring.forget_cursor(req_id);
            if ring.buf.is_empty() {
                continue;
            }
            // Straighten a wrapped ring so retention keeps oldest-first
            // order (rings never wrap while a pipeline takes per request).
            if ring.head != 0 {
                ring.buf.rotate_left(ring.head);
                ring.head = 0;
            }
            let node = ring.node;
            ring.buf.retain(|s| {
                if s.req_id != req_id {
                    return true;
                }
                if taken.capacity() == 0 {
                    // First span found: size the output once, reusing a
                    // recycled vector when one is available.
                    match free_vecs.pop() {
                        Some(v) => taken = v,
                        None => taken.reserve(32),
                    }
                }
                taken.push(SpanRecord {
                    req_id: s.req_id,
                    span_id: s.span_id,
                    parent_id: s.parent_id,
                    tenant: s.tenant,
                    node,
                    stage: Stage::from_id(s.stage),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                });
                false
            });
        }
        if !inner.open.is_empty() {
            inner.open.retain(|&(t, _), _| t != req_id);
        }
        // Span ids are unique within a trace, so the unstable sort is
        // deterministic — and it never allocates, unlike the stable one.
        taken.sort_unstable_by_key(|r| (r.start_ns, r.span_id));
        taken
    }

    /// Returns a consumed trace's span vector to the drain freelist so the
    /// next trace staged by [`TraceInner::drain`] reuses its allocation.
    /// The steady-state trace pipeline (take → summarize → evict) then
    /// runs without touching the allocator. Bounded by `MAX_FREE_VECS`;
    /// excess vectors are simply dropped.
    pub fn recycle(&self, mut spans: Vec<SpanRecord>) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.borrow_mut();
        if inner.free_vecs.len() < MAX_FREE_VECS {
            spans.clear();
            inner.free_vecs.push(spans);
        }
    }

    /// Drops one finished trace's causal bookkeeping (cursors and open
    /// intervals) while keeping its recorded spans in place.
    ///
    /// Call this at request completion when no trace pipeline consumes
    /// the trace via [`Tracer::take_trace`]: without it the per-ring
    /// cursor maps grow by one entry per request ever seen, and a long
    /// ring-only run pays their cache misses on every span write.
    pub fn retire(&self, req_id: u64) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.borrow_mut();
        for ring in &mut inner.rings {
            ring.forget_cursor(req_id);
        }
        if !inner.open.is_empty() {
            inner.open.retain(|&(t, _), _| t != req_id);
        }
    }

    /// Returns the number of retained spans across both tiers.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().len())
    }

    /// Returns `true` when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of spans dropped to ring eviction (or a zero
    /// capacity) across all nodes.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().dropped())
    }

    /// Aggregates total time and span count per stage, sorted by total
    /// time descending — the "where did the time go" view.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut by_stage: HashMap<Stage, StageTotal> = HashMap::new();
        for r in inner.borrow().all_records() {
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
        let mut stages: Vec<Stage> = inner
            .borrow()
            .all_records()
            .iter()
            .filter(|r| r.req_id == req_id)
            .map(|r| r.stage)
            .collect();
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
        t.span(1, 0, 0, Stage::Fabric, at(0), at(10));
        t.begin(1, 0, 0, Stage::DwrrQueue, at(0));
        t.end(1, Stage::DwrrQueue, at(5));
        assert!(!t.is_enabled());
        assert!(!t.decide_sample(1));
        assert!(t.is_empty());
        assert!(t.records().is_empty());
        assert!(t.stage_totals().is_empty());
        assert_eq!(t.cursor(1, 0), 0);
        assert_eq!(t.flush_closed(), 0);
    }

    #[test]
    fn span_and_begin_end_record() {
        let t = Tracer::enabled();
        t.span(7, 2, 1, Stage::Fabric, at(10), at(30));
        t.begin(7, 2, 0, Stage::DwrrQueue, at(2));
        t.end(7, Stage::DwrrQueue, at(8));
        let records = t.records();
        assert_eq!(records.len(), 2);
        // Sorted by start time: the queue span opened at t=2 comes first.
        assert_eq!(records[0].stage, Stage::DwrrQueue);
        assert_eq!(records[0].duration_ns(), 6_000);
        assert_eq!(records[1].stage, Stage::Fabric);
        assert_eq!(records[1].tenant, 2);
        assert_eq!(records[1].node, 1);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let t = Tracer::enabled();
        t.end(1, Stage::Fabric, at(5));
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.span(1, 0, 0, Stage::FnExec, at(0), at(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.span(i, 0, 0, Stage::FnExec, at(i), at(i + 1));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // Ring semantics: the newest spans survive.
        let kept: Vec<u64> = t.records().iter().map(|r| r.req_id).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn eviction_is_per_node_ring() {
        let t = Tracer::with_capacity(2);
        for i in 0..4 {
            t.span(i, 0, 0, Stage::FnExec, at(i), at(i + 1));
            t.span(i, 0, 1, Stage::Fabric, at(i), at(i + 1));
        }
        // Each node's ring evicted its own two oldest spans.
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 4);
        let kept: Vec<(u64, u32)> = t.records().iter().map(|r| (r.req_id, r.node)).collect();
        assert_eq!(kept, vec![(2, 0), (2, 1), (3, 0), (3, 1)]);
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
        assert!(t.head_keep(4) && !t.head_keep(5));
        assert!(t.decide_sample(4) && !t.decide_sample(5));
        t.set_head_sample(0);
        assert!(t.head_keep(5));
    }

    #[test]
    fn stage_ids_round_trip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.id() as usize, i);
            assert_eq!(Stage::from_id(s.id()), *s);
        }
    }

    #[test]
    fn flush_moves_spans_without_losing_them() {
        let t = Tracer::enabled();
        t.span(1, 0, 0, Stage::Gateway, at(0), at(1));
        t.span(1, 0, 1, Stage::Fabric, at(1), at(2));
        let moved = t.flush_closed();
        assert_eq!(moved, 2);
        assert_eq!(t.ring_flushes(), 1);
        assert_eq!(t.len(), 2, "flushed spans stay visible");
        assert_eq!(t.records().len(), 2);
        // A second flush with empty rings moves nothing.
        assert_eq!(t.flush_closed(), 0);
        assert_eq!(t.ring_flushes(), 2);
    }

    #[test]
    fn flush_mid_request_does_not_split_the_causal_tree() {
        let t = Tracer::enabled();
        let a = t.span(5, 1, 0, Stage::Gateway, at(0), at(1));
        t.flush_closed();
        // The cursor survives the flush: later spans still chain on `a`.
        let b = t.span(5, 1, 0, Stage::ComchSubmit, at(1), at(2));
        t.adopt_parent(5, 1, b);
        let c = t.span(5, 1, 1, Stage::RxCompletion, at(2), at(3));
        let taken = t.take_trace(5);
        assert_eq!(taken.len(), 3, "staged and ring spans merge");
        assert_eq!(taken[0].span_id, a);
        assert_eq!(taken[1].parent_id, a, "chain unbroken across the flush");
        assert_eq!(taken[2].span_id, c);
        assert_eq!(taken[2].parent_id, b, "cross-node link unbroken");
        assert!(t.is_empty());
    }

    #[test]
    fn flush_then_take_matches_unflushed_take() {
        let record = |t: &Tracer| {
            t.span(9, 1, 0, Stage::Gateway, at(0), at(2));
            t.span(9, 1, 0, Stage::ComchSubmit, at(2), at(3));
            t.span(9, 1, 1, Stage::Fabric, at(3), at(7));
            t.span(9, 1, 1, Stage::FnExec, at(7), at(9));
        };
        let a = Tracer::enabled();
        record(&a);
        let b = Tracer::enabled();
        record(&b);
        b.flush_closed();
        assert_eq!(a.take_trace(9), b.take_trace(9));
    }
}
