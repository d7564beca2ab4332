//! Fixed-size buffer pools with an ownership state machine.
//!
//! A [`BufferPool`] pre-carves a hugepage arena into equal-size buffers and
//! hands them out with `get`/`put`, mirroring DPDK's `rte_mempool_get()` /
//! `rte_mempool_put()` (§3.4). On top of allocation, every buffer carries an
//! ownership state:
//!
//! ```text
//! Free --get()--> Owned --into_desc()--> InFlight --redeem()--> Owned --put()/drop--> Free
//! ```
//!
//! An [`OwnedBuf`] is the *only* way to touch buffer bytes, is not cloneable,
//! and moves between functions either directly (same thread) or by being
//! detached into a 16-byte [`BufferDesc`] and redeemed by the consumer. A
//! generation counter per buffer makes stale descriptors fail to redeem, so
//! a buggy or malicious function cannot forge access to a recycled buffer —
//! this is the mechanical core of the paper's lock-free zero-copy claim.
//!
//! The hop itself takes no lock: state, generation and detach count share
//! one atomic word per buffer, so `into_desc` is a store by the exclusive
//! owner, `redeem` one compare-exchange and `peek_payload_into` one load.
//! Only the free list (`get`/`put`) sits behind a mutex.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::descriptor::BufferDesc;
use crate::hugepage::SegmentArena;
use crate::tenant::TenantId;

/// Configuration for a [`BufferPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Identifier of the tenant owning this pool.
    pub tenant: TenantId,
    /// Pool identifier, unique within the tenant.
    pub pool_id: u16,
    /// Size of each buffer in bytes.
    pub buf_size: usize,
    /// Number of buffers to pre-allocate.
    pub capacity: u32,
    /// Backing segment size; defaults to a 2 MiB hugepage.
    pub segment_size: usize,
}

impl PoolConfig {
    /// Creates a config with the default hugepage segment size.
    pub fn new(tenant: TenantId, pool_id: u16, buf_size: usize, capacity: u32) -> Self {
        PoolConfig {
            tenant,
            pool_id,
            buf_size,
            capacity,
            segment_size: crate::hugepage::HUGEPAGE_SIZE,
        }
    }
}

/// Errors returned by pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// No free buffers remain.
    Exhausted,
    /// Descriptor references a different tenant or pool.
    WrongPool,
    /// Descriptor index is out of range.
    BadIndex,
    /// Buffer is not in flight (double redeem, or never detached).
    NotInFlight,
    /// Descriptor generation is stale (buffer was recycled).
    StaleGeneration,
    /// Declared payload length exceeds the buffer size.
    LengthTooLarge,
    /// Invalid configuration.
    BadConfig(&'static str),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "pool exhausted"),
            PoolError::WrongPool => write!(f, "descriptor targets a different pool"),
            PoolError::BadIndex => write!(f, "descriptor index out of range"),
            PoolError::NotInFlight => write!(f, "buffer is not in flight"),
            PoolError::StaleGeneration => write!(f, "stale descriptor generation"),
            PoolError::LengthTooLarge => write!(f, "payload length exceeds buffer size"),
            PoolError::BadConfig(msg) => write!(f, "bad pool config: {msg}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-buffer ownership word: `state | generation << 2 | detaches << 18`.
///
/// One `AtomicU64` per buffer carries everything the ownership state
/// machine needs, so a hop between owners touches one word and no lock:
///
/// | transition            | who                      | how                 |
/// |-----------------------|--------------------------|---------------------|
/// | `Free → Owned`        | `get`, having popped it  | load + store        |
/// | `Owned → InFlight`    | `into_desc`, the owner   | load + store        |
/// | `InFlight → Owned`    | `redeem`, anyone         | one compare-exchange|
/// | `Owned → Free`        | `put`/drop, the owner    | load + store        |
///
/// The three owner-side transitions are plain stores because only a word
/// in state `InFlight` can be changed by anyone else, and a redeem's
/// compare-exchange expects exactly such a word — while a buffer is `Free`
/// (on the free list, or just popped by one `get`) or `Owned` (one
/// `OwnedBuf` exists) no compare-exchange can succeed. The detach count in
/// the high bits only grows, so a descriptor copy held across a full
/// recycle never sees "its" word again (no ABA).
///
/// Every store is `Release` and every load `Acquire`: the detaching owner's
/// payload writes happen-before the redeemer's reads (`into_desc` store →
/// `redeem` compare-exchange / `peek_payload_into` load). The `put` → `get`
/// hand-over is ordered by the free-list mutex.
mod word {
    pub const FREE: u64 = 0;
    pub const OWNED: u64 = 1;
    pub const IN_FLIGHT: u64 = 2;
    const STATE_MASK: u64 = 0b11;
    const GEN_SHIFT: u32 = 2;
    const DETACH_SHIFT: u32 = 18;

    #[inline]
    pub fn state(w: u64) -> u64 {
        w & STATE_MASK
    }

    #[inline]
    pub fn generation(w: u64) -> u16 {
        (w >> GEN_SHIFT) as u16
    }

    #[inline]
    pub fn detaches(w: u64) -> u64 {
        w >> DETACH_SHIFT
    }

    #[inline]
    pub fn with_state(w: u64, state: u64) -> u64 {
        (w & !STATE_MASK) | state
    }

    /// Opens a fresh generation, so no descriptor cut before can redeem.
    #[inline]
    pub fn next_generation(w: u64) -> u64 {
        let gen = generation(w).wrapping_add(1);
        (w & !(0xffff << GEN_SHIFT)) | (gen as u64) << GEN_SHIFT
    }

    /// `Owned → InFlight` under a fresh generation, counting the detach.
    #[inline]
    pub fn detached(w: u64) -> u64 {
        with_state(next_generation(w), IN_FLIGHT) + (1 << DETACH_SHIFT)
    }
}

/// What the pool's one lock still covers: the LIFO free list and the
/// counters that move with it.
struct FreeList {
    free: Vec<u32>,
    gets: u64,
    puts: u64,
    failed_gets: u64,
}

pub(crate) struct PoolShared {
    pub(crate) config: PoolConfig,
    arena: SegmentArena,
    bufs_per_segment: usize,
    /// Bytes at the end of each segment that no buffer uses; zero when
    /// buffers tile the segment exactly, and then a buffer's byte offset is
    /// `index * buf_size` with no division.
    segment_slack: usize,
    /// One ownership word per buffer, see [`word`].
    words: Box<[AtomicU64]>,
    /// A statistic; publishes nothing.
    failed_redeems: AtomicU64,
    free_list: Mutex<FreeList>,
}

impl PoolShared {
    fn free_list(&self) -> MutexGuard<'_, FreeList> {
        // Every update under the lock is a push/pop plus a counter bump and
        // leaves the list valid, so a panic elsewhere poisons nothing.
        self.free_list
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn names(&self, desc: &BufferDesc) -> bool {
        desc.tenant == self.config.tenant.0 && desc.pool_id == self.config.pool_id
    }

    /// Address of buffer `index`: computed once per attach, at most one
    /// division. Buffers never straddle a segment.
    #[inline]
    fn buf_ptr(&self, index: u32) -> NonNull<u8> {
        let index = index as usize;
        let mut offset = index * self.config.buf_size;
        if self.segment_slack != 0 {
            offset += index / self.bufs_per_segment * self.segment_slack;
        }
        self.arena.range(offset, self.config.buf_size)
    }

    /// The `InFlight → Owned` transition: the one compare-exchange.
    fn claim(&self, desc: &BufferDesc) -> Result<(), PoolError> {
        if !self.names(desc) {
            return Err(PoolError::WrongPool);
        }
        if desc.len as usize > self.config.buf_size {
            return Err(PoolError::LengthTooLarge);
        }
        let word = self
            .words
            .get(desc.buf_index as usize)
            .ok_or(PoolError::BadIndex)?;
        let mut seen = word.load(Ordering::Acquire);
        loop {
            if word::state(seen) != word::IN_FLIGHT {
                return Err(PoolError::NotInFlight);
            }
            if word::generation(seen) != desc.generation {
                return Err(PoolError::StaleGeneration);
            }
            // Losing the race means another holder of this descriptor won
            // it; the reloaded word then says why this one may not.
            match word.compare_exchange(
                seen,
                word::with_state(seen, word::OWNED),
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => seen = now,
            }
        }
    }
}

/// Point-in-time statistics for a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub capacity: u32,
    pub free: u32,
    pub owned: u32,
    pub in_flight: u32,
    pub gets: u64,
    pub puts: u64,
    pub detaches: u64,
    pub redeems: u64,
    pub failed_gets: u64,
    pub failed_redeems: u64,
}

/// A fixed-size buffer pool with ownership tracking.
///
/// Cloning the pool clones a handle to the same shared state, so a pool can
/// be shared between a producer and consumer thread.
///
/// # Examples
///
/// ```
/// use membuf::{BufferPool, PoolConfig};
/// use membuf::tenant::TenantId;
///
/// let pool = BufferPool::new(PoolConfig::new(TenantId(1), 0, 4096, 64)).unwrap();
/// let mut buf = pool.get().unwrap();
/// buf.write_payload(b"hello").unwrap();
/// let desc = buf.into_desc(7); // detach for transport; dst function = 7
/// let got = pool.redeem(desc).unwrap();
/// assert_eq!(got.as_slice(), b"hello");
/// ```
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Creates a pool, pre-allocating the backing arena.
    pub fn new(config: PoolConfig) -> Result<Self, PoolError> {
        if config.buf_size == 0 {
            return Err(PoolError::BadConfig("buf_size must be positive"));
        }
        if config.capacity == 0 {
            return Err(PoolError::BadConfig("capacity must be positive"));
        }
        if config.buf_size > config.segment_size {
            return Err(PoolError::BadConfig("buffer larger than a segment"));
        }
        if u32::try_from(config.buf_size).is_err() {
            return Err(PoolError::BadConfig(
                "buffer larger than a descriptor's length field",
            ));
        }
        let bufs_per_segment = config.segment_size / config.buf_size;
        let segments = (config.capacity as usize).div_ceil(bufs_per_segment);
        let arena =
            SegmentArena::with_segment_size(segments * config.segment_size, config.segment_size);
        let free_list = FreeList {
            free: (0..config.capacity).rev().collect(),
            gets: 0,
            puts: 0,
            failed_gets: 0,
        };
        Ok(BufferPool {
            shared: Arc::new(PoolShared {
                segment_slack: config.segment_size - bufs_per_segment * config.buf_size,
                words: (0..config.capacity)
                    .map(|_| AtomicU64::new(word::FREE))
                    .collect(),
                config,
                arena,
                bufs_per_segment,
                failed_redeems: AtomicU64::new(0),
                free_list: Mutex::new(free_list),
            }),
        })
    }

    /// Returns the tenant owning this pool.
    pub fn tenant(&self) -> TenantId {
        self.shared.config.tenant
    }

    /// Returns the pool identifier.
    pub fn pool_id(&self) -> u16 {
        self.shared.config.pool_id
    }

    /// Returns the per-buffer size in bytes.
    pub fn buf_size(&self) -> usize {
        self.shared.config.buf_size
    }

    /// Returns the number of buffers in the pool.
    pub fn capacity(&self) -> u32 {
        self.shared.config.capacity
    }

    /// Returns the RNIC translation entries registering this pool consumes.
    pub fn mtt_entries(&self) -> usize {
        self.shared.arena.mtt_entries()
    }

    /// Allocates a free buffer (`rte_mempool_get()` analogue).
    pub fn get(&self) -> Result<OwnedBuf, PoolError> {
        let index = {
            let mut list = self.shared.free_list();
            let Some(index) = list.free.pop() else {
                list.failed_gets += 1;
                return Err(PoolError::Exhausted);
            };
            list.gets += 1;
            // Popping `index` made this call its only holder, so the flip
            // needs no lock; it sits before the unlock only so that the
            // unlock's store-buffer drain covers it too.
            let word = &self.shared.words[index as usize];
            let free = word.load(Ordering::Acquire);
            debug_assert_eq!(word::state(free), word::FREE);
            word.store(word::with_state(free, word::OWNED), Ordering::Release);
            index
        };
        Ok(OwnedBuf::attach(self.shared.clone(), index, 0))
    }

    /// Redeems an in-flight descriptor, transferring ownership to the caller.
    ///
    /// Every refusal is counted in [`PoolStats::failed_redeems`], so a forged
    /// or replayed descriptor leaves a trace whichever check stops it.
    pub fn redeem(&self, desc: BufferDesc) -> Result<OwnedBuf, PoolError> {
        match self.shared.claim(&desc) {
            Ok(()) => Ok(OwnedBuf::attach(
                self.shared.clone(),
                desc.buf_index,
                desc.len,
            )),
            Err(e) => {
                self.shared.failed_redeems.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Returns a buffer to the pool (`rte_mempool_put()` analogue).
    ///
    /// Dropping an [`OwnedBuf`] has the same effect; this form just makes
    /// the recycle explicit at call sites.
    pub fn put(&self, buf: OwnedBuf) {
        drop(buf);
    }

    /// Returns current statistics.
    ///
    /// Exact whenever no other thread is mid-operation; under concurrent
    /// use the per-buffer words are read one by one, not as a snapshot.
    pub fn stats(&self) -> PoolStats {
        let mut owned = 0u32;
        let mut in_flight = 0u32;
        let mut detaches = 0u64;
        for w in self.shared.words.iter() {
            let w = w.load(Ordering::Acquire);
            detaches += word::detaches(w);
            match word::state(w) {
                word::OWNED => owned += 1,
                word::IN_FLIGHT => in_flight += 1,
                _ => {}
            }
        }
        let list = self.shared.free_list();
        PoolStats {
            capacity: self.shared.config.capacity,
            free: list.free.len() as u32,
            owned,
            in_flight,
            gets: list.gets,
            puts: list.puts,
            detaches,
            // Every detach not still in flight was redeemed.
            redeems: detaches - in_flight as u64,
            failed_gets: list.failed_gets,
            failed_redeems: self.shared.failed_redeems.load(Ordering::Relaxed),
        }
    }

    /// Copies up to `out.len()` leading payload bytes of an in-flight
    /// buffer into `out` without transferring ownership, and returns the
    /// number of bytes copied.
    ///
    /// The caller must hold the descriptor (i.e. be the logical owner of the
    /// in-flight buffer); the descriptor is validated like
    /// [`BufferPool::redeem`] does, so stale or foreign descriptors return
    /// `None`. The data-plane trace sites use this to read the request id
    /// and sampling bit carried in the payload header while the buffer
    /// transits the data plane, without a heap allocation per peek.
    pub fn peek_payload_into(&self, desc: BufferDesc, out: &mut [u8]) -> Option<usize> {
        let shared = &*self.shared;
        if !shared.names(&desc) {
            return None;
        }
        let w = shared
            .words
            .get(desc.buf_index as usize)?
            .load(Ordering::Acquire);
        if word::state(w) != word::IN_FLIGHT || word::generation(w) != desc.generation {
            return None;
        }
        let take = out.len().min(desc.len as usize).min(shared.config.buf_size);
        // SAFETY: the buffer is InFlight, so no `OwnedBuf` (and hence no
        // mutable reference) exists for it; the descriptor holder is its
        // logical owner and we only copy bytes out under that authority.
        // `buf_ptr` is valid for `buf_size >= take` bytes.
        let slice =
            unsafe { std::slice::from_raw_parts(shared.buf_ptr(desc.buf_index).as_ptr(), take) };
        out[..take].copy_from_slice(slice);
        Some(take)
    }

    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }

    pub(crate) fn from_shared(shared: Arc<PoolShared>) -> Self {
        BufferPool { shared }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("tenant", &self.shared.config.tenant)
            .field("pool_id", &self.shared.config.pool_id)
            .field("buf_size", &self.shared.config.buf_size)
            .field("capacity", &self.shared.config.capacity)
            .finish()
    }
}

/// `OwnedBuf::index` once the buffer has been detached into a descriptor,
/// so `Drop` must not recycle it. No buffer has this index: a pool's
/// capacity is a `u32`.
const DETACHED: u32 = u32::MAX;

/// Exclusive ownership of one pool buffer.
///
/// The token is deliberately neither `Clone` nor `Copy`: possession *is*
/// the access right. Dropping it recycles the buffer.
pub struct OwnedBuf {
    shared: Arc<PoolShared>,
    /// The buffer's first byte, valid for `buf_size` bytes while `shared`
    /// keeps the arena alive.
    data: NonNull<u8>,
    index: u32,
    /// Payload length; at most `buf_size`, which fits a `u32`.
    len: u32,
}

// SAFETY: `data` points into the arena that `shared` (an `Arc` of a
// `Send + Sync` pool) keeps mapped, and the pool's state machine makes this
// token the only accessor of that range, so moving the token to another
// thread moves the access right with it; `index` and `len` are plain data.
unsafe impl Send for OwnedBuf {}
// SAFETY: as for `Send`; `&OwnedBuf` only hands out `&[u8]` of the range and
// `Copy` fields, and every mutation goes through `&mut self` or consumes it.
unsafe impl Sync for OwnedBuf {}

impl OwnedBuf {
    #[inline]
    fn attach(shared: Arc<PoolShared>, index: u32, len: u32) -> Self {
        OwnedBuf {
            data: shared.buf_ptr(index),
            shared,
            index,
            len,
        }
    }

    /// Returns the buffer index within its pool.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Returns the tenant owning this buffer's pool.
    pub fn tenant(&self) -> TenantId {
        self.shared.config.tenant
    }

    /// Returns this buffer's pool identifier.
    pub fn pool_id(&self) -> u16 {
        self.shared.config.pool_id
    }

    /// Returns the current payload length.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the buffer capacity in bytes.
    pub fn buf_size(&self) -> usize {
        self.shared.config.buf_size
    }

    /// Returns the payload as a shared slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `data` is valid for `buf_size >= len` bytes, and this
        // `OwnedBuf` is the unique owner of the buffer (pool state
        // machine); no other reference to this range can exist.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr(), self.len as usize) }
    }

    /// Returns the full buffer as a mutable slice (capacity, not payload).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: Unique ownership as in `as_slice`, and `&mut self` also
        // prevents aliasing through this token.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_ptr(), self.shared.config.buf_size) }
    }

    /// Sets the payload length.
    pub fn set_len(&mut self, len: usize) -> Result<(), PoolError> {
        if len > self.shared.config.buf_size {
            return Err(PoolError::LengthTooLarge);
        }
        self.len = len as u32;
        Ok(())
    }

    /// Copies `payload` into the buffer and sets the length.
    pub fn write_payload(&mut self, payload: &[u8]) -> Result<(), PoolError> {
        self.set_len(payload.len())?;
        self.as_mut_slice()[..payload.len()].copy_from_slice(payload);
        Ok(())
    }

    /// Detaches ownership into a wire descriptor (state → `InFlight`).
    ///
    /// The descriptor can be sent over any transport and redeemed exactly
    /// once by [`BufferPool::redeem`] on the receiving side.
    pub fn into_desc(mut self, dst_fn: u16) -> BufferDesc {
        // This token is the buffer's only holder until the store below
        // publishes the descriptor's generation.
        let word = &self.shared.words[self.index as usize];
        let owned = word.load(Ordering::Acquire);
        debug_assert_eq!(word::state(owned), word::OWNED);
        let in_flight = word::detached(owned);
        word.store(in_flight, Ordering::Release);
        let buf_index = std::mem::replace(&mut self.index, DETACHED);
        BufferDesc {
            tenant: self.shared.config.tenant.0,
            pool_id: self.shared.config.pool_id,
            buf_index,
            len: self.len,
            generation: word::generation(in_flight),
            dst_fn,
        }
    }

    /// Returns a clone of the owning pool handle.
    pub fn pool(&self) -> BufferPool {
        BufferPool::from_shared(self.shared.clone())
    }
}

impl Drop for OwnedBuf {
    fn drop(&mut self) {
        if self.index == DETACHED {
            return;
        }
        let mut list = self.shared.free_list();
        // Still the only holder until the push: retiring the generation
        // needs no lock, and sits under it for the reason given in `get`.
        let word = &self.shared.words[self.index as usize];
        let owned = word.load(Ordering::Acquire);
        debug_assert_eq!(word::state(owned), word::OWNED);
        word.store(
            word::with_state(word::next_generation(owned), word::FREE),
            Ordering::Release,
        );
        list.free.push(self.index);
        list.puts += 1;
    }
}

impl fmt::Debug for OwnedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwnedBuf")
            .field("index", &self.index)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u32) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(1), 0, 1024, cap);
        cfg.segment_size = 8 * 1024; // small segments keep tests light
        BufferPool::new(cfg).unwrap()
    }

    #[test]
    fn get_put_cycle_recycles() {
        let p = pool(2);
        let a = p.get().unwrap();
        let b = p.get().unwrap();
        assert_eq!(p.get().unwrap_err(), PoolError::Exhausted);
        p.put(a);
        let c = p.get().unwrap();
        drop(b);
        drop(c);
        let s = p.stats();
        assert_eq!(s.free, 2);
        assert_eq!(s.gets, 3);
        assert_eq!(s.puts, 3);
        assert_eq!(s.failed_gets, 1);
    }

    #[test]
    fn payload_roundtrip() {
        let p = pool(1);
        let mut b = p.get().unwrap();
        b.write_payload(b"zero copy").unwrap();
        assert_eq!(b.as_slice(), b"zero copy");
        assert_eq!(b.len(), 9);
        assert!(b.write_payload(&[0u8; 2048]).is_err());
    }

    #[test]
    fn detach_redeem_transfers_ownership() {
        let p = pool(1);
        let mut b = p.get().unwrap();
        b.write_payload(b"abc").unwrap();
        let desc = b.into_desc(3);
        assert_eq!(desc.dst_fn, 3);
        assert_eq!(p.stats().in_flight, 1);
        let b2 = p.redeem(desc).unwrap();
        assert_eq!(b2.as_slice(), b"abc");
        assert_eq!(p.stats().in_flight, 0);
    }

    #[test]
    fn double_redeem_fails() {
        let p = pool(1);
        let desc = p.get().unwrap().into_desc(0);
        let b = p.redeem(desc).unwrap();
        assert_eq!(p.redeem(desc).unwrap_err(), PoolError::NotInFlight);
        drop(b);
    }

    #[test]
    fn stale_generation_fails_after_recycle() {
        let p = pool(1);
        let desc = p.get().unwrap().into_desc(0);
        let b = p.redeem(desc).unwrap();
        drop(b); // recycle bumps generation
        let b2 = p.get().unwrap();
        let desc2 = b2.into_desc(0);
        // Old descriptor has a stale generation even though index matches.
        assert_eq!(desc.buf_index, desc2.buf_index);
        assert_eq!(p.redeem(desc).unwrap_err(), PoolError::StaleGeneration);
        let _ = p.redeem(desc2).unwrap();
    }

    /// Every way `redeem` can refuse a descriptor: each returns its own
    /// error kind and each leaves a trace in `failed_redeems`.
    #[test]
    fn every_refusal_kind_is_typed_and_counted() {
        let p = pool(2);
        let other = {
            let mut cfg = PoolConfig::new(TenantId(2), 0, 1024, 1);
            cfg.segment_size = 8 * 1024;
            BufferPool::new(cfg).unwrap()
        };
        let foreign = other.get().unwrap().into_desc(0);
        let live = p.get().unwrap().into_desc(0);
        let spent = p.get().unwrap().into_desc(0);
        drop(p.redeem(spent).unwrap());
        let table = [
            (foreign, PoolError::WrongPool),
            (BufferDesc { pool_id: 9, ..live }, PoolError::WrongPool),
            (BufferDesc { len: 4096, ..live }, PoolError::LengthTooLarge),
            (
                BufferDesc {
                    buf_index: 99,
                    ..live
                },
                PoolError::BadIndex,
            ),
            (spent, PoolError::NotInFlight),
            (
                BufferDesc {
                    generation: live.generation.wrapping_sub(1),
                    ..live
                },
                PoolError::StaleGeneration,
            ),
        ];
        let before = p.stats();
        for (i, (desc, want)) in table.iter().enumerate() {
            assert_eq!(p.redeem(*desc).unwrap_err(), *want, "row {i}");
            assert_eq!(
                p.stats().failed_redeems,
                before.failed_redeems + i as u64 + 1,
                "row {i}: {want:?} is counted"
            );
        }
        let after = p.stats();
        assert_eq!(after.redeems, before.redeems, "no refusal redeemed");
        assert_eq!(after.in_flight, before.in_flight);
        assert_eq!(other.stats().failed_redeems, 0);
        drop(p.redeem(live).unwrap());
    }

    #[test]
    fn buffers_tile_segments_without_straddling() {
        // 5000-byte segments hold four 1024-byte buffers and 904 bytes of
        // slack; 8192-byte ones tile exactly (the no-division path).
        for (segment_size, per_segment) in [(5000usize, 4usize), (8192, 8)] {
            let mut cfg = PoolConfig::new(TenantId(1), 0, 1024, 10);
            cfg.segment_size = segment_size;
            let p = BufferPool::new(cfg).unwrap();
            let bufs: Vec<OwnedBuf> = (0..10).map(|_| p.get().unwrap()).collect();
            let base = bufs[0].as_slice().as_ptr().addr();
            for b in &bufs {
                let i = b.index() as usize;
                let offset = b.as_slice().as_ptr().addr() - base;
                assert_eq!(
                    offset,
                    i / per_segment * segment_size + i % per_segment * 1024,
                    "buffer {i} of a {segment_size}-byte-segment pool"
                );
            }
        }
    }

    #[test]
    fn peek_reads_in_flight_payload_only_for_its_descriptor() {
        let p = pool(1);
        let mut b = p.get().unwrap();
        b.write_payload(b"request-id").unwrap();
        let desc = b.into_desc(0);
        let mut out = [0u8; 7];
        assert_eq!(p.peek_payload_into(desc, &mut out), Some(7));
        assert_eq!(&out, b"request");
        let mut wide = [0u8; 64];
        assert_eq!(p.peek_payload_into(desc, &mut wide), Some(10));
        let stale = BufferDesc {
            generation: desc.generation.wrapping_add(1),
            ..desc
        };
        let far = BufferDesc {
            buf_index: 7,
            ..desc
        };
        let foreign = BufferDesc { tenant: 9, ..desc };
        for bad in [stale, far, foreign] {
            assert_eq!(p.peek_payload_into(bad, &mut out), None);
        }
        let held = p.redeem(desc).unwrap();
        assert_eq!(p.peek_payload_into(desc, &mut out), None, "owned again");
        drop(held);
        assert_eq!(p.stats().failed_redeems, 0, "a peek is not a redeem");
    }

    #[test]
    fn racing_redeems_of_one_descriptor_have_one_winner() {
        const THREADS: usize = 4;
        // Miri interprets every barrier wait; a hundred rounds still race.
        const ROUNDS: usize = if cfg!(miri) { 100 } else { 10_000 };
        let p = pool(2);
        let barrier = std::sync::Barrier::new(THREADS);
        let current = Mutex::new(None::<BufferDesc>);
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p, barrier, current, wins) = (&p, &barrier, &current, &wins);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        if t == 0 {
                            let mut b = p.get().unwrap();
                            b.write_payload(&(round as u64).to_le_bytes()).unwrap();
                            *current.lock().unwrap() = Some(b.into_desc(0));
                        }
                        // All four hold the same descriptor and start together.
                        barrier.wait();
                        let desc = current.lock().unwrap().expect("published");
                        barrier.wait();
                        match p.redeem(desc) {
                            Ok(b) => {
                                assert_eq!(b.as_slice(), (round as u64).to_le_bytes());
                                wins.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => assert!(
                                matches!(e, PoolError::NotInFlight | PoolError::StaleGeneration),
                                "round {round}: {e:?}"
                            ),
                        }
                        // Nobody starts the next round before every attempt
                        // of this one is over.
                        barrier.wait();
                        assert_eq!(wins.load(Ordering::Relaxed), round as u64 + 1);
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.redeems, ROUNDS as u64);
        assert_eq!(s.failed_redeems, ((THREADS - 1) * ROUNDS) as u64);
        assert_eq!((s.free, s.in_flight), (2, 0));
    }

    #[test]
    fn buffers_do_not_alias() {
        let p = pool(4);
        let mut bufs: Vec<OwnedBuf> = (0..4).map(|_| p.get().unwrap()).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.write_payload(&[i as u8; 64]).unwrap();
        }
        for (i, b) in bufs.iter().enumerate() {
            assert!(b.as_slice().iter().all(|&x| x == i as u8));
        }
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let p = pool(8);
        let (tx, rx) = std::sync::mpsc::channel::<BufferDesc>();
        let producer = {
            let p = p.clone();
            std::thread::spawn(move || {
                for i in 0..100u32 {
                    let mut b = loop {
                        match p.get() {
                            Ok(b) => break b,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    b.write_payload(&i.to_le_bytes()).unwrap();
                    tx.send(b.into_desc(0)).unwrap();
                }
            })
        };
        let consumer = {
            let p = p.clone();
            std::thread::spawn(move || {
                let mut sum = 0u64;
                for desc in rx {
                    let b = p.redeem(desc).unwrap();
                    sum += u32::from_le_bytes(b.as_slice().try_into().unwrap()) as u64;
                }
                sum
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (0..100u64).sum());
        assert_eq!(p.stats().free, 8);
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(matches!(
            BufferPool::new(PoolConfig::new(TenantId(0), 0, 0, 1)),
            Err(PoolError::BadConfig(_))
        ));
        assert!(matches!(
            BufferPool::new(PoolConfig::new(TenantId(0), 0, 64, 0)),
            Err(PoolError::BadConfig(_))
        ));
        let mut cfg = PoolConfig::new(TenantId(0), 0, 4096, 1);
        cfg.segment_size = 1024;
        assert!(matches!(BufferPool::new(cfg), Err(PoolError::BadConfig(_))));
    }
}
