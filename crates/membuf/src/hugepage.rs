//! Hugepage-style backing segments.
//!
//! The paper allocates its unified memory pool from 2 MiB hugepages to keep
//! the RNIC's memory translation table (MTT) small (§3.4). We emulate the
//! allocation geometry: a [`SegmentArena`] hands out 2 MiB segments and
//! reports how many translation entries a registration of the arena would
//! consume, which the RNIC model charges against its MTT cache.

use std::ptr::NonNull;

/// Size of one emulated hugepage segment (2 MiB, as in the paper).
pub const HUGEPAGE_SIZE: usize = 2 * 1024 * 1024;

/// Where an arena's bytes come from: zeroed memory that becomes resident
/// only where it is touched — an anonymous private mapping, as a real
/// hugepage arena is.
///
/// `vec![0; n]` gives the same only while the allocator serves it with a
/// fresh mapping. Once a process has *freed* one arena, glibc's dynamic mmap
/// threshold sits above the segment size: later segments are cut from the
/// recycled heap and `calloc` zeroes them by hand, so every pool of every
/// later cluster is fully resident from the start (three boutique clusters
/// in a row peak at 6 MB resident mapped, 69 MB from the allocator).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod backing {
    use std::ffi::{c_int, c_void};
    use std::ptr::{null_mut, NonNull};

    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map(len: usize) -> NonNull<u8> {
        // SAFETY: a new anonymous mapping at a kernel-chosen address aliases
        // nothing; the arguments are the documented ones for that. Exercised
        // by `segments_are_zero_initialized`.
        let base = unsafe {
            mmap(
                null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base as isize != -1, "cannot map a {len}-byte arena");
        NonNull::new(base.cast()).expect("mmap returns no null mapping")
    }

    /// # Safety
    ///
    /// `base`/`len` came from one [`map`] call and nothing uses the bytes.
    pub unsafe fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract; unmapping a whole mapping that is
        // no longer referenced cannot fail or invalidate live memory.
        // Exercised by every test that drops an arena.
        unsafe { munmap(base.as_ptr().cast(), len) };
    }
}

/// Other targets take what the allocator's `calloc` gives.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod backing {
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
    use std::ptr::NonNull;

    fn layout(len: usize) -> Layout {
        Layout::array::<u8>(len).expect("arena size fits a layout")
    }

    pub fn map(len: usize) -> NonNull<u8> {
        // SAFETY: `len` is non-zero (the arena asserts it). Exercised by
        // `segments_are_zero_initialized`.
        NonNull::new(unsafe { alloc_zeroed(layout(len)) })
            .unwrap_or_else(|| handle_alloc_error(layout(len)))
    }

    /// # Safety
    ///
    /// `base`/`len` came from one [`map`] call and nothing uses the bytes.
    pub unsafe fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract; `layout(len)` is what `map` used.
        // Exercised by every test that drops an arena.
        unsafe { dealloc(base.as_ptr(), layout(len)) };
    }
}

/// An arena of hugepage segments backing one buffer pool: one contiguous
/// zeroed region, `segment_count × segment_size` bytes.
///
/// Exclusive access to byte ranges is enforced *externally* by the buffer
/// pool's ownership state machine; see [`crate::pool::BufferPool`].
pub struct SegmentArena {
    base: NonNull<u8>,
    segments: usize,
    segment_size: usize,
}

impl Drop for SegmentArena {
    fn drop(&mut self) {
        // SAFETY: `base` is this arena's own region of `total_bytes()`, and
        // the pool that handed out ranges of it is being dropped with it.
        // Exercised by every test that drops an arena, among them
        // `every_segment_is_backed_to_its_last_byte`.
        unsafe { backing::unmap(self.base, self.total_bytes()) }
    }
}

impl SegmentArena {
    /// Allocates an arena of `total_bytes`, rounded up to whole segments.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes == 0`.
    pub fn new(total_bytes: usize) -> Self {
        Self::with_segment_size(total_bytes, HUGEPAGE_SIZE)
    }

    /// Allocates an arena with a custom segment size (tests and the 4 KiB
    /// MTT-footprint ablation use this).
    pub fn with_segment_size(total_bytes: usize, segment_size: usize) -> Self {
        assert!(total_bytes > 0, "arena must be non-empty");
        assert!(segment_size > 0, "segment size must be positive");
        let segments = total_bytes.div_ceil(segment_size);
        SegmentArena {
            base: backing::map(segments * segment_size),
            segments,
            segment_size,
        }
    }

    /// Returns the number of backing segments.
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Returns the total capacity in bytes.
    pub fn total_bytes(&self) -> usize {
        self.segments * self.segment_size
    }

    /// Returns the number of RNIC translation entries registering this arena
    /// consumes — one per segment (this is the hugepage benefit: the same
    /// arena backed by 4 KiB pages would cost 512× more entries).
    pub fn mtt_entries(&self) -> usize {
        self.segments
    }

    /// Address of the `len` bytes at byte `offset` of the region.
    ///
    /// Keeping a range inside one segment is the caller's geometry (the
    /// pool lays buffers out so they never straddle one); leaving the
    /// region is a bug in it.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie inside the region.
    #[inline]
    pub(crate) fn range(&self, offset: usize, len: usize) -> NonNull<u8> {
        let total = self.total_bytes();
        // No formatted operands: this sits on the pool's attach path.
        assert!(
            offset <= total && len <= total - offset,
            "byte range leaves the arena"
        );
        // SAFETY: `offset <= total_bytes()`, so the result stays inside (or
        // one past the end of) the mapped region `base` points to. Exercised
        // by `range_accepts_the_whole_region_and_nothing_more`.
        unsafe { self.base.add(offset) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_whole_segments() {
        let a = SegmentArena::new(HUGEPAGE_SIZE + 1);
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.total_bytes(), 2 * HUGEPAGE_SIZE);
    }

    #[test]
    fn mtt_footprint_matches_segment_count() {
        let a = SegmentArena::new(8 * HUGEPAGE_SIZE);
        assert_eq!(a.mtt_entries(), 8);
        // The same memory with 4 KiB pages costs 512x the entries.
        let b = SegmentArena::with_segment_size(8 * HUGEPAGE_SIZE, 4 * 1024);
        assert_eq!(b.mtt_entries(), 8 * 512);
    }

    #[test]
    fn range_accepts_the_whole_region_and_nothing_more() {
        let a = SegmentArena::with_segment_size(4096, 1024);
        a.range(0, 4096);
        a.range(4096, 0);
        for (offset, len) in [(4096, 1), (4000, 100), (usize::MAX, 2)] {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.range(offset, len);
            }));
            assert!(out.is_err(), "{offset}+{len} is out of range");
        }
    }

    #[test]
    fn every_segment_is_backed_to_its_last_byte() {
        let a = SegmentArena::with_segment_size(3 * 5000, 5000);
        for seg in 0..3 {
            let ptr = a.range(seg * 5000 + 4999, 1).as_ptr();
            // SAFETY: in range by `range`, and this test is the only user.
            unsafe {
                assert_eq!(ptr.read(), 0);
                ptr.write(seg as u8 + 1);
                assert_eq!(ptr.read(), seg as u8 + 1);
            }
        }
    }

    #[test]
    fn segments_are_zero_initialized() {
        let a = SegmentArena::with_segment_size(2048, 1024);
        let ptr = a.range(1024, 16).as_ptr();
        // SAFETY: Freshly allocated arena, no other accessor exists.
        let slice = unsafe { std::slice::from_raw_parts(ptr, 16) };
        assert!(slice.iter().all(|&b| b == 0));
    }
}
