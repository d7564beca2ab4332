//! The on-wire trace context — a **versioned** region.
//!
//! A [`TraceCtx`] is the compact causal link that rides inside every
//! request payload so a trace reconstructs across node boundaries without
//! any out-of-band channel. The encoding piggybacks on the existing
//! payload header conventions:
//!
//! ```text
//! byte  0..8   req_id (LE u64)        — doubles as the trace id
//! byte  8..11  chain hop / DAG header — owned by the runtime, untouched
//! byte 11..15  parent span id (LE u32)
//! byte 15      flags: low nibble bit 0 = sampled,
//!              high nibble = wire version (0 = no context stamped)
//! byte 16..24  absolute deadline (LE u64 virtual ns) — v2 and up only
//! ```
//!
//! The region is versioned so a fleet can roll a wire-format upgrade
//! node-by-node without severing mixed-version paths:
//!
//! * **v1** ([`CTX_V1`], min payload [`CTX_V1_MIN_PAYLOAD`] = 16 B):
//!   trace-only — parent span + sampling bit. No deadline region.
//! * **v2** ([`CTX_V2`], min payload [`CTX_V2_MIN_PAYLOAD`] = 24 B):
//!   adds the absolute-deadline region at bytes 16..24.
//!
//! The version a writer stamped travels in the high nibble of the flags
//! byte, so a reader never interprets bytes the writer did not own: a v2
//! node receiving a v1 payload parses the 16-byte trace prefix and treats
//! bytes 16..24 as application data ([`read_deadline_ns`] returns `None`
//! unless the stamped version is ≥ v2). A v1 node receiving a v2 payload
//! reads the same prefix — the layout is strictly prefix-compatible.
//! Version nibble `0` means "no context stamped": with tracing off and no
//! deadline, every ctx byte stays application-owned and readers return
//! `None`/`false` exactly as before.
//!
//! The fabric copies sender payloads verbatim into posted receive
//! buffers, so the context crosses the wire for free; the receiving DNE
//! reads it back and adopts the parent into its tracer's causal cursor.
//! Payloads shorter than the writer's per-version minimum simply carry no
//! context — [`write_ctx`] is a no-op and [`read_ctx`] returns `None`,
//! degrading to per-node span chains rather than failing.

/// Wire version 1: trace context only (parent span + flags).
pub const CTX_V1: u8 = 1;
/// Wire version 2: trace context plus the absolute-deadline region.
pub const CTX_V2: u8 = 2;
/// The version a freshly built node stamps by default.
pub const CTX_CURRENT: u8 = CTX_V2;

/// Smallest payload that can carry a v1 (trace-only) context.
pub const CTX_V1_MIN_PAYLOAD: usize = 16;
/// Smallest payload that can carry a v2 (trace + deadline) context.
pub const CTX_V2_MIN_PAYLOAD: usize = 24;
/// Size of the full context region across all known versions. Use this to
/// size peek buffers and minimum payloads so any version fits.
pub const CTX_REGION: usize = CTX_V2_MIN_PAYLOAD;

/// Byte offset of the parent span id within the payload.
const PARENT_OFFSET: usize = 11;
/// Byte offset of the flags byte within the payload.
const FLAGS_OFFSET: usize = 15;
/// Byte offset of the absolute deadline within the payload.
const DEADLINE_OFFSET: usize = 16;
/// Flags bit 0: the trace is sampled (record spans downstream).
const FLAG_SAMPLED: u8 = 1;
/// Low-nibble mask: flag bits. The high nibble carries the wire version.
const FLAG_MASK: u8 = 0x0F;

/// Smallest payload that can carry a context stamped at `version`.
/// Unknown future versions are assumed to need the full region.
pub fn min_payload(version: u8) -> usize {
    if version <= CTX_V1 {
        CTX_V1_MIN_PAYLOAD
    } else {
        CTX_V2_MIN_PAYLOAD
    }
}

/// The wire version stamped into a payload (`0` = no context stamped, or
/// the payload is too short to carry one).
#[inline]
pub fn wire_version(payload: &[u8]) -> u8 {
    if payload.len() < CTX_V1_MIN_PAYLOAD {
        return 0;
    }
    payload[FLAGS_OFFSET] >> 4
}

/// A decoded on-wire trace context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace id — the request id from the payload head.
    pub trace_id: u64,
    /// Span id the next downstream span should parent on (0 = none).
    pub parent_span: u32,
    /// Whether the head/tail sampling decision kept this trace.
    pub sampled: bool,
    /// The wire version the sender stamped (≥ [`CTX_V1`]).
    pub version: u8,
}

/// Stamps `parent_span` and the sampling bit at the current wire version.
/// Returns `false` (and writes nothing) when the payload is too short.
pub fn write_ctx(payload: &mut [u8], parent_span: u32, sampled: bool) -> bool {
    write_ctx_at(payload, parent_span, sampled, CTX_CURRENT)
}

/// Stamps a trace context at an explicit wire `version` — the downgrade
/// path a mixed-version fleet uses: an upgraded DNE replying to (or
/// re-posting toward) a v1 peer stamps v1 so the peer's parser owns every
/// byte it reads. The version is clamped into `CTX_V1..=CTX_CURRENT`. A v2
/// stamp claims bytes 16..24 as they are: the zero padding every payload
/// the tree builds has there reads as "no deadline", and a deadline that a
/// v1 downgrade hid is a deadline again.
/// Returns `false` (and writes nothing) when the payload is shorter than
/// that version's minimum.
pub fn write_ctx_at(payload: &mut [u8], parent_span: u32, sampled: bool, version: u8) -> bool {
    let version = version.clamp(CTX_V1, CTX_CURRENT);
    if payload.len() < min_payload(version) {
        return false;
    }
    payload[PARENT_OFFSET..PARENT_OFFSET + 4].copy_from_slice(&parent_span.to_le_bytes());
    payload[FLAGS_OFFSET] = (version << 4) | if sampled { FLAG_SAMPLED } else { 0 };
    true
}

/// Stamps an absolute deadline (virtual nanoseconds since simulation
/// start) into a payload. A value of `0` means "no deadline". Returns
/// `false` (and writes nothing) when the payload is too short.
///
/// The deadline region exists from v2 on, so stamping one raises the
/// payload's wire version to at least [`CTX_V2`]. A context already there
/// keeps its parent and flag bits; on an unstamped payload those bytes are
/// the application's, so the context this creates is unsampled with parent
/// 0. The deadline rides in its own byte range, so [`write_ctx`] re-stamps
/// along a DAG hop leave it untouched: the gateway writes it once and every
/// downstream stage reads the same absolute value.
pub fn write_deadline_ns(payload: &mut [u8], deadline_ns: u64) -> bool {
    if payload.len() < CTX_V2_MIN_PAYLOAD {
        return false;
    }
    payload[DEADLINE_OFFSET..DEADLINE_OFFSET + 8].copy_from_slice(&deadline_ns.to_le_bytes());
    match wire_version(payload) {
        0 => write_ctx_at(payload, 0, false, CTX_V2),
        version => {
            let flag_bits = payload[FLAGS_OFFSET] & FLAG_MASK;
            payload[FLAGS_OFFSET] = (version.max(CTX_V2) << 4) | flag_bits;
            true
        }
    }
}

/// Reads the absolute deadline out of a payload. Returns `None` when the
/// payload is too short, when the stamped wire version predates the
/// deadline region (a v1 sender owns only the 16-byte prefix — bytes
/// 16..24 are application data, not a deadline), or when no deadline was
/// stamped (the on-wire value is `0`).
pub fn read_deadline_ns(payload: &[u8]) -> Option<u64> {
    if payload.len() < CTX_V2_MIN_PAYLOAD || wire_version(payload) < CTX_V2 {
        return None;
    }
    let ns = u64::from_le_bytes(*payload[DEADLINE_OFFSET..].first_chunk()?);
    (ns != 0).then_some(ns)
}

/// The one-bit downstream check of the ingress sampling decision: `true`
/// when the payload carries a context (version nibble ≥ 1 — under nibble 0
/// bit 0 is an application bit) whose sampled flag is set. This is the only
/// trace question data-plane components ask on the request path — a length
/// test plus one byte load, no tracer access.
#[inline]
pub fn sampled(payload: &[u8]) -> bool {
    wire_version(payload) >= CTX_V1 && payload[FLAGS_OFFSET] & FLAG_SAMPLED != 0
}

/// The request id convention, read in one place: the first eight payload
/// bytes, little-endian (they double as the trace id). `None` when the
/// payload is shorter than that.
#[inline]
pub fn req_id(payload: &[u8]) -> Option<u64> {
    payload.first_chunk::<8>().map(|b| u64::from_le_bytes(*b))
}

/// Reads the trace context out of a payload, or `None` when the payload
/// is too short to carry one or no writer ever stamped one (version
/// nibble 0 — the bytes are application-owned).
pub fn read_ctx(payload: &[u8]) -> Option<TraceCtx> {
    let version = wire_version(payload);
    if version < CTX_V1 {
        return None;
    }
    Some(TraceCtx {
        trace_id: req_id(payload)?,
        parent_span: u32::from_le_bytes(*payload[PARENT_OFFSET..].first_chunk()?),
        sampled: payload[FLAGS_OFFSET] & FLAG_SAMPLED != 0,
        version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_a_payload() {
        let mut payload = vec![0u8; 64];
        payload[0..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        assert!(write_ctx(&mut payload, 42, true));
        let ctx = read_ctx(&payload).unwrap();
        assert_eq!(
            ctx,
            TraceCtx {
                trace_id: 0xDEAD_BEEF,
                parent_span: 42,
                sampled: true,
                version: CTX_CURRENT,
            }
        );
    }

    #[test]
    fn deadline_roundtrips_and_survives_ctx_restamp() {
        let mut payload = vec![0u8; CTX_V2_MIN_PAYLOAD];
        assert_eq!(read_deadline_ns(&payload), None, "zero means no deadline");
        assert!(write_deadline_ns(&mut payload, 1_500_000));
        assert_eq!(read_deadline_ns(&payload), Some(1_500_000));
        // A downstream hop re-stamping the trace ctx must not clobber it.
        assert!(write_ctx(&mut payload, 99, true));
        assert_eq!(read_deadline_ns(&payload), Some(1_500_000));
        let ctx = read_ctx(&payload).unwrap();
        assert_eq!(ctx.parent_span, 99);
    }

    #[test]
    fn short_payloads_carry_no_deadline() {
        let mut short = vec![0u8; CTX_V2_MIN_PAYLOAD - 1];
        assert!(!write_deadline_ns(&mut short, 42));
        assert!(short.iter().all(|&b| b == 0), "nothing written");
        assert_eq!(read_deadline_ns(&short), None);
    }

    #[test]
    fn leaves_runtime_header_bytes_alone() {
        let mut payload = vec![0u8; CTX_V2_MIN_PAYLOAD];
        payload[8] = 0xAA; // DAG kind byte
        payload[9] = 0xBB; // src_fn low
        payload[10] = 0xCC; // src_fn high
        write_ctx(&mut payload, u32::MAX, false);
        assert_eq!(&payload[8..11], &[0xAA, 0xBB, 0xCC]);
        let ctx = read_ctx(&payload).unwrap();
        assert_eq!(ctx.parent_span, u32::MAX);
        assert!(!ctx.sampled);
    }

    #[test]
    fn short_payloads_carry_no_ctx() {
        let mut short = vec![0u8; CTX_V1_MIN_PAYLOAD - 1];
        assert!(!write_ctx_at(&mut short, 7, true, CTX_V1));
        assert!(short.iter().all(|&b| b == 0), "nothing written");
        assert_eq!(read_ctx(&short), None);
    }

    #[test]
    fn unstamped_payloads_carry_no_ctx() {
        // Version nibble 0: the bytes are application-owned, not a context.
        let payload = vec![0u8; CTX_REGION];
        assert_eq!(wire_version(&payload), 0);
        assert_eq!(read_ctx(&payload), None);
        assert!(!sampled(&payload));
    }

    #[test]
    fn v1_stamp_fits_sixteen_bytes_and_owns_no_deadline() {
        // A v1 writer stamps into a 16-byte payload a v2 writer must reject.
        let mut payload = vec![0u8; CTX_V1_MIN_PAYLOAD];
        assert!(!write_ctx(&mut payload, 5, true), "v2 needs 24 bytes");
        assert!(write_ctx_at(&mut payload, 5, true, CTX_V1));
        assert_eq!(wire_version(&payload), CTX_V1);
        let ctx = read_ctx(&payload).unwrap();
        assert_eq!(
            (ctx.parent_span, ctx.sampled, ctx.version),
            (5, true, CTX_V1)
        );
        assert!(sampled(&payload));
    }

    #[test]
    fn v2_reader_ignores_app_bytes_behind_a_v1_stamp() {
        // A v1 sender's payload may carry arbitrary application data where
        // v2 keeps the deadline; an upgraded reader must not interpret it.
        let mut payload = vec![0u8; CTX_REGION];
        payload[DEADLINE_OFFSET..DEADLINE_OFFSET + 8]
            .copy_from_slice(&0x4141_4141_4141_4141u64.to_le_bytes());
        assert!(write_ctx_at(&mut payload, 7, true, CTX_V1));
        assert_eq!(read_deadline_ns(&payload), None, "v1 owns no deadline");
        let ctx = read_ctx(&payload).unwrap();
        assert_eq!((ctx.parent_span, ctx.version), (7, CTX_V1));
    }

    #[test]
    fn v1_reader_parses_a_v2_payload_prefix() {
        // Prefix compatibility: the first 16 bytes mean the same thing in
        // both versions, so an old node parses a new sender's payload.
        let mut payload = vec![0u8; CTX_REGION];
        payload[0..8].copy_from_slice(&77u64.to_le_bytes());
        assert!(write_deadline_ns(&mut payload, 9_000));
        assert!(write_ctx(&mut payload, 13, true));
        // Simulate a v1 parser: it only ever looks at the 16-byte prefix.
        let prefix = &payload[..CTX_V1_MIN_PAYLOAD];
        let ctx = read_ctx(prefix).unwrap();
        assert_eq!((ctx.trace_id, ctx.parent_span, ctx.sampled), (77, 13, true));
        assert!(sampled(prefix));
    }

    #[test]
    fn deadline_stamp_raises_version_and_keeps_sampling() {
        let mut payload = vec![0u8; CTX_REGION];
        assert!(write_ctx_at(&mut payload, 3, true, CTX_V1));
        assert!(write_deadline_ns(&mut payload, 500));
        assert_eq!(wire_version(&payload), CTX_V2);
        assert!(sampled(&payload), "deadline stamp preserves the flag bits");
        assert_eq!(read_deadline_ns(&payload), Some(500));
    }

    #[test]
    fn downgrade_restamp_hides_the_deadline_region() {
        // An upgraded DNE re-posting toward a v1 peer stamps v1: the
        // deadline bytes stay in place but the version nibble says the
        // writer owns only the prefix, so readers stop seeing a deadline.
        let mut payload = vec![0u8; CTX_REGION];
        assert!(write_deadline_ns(&mut payload, 123_456));
        assert!(write_ctx(&mut payload, 9, true));
        assert_eq!(read_deadline_ns(&payload), Some(123_456));
        assert!(write_ctx_at(&mut payload, 9, true, CTX_V1));
        assert_eq!(wire_version(&payload), CTX_V1);
        assert_eq!(read_deadline_ns(&payload), None);
    }

    /// The whole wire format, enumerated: every payload length 0..=32 ×
    /// every flags byte × every writer sequence, over a payload of
    /// application bytes. No panic; what the writers wrote reads back; and
    /// no reader interprets a byte no writer owned — under version nibble 0
    /// nobody sees a context, a sampled bit or a deadline, and behind a v1
    /// stamp bytes 16..24 are never a deadline, whatever those bytes hold.
    #[test]
    fn every_length_flags_byte_and_writer_sequence_reads_back_what_was_written() {
        #[derive(Debug, Clone, Copy)]
        enum Write {
            Ctx(u8),
            Deadline,
        }
        use Write::*;
        const APP: u8 = 0xEE;
        const PARENT: u32 = 0xA1B2_C3D4;
        const DEADLINE: u64 = 0x0102_0304_0506_0708;
        let sequences: [&[Write]; 7] = [
            &[],
            &[Ctx(CTX_V1)],
            &[Ctx(CTX_V2)],
            &[Deadline],
            &[Ctx(CTX_V1), Deadline],
            &[Deadline, Ctx(CTX_V2)],
            &[Deadline, Ctx(CTX_V1)],
        ];
        for len in 0..=32usize {
            for flags in 0..=255u8 {
                for writes in sequences {
                    let mut p = vec![APP; len];
                    if let Some(b) = p.get_mut(FLAGS_OFFSET) {
                        *b = flags;
                    }
                    let app = p.clone();
                    let case = format!("len {len} flags {flags:#04x} writes {writes:?}");

                    // The model: what the stamps so far say, starting from
                    // the flags byte as found (a nibble >= 1 is a stamp).
                    let mut version = if len < CTX_V1_MIN_PAYLOAD {
                        0
                    } else {
                        flags >> 4
                    };
                    let mut parent = u32::from_le_bytes([APP; 4]);
                    let mut is_sampled = flags & FLAG_SAMPLED != 0;
                    let mut region = u64::from_le_bytes([APP; 8]);
                    for &write in writes {
                        match write {
                            Ctx(v) => {
                                let sample = flags & 2 != 0;
                                let fits = len >= min_payload(v);
                                assert_eq!(write_ctx_at(&mut p, PARENT, sample, v), fits, "{case}");
                                if fits {
                                    (version, parent, is_sampled) = (v, PARENT, sample);
                                }
                            }
                            Deadline => {
                                let fits = len >= CTX_V2_MIN_PAYLOAD;
                                assert_eq!(write_deadline_ns(&mut p, DEADLINE), fits, "{case}");
                                if fits && version == 0 {
                                    // No context was there to keep.
                                    (parent, is_sampled) = (0, false);
                                }
                                if fits {
                                    (version, region) = (version.max(CTX_V2), DEADLINE);
                                }
                            }
                        }
                    }
                    let ctx = (version >= CTX_V1).then(|| TraceCtx {
                        trace_id: u64::from_le_bytes([APP; 8]),
                        parent_span: parent,
                        sampled: is_sampled,
                        version,
                    });
                    let deadline =
                        (version >= CTX_V2 && len >= CTX_V2_MIN_PAYLOAD).then_some(region);

                    assert_eq!(wire_version(&p), version, "{case}");
                    assert_eq!(read_ctx(&p), ctx, "{case}");
                    assert_eq!(sampled(&p), ctx.is_some_and(|c| c.sampled), "{case}");
                    assert_eq!(read_deadline_ns(&p), deadline, "{case}");
                    // A writer touches its parent and flags bytes, the
                    // deadline writer bytes 16..24 too, and nothing else.
                    for (i, (&now, &was)) in p.iter().zip(&app).enumerate() {
                        let ctx_bytes = (PARENT_OFFSET..=FLAGS_OFFSET).contains(&i);
                        let deadline_bytes = (DEADLINE_OFFSET..CTX_REGION).contains(&i)
                            && writes.iter().any(|w| matches!(w, Deadline));
                        let written = !writes.is_empty() && (ctx_bytes || deadline_bytes);
                        assert!(now == was || written, "{case}: byte {i} changed");
                    }
                }
            }
        }
    }

    #[test]
    fn min_payload_is_monotone_in_version() {
        assert_eq!(min_payload(CTX_V1), CTX_V1_MIN_PAYLOAD);
        assert_eq!(min_payload(CTX_V2), CTX_V2_MIN_PAYLOAD);
        assert_eq!(min_payload(0), CTX_V1_MIN_PAYLOAD, "clamped up to v1");
        assert_eq!(min_payload(9), CTX_V2_MIN_PAYLOAD, "future ⇒ full region");
    }
}
