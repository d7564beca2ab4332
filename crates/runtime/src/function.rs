//! The payload convention of runtime functions.
//!
//! Request identity travels *inside* the payload — the first eight bytes
//! are a little-endian request id — so end-to-end latency can be measured
//! without any side channel, exactly as a real header field would be. A
//! chain hop's index follows it (bytes 8..10), so a function that appears
//! at several positions of a chain (the Online Boutique frontend re-enters
//! between downstream calls) routes correctly from a single registration.

use std::rc::Rc;

use simcore::{Sim, SimTime};

/// Returns `true` when the payload carries a deadline that has already
/// passed at `now` — the function-dispatch cancellation point.
pub fn deadline_expired(payload: &[u8], now: SimTime) -> bool {
    obs::read_deadline_ns(payload).is_some_and(|d| d != 0 && now >= SimTime::from_nanos(d))
}

/// Completion callback: `(sim, request id)`.
pub type CompletionFn = Rc<dyn Fn(&mut Sim, u64)>;

/// Encodes a request payload: 8-byte request id followed by padding up to
/// `total_len` (minimum 8 bytes).
pub fn encode_request_payload(req_id: u64, total_len: usize) -> Vec<u8> {
    let len = total_len.max(8);
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&req_id.to_le_bytes());
    payload
}

/// Decodes the request id from a payload (zero if too short).
pub fn decode_request_id(payload: &[u8]) -> u64 {
    obs::ctx::req_id(payload).unwrap_or(0)
}

/// Writes the chain hop index into a payload (bytes 8..10); a payload too
/// short to hold it is left as it is.
pub fn set_hop(payload: &mut [u8], hop: u16) {
    if let Some(field) = payload.get_mut(8..10) {
        field.copy_from_slice(&hop.to_le_bytes());
    }
}

/// Reads the chain hop index from a payload (zero if too short).
pub fn decode_hop(payload: &[u8]) -> u16 {
    let field = payload.get(8..).and_then(<[u8]>::first_chunk);
    field.map_or(0, |&b| u16::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let p = encode_request_payload(0xdead_beef_1234, 64);
        assert_eq!(p.len(), 64);
        assert_eq!(decode_request_id(&p), 0xdead_beef_1234);
        assert_eq!(decode_request_id(&[1, 2, 3]), 0, "short payload");
        assert_eq!(encode_request_payload(1, 0).len(), 8, "minimum length");
    }

    #[test]
    fn a_short_payload_has_no_hop_field() {
        let mut p = encode_request_payload(1, 10);
        set_hop(&mut p, 513);
        assert_eq!(decode_hop(&p), 513);
        let mut short = [0u8; 9];
        set_hop(&mut short, 7);
        assert_eq!(short, [0u8; 9], "left as it is");
        assert_eq!(decode_hop(&short), 0);
    }
}
