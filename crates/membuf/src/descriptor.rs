//! The 16-byte buffer descriptor.
//!
//! NADINO's data plane never moves payloads through software: functions,
//! the DNE and the ingress exchange fixed 16-byte descriptors (§3.5.4 notes
//! Comch carries "16B buffer descriptors"). Nothing here serializes one —
//! the simulated transports move the struct itself and price it as 16
//! bytes, which the assertion below keeps true.

/// A compact handle to a pool buffer, safe to copy across transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferDesc {
    /// Owning tenant (function chain).
    pub tenant: u16,
    /// Pool identifier within the tenant.
    pub pool_id: u16,
    /// Buffer slot within the pool.
    pub buf_index: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// Pool recycle generation at detach time.
    pub generation: u16,
    /// Destination function identifier.
    pub dst_fn: u16,
}

// Comch, SK_MSG and the DNE rings are priced per 16-byte descriptor.
const _: () = assert!(std::mem::size_of::<BufferDesc>() == 16);

impl BufferDesc {
    /// Returns a copy with a different destination function.
    pub fn with_dst(mut self, dst_fn: u16) -> BufferDesc {
        self.dst_fn = dst_fn;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_dst_only_changes_destination() {
        let d = BufferDesc {
            tenant: 1,
            pool_id: 2,
            buf_index: 3,
            len: 4,
            generation: 5,
            dst_fn: 6,
        };
        let e = d.with_dst(9);
        assert_eq!(e.dst_fn, 9);
        assert_eq!(e.tenant, d.tenant);
        assert_eq!(e.buf_index, d.buf_index);
    }
}
