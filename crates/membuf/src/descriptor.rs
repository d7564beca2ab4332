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
