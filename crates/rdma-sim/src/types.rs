//! Identifiers, completions and errors for the RDMA substrate.

use std::fmt;

use membuf::pool::OwnedBuf;

/// A node (server) attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A queue pair, unique fabric-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

/// A work-request identifier chosen by the poster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WrId(pub u64);

/// A remote-access key naming a registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey(pub u32);

/// Completion status, mirroring `ibv_wc_status` at the granularity we need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeStatus {
    /// Operation completed successfully.
    Success,
    /// Receiver-not-ready retries were exhausted.
    RnrRetryExceeded,
    /// The incoming message exceeded the posted receive buffer.
    LocalLengthError,
    /// The remote key did not resolve on the responder.
    RemoteAccessError,
    /// Transport-level retries timed out: the message was lost on the wire
    /// (injected link loss or a crashed endpoint) and never acknowledged.
    TransportRetryExceeded,
    /// The payload arrived damaged (injected corruption); both ends see
    /// error completions.
    DataCorrupted,
}

/// The operation a completion refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeOpcode {
    Send,
    Recv,
    Write,
    CompareSwap,
}

/// A completion-queue entry.
///
/// Unlike hardware CQEs, ours may carry the buffer back to the poller:
/// sender completions return the sent buffer for recycling and receive
/// completions carry the filled buffer, exactly the hand-off the DNE's
/// RX stage performs via its receive-buffer registry.
#[derive(Debug)]
pub struct Cqe {
    pub wr_id: WrId,
    pub qp: QpId,
    pub opcode: CqeOpcode,
    pub status: CqeStatus,
    /// Payload bytes transferred.
    pub byte_len: u32,
    /// Immediate data from the sender (NADINO encodes routing metadata here).
    pub imm: u64,
    /// The buffer associated with the work request, when one was attached.
    pub buf: Option<OwnedBuf>,
}

/// Errors surfaced synchronously by verb calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// The queue pair does not exist on this node.
    UnknownQp(QpId),
    /// The queue pair is not ready (still connecting or errored).
    QpNotReady(QpId),
    /// The node identifier is not part of the fabric.
    UnknownNode(NodeId),
    /// The buffer's pool is not registered with the local RNIC.
    UnregisteredMemory,
    /// The receive buffer comes from another pool than the buffers already
    /// posted on its shared RQ.
    MixedRqPool,
    /// The remote key does not resolve.
    BadRKey(RKey),
    /// The referenced completion queue does not exist.
    UnknownCq,
    /// The referenced shared receive queue does not exist.
    UnknownRq,
    /// Landing-zone slot index out of range.
    BadSlot(u32),
    /// The payload exceeds the transport's configured maximum message size.
    MessageTooLarge { len: usize, max: usize },
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::UnknownQp(qp) => write!(f, "unknown QP {qp:?}"),
            RdmaError::QpNotReady(qp) => write!(f, "QP {qp:?} is not ready"),
            RdmaError::UnknownNode(n) => write!(f, "unknown node {n}"),
            RdmaError::UnregisteredMemory => write!(f, "memory not registered with the RNIC"),
            RdmaError::MixedRqPool => write!(f, "receive buffer from another pool than its RQ's"),
            RdmaError::BadRKey(k) => write!(f, "bad rkey {k:?}"),
            RdmaError::UnknownCq => write!(f, "unknown completion queue"),
            RdmaError::UnknownRq => write!(f, "unknown shared receive queue"),
            RdmaError::BadSlot(i) => write!(f, "landing-zone slot {i} out of range"),
            RdmaError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds max {max}")
            }
        }
    }
}

impl std::error::Error for RdmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(
            RdmaError::BadSlot(7).to_string(),
            "landing-zone slot 7 out of range"
        );
        assert_eq!(
            RdmaError::MessageTooLarge { len: 10, max: 5 }.to_string(),
            "message of 10 bytes exceeds max 5"
        );
    }

    #[test]
    fn ids_are_ordered() {
        assert!(QpId(1) < QpId(2));
        assert!(WrId(9) > WrId(3));
    }
}
