//! DOCA-Comch-style descriptor channels between host functions and the DNE.
//!
//! §3.5.4 evaluates three ways to move 16-byte buffer descriptors across
//! the PCIe boundary:
//!
//! - **Comch-P**: a producer-consumer ring with busy polling. Lowest
//!   latency, but it ties up one host core per function, and DOCA's
//!   "Progress Engine" performs its polling through non-blocking
//!   `epoll_wait`, whose per-iteration cost grows with the number of
//!   monitored function endpoints — the reason Comch-P overloads beyond
//!   about six functions in Fig. 9.
//! - **Comch-E**: event-driven send/receive over blocking epoll. Slower
//!   per message but flat in the number of functions and needs no
//!   dedicated cores; NADINO's choice.
//! - **TCP**: the loopback-socket baseline, paying kernel and protocol
//!   costs on every descriptor.
//!
//! [`ComchCosts`] is the calibrated price the engine charges per
//! descriptor. [`DescriptorChannel`] and [`ComchServer`] — a real
//! bidirectional SPSC channel pair and a server polling many of them — are
//! not on the simulator's path: the frozen benchmark's
//! `dpu-sim.comch_roundtrip_ns` driver is their one caller (DESIGN.md §2.5,
//! "Code earns its place by being reached").

use membuf::descriptor::BufferDesc;
use membuf::spsc::{Consumer, Producer, SpscRing};
use simcore::SimDuration;

/// The channel variant in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Event-driven Comch (blocking epoll). NADINO's default.
    ComchE,
    /// Busy-polling Comch (producer-consumer ring + progress engine).
    ComchP,
    /// Kernel TCP loopback baseline.
    Tcp,
}

/// Calibrated per-variant channel costs.
///
/// All `*_service` values are *reference* (host-Xeon) CPU time; callers
/// scale them with [`dpu_sim::soc::Processor::scale`] for the core the
/// work actually runs on.
///
/// [`dpu_sim::soc::Processor::scale`]: crate::soc::Processor::scale
#[derive(Debug, Clone)]
pub struct ComchCosts {
    /// Descriptor propagation latency across PCIe (or loopback), one way.
    pub one_way_latency: SimDuration,
    /// Fixed DNE-side CPU work per descriptor.
    pub dne_service_base: SimDuration,
    /// Additional DNE-side CPU work per descriptor *per monitored
    /// function endpoint* (the progress-engine epoll term; zero for
    /// variants whose cost does not scale with endpoints).
    pub dne_service_per_endpoint: SimDuration,
    /// Host-function-side CPU work per descriptor.
    pub host_service: SimDuration,
}

impl ComchCosts {
    /// Returns the calibrated defaults for `kind`.
    pub fn for_kind(kind: ChannelKind) -> ComchCosts {
        match kind {
            ChannelKind::ComchE => ComchCosts {
                one_way_latency: SimDuration::from_nanos(4_300),
                dne_service_base: SimDuration::from_nanos(1_500),
                dne_service_per_endpoint: SimDuration::ZERO,
                host_service: SimDuration::from_nanos(900),
            },
            ChannelKind::ComchP => ComchCosts {
                one_way_latency: SimDuration::from_nanos(600),
                dne_service_base: SimDuration::from_nanos(400),
                dne_service_per_endpoint: SimDuration::from_nanos(250),
                host_service: SimDuration::from_nanos(400),
            },
            ChannelKind::Tcp => ComchCosts {
                one_way_latency: SimDuration::from_nanos(15_000),
                dne_service_base: SimDuration::from_nanos(6_000),
                dne_service_per_endpoint: SimDuration::ZERO,
                host_service: SimDuration::from_nanos(4_000),
            },
        }
    }

    /// DNE-side reference CPU time per descriptor when `endpoints`
    /// function endpoints are monitored.
    pub fn dne_service(&self, endpoints: usize) -> SimDuration {
        self.dne_service_base + self.dne_service_per_endpoint * endpoints as u64
    }

    /// Uncontended round-trip estimate for a descriptor echo with
    /// `endpoints` monitored endpoints, with DNE work scaled by
    /// `dne_factor` (the wimpy factor of the core running the DNE).
    pub fn echo_rtt(&self, endpoints: usize, dne_factor: f64) -> SimDuration {
        self.one_way_latency * 2
            + self.dne_service(endpoints).mul_f64(dne_factor)
            + self.host_service
    }
}

/// A real bidirectional descriptor channel (host ⇄ DNE), one SPSC ring per
/// direction.
pub struct DescriptorChannel;

/// The host-function endpoint of a [`DescriptorChannel`].
pub struct HostEndpoint {
    to_dne: Producer<BufferDesc>,
    from_dne: Consumer<BufferDesc>,
}

/// The DNE endpoint of a [`DescriptorChannel`].
pub struct DneEndpoint {
    to_host: Producer<BufferDesc>,
    from_host: Consumer<BufferDesc>,
}

impl DescriptorChannel {
    /// Creates a channel whose rings hold `capacity` descriptors each.
    pub fn open(capacity: usize) -> (HostEndpoint, DneEndpoint) {
        let (h2d_tx, h2d_rx) = SpscRing::with_capacity(capacity);
        let (d2h_tx, d2h_rx) = SpscRing::with_capacity(capacity);
        (
            HostEndpoint {
                to_dne: h2d_tx,
                from_dne: d2h_rx,
            },
            DneEndpoint {
                to_host: d2h_tx,
                from_host: h2d_rx,
            },
        )
    }
}

impl HostEndpoint {
    /// Sends a descriptor to the DNE; returns it back when the ring is full.
    pub fn send(&self, desc: BufferDesc) -> Result<(), BufferDesc> {
        self.to_dne.push(desc)
    }

    /// Receives a descriptor from the DNE, if any.
    pub fn recv(&self) -> Option<BufferDesc> {
        self.from_dne.pop()
    }
}

impl DneEndpoint {
    /// Sends a descriptor to the host function; returns it when full.
    pub fn send(&self, desc: BufferDesc) -> Result<(), BufferDesc> {
        self.to_host.push(desc)
    }

    /// Receives a descriptor from the host function, if any.
    pub fn recv(&self) -> Option<BufferDesc> {
        self.from_host.pop()
    }

    /// Returns the number of descriptors waiting from the host.
    pub fn pending(&self) -> usize {
        self.from_host.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comch_p_beats_tcp_by_over_8x_at_one_function() {
        let p = ComchCosts::for_kind(ChannelKind::ComchP);
        let tcp = ComchCosts::for_kind(ChannelKind::Tcp);
        let dpu = 2.0;
        let rtt_p = p.echo_rtt(1, dpu).as_micros_f64();
        let rtt_tcp = tcp.echo_rtt(1, dpu).as_micros_f64();
        assert!(
            rtt_tcp / rtt_p > 8.0,
            "TCP {rtt_tcp}us vs Comch-P {rtt_p}us (paper: >8x)"
        );
    }

    #[test]
    fn comch_e_beats_tcp_by_around_3x() {
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        let tcp = ComchCosts::for_kind(ChannelKind::Tcp);
        let dpu = 2.0;
        let ratio = tcp.echo_rtt(4, dpu).as_micros_f64() / e.echo_rtt(4, dpu).as_micros_f64();
        assert!(
            (2.7..=3.8).contains(&ratio),
            "TCP/Comch-E ratio = {ratio} (paper: 2.7-3.8x)"
        );
    }

    #[test]
    fn comch_p_service_grows_with_endpoints_and_crosses_comch_e() {
        let p = ComchCosts::for_kind(ChannelKind::ComchP);
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        // Below ~6 endpoints P is cheaper per message; beyond, E wins.
        assert!(p.dne_service(2) < e.dne_service(2));
        assert!(
            p.dne_service(7) > e.dne_service(7),
            "progress engine makes Comch-P lose past ~6 functions"
        );
    }

    #[test]
    fn comch_e_is_flat_in_endpoints() {
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        assert_eq!(e.dne_service(1), e.dne_service(64));
    }

    #[test]
    fn descriptor_channel_roundtrip() {
        let (host, dne) = DescriptorChannel::open(8);
        let d = BufferDesc {
            tenant: 1,
            pool_id: 0,
            buf_index: 5,
            len: 64,
            generation: 0,
            dst_fn: 2,
        };
        host.send(d).unwrap();
        assert_eq!(dne.pending(), 1);
        let got = dne.recv().unwrap();
        assert_eq!(got, d);
        dne.send(BufferDesc { dst_fn: 9, ..got }).unwrap();
        assert_eq!(host.recv().unwrap().dst_fn, 9);
        assert_eq!(host.recv(), None);
    }

    #[test]
    fn descriptor_channel_across_threads() {
        let (host, dne) = DescriptorChannel::open(16);
        let dne_thread = std::thread::spawn(move || {
            let mut echoed = 0;
            while echoed < 1000 {
                if let Some(d) = dne.recv() {
                    while dne.send(d).is_err() {
                        std::hint::spin_loop();
                    }
                    echoed += 1;
                }
            }
        });
        let mut received = 0;
        let mut sent = 0u32;
        while received < 1000 {
            if sent < 1000 {
                let d = BufferDesc {
                    tenant: 0,
                    pool_id: 0,
                    buf_index: sent,
                    len: 16,
                    generation: 0,
                    dst_fn: 0,
                };
                if host.send(d).is_ok() {
                    sent += 1;
                }
            }
            if let Some(d) = host.recv() {
                assert_eq!(d.buf_index, received);
                received += 1;
            }
        }
        dne_thread.join().unwrap();
    }
}

/// The DNE-side Comch server: one instance multiplexing every function's
/// channel (§3.5.4: "We deploy the DNE as the single Comch server instance
/// ... The DNE busy-polls all monitored function endpoints within its
/// event loop").
///
/// Polling is round-robin with a persistent cursor so no endpoint starves.
pub struct ComchServer {
    endpoints: Vec<DneEndpoint>,
    cursor: usize,
    polls: u64,
    received: u64,
}

impl ComchServer {
    /// Creates an empty server.
    pub fn new() -> ComchServer {
        ComchServer {
            endpoints: Vec::new(),
            cursor: 0,
            polls: 0,
            received: 0,
        }
    }

    /// Registers a function's channel; returns its endpoint index.
    pub fn register(&mut self, endpoint: DneEndpoint) -> usize {
        self.endpoints.push(endpoint);
        self.endpoints.len() - 1
    }

    /// Returns the number of monitored endpoints (drives the progress-
    /// engine cost term of [`ComchCosts::dne_service`]).
    pub fn endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// One busy-poll sweep: returns the next pending descriptor (and the
    /// endpoint it came from), scanning at most one full round.
    pub fn poll(&mut self) -> Option<(usize, BufferDesc)> {
        let n = self.endpoints.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            self.polls += 1;
            if let Some(desc) = self.endpoints[idx].recv() {
                self.cursor = (idx + 1) % n;
                self.received += 1;
                return Some((idx, desc));
            }
        }
        None
    }

    /// Sends a descriptor to function `idx`, returning it on a full ring.
    pub fn send_to(&self, idx: usize, desc: BufferDesc) -> Result<(), BufferDesc> {
        self.endpoints[idx].send(desc)
    }

    /// Returns `(poll iterations, descriptors received)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.polls, self.received)
    }

    /// Returns the total number of descriptors currently waiting across all
    /// monitored endpoints — the channel-occupancy signal the observability
    /// layer samples.
    pub fn occupancy(&self) -> usize {
        self.endpoints.iter().map(|e| e.pending()).sum()
    }

    /// Returns the per-endpoint pending descriptor counts.
    pub fn occupancy_per_endpoint(&self) -> Vec<usize> {
        self.endpoints.iter().map(|e| e.pending()).collect()
    }
}

impl Default for ComchServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod server_tests {
    use super::*;

    fn desc(i: u32) -> BufferDesc {
        BufferDesc {
            tenant: 1,
            pool_id: 0,
            buf_index: i,
            len: 16,
            generation: 0,
            dst_fn: 0,
        }
    }

    #[test]
    fn round_robin_across_functions() {
        let mut server = ComchServer::new();
        let mut hosts = Vec::new();
        for _ in 0..3 {
            let (host, dne) = DescriptorChannel::open(8);
            server.register(dne);
            hosts.push(host);
        }
        // Every function has two descriptors pending.
        for (i, host) in hosts.iter().enumerate() {
            host.send(desc(i as u32 * 10)).unwrap();
            host.send(desc(i as u32 * 10 + 1)).unwrap();
        }
        // The server interleaves endpoints instead of draining one.
        let order: Vec<usize> = (0..6).map(|_| server.poll().unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(server.poll(), None);
    }

    #[test]
    fn busy_endpoint_cannot_starve_others() {
        let mut server = ComchServer::new();
        let (busy_host, dne0) = DescriptorChannel::open(64);
        let (quiet_host, dne1) = DescriptorChannel::open(8);
        server.register(dne0);
        server.register(dne1);
        for i in 0..32 {
            busy_host.send(desc(i)).unwrap();
        }
        quiet_host.send(desc(999)).unwrap();
        // The quiet endpoint is served on the second poll at the latest.
        let first = server.poll().unwrap();
        let second = server.poll().unwrap();
        assert!(
            first.1.buf_index == 999 || second.1.buf_index == 999,
            "quiet endpoint starved: {first:?}, {second:?}"
        );
    }

    #[test]
    fn occupancy_counts_pending_across_endpoints() {
        let mut server = ComchServer::new();
        let (host_a, dne_a) = DescriptorChannel::open(8);
        let (host_b, dne_b) = DescriptorChannel::open(8);
        server.register(dne_a);
        server.register(dne_b);
        assert_eq!(server.occupancy(), 0);
        host_a.send(desc(1)).unwrap();
        host_a.send(desc(2)).unwrap();
        host_b.send(desc(3)).unwrap();
        assert_eq!(server.occupancy(), 3);
        assert_eq!(server.occupancy_per_endpoint(), vec![2, 1]);
        server.poll().unwrap();
        assert_eq!(server.occupancy(), 2);
    }

    #[test]
    fn replies_reach_the_right_function() {
        let mut server = ComchServer::new();
        let (host_a, dne_a) = DescriptorChannel::open(4);
        let (host_b, dne_b) = DescriptorChannel::open(4);
        let a = server.register(dne_a);
        let b = server.register(dne_b);
        server.send_to(a, desc(1)).unwrap();
        server.send_to(b, desc(2)).unwrap();
        assert_eq!(host_a.recv().unwrap().buf_index, 1);
        assert_eq!(host_b.recv().unwrap().buf_index, 2);
        assert_eq!(host_a.recv(), None);
    }
}
