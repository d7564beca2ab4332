//! Deterministic discrete-event simulation core for the NADINO reproduction.
//!
//! The engine is single-threaded and totally ordered on `(time, sequence)`,
//! so a given seed always reproduces the same trajectory. A [`Sim`] and
//! everything scheduled on it stay on the thread that built them; a second
//! core is used by running another, independent simulation on it (DESIGN.md
//! §2.2, "One simulation, one thread"). On top of the raw event queue it
//! provides the building blocks every substrate crate uses:
//!
//! - [`time`]: nanosecond-resolution virtual time ([`SimTime`], [`SimDuration`]).
//! - [`engine`]: the event loop ([`Sim`]) with closure events, backed by a
//!   binary min-heap (`heap`) of slab-stored inline closures ([`event`]),
//!   so the hot path is allocation-free.
//! - [`resource`]: FIFO single-/multi-server resources with utilization
//!   accounting, used to model CPU cores, DPU cores and DMA engines.
//! - [`rng`]: seeded SplitMix64 RNG plus the distributions the workloads use.
//! - [`stats`]: streaming mean/variance, log-bucketed latency histograms with
//!   percentiles, and time-series recorders for the figure reproductions.
//! - [`ratelimit`]: token bucket used for bandwidth shaping.
//! - [`idtable`]: index and ring tables for the small integer ids the
//!   substrates allocate — the per-message replacement for hash maps.

pub mod engine;
pub mod event;
pub(crate) mod heap;
pub mod idtable;
pub mod ratelimit;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Sim, SimProfile, TimerHandle};
pub use idtable::{IdRing, IdTable};
pub use resource::{MultiServer, Server};
pub use rng::SimRng;
pub use stats::{Histogram, TimeSeries};
pub use time::{SimDuration, SimTime};
