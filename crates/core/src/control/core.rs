//! The control plane as a state machine that never sees a simulator.
//!
//! [`Core`] holds one `Track` per node — the health state, the failure
//! streak and the drain hold-down beside the administrative
//! [`NodeLifecycle`] — and the upgrade wave, the tracer and the health and
//! fleet event logs. [`Core::step`] takes the instant, one [`Input`] and the
//! [`Host`] it queries, and emits [`Output`]s into a sink in the order the
//! control plane wants them done. The driver in
//! [`crate::control`] applies each one as it is emitted — none re-enters
//! the control plane — and hands back what a `FailOver` or a `Restore`
//! moved, which goes straight into the fleet log.
//!
//! Health folds credible delivery failures — not a `DeadlineExceeded`, nor
//! one whose reporter is itself inside an outage — into the state machine
//! of the node they were aimed at, with hysteresis:
//!
//! ```text
//! Healthy ──failures ≥ SUSPECT_AFTER──▶ Suspect
//! Suspect ──failures ≥ DOWN_AFTER────▶ Down      (fail over to backups)
//! Suspect ──clean for SUSPECT_DECAY──▶ Healthy   (failure burst blew over)
//! Down ────probe says node is up─────▶ Draining
//! Draining ──after DRAIN hold-down───▶ Healthy   (routes restored)
//! ```
//!
//! The hold-down absorbs flapping: a node that crashes again mid-drain goes
//! straight back to `Down` without ever having taken traffic. The lifecycle
//! is layered over it:
//!
//! ```text
//!    InService --drain--> Draining --version flip--> Upgrading --restore, settle--> InService
//!        ^                    |
//!        +---- provision -- Decommissioned <-- decommission
//! ```
//!
//! A node is held — out of the probe's hands — exactly while its lifecycle
//! is not `InService`: only the lifecycle step that drained it returns it to
//! service. A drain starts only from `InService`, so no node is drained
//! twice, and a wave skips a node that left service after the wave began.

use dne::types::FailureReason;
use obs::{Stage, Tracer};
use rdma_sim::NodeId;
use simcore::{SimDuration, SimTime};

/// Synthetic trace id health-event spans are recorded under (health is a
/// cluster-level signal, not a per-request one).
const HEALTH_TRACE_ID: u64 = u64::MAX;
/// Consecutive delivery failures that turn `Healthy` into `Suspect`.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive delivery failures that turn `Suspect` into `Down`.
const DOWN_AFTER: u32 = 3;
/// A `Suspect` node with no new failure for this long returns to `Healthy`
/// (the burst blew over without reaching the down bar).
const SUSPECT_DECAY: SimDuration = SimDuration::from_millis(10);
/// Probe cadence: how often `Down`/`Draining` nodes are re-examined.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Hold-down between the probe first seeing a `Down` node up again and the
/// routes being restored (`Draining` → `Healthy`).
const DRAIN: SimDuration = SimDuration::from_millis(5);
/// Longest a drain waits for the node's in-flight work to quiesce before
/// proceeding anyway (the leftover work completes or fails typed under the
/// normal retry/deadline machinery).
const DRAIN_DEADLINE: SimDuration = SimDuration::from_millis(5);
/// Cadence of the drain quiesce poll.
const DRAIN_POLL: SimDuration = SimDuration::from_micros(50);
/// Simulated time a node spends restarting into the new engine version
/// (out of service, routes on backups).
const UPGRADE_DURATION: SimDuration = SimDuration::from_micros(500);
/// Pause after a node returns to service before the wave moves on — lets
/// connections and admission settle so the wave never has two nodes out at
/// once.
const SETTLE: SimDuration = SimDuration::from_micros(200);

/// A node's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving traffic normally.
    Healthy,
    /// Failures observed; still routed to, but one step from failover.
    Suspect,
    /// Considered dead: routes moved to backups.
    Down,
    /// Out of service with its routes on backups: the probe saw a crashed
    /// machine back and waits out the hold-down, or an administrative drain
    /// holds the node.
    Draining,
}

/// One recorded health transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    pub at: SimTime,
    pub node: NodeId,
    pub from: NodeState,
    pub to: NodeState,
}

/// Administrative lifecycle of a node, layered over its health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLifecycle {
    /// Taking traffic.
    InService,
    /// Routes failed over; waiting for in-flight work to quiesce.
    Draining,
    /// Restarting into a new engine version.
    Upgrading,
    /// Rotated out of the fleet; routes stay on backups until provisioned.
    Decommissioned,
}

/// A typed fleet event, recorded in order (deterministic per seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    DrainStarted {
        node: NodeId,
    },
    /// The node's engine quiesced within the deadline.
    DrainCompleted {
        node: NodeId,
    },
    /// The deadline expired with work still in flight; the controller
    /// proceeds — the leftovers complete or fail typed, never hang.
    DrainDeadlineExceeded {
        node: NodeId,
        in_flight_left: usize,
    },
    UpgradeStarted {
        node: NodeId,
        from: u8,
        to: u8,
    },
    UpgradeCompleted {
        node: NodeId,
        version: u8,
    },
    Decommissioned {
        node: NodeId,
    },
    Provisioned {
        node: NodeId,
        restored: Vec<u16>,
    },
    /// Routes moved off a node (drain or crash failover).
    Rebalanced {
        node: NodeId,
        moved: Vec<u16>,
    },
    /// Functions left with no healthy target — the keys the old
    /// `fail_over_node` call path silently dropped.
    RoutesStranded {
        node: NodeId,
        keys: Vec<u16>,
    },
    /// Displaced primaries restored onto a recovered node.
    RoutesRestored {
        node: NodeId,
        restored: Vec<u16>,
    },
    WaveStarted {
        target: u8,
    },
    WaveCompleted {
        target: u8,
        upgraded: usize,
    },
}

/// Monotonic fleet counters: a view of the fleet event log, read through
/// [`ControlPlane::counters`](crate::control::ControlPlane::counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    pub drains_started: u64,
    pub drains_completed: u64,
    pub drain_deadline_exceeded: u64,
    pub upgrades_completed: u64,
    pub waves_completed: u64,
    /// Route moves: failovers (`Rebalanced`) and restores (`RoutesRestored`).
    pub rebalances: u64,
    /// Total stranded route keys observed across all failovers.
    pub stranded_routes: u64,
    pub decommissions: u64,
    pub provisions: u64,
}

impl FleetCounters {
    /// Counts `events`: one counter per kind of event, `rebalances` for
    /// both kinds of route move, and the keys of every `RoutesStranded`.
    pub(crate) fn of(events: &[FleetEvent]) -> FleetCounters {
        let mut c = FleetCounters::default();
        for event in events {
            let counter = match event {
                FleetEvent::DrainStarted { .. } => &mut c.drains_started,
                FleetEvent::DrainCompleted { .. } => &mut c.drains_completed,
                FleetEvent::DrainDeadlineExceeded { .. } => &mut c.drain_deadline_exceeded,
                FleetEvent::UpgradeCompleted { .. } => &mut c.upgrades_completed,
                FleetEvent::WaveCompleted { .. } => &mut c.waves_completed,
                FleetEvent::Rebalanced { .. } | FleetEvent::RoutesRestored { .. } => {
                    &mut c.rebalances
                }
                FleetEvent::Decommissioned { .. } => &mut c.decommissions,
                FleetEvent::Provisioned { .. } => &mut c.provisions,
                FleetEvent::RoutesStranded { keys, .. } => {
                    c.stranded_routes += keys.len() as u64;
                    continue;
                }
                FleetEvent::UpgradeStarted { .. } | FleetEvent::WaveStarted { .. } => continue,
            };
            *counter += 1;
        }
        c
    }
}

/// Something that happened to the control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Input {
    /// The engine of node `.0` gave up on a request bound for node `.1`
    /// (when the route was known), for reason `.2`.
    Failed(NodeId, Option<NodeId>, FailureReason),
    /// The probe tick: decay stale suspects, notice crashed machines back
    /// up, finish crash-recovery drains whose hold-down elapsed.
    Probe,
    /// Drain node `.0`, then restart it at CTX wire `.1`.
    Upgrade(usize, u8),
    /// Drain node `.0` and leave it out of service.
    Decommission(usize),
    /// Return a decommissioned node to service.
    Provision(usize),
    /// Upgrade every in-service node to CTX wire `.0`, one at a time.
    StartWave(u8),
    /// A draining node's quiesce poll.
    Poll(usize),
    /// An upgrading node finished restarting into its new version.
    Restarted(usize),
    /// The wave's node settled back in service: the wave moves on.
    Settled,
}

/// Something the control plane wants done; the driver applies these in
/// emission order.
#[derive(Debug, PartialEq)]
pub(crate) enum Output {
    /// Feed the input back at the instant.
    At(SimTime, Input),
    /// Move every route off node `.0` (`Cluster::fail_over_node`).
    FailOver(usize),
    /// Bring node `.0`'s displaced routes home (`Cluster::restore_node`).
    Restore(usize),
    /// Switch node `.0` to CTX wire `.1` and announce it to every peer.
    WireVersion(usize, u8),
    /// The effective capacity fraction changed: feed admission control.
    Capacity(f64),
}

/// What applying an output moved: the function ids a `FailOver` switched
/// or a `Restore` brought home, and those a `FailOver` left stranded.
/// Empty for every other output.
#[derive(Debug, Default)]
pub(crate) struct Moved {
    pub(crate) keys: Vec<u16>,
    pub(crate) stranded: Vec<u16>,
}

/// What one step may ask the cluster around the core.
pub(crate) trait Host {
    /// Whether the fault plane has `node`'s machine up at `now`.
    fn up(&self, node: NodeId, now: SimTime) -> bool;
    /// Work node `idx`'s engine still owes.
    fn in_flight(&self, idx: usize) -> usize;
    /// Node `idx`'s CTX wire version.
    fn wire_version(&self, idx: usize) -> u8;
}

/// An administrative drain: when it began, its consecutive clean polls, and
/// what follows it — a restart at `Some(version)`, or decommissioning.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Drain {
    started: SimTime,
    clean_polls: u32,
    upgrade_to: Option<u8>,
}

/// Everything the control plane knows about one node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Track {
    node: NodeId,
    state: NodeState,
    /// Consecutive failures since the last decay/recovery.
    failures: u32,
    last_failure: SimTime,
    /// When a crash-recovery `Draining` node may return to `Healthy`.
    drain_until: SimTime,
    lifecycle: NodeLifecycle,
    /// Meaningful while the lifecycle is `Draining` or `Upgrading`.
    drain: Drain,
}

struct Wave {
    target: u8,
    /// Node indices still to visit, last first.
    queue: Vec<usize>,
    upgraded: usize,
    /// The node the wave is upgrading.
    current: Option<usize>,
}

pub(crate) struct Core {
    /// One per node, in cluster index order.
    tracks: Vec<Track>,
    wave: Option<Wave>,
    /// The probe re-arms itself while `now` is before this.
    probe_until: SimTime,
    tracer: Tracer,
    pub(crate) health: Vec<HealthEvent>,
    pub(crate) fleet: Vec<FleetEvent>,
}

impl Core {
    /// A core tracking `nodes` (in cluster index order), all `Healthy` and
    /// in service, recording health spans into `tracer` and probing until
    /// `probe_until`.
    pub(crate) fn new(
        nodes: impl IntoIterator<Item = NodeId>,
        tracer: Tracer,
        probe_until: SimTime,
    ) -> Core {
        let drain = Drain {
            started: SimTime::ZERO,
            clean_polls: 0,
            upgrade_to: None,
        };
        let track = |node| Track {
            node,
            state: NodeState::Healthy,
            failures: 0,
            last_failure: SimTime::ZERO,
            drain_until: SimTime::ZERO,
            lifecycle: NodeLifecycle::InService,
            drain,
        };
        Core {
            tracks: nodes.into_iter().map(track).collect(),
            wave: None,
            probe_until,
            tracer,
            health: Vec::new(),
            fleet: Vec::new(),
        }
    }

    /// Arms the first probe, one interval on.
    pub(crate) fn start(&self, now: SimTime, out: &mut impl FnMut(Output) -> Moved) {
        out(Output::At(now + PROBE_INTERVAL, Input::Probe));
    }

    /// Advances the control plane by one input, emitting what it wants done
    /// into `out`, which hands back what a `FailOver` or `Restore` moved.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        input: Input,
        host: &impl Host,
        out: &mut impl FnMut(Output) -> Moved,
    ) {
        match input {
            Input::Failed(reporter, target, reason) => {
                let credible = reason != FailureReason::DeadlineExceeded && host.up(reporter, now);
                if let Some(node) = target.filter(|_| credible) {
                    self.blame(now, node, out);
                }
            }
            Input::Probe => {
                self.probe(now, host, out);
                if now < self.probe_until {
                    out(Output::At(now + PROBE_INTERVAL, Input::Probe));
                }
            }
            Input::Upgrade(idx, version) => self.drain(now, idx, Some(version), host, out),
            Input::Decommission(idx) => self.drain(now, idx, None, host, out),
            Input::Provision(idx) => self.provision(now, idx, out),
            Input::StartWave(target) => {
                if self.wave.is_none() {
                    let queue = self.tracks.iter().enumerate().rev();
                    let queue = queue.filter(|(_, t)| t.lifecycle == NodeLifecycle::InService);
                    self.wave = Some(Wave {
                        target,
                        queue: queue.map(|(i, _)| i).collect(),
                        upgraded: 0,
                        current: None,
                    });
                    self.fleet.push(FleetEvent::WaveStarted { target });
                    self.next_wave_node(now, host, out);
                }
            }
            Input::Poll(idx) => self.poll(now, idx, host, out),
            Input::Restarted(idx) => self.restarted(now, idx, out),
            Input::Settled => self.next_wave_node(now, host, out),
        }
    }

    /// The effective capacity fraction in `(0, 1]`: the share of nodes
    /// taking traffic. `Draining` counts against it like `Down`: its routes
    /// live on backups until the drain ends.
    pub(crate) fn capacity(&self) -> f64 {
        let total = self.tracks.len().max(1) as f64;
        let up = self
            .tracks
            .iter()
            .filter(|t| matches!(t.state, NodeState::Healthy | NodeState::Suspect))
            .count() as f64;
        up / total
    }

    /// Health state of `node` (`None` if untracked).
    pub(crate) fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.tracks.iter().find(|t| t.node == node).map(|t| t.state)
    }

    /// `(node, state)` for every node, in index order.
    pub(crate) fn states(&self) -> Vec<(NodeId, NodeState)> {
        self.tracks.iter().map(|t| (t.node, t.state)).collect()
    }

    /// Lifecycle of node `idx` (`None` past the last node).
    pub(crate) fn lifecycle_of(&self, idx: usize) -> Option<NodeLifecycle> {
        self.tracks.get(idx).map(|t| t.lifecycle)
    }

    pub(crate) fn wave_active(&self) -> bool {
        self.wave.is_some()
    }

    /// Records a health transition of node `i`: the log and an instant span.
    fn transition(&mut self, now: SimTime, i: usize, to: NodeState) {
        let track = &mut self.tracks[i];
        let (node, from) = (track.node, track.state);
        track.state = to;
        self.health.push(HealthEvent {
            at: now,
            node,
            from,
            to,
        });
        if self.tracer.is_enabled() {
            let stage = Stage::HealthEvent;
            self.tracer
                .span(HEALTH_TRACE_ID, 0, node.0 as u32, stage, now, now);
        }
    }

    /// Moves node `i`'s routes to backups and logs what moved.
    fn fail_over(&mut self, i: usize, out: &mut impl FnMut(Output) -> Moved) {
        let moved = out(Output::FailOver(i));
        let node = self.tracks[i].node;
        self.fleet.push(FleetEvent::Rebalanced {
            node,
            moved: moved.keys,
        });
        if !moved.stranded.is_empty() {
            let keys = moved.stranded;
            self.fleet.push(FleetEvent::RoutesStranded { node, keys });
        }
    }

    /// Brings node `i`'s displaced routes home; logs and returns them.
    fn restore(&mut self, i: usize, out: &mut impl FnMut(Output) -> Moved) -> Vec<u16> {
        let restored = out(Output::Restore(i)).keys;
        let node = self.tracks[i].node;
        let event = FleetEvent::RoutesRestored {
            node,
            restored: restored.clone(),
        };
        self.fleet.push(event);
        restored
    }

    /// One credible delivery failure aimed at `node`.
    fn blame(&mut self, now: SimTime, node: NodeId, out: &mut impl FnMut(Output) -> Moved) {
        let Some(i) = self.tracks.iter().position(|t| t.node == node) else {
            return;
        };
        let track = &mut self.tracks[i];
        // A stale failure streak decays before counting the new one.
        if now.saturating_since(track.last_failure) > SUSPECT_DECAY {
            track.failures = 0;
        }
        track.failures += 1;
        track.last_failure = now;
        let (state, failures) = (track.state, track.failures);
        let went_down = match state {
            NodeState::Healthy if failures >= SUSPECT_AFTER => {
                self.transition(now, i, NodeState::Suspect);
                // Straight past Suspect when one burst clears both bars.
                failures >= DOWN_AFTER
            }
            NodeState::Suspect => failures >= DOWN_AFTER,
            // A failure mid-drain sends the node straight back down: its
            // routes were never restored, so there is no failover to redo.
            NodeState::Draining => {
                self.transition(now, i, NodeState::Down);
                false
            }
            NodeState::Healthy | NodeState::Down => false,
        };
        if went_down {
            self.transition(now, i, NodeState::Down);
            let capacity = self.capacity();
            self.fail_over(i, out);
            out(Output::Capacity(capacity));
        }
    }

    /// One probe pass over every node, in index order.
    fn probe(&mut self, now: SimTime, host: &impl Host, out: &mut impl FnMut(Output) -> Moved) {
        let mut recovered = Vec::new();
        for i in 0..self.tracks.len() {
            let track = self.tracks[i];
            match track.state {
                NodeState::Suspect if now.saturating_since(track.last_failure) >= SUSPECT_DECAY => {
                    self.transition(now, i, NodeState::Healthy);
                    self.tracks[i].failures = 0;
                }
                NodeState::Down if host.up(track.node, now) => {
                    self.transition(now, i, NodeState::Draining);
                    self.tracks[i].drain_until = now + DRAIN;
                }
                // A held node's drain never completes here: the lifecycle
                // step that drained it decides when it returns.
                NodeState::Draining
                    if now >= track.drain_until && track.lifecycle == NodeLifecycle::InService =>
                {
                    self.transition(now, i, NodeState::Healthy);
                    self.tracks[i].failures = 0;
                    recovered.push(i);
                }
                _ => {}
            }
        }
        if !recovered.is_empty() {
            let capacity = self.capacity();
            for i in recovered {
                self.restore(i, out);
            }
            out(Output::Capacity(capacity));
        }
    }

    /// Starts an administrative drain of an in-service node: out of service
    /// first (capacity shrinks, the probe keeps its hands off), then its
    /// routes move, then the quiesce poll — new placements stop before the
    /// in-flight tail runs out. A node already out of service (crashed:
    /// `Down`, or recovering) keeps its health state, and its routes are on
    /// backups already. Refused unless `InService`.
    fn drain(
        &mut self,
        now: SimTime,
        idx: usize,
        upgrade_to: Option<u8>,
        host: &impl Host,
        out: &mut impl FnMut(Output) -> Moved,
    ) {
        let Some(track) = self.tracks.get_mut(idx) else {
            return;
        };
        if track.lifecycle != NodeLifecycle::InService {
            return;
        }
        track.lifecycle = NodeLifecycle::Draining;
        track.drain = Drain {
            started: now,
            clean_polls: 0,
            upgrade_to,
        };
        let (node, state) = (track.node, track.state);
        self.fleet.push(FleetEvent::DrainStarted { node });
        let routed = matches!(state, NodeState::Healthy | NodeState::Suspect);
        if routed {
            self.transition(now, idx, NodeState::Draining);
        }
        out(Output::Capacity(self.capacity()));
        if routed {
            self.fail_over(idx, out);
        }
        self.poll(now, idx, host, out);
    }

    /// Polls a draining node: done after two consecutive clean polls, or at
    /// the drain deadline with work left; otherwise polls again.
    fn poll(
        &mut self,
        now: SimTime,
        idx: usize,
        host: &impl Host,
        out: &mut impl FnMut(Output) -> Moved,
    ) {
        let Some(track) = self.tracks.get_mut(idx) else {
            return;
        };
        if track.lifecycle != NodeLifecycle::Draining {
            return;
        }
        let in_flight = host.in_flight(idx);
        let node = track.node;
        let drain = &mut track.drain;
        drain.clean_polls = if in_flight == 0 {
            drain.clean_polls + 1
        } else {
            0
        };
        let ended = if drain.clean_polls >= 2 {
            FleetEvent::DrainCompleted { node }
        } else if now.saturating_since(drain.started) >= DRAIN_DEADLINE {
            let in_flight_left = in_flight;
            FleetEvent::DrainDeadlineExceeded {
                node,
                in_flight_left,
            }
        } else {
            out(Output::At(now + DRAIN_POLL, Input::Poll(idx)));
            return;
        };
        self.fleet.push(ended);
        match drain.upgrade_to {
            Some(to) => {
                track.lifecycle = NodeLifecycle::Upgrading;
                let from = host.wire_version(idx);
                self.fleet
                    .push(FleetEvent::UpgradeStarted { node, from, to });
                out(Output::At(now + UPGRADE_DURATION, Input::Restarted(idx)));
            }
            None => {
                track.lifecycle = NodeLifecycle::Decommissioned;
                self.fleet.push(FleetEvent::Decommissioned { node });
            }
        }
    }

    /// An upgraded node restarted at its new version: every peer learns it,
    /// the node returns to service, and the wave moves on after `SETTLE`.
    fn restarted(&mut self, now: SimTime, idx: usize, out: &mut impl FnMut(Output) -> Moved) {
        let Some(track) = self.tracks.get(idx) else {
            return;
        };
        let (NodeLifecycle::Upgrading, Some(version)) = (track.lifecycle, track.drain.upgrade_to)
        else {
            return;
        };
        let node = track.node;
        out(Output::WireVersion(idx, version));
        self.release(now, idx, out);
        self.tracks[idx].lifecycle = NodeLifecycle::InService;
        self.fleet
            .push(FleetEvent::UpgradeCompleted { node, version });
        if self.wave.as_ref().is_some_and(|w| w.current == Some(idx)) {
            out(Output::At(now + SETTLE, Input::Settled));
        }
    }

    /// Brings a decommissioned node back into service.
    fn provision(&mut self, now: SimTime, idx: usize, out: &mut impl FnMut(Output) -> Moved) {
        let Some(track) = self.tracks.get(idx) else {
            return;
        };
        if track.lifecycle != NodeLifecycle::Decommissioned {
            return;
        }
        let node = track.node;
        let restored = self.release(now, idx, out);
        self.tracks[idx].lifecycle = NodeLifecycle::InService;
        self.fleet.push(FleetEvent::Provisioned { node, restored });
    }

    /// Ends a held drain. A node still drained-idle gets its routes back and
    /// is `Healthy` again, its streak cleared; one that crashed meanwhile
    /// stays on the probe path, which restores it once the machine is truly
    /// back — routes never come home to a `Down` node. Returns what came
    /// home.
    fn release(
        &mut self,
        now: SimTime,
        idx: usize,
        out: &mut impl FnMut(Output) -> Moved,
    ) -> Vec<u16> {
        if self.tracks[idx].state != NodeState::Draining {
            return Vec::new();
        }
        let restored = self.restore(idx, out);
        self.transition(now, idx, NodeState::Healthy);
        self.tracks[idx].failures = 0;
        out(Output::Capacity(self.capacity()));
        restored
    }

    /// Sends the wave to its next node still in service — one that left
    /// service after the wave began is skipped — or completes it.
    fn next_wave_node(
        &mut self,
        now: SimTime,
        host: &impl Host,
        out: &mut impl FnMut(Output) -> Moved,
    ) {
        let Some(wave) = self.wave.as_mut() else {
            return;
        };
        while let Some(idx) = wave.queue.pop() {
            if self.tracks[idx].lifecycle == NodeLifecycle::InService {
                wave.upgraded += 1;
                wave.current = Some(idx);
                let target = wave.target;
                self.drain(now, idx, Some(target), host, out);
                return;
            }
        }
        let (target, upgraded) = (wave.target, wave.upgraded);
        self.wave = None;
        self.fleet
            .push(FleetEvent::WaveCompleted { target, upgraded });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A reporter whose machine is always up, and one always inside an
    /// outage; neither is a node the core tracks.
    const WITNESS: NodeId = NodeId(8);
    const DARK: NodeId = NodeId(9);

    /// A failure reported by `reporter`, aimed at node `node`.
    fn failed(reporter: NodeId, node: usize, reason: FailureReason) -> Input {
        Input::Failed(reporter, Some(NodeId(node as u16)), reason)
    }

    /// A credible failure aimed at node `node`.
    fn blame(node: usize) -> Input {
        failed(WITNESS, node, FailureReason::RetryBudgetExhausted)
    }

    /// A host whose tracked machines are all up or all down, with nothing in
    /// flight and every node at wire v1.
    struct Fake {
        up: bool,
    }

    impl Host for Fake {
        fn up(&self, node: NodeId, _now: SimTime) -> bool {
            match node {
                WITNESS => true,
                DARK => false,
                _ => self.up,
            }
        }

        fn in_flight(&self, _idx: usize) -> usize {
            0
        }

        fn wire_version(&self, _idx: usize) -> u8 {
            obs::CTX_V1
        }
    }

    /// Steps `core` at `us` µs; returns what it emitted. A route move moves
    /// nothing.
    fn step(core: &mut Core, us: u64, input: Input, up: bool) -> Vec<Output> {
        let mut outputs = Vec::new();
        let sink = &mut |o: Output| {
            outputs.push(o);
            Moved::default()
        };
        core.step(at(us), input, &Fake { up }, sink);
        outputs
    }

    /// Two nodes whose probe never re-arms itself.
    fn two_nodes() -> Core {
        Core::new([NodeId(0), NodeId(1)], Tracer::disabled(), SimTime::ZERO)
    }

    #[test]
    fn failures_walk_healthy_suspect_down_and_fail_over() {
        let mut core = two_nodes();
        let blame = blame(1);
        assert!(step(&mut core, 0, blame, true).is_empty());
        assert_eq!(core.state_of(NodeId(1)), Some(NodeState::Suspect));
        assert!(step(&mut core, 0, blame, true).is_empty());
        assert_eq!(core.state_of(NodeId(1)), Some(NodeState::Suspect));
        // The third failure fails node 1 over; capacity halves.
        let down = [Output::FailOver(1), Output::Capacity(0.5)];
        assert_eq!(step(&mut core, 0, blame, true), down);
        assert_eq!(core.state_of(NodeId(1)), Some(NodeState::Down));
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Healthy));
    }

    #[test]
    fn suspect_decays_back_to_healthy_without_failover() {
        let mut core = two_nodes();
        step(&mut core, 0, blame(0), true);
        // A clean decay window passes; the probe clears the suspicion.
        assert!(step(&mut core, 9_000, Input::Probe, true).is_empty());
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Suspect));
        assert!(step(&mut core, 10_000, Input::Probe, true).is_empty());
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Healthy));
        // And the streak restarts from zero afterwards.
        step(&mut core, 10_000, blame(0), true);
        step(&mut core, 10_000, blame(0), true);
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Suspect));
    }

    #[test]
    fn down_drains_then_recovers_via_probes() {
        let mut core = two_nodes();
        for _ in 0..3 {
            step(&mut core, 0, blame(0), false);
        }
        // While the machine is dark, the node stays down.
        assert!(step(&mut core, 2_000, Input::Probe, false).is_empty());
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Down));
        // The 3 ms probe sees it up and drains 5 ms; the 8 ms probe restores.
        assert!(step(&mut core, 3_000, Input::Probe, true).is_empty());
        assert!(step(&mut core, 7_000, Input::Probe, true).is_empty());
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Draining));
        let back = [Output::Restore(0), Output::Capacity(1.0)];
        assert_eq!(step(&mut core, 8_000, Input::Probe, true), back);
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Healthy));
    }

    #[test]
    fn failure_mid_drain_goes_straight_back_down() {
        let mut core = two_nodes();
        for _ in 0..3 {
            step(&mut core, 0, blame(0), false);
        }
        step(&mut core, 200, Input::Probe, true);
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Draining));
        // Its routes are still on backups: no second failover.
        assert!(step(&mut core, 300, blame(0), true).is_empty());
        assert_eq!(core.state_of(NodeId(0)), Some(NodeState::Down));
    }

    #[test]
    fn transitions_emit_health_event_spans_and_log() {
        let tracer = Tracer::enabled();
        let mut core = Core::new([NodeId(0), NodeId(1)], tracer.clone(), SimTime::ZERO);
        for _ in 0..3 {
            step(&mut core, 0, blame(0), true);
        }
        let events = &core.health;
        assert_eq!(events.len(), 2);
        let first = (events[0].from, events[0].to);
        assert_eq!(first, (NodeState::Healthy, NodeState::Suspect));
        assert_eq!(events[1].to, NodeState::Down);
        let records = tracer.records();
        let spans = records.iter().filter(|r| r.stage == Stage::HealthEvent);
        assert_eq!(spans.count(), 2);
    }

    /// An operator's drain feeds capacity before its routes move and the
    /// provision after they come home; a drain of a node out of service is
    /// refused and changes nothing.
    #[test]
    fn decommission_and_provision_feed_capacity() {
        let mut core = two_nodes();
        let poll = Output::At(at(50), Input::Poll(1));
        let drained = [Output::Capacity(0.5), Output::FailOver(1), poll];
        assert_eq!(step(&mut core, 0, Input::Decommission(1), true), drained);
        assert!(step(&mut core, 50, Input::Poll(1), true).is_empty());
        assert_eq!(core.lifecycle_of(1), Some(NodeLifecycle::Decommissioned));
        let fleet = core.fleet.clone();
        for refused in [Input::Upgrade(1, obs::CTX_V2), Input::Decommission(1)] {
            assert!(step(&mut core, 100, refused, true).is_empty());
        }
        assert_eq!(core.fleet, fleet, "a refused drain was logged");
        let provisioned = [Output::Restore(1), Output::Capacity(1.0)];
        assert_eq!(step(&mut core, 100, Input::Provision(1), true), provisioned);
        assert_eq!(core.lifecycle_of(1), Some(NodeLifecycle::InService));
    }

    #[test]
    fn the_probe_rearms_until_its_horizon() {
        let mut core = Core::new([NodeId(0)], Tracer::disabled(), at(2_000));
        let mut armed = Vec::new();
        core.start(SimTime::ZERO, &mut |o: Output| {
            armed.push(o);
            Moved::default()
        });
        assert_eq!(armed, [Output::At(at(1_000), Input::Probe)]);
        let next = [Output::At(at(2_000), Input::Probe)];
        assert_eq!(step(&mut core, 1_000, Input::Probe, true), next);
        assert!(step(&mut core, 2_000, Input::Probe, true).is_empty());
    }

    const N: usize = 3;
    /// The node the cases blame, decommission and provision.
    const ONE: usize = 1;

    /// What happens to the three nodes besides the core's own inputs.
    #[derive(Clone, Copy, Debug)]
    enum Case {
        /// A wave to v2, three failures blamed on node 1, and one probe
        /// that finds node 1's machine down, or back up.
        WaveBlamed,
        /// Node 1 decommissioned, then provisioned, around two probes.
        DecommissionProvision,
        /// Node 1 decommissioned, then provisioned, against a wave to v2.
        DecommissionInWave,
        /// Three failures blamed on node 1 beside one from a reporter inside
        /// an outage, one `DeadlineExceeded` and one probe.
        Hearsay,
    }

    /// What the world can do next.
    enum Pending {
        /// An input: an `At` of the core, due at the instant, or an
        /// operator's, due whenever it is taken.
        At(SimTime, Input),
        /// `.0` more failures blamed on node 1.
        Blames(u32),
        /// `.0` more probes, every machine up.
        Probes(u32),
        /// The one probe, finding node 1's machine up (`true`) or still
        /// down; taking one drops its twin.
        Probe(bool),
    }

    /// The core with no simulator, and what the world has seen it do.
    struct World {
        core: Core,
        host: Fake,
        now: SimTime,
        pending: Vec<Pending>,
        /// Per node: routes failed over and not restored since.
        failed_over: [bool; N],
        /// Per node: drained by the operator's `Decommission`, not the wave.
        operator: [bool; N],
        /// Every input fed, in order, for a failure's message.
        order: Vec<Input>,
    }

    impl World {
        fn new(case: Case) -> World {
            let now = |input| Pending::At(SimTime::ZERO, input);
            let wave = || now(Input::StartWave(obs::CTX_V2));
            let decommission = now(Input::Decommission(ONE));
            let pending = match case {
                Case::WaveBlamed => vec![
                    wave(),
                    Pending::Blames(3),
                    Pending::Probe(false),
                    Pending::Probe(true),
                ],
                Case::DecommissionProvision => {
                    vec![decommission, Pending::Probes(2)]
                }
                Case::DecommissionInWave => vec![wave(), decommission],
                Case::Hearsay => vec![
                    Pending::Blames(3),
                    now(failed(DARK, ONE, FailureReason::RetryBudgetExhausted)),
                    now(failed(WITNESS, ONE, FailureReason::DeadlineExceeded)),
                    Pending::Probes(1),
                ],
            };
            let nodes = (0..N as u16).map(NodeId);
            World {
                core: Core::new(nodes, Tracer::disabled(), SimTime::ZERO),
                host: Fake { up: true },
                now: SimTime::ZERO,
                pending,
                failed_over: [false; N],
                operator: [false; N],
                order: Vec::new(),
            }
        }

        /// Takes pending action `i`; an input fires at `max(now, its
        /// instant)`, so `now` never decreases.
        fn act(&mut self, i: usize) {
            match self.pending.remove(i) {
                Pending::At(at, input) => {
                    self.now = self.now.max(at);
                    self.step(input);
                    if let Input::Decommission(idx) = input {
                        // The operator provisions the node at some later point.
                        let provision = Input::Provision(idx);
                        self.pending.push(Pending::At(SimTime::ZERO, provision));
                    }
                }
                Pending::Blames(n) => {
                    if n > 1 {
                        self.pending.push(Pending::Blames(n - 1));
                    }
                    self.step(blame(ONE));
                }
                Pending::Probes(n) => {
                    if n > 1 {
                        self.pending.push(Pending::Probes(n - 1));
                    }
                    self.step(Input::Probe);
                }
                Pending::Probe(up) => {
                    self.pending.retain(|p| !matches!(p, Pending::Probe(_)));
                    self.host.up = up;
                    self.step(Input::Probe);
                }
            }
        }

        /// Steps the core and checks what the step did.
        fn step(&mut self, input: Input) {
            self.order.push(input);
            let before: Vec<NodeLifecycle> = self.core.tracks.iter().map(|t| t.lifecycle).collect();
            let (tracks, health) = (self.core.tracks.clone(), self.core.health.len());
            let mut outputs = Vec::new();
            let sink = &mut |o: Output| {
                outputs.push(o);
                Moved::default()
            };
            self.core.step(self.now, input, &self.host, sink);
            let (core, order) = (&self.core, &self.order);
            let hearsay = matches!(
                input,
                Input::Failed(DARK, ..) | Input::Failed(_, _, FailureReason::DeadlineExceeded)
            );
            if hearsay {
                let unmoved = outputs.is_empty() && core.tracks == tracks;
                assert!(
                    unmoved && core.health.len() == health,
                    "{input:?} moved: {order:?}"
                );
            }
            for output in outputs {
                match output {
                    Output::At(at, input) => self.pending.push(Pending::At(at, input)),
                    Output::FailOver(i) => {
                        assert!(!self.failed_over[i], "FailOver({i}) twice: {order:?}");
                        self.failed_over[i] = true;
                    }
                    Output::Restore(i) => {
                        assert!(self.failed_over[i], "Restore({i}) unfailed: {order:?}");
                        let state = core.tracks[i].state;
                        assert_ne!(state, NodeState::Down, "Restore({i}) of Down: {order:?}");
                        self.failed_over[i] = false;
                    }
                    Output::Capacity(capacity) => {
                        let states = core.tracks.iter().map(|t| t.state);
                        let up = states
                            .filter(|s| matches!(s, NodeState::Healthy | NodeState::Suspect))
                            .count();
                        let want = up as f64 / N as f64;
                        assert_eq!(capacity, want, "capacity after {order:?}");
                    }
                    Output::WireVersion(..) => {}
                }
            }
            for (i, was) in before.iter().enumerate() {
                let now = core.tracks[i].lifecycle;
                if *was == NodeLifecycle::Decommissioned && input != Input::Provision(i) {
                    let left = format!("node {i} left Decommissioned for {now:?}");
                    assert_eq!(now, NodeLifecycle::Decommissioned, "{left}: {order:?}");
                }
            }
            match input {
                Input::Decommission(i) if before[i] == NodeLifecycle::InService => {
                    self.operator[i] = true;
                }
                Input::Provision(i) if before[i] == NodeLifecycle::Decommissioned => {
                    self.operator[i] = false;
                }
                _ => {}
            }
            let wave_out = (0..N).filter(|&i| {
                let out = matches!(
                    core.tracks[i].lifecycle,
                    NodeLifecycle::Draining | NodeLifecycle::Upgrading
                );
                out && !self.operator[i]
            });
            assert!(wave_out.count() <= 1, "two wave nodes out: {order:?}");
        }

        /// Checked once nothing is pending; tallies the endings reached.
        fn check_end(self, seen: &mut Vec<&'static str>) {
            let order = &self.order;
            let mut open = [false; N];
            for event in &self.core.fleet {
                let (node, starts) = match event {
                    FleetEvent::DrainStarted { node } => (node, true),
                    FleetEvent::DrainCompleted { node }
                    | FleetEvent::DrainDeadlineExceeded { node, .. } => (node, false),
                    _ => continue,
                };
                let i = node.0 as usize;
                assert_ne!(open[i], starts, "drain of {i} out of step: {order:?}");
                open[i] = starts;
            }
            assert_eq!(open, [false; N], "a drain never ended: {order:?}");
            assert!(!self.core.wave_active(), "wave still running: {order:?}");
            let track = self.core.tracks[ONE];
            let skipped =
                self.core.fleet.iter().any(
                    |e| matches!(e, FleetEvent::WaveCompleted { upgraded, .. } if *upgraded < N),
                );
            let recovering = track.state == NodeState::Draining && !self.operator[ONE];
            let endings = [
                ("down", track.state == NodeState::Down),
                ("recovering", recovering),
                (
                    "decommissioned",
                    track.lifecycle == NodeLifecycle::Decommissioned,
                ),
                (
                    "provisioned",
                    FleetCounters::of(&self.core.fleet).provisions == 1,
                ),
                ("skipped by the wave", skipped),
            ];
            for (name, reached) in endings {
                if reached && !seen.contains(&name) {
                    seen.push(name);
                }
            }
        }
    }

    /// The control core in every order of its pending inputs, with each `At`
    /// a pending input that may fire at any later point: a wave to v2 across
    /// three nodes while three failures are blamed on node 1 and one probe
    /// finds its machine down or up; node 1 decommissioned, then
    /// provisioned, around two probes; the same decommission against a
    /// wave; and three failures blamed on node 1 around one from a reporter
    /// inside an outage, a `DeadlineExceeded` and a probe. After every step:
    /// no `Restore(i)` leaves node `i` `Down`, `FailOver` and `Restore`
    /// alternate per node, every `Capacity` is (`Healthy` + `Suspect`) / n,
    /// the wave never has two of its own nodes out of service, a
    /// `Decommissioned` node stays so until `Provision`, and a failure that
    /// is no evidence emitted nothing and moved no node. After every order,
    /// every `DrainStarted` ended exactly once. A failure prints the order.
    #[test]
    fn every_order_keeps_routes_drains_and_the_wave_in_step() {
        let mut seen = Vec::new();
        let cases = [
            Case::WaveBlamed,
            Case::DecommissionProvision,
            Case::DecommissionInWave,
            Case::Hearsay,
        ];
        let orders = cases.map(|case| {
            let fresh = || World::new(case);
            simcore::explore(
                fresh,
                |w| w.pending.len(),
                World::act,
                |w| w.check_end(&mut seen),
            )
        });
        assert_eq!(orders, [8008, 20, 283, 120]);
        seen.sort_unstable();
        let endings = [
            "decommissioned",
            "down",
            "provisioned",
            "recovering",
            "skipped by the wave",
        ];
        assert_eq!(seen, endings);
    }
}
