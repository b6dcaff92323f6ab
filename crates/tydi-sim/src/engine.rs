//! The simulation engine: event-driven scheduler, stimulus feeders,
//! output probes, quiescence/deadlock detection and metric collection.
//!
//! Components are stepped from a ready-set worklist rather than polled
//! every cycle: a component runs when one of its input channels gained
//! a packet, one of its output channels gained credit, or its own
//! [`Wake`] hint (internal `delay(n)` timers, spontaneous sources)
//! says so. Cycles in which nothing is scheduled are skipped outright,
//! so sparse or heavily backpressured stimulus costs time proportional
//! to the *events*, not to the simulated cycle count. The original
//! poll-everything loop is kept behind [`SchedulerKind::Polling`] for
//! differential testing and benchmarking.

use crate::behavior::{Behavior, BehaviorRegistry, IoCtx, Wake};
use crate::channel::{Channel, Packet};
use crate::fault::{self, Fault, FaultPlan, FaultStats};
use crate::graph::{flatten, ComponentNode, GraphError, SimGraph};
use crate::interp::SimInterpreter;
use crate::report::{BottleneckReport, ChannelStats, PortBlockage, SimReport};
use std::collections::{BTreeMap, HashMap};
use tydi_ir::Project;

/// Simulator construction/run errors.
///
/// Every variant carries the component path and/or port it concerns as
/// structured fields, so batch reports can aggregate failures without
/// parsing rendered strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Graph construction failed.
    Graph(GraphError),
    /// A component references IR the project does not contain — an
    /// inconsistency that used to be papered over with a fabricated
    /// `__wire` implementation.
    MissingIr {
        /// Hierarchical path of the component.
        component: String,
        /// The definition that could not be found.
        missing: String,
    },
    /// A behaviour could not be built.
    Behaviour {
        /// Hierarchical path of the component.
        component: String,
        /// Why the behaviour factory failed.
        message: String,
    },
    /// A port name passed to `feed`/`outputs` is not a boundary port.
    UnknownBoundaryPort {
        /// The requested port.
        port: String,
        /// The boundary ports that do exist, sorted.
        available: Vec<String>,
    },
    /// A fault plan targets a channel or component the flattened
    /// design does not contain.
    UnknownFaultTarget {
        /// `"channel"` or `"component"`.
        kind: &'static str,
        /// The requested name.
        target: String,
        /// The names that do exist, sorted.
        available: Vec<String>,
    },
}

impl SimError {
    fn unknown_port(port: &str, known: &HashMap<String, impl Sized>) -> SimError {
        let mut available: Vec<String> = known.keys().cloned().collect();
        available.sort();
        SimError::UnknownBoundaryPort {
            port: port.to_string(),
            available,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Graph(e) => write!(f, "{e}"),
            SimError::MissingIr { component, missing } => {
                write!(
                    f,
                    "component `{component}` references missing IR: {missing}"
                )
            }
            SimError::Behaviour { component, message } => {
                write!(f, "cannot build behaviour for `{component}`: {message}")
            }
            SimError::UnknownBoundaryPort { port, available } => {
                write!(
                    f,
                    "unknown boundary port `{port}` (available: {})",
                    available.join(", ")
                )
            }
            SimError::UnknownFaultTarget {
                kind,
                target,
                available,
            } => {
                write!(
                    f,
                    "fault plan targets unknown {kind} `{target}` (available: {})",
                    available.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

struct RunningComponent {
    node: ComponentNode,
    behavior: Box<dyn Behavior>,
    blocked: HashMap<String, u64>,
    last_state: Option<String>,
}

struct Feeder {
    channel: usize,
    pending: std::collections::VecDeque<Packet>,
    sent: Vec<(u64, Packet)>,
}

struct Probe {
    channel: usize,
    received: Vec<(u64, Packet)>,
    /// Accept a packet only every `accept_every` cycles (1 = always).
    accept_every: u64,
}

/// A [`FaultPlan`] resolved against one flattened design: names mapped
/// to channel/component indices, plus the per-channel gate state the
/// scheduler uses to detect fault transitions.
#[derive(Default)]
struct FaultState {
    /// `(channel, from, until-exclusive)` credit stalls.
    stalls: Vec<(usize, u64, u64)>,
    /// `(channel, effective seed, name salt, max_delay)` jitters.
    jitters: Vec<(usize, u64, u64, u64)>,
    /// `(channel, period)` periodic credit drops.
    drops: Vec<(usize, u64)>,
    /// `(component, at_cycle)` freezes.
    freezes: Vec<(usize, u64)>,
    /// Sorted unique channel indices carrying at least one credit
    /// fault; `prev` holds the gate value last applied per entry.
    gated: Vec<usize>,
    prev: Vec<bool>,
    stats: FaultStats,
}

impl FaultState {
    fn is_empty(&self) -> bool {
        self.stalls.is_empty()
            && self.jitters.is_empty()
            && self.drops.is_empty()
            && self.freezes.is_empty()
    }

    /// Whether any fault withholds `channel`'s credit on `cycle` — a
    /// pure function of the plan, so the schedule is reproducible.
    fn blocked_at(&self, channel: usize, cycle: u64) -> bool {
        self.stalls
            .iter()
            .any(|&(c, from, until)| c == channel && cycle >= from && cycle < until)
            || self
                .drops
                .iter()
                .any(|&(c, n)| c == channel && cycle % n == n - 1)
            || self.jitters.iter().any(|&(c, seed, salt, max)| {
                c == channel && max > 0 && !fault::mix(seed, salt, cycle).is_multiple_of(max + 1)
            })
    }

    fn frozen(&self, component: usize, cycle: u64) -> bool {
        self.freezes
            .iter()
            .any(|&(c, at)| c == component && cycle >= at)
    }

    /// The earliest cycle strictly after `cycle` at which some credit
    /// gate may change state. Jitter and periodic drops can flip every
    /// cycle, so their presence pins this to `cycle + 1`; permanent
    /// stalls (`until == u64::MAX`) never transition.
    fn next_transition(&self, cycle: u64) -> Option<u64> {
        if !self.drops.is_empty() || self.jitters.iter().any(|&(_, _, _, max)| max > 0) {
            return Some(cycle.saturating_add(1));
        }
        self.stalls
            .iter()
            .flat_map(|&(_, from, until)| [from, until])
            .filter(|&at| at > cycle && at != u64::MAX)
            .min()
    }
}

/// Which cycle loop drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Event-driven ready-set worklist (the default): components are
    /// stepped only when scheduled, inert cycles are skipped.
    #[default]
    EventDriven,
    /// The original poll-everything loop: every component ticks every
    /// cycle. Kept for differential testing and benchmarks.
    Polling,
}

/// Why a [`Simulator::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// Provably quiescent with every feeder drained, every channel
    /// empty and nothing scheduled: the run is complete.
    Completed,
    /// Quiescent with packets still in flight or stimuli undelivered.
    Deadlocked {
        /// `component.port` names with blocked-send time, worst first.
        blocked_ports: Vec<String>,
        /// The full blocked cycle as channel names: every channel still
        /// holding packets or refusing pushes when the design stalled,
        /// worst first. Channel names match the flattened graph's
        /// scheme, so static stall cones are directly comparable.
        blocked_channels: Vec<String>,
    },
    /// No packet moved for the idle threshold, but components were
    /// still being polled, so quiescence is assumed rather than
    /// proven (raise the threshold via
    /// [`Simulator::set_idle_threshold`] for long internal delays).
    IdleTimeout,
    /// The `max_cycles` budget ran out while the design was active.
    CycleLimit,
}

/// Outcome of a [`Simulator::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles actually simulated.
    pub cycles: u64,
    /// True when the design went quiescent with nothing in flight.
    pub finished: bool,
    /// A deadlock/stall report when the design went quiescent with
    /// packets still in flight (paper §V-B deadlock identification).
    pub deadlock: Option<DeadlockReport>,
    /// The typed termination reason.
    pub reason: StopReason,
}

/// Where a stalled design is stuck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle at which quiescence was declared.
    pub cycle: u64,
    /// Channels still holding packets: `(name, occupancy)`.
    pub stuck_channels: Vec<(String, usize)>,
    /// Boundary ports with undelivered stimuli.
    pub pending_inputs: Vec<String>,
}

/// A handshake-accurate simulator for one top-level implementation.
pub struct Simulator {
    channels: Vec<Channel>,
    components: Vec<RunningComponent>,
    feeders: HashMap<String, Feeder>,
    probes: HashMap<String, Probe>,
    cycle: u64,
    last_activity: u64,
    /// Recorded `(cycle, component path, from, to)` state transitions.
    transitions: Vec<(u64, String, String, String)>,
    /// Quiescence threshold in idle cycles.
    idle_threshold: u64,
    /// Mapping from the simulated clock domain to a physical clock
    /// (paper §V-B: "the mapping from the clock-domain to physical
    /// frequency and phase").
    physical_clock: Option<tydi_spec::clock::PhysicalClock>,
    scheduler: SchedulerKind,
    /// Future component wake-ups: cycle -> component indices. Entries
    /// are lazily invalidated through `next_wake`.
    wakes: BTreeMap<u64, Vec<usize>>,
    /// Earliest queued wake-up per component (`u64::MAX` = none).
    next_wake: Vec<u64>,
    /// Channel index -> components reading it (woken on new packets).
    channel_sinks: Vec<Vec<usize>>,
    /// Channel index -> components writing it (woken on new credit).
    channel_sources: Vec<Vec<usize>>,
    /// Resolved fault plan (empty = no injection).
    faults: FaultState,
}

/// Builds the behaviour for one flattened component, resolving its IR
/// from the project. Synthetic nodes (implicit wires fabricated by the
/// flattener) use a reconstructed streamlet; for real nodes a failed
/// lookup is an IR inconsistency and errors instead of being masked.
fn build_behavior(
    project: &Project,
    registry: &BehaviorRegistry,
    node: &ComponentNode,
) -> Result<Box<dyn Behavior>, SimError> {
    if let Some(key) = &node.builtin {
        let (implementation, streamlet) = if node.synthetic {
            (
                tydi_ir::Implementation::external("__wire", "__wire"),
                reconstruct_streamlet(node),
            )
        } else {
            let implementation = project
                .implementation(&node.impl_name)
                .cloned()
                .ok_or_else(|| SimError::MissingIr {
                    component: node.path.clone(),
                    missing: format!("implementation `{}`", node.impl_name),
                })?;
            let streamlet = project
                .streamlet(&implementation.streamlet)
                .cloned()
                .ok_or_else(|| SimError::MissingIr {
                    component: node.path.clone(),
                    missing: format!("streamlet `{}`", implementation.streamlet),
                })?;
            (implementation, streamlet)
        };
        registry
            .build(key, &implementation, &streamlet)
            .map_err(|message| SimError::Behaviour {
                component: node.path.clone(),
                message,
            })
    } else if let Some(source) = &node.sim_source {
        Ok(Box::new(SimInterpreter::from_source(source).map_err(
            |message| SimError::Behaviour {
                component: node.path.clone(),
                message,
            },
        )?))
    } else {
        Err(SimError::Behaviour {
            component: node.path.clone(),
            message: "no behaviour available".to_string(),
        })
    }
}

/// Queues a wake-up for component `index` at `cycle` (no-op when an
/// earlier wake-up is already queued).
fn schedule(
    wakes: &mut BTreeMap<u64, Vec<usize>>,
    next_wake: &mut [u64],
    index: usize,
    cycle: u64,
) {
    if cycle < next_wake[index] {
        next_wake[index] = cycle;
        wakes.entry(cycle).or_default().push(index);
    }
}

impl Simulator {
    /// Builds a simulator for `top_impl`, resolving behaviours from
    /// `registry` (builtin keys) and from simulation code.
    pub fn new(
        project: &Project,
        top_impl: &str,
        registry: &BehaviorRegistry,
    ) -> Result<Simulator, SimError> {
        let graph = flatten(project, top_impl, 2)?;
        Simulator::from_graph(project, graph, registry)
    }

    /// Builds a simulator from an already-flattened graph. Batch runs
    /// flatten the design once and clone the (empty-channel) graph per
    /// scenario instead of re-walking the hierarchy every time.
    pub fn from_graph(
        project: &Project,
        graph: SimGraph,
        registry: &BehaviorRegistry,
    ) -> Result<Simulator, SimError> {
        let mut components = Vec::with_capacity(graph.components.len());
        for node in graph.components {
            let behavior = build_behavior(project, registry, &node)?;
            components.push(RunningComponent {
                node,
                behavior,
                blocked: HashMap::new(),
                last_state: None,
            });
        }
        let feeders = graph
            .boundary_inputs
            .into_iter()
            .map(|(port, channel)| {
                (
                    port,
                    Feeder {
                        channel,
                        pending: Default::default(),
                        sent: Vec::new(),
                    },
                )
            })
            .collect();
        let probes = graph
            .boundary_outputs
            .into_iter()
            .map(|(port, channel)| {
                (
                    port,
                    Probe {
                        channel,
                        received: Vec::new(),
                        accept_every: 1,
                    },
                )
            })
            .collect();
        // Every component gets an initial tick at cycle 0; after that
        // the wake lists and hints drive the schedule.
        let component_count = components.len();
        let mut wakes = BTreeMap::new();
        if component_count > 0 {
            wakes.insert(0u64, (0..component_count).collect::<Vec<_>>());
        }
        Ok(Simulator {
            channels: graph.channels,
            components,
            feeders,
            probes,
            cycle: 0,
            last_activity: 0,
            transitions: Vec::new(),
            idle_threshold: 64,
            physical_clock: None,
            scheduler: SchedulerKind::default(),
            wakes,
            next_wake: vec![0; component_count],
            channel_sinks: graph.channel_sinks,
            channel_sources: graph.channel_sources,
            faults: FaultState::default(),
        })
    }

    /// Installs a fault plan, resolving its channel and component
    /// names against the flattened design. Replaces any previous plan;
    /// unknown targets produce [`SimError::UnknownFaultTarget`].
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let mut state = FaultState::default();
        let channels = &self.channels;
        let components = &self.components;
        let channel_index = |name: &str| -> Result<usize, SimError> {
            channels.iter().position(|c| c.name == name).ok_or_else(|| {
                let mut available: Vec<String> = channels.iter().map(|c| c.name.clone()).collect();
                available.sort();
                SimError::UnknownFaultTarget {
                    kind: "channel",
                    target: name.to_string(),
                    available,
                }
            })
        };
        let component_index = |name: &str| -> Result<usize, SimError> {
            components
                .iter()
                .position(|c| c.node.path == name)
                .ok_or_else(|| {
                    let mut available: Vec<String> =
                        components.iter().map(|c| c.node.path.clone()).collect();
                    available.sort();
                    SimError::UnknownFaultTarget {
                        kind: "component",
                        target: name.to_string(),
                        available,
                    }
                })
        };
        for injected in &plan.faults {
            match injected {
                Fault::Stall {
                    channel,
                    from_cycle,
                    cycles,
                } => {
                    state.stalls.push((
                        channel_index(channel)?,
                        *from_cycle,
                        from_cycle.saturating_add(*cycles),
                    ));
                }
                Fault::Jitter {
                    channel,
                    seed,
                    max_delay,
                } => {
                    let effective = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                    state.jitters.push((
                        channel_index(channel)?,
                        effective,
                        fault::name_salt(channel),
                        *max_delay,
                    ));
                }
                Fault::Freeze {
                    component,
                    at_cycle,
                } => {
                    state.freezes.push((component_index(component)?, *at_cycle));
                }
                Fault::DropCredit { channel, every_n } => {
                    state
                        .drops
                        .push((channel_index(channel)?, (*every_n).max(1)));
                }
            }
        }
        let mut gated: Vec<usize> = state
            .stalls
            .iter()
            .map(|&(c, _, _)| c)
            .chain(state.jitters.iter().map(|&(c, _, _, _)| c))
            .chain(state.drops.iter().map(|&(c, _)| c))
            .collect();
        gated.sort_unstable();
        gated.dedup();
        state.prev = vec![false; gated.len()];
        state.gated = gated;
        for channel in &mut self.channels {
            channel.set_fault_blocked(false);
        }
        self.faults = state;
        Ok(())
    }

    /// Counters of what the installed faults actually did so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Selects the cycle loop (event-driven by default).
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.scheduler = kind;
        if matches!(kind, SchedulerKind::EventDriven) {
            // Re-arm everything: the polling loop does not maintain
            // the wake queue.
            for index in 0..self.components.len() {
                let cycle = self.cycle;
                schedule(&mut self.wakes, &mut self.next_wake, index, cycle);
            }
        }
    }

    /// The active cycle loop.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Sets the quiescence threshold: how many consecutive idle cycles
    /// before a run is declared terminated. Designs with internal
    /// delays longer than the default of 64 must raise it.
    pub fn set_idle_threshold(&mut self, cycles: u64) {
        self.idle_threshold = cycles.max(1);
    }

    /// Binds the simulation's clock domain to a physical frequency so
    /// cycle counts convert to wall-clock time (paper §V-B).
    pub fn set_physical_clock(&mut self, clock: tydi_spec::clock::PhysicalClock) {
        self.physical_clock = Some(clock);
    }

    /// The current simulated time in seconds, when a physical clock
    /// has been bound.
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.physical_clock
            .as_ref()
            .map(|c| c.cycles_to_seconds(self.cycle))
    }

    /// Cycles up to the last packet movement: the active window,
    /// excluding any trailing idle cycles spent detecting quiescence.
    pub fn active_cycles(&self) -> u64 {
        self.last_activity
    }

    /// Observed throughput of an output port in elements per second,
    /// when a physical clock has been bound. Computed over the active
    /// window ([`active_cycles`](Simulator::active_cycles)), so the
    /// trailing idle tail of a run does not dilute the figure.
    pub fn throughput_hz(&self, port: &str) -> Result<Option<f64>, SimError> {
        let delivered = self.outputs(port)?.len() as f64;
        Ok(self
            .physical_clock
            .as_ref()
            .map(|c| c.cycles_to_seconds(self.active_cycles()))
            .filter(|&s| s > 0.0)
            .map(|s| delivered / s))
    }

    /// Queues stimulus packets on a boundary input port.
    pub fn feed(
        &mut self,
        port: &str,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Result<(), SimError> {
        let feeder = match self.feeders.get_mut(port) {
            Some(f) => f,
            None => return Err(SimError::unknown_port(port, &self.feeders)),
        };
        feeder.pending.extend(packets);
        Ok(())
    }

    /// Applies backpressure on an output: accept only every `n`-th
    /// cycle.
    pub fn set_probe_backpressure(&mut self, port: &str, n: u64) -> Result<(), SimError> {
        let probe = match self.probes.get_mut(port) {
            Some(p) => p,
            None => return Err(SimError::unknown_port(port, &self.probes)),
        };
        probe.accept_every = n.max(1);
        Ok(())
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets observed on a boundary output, with arrival cycles.
    pub fn outputs(&self, port: &str) -> Result<&[(u64, Packet)], SimError> {
        self.probes
            .get(port)
            .map(|p| p.received.as_slice())
            .ok_or_else(|| SimError::unknown_port(port, &self.probes))
    }

    /// Stimuli actually injected, with injection cycles.
    pub fn injected(&self, port: &str) -> Result<&[(u64, Packet)], SimError> {
        self.feeders
            .get(port)
            .map(|f| f.sent.as_slice())
            .ok_or_else(|| SimError::unknown_port(port, &self.feeders))
    }

    /// The components due to tick this cycle: every queued wake-up at
    /// or before the current cycle, deduplicated and in index order so
    /// results match the polling loop's iteration order.
    fn take_due(&mut self) -> Vec<usize> {
        let mut due = Vec::new();
        while let Some((&at, _)) = self.wakes.first_key_value() {
            if at > self.cycle {
                break;
            }
            let (_, indices) = self.wakes.pop_first().expect("checked non-empty");
            for index in indices {
                // Entries whose component was re-queued earlier are
                // stale; the live entry is the one matching next_wake.
                if self.next_wake[index] <= self.cycle {
                    self.next_wake[index] = u64::MAX;
                    due.push(index);
                }
            }
        }
        due.sort_unstable();
        due.dedup();
        due
    }

    /// Applies this cycle's injected credit gates to the faulted
    /// channels. A gate releasing (blocked last cycle, clear now) is a
    /// credit event: producers are woken exactly as if a pop freed
    /// FIFO space, so stalled components resume without polling.
    fn apply_fault_gates(&mut self) {
        let event_driven = matches!(self.scheduler, SchedulerKind::EventDriven);
        for slot in 0..self.faults.gated.len() {
            let channel = self.faults.gated[slot];
            let blocked = self.faults.blocked_at(channel, self.cycle);
            let was = self.faults.prev[slot];
            self.faults.prev[slot] = blocked;
            self.channels[channel].set_fault_blocked(blocked);
            if blocked {
                self.faults.stats.gated_cycles += 1;
            }
            if event_driven && was && !blocked {
                let cycle = self.cycle;
                for index in 0..self.channel_sources[channel].len() {
                    let source = self.channel_sources[channel][index];
                    schedule(&mut self.wakes, &mut self.next_wake, source, cycle);
                }
            }
        }
    }

    /// Advances one cycle; returns true when anything moved.
    pub fn step(&mut self) -> bool {
        let mut activity = false;
        let event_driven = matches!(self.scheduler, SchedulerKind::EventDriven);
        // 0. Injected faults gate channel credit for this cycle.
        if !self.faults.gated.is_empty() {
            self.apply_fault_gates();
        }
        // 1. Feeders inject stimuli.
        for feeder in self.feeders.values_mut() {
            if let Some(&packet) = feeder.pending.front() {
                if self.channels[feeder.channel].push(packet) {
                    feeder.pending.pop_front();
                    feeder.sent.push((self.cycle, packet));
                    activity = true;
                }
            }
        }
        // 2. Scheduled components tick (all of them under polling).
        // Frozen components are dropped from the due list: their
        // queued wake is consumed and they never reschedule.
        let mut due = if event_driven {
            self.take_due()
        } else {
            (0..self.components.len()).collect()
        };
        if !self.faults.freezes.is_empty() {
            let before = due.len();
            let (faults, cycle) = (&self.faults, self.cycle);
            due.retain(|&index| !faults.frozen(index, cycle));
            self.faults.stats.frozen_ticks += (before - due.len()) as u64;
        }
        let mut hints: Vec<(usize, Wake)> = Vec::with_capacity(due.len());
        for index in due {
            let component = &mut self.components[index];
            let mut io = IoCtx {
                cycle: self.cycle,
                channels: &mut self.channels,
                inputs: &component.node.inputs,
                outputs: &component.node.outputs,
                blocked: &mut component.blocked,
                activity: &mut activity,
            };
            {
                let _span = tydi_obs::trace::fine_span_named("tydi-sim", || {
                    format!("fire:{}", component.node.path)
                });
                component.behavior.tick(&mut io);
            }
            if event_driven {
                hints.push((index, component.behavior.wake(&io)));
            }
            let state = component.behavior.state_label();
            if state != component.last_state {
                if let (Some(old), Some(new)) = (&component.last_state, &state) {
                    self.transitions.push((
                        self.cycle,
                        component.node.path.clone(),
                        old.clone(),
                        new.clone(),
                    ));
                }
                component.last_state = state;
            }
        }
        // 3. Probes drain boundary outputs.
        for probe in self.probes.values_mut() {
            if self.cycle.is_multiple_of(probe.accept_every) {
                if let Some(packet) = self.channels[probe.channel].pop() {
                    probe.received.push((self.cycle, packet));
                    activity = true;
                }
            }
        }
        // 4. Commit staged pushes; propagate channel events into the
        // wake queue (new packets wake sinks, new credit wakes
        // sources).
        for index in 0..self.channels.len() {
            let committed = self.channels[index].commit();
            let popped = self.channels[index].take_popped();
            if committed {
                activity = true;
            }
            if event_driven {
                let next = self.cycle + 1;
                if committed {
                    for &sink in &self.channel_sinks[index] {
                        schedule(&mut self.wakes, &mut self.next_wake, sink, next);
                    }
                }
                if popped {
                    for &source in &self.channel_sources[index] {
                        schedule(&mut self.wakes, &mut self.next_wake, source, next);
                    }
                }
            }
        }
        // 5. Apply the components' own wake hints.
        if event_driven {
            for (index, hint) in hints {
                let resolved = match hint {
                    Wake::Auto => {
                        let has_input = self.components[index]
                            .node
                            .inputs
                            .values()
                            .any(|&c| self.channels[c].has_visible());
                        if has_input {
                            Wake::NextCycle
                        } else {
                            Wake::OnEvent
                        }
                    }
                    other => other,
                };
                match resolved {
                    Wake::OnEvent => {}
                    Wake::NextCycle => {
                        let next = self.cycle + 1;
                        schedule(&mut self.wakes, &mut self.next_wake, index, next);
                    }
                    Wake::AtCycle(at) => {
                        let at = at.max(self.cycle + 1);
                        schedule(&mut self.wakes, &mut self.next_wake, index, at);
                    }
                    Wake::Auto => unreachable!("resolved above"),
                }
            }
        }
        self.cycle += 1;
        if activity {
            self.last_activity = self.cycle;
        }
        activity
    }

    /// The next cycle at which anything is scheduled to happen: a
    /// queued component wake-up, a feeder with both stimulus and
    /// channel space, or a probe due to accept from a non-empty
    /// channel. `None` means the design can provably never move again.
    fn next_event_cycle(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |cycle: u64| {
            next = Some(next.map_or(cycle, |n: u64| n.min(cycle)));
        };
        // Feeder readiness consults the fault plan directly rather
        // than the channel's gate flag, which is only refreshed when a
        // step actually runs and may be stale after a skip.
        let gate = |channel: usize| {
            !self.faults.gated.is_empty() && self.faults.blocked_at(channel, self.cycle)
        };
        if self.feeders.values().any(|f| {
            !f.pending.is_empty() && self.channels[f.channel].has_space() && !gate(f.channel)
        }) {
            consider(self.cycle);
        }
        if let Some((&at, _)) = self.wakes.first_key_value() {
            consider(at.max(self.cycle));
        }
        for probe in self.probes.values() {
            if self.channels[probe.channel].has_visible() {
                consider(next_accept(self.cycle, probe.accept_every));
            }
        }
        // Fault-gate transitions release credit that nothing else will
        // signal; while work remains in flight, the next transition is
        // an event. Plans with only permanent stalls have none, so a
        // provoked wedge still terminates as a *proven* deadlock.
        if !self.faults.is_empty() {
            let pending_work = self.feeders.values().any(|f| !f.pending.is_empty())
                || self.channels.iter().any(|c| !c.is_empty());
            if pending_work {
                if let Some(at) = self.faults.next_transition(self.cycle) {
                    consider(at.max(self.cycle));
                }
            }
        }
        next
    }

    /// Runs until quiescence, deadlock or `max_cycles`.
    ///
    /// Under the event-driven scheduler, stretches of cycles with
    /// nothing scheduled are skipped in one jump, and a design with no
    /// remaining events terminates immediately with a proven
    /// [`StopReason::Completed`] / [`StopReason::Deadlocked`] instead
    /// of waiting out the idle threshold.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let end = self.cycle.saturating_add(max_cycles);
        // proven: quiescence was established from the event queue, not
        // assumed after an idle window.
        let (ran_out, proven) = loop {
            if self.cycle >= end {
                break (true, false);
            }
            if matches!(self.scheduler, SchedulerKind::EventDriven) {
                match self.next_event_cycle() {
                    None => break (false, true),
                    Some(at) => {
                        // The polling loop stops at whichever boundary
                        // comes first: the idle window (quiescence
                        // declared at idle_limit + 1) or the cycle
                        // budget (`end`).
                        let idle_limit = self.last_activity.saturating_add(self.idle_threshold);
                        if at > idle_limit && idle_limit < end {
                            self.cycle = idle_limit + 1;
                            break (false, false);
                        }
                        if at >= end {
                            self.cycle = end;
                            break (true, false);
                        }
                        self.cycle = at;
                    }
                }
            }
            self.step();
            if self.cycle.saturating_sub(self.last_activity) > self.idle_threshold {
                break (false, false);
            }
        };
        let in_flight: Vec<(String, usize)> = self
            .channels
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| (c.name.clone(), c.len()))
            .collect();
        let pending_inputs: Vec<String> = self
            .feeders
            .iter()
            .filter(|(_, f)| !f.pending.is_empty())
            .map(|(p, _)| p.clone())
            .collect();
        let stuck = !ran_out && (!in_flight.is_empty() || !pending_inputs.is_empty());
        let reason = if ran_out {
            StopReason::CycleLimit
        } else if stuck {
            StopReason::Deadlocked {
                blocked_ports: self.blocked_ports(),
                blocked_channels: self.blocked_channels(),
            }
        } else if proven {
            StopReason::Completed
        } else {
            StopReason::IdleTimeout
        };
        RunResult {
            cycles: self.cycle,
            finished: matches!(reason, StopReason::Completed | StopReason::IdleTimeout),
            deadlock: if stuck {
                Some(DeadlockReport {
                    cycle: self.last_activity,
                    stuck_channels: in_flight,
                    pending_inputs,
                })
            } else {
                None
            },
            reason,
        }
    }

    /// `component.port` names with blocked-send time, worst first
    /// (the bottleneck table, flattened to names).
    fn blocked_ports(&self) -> Vec<String> {
        self.bottlenecks()
            .blockages
            .iter()
            .map(|b| format!("{}.{}", b.component, b.port))
            .collect()
    }

    /// Channel names participating in the blocked cycle: every channel
    /// still holding packets, with refused pushes, or whose producer
    /// recorded blocked-send pressure (behaviours that probe
    /// `can_send` and note the blockage never attempt the push, so the
    /// refusal counter alone would miss e.g. a fault-stalled but empty
    /// channel), worst first by (occupancy, refusals). Names match the
    /// flattened graph, so the list lines up with the static
    /// analyzer's stall cones.
    fn blocked_channels(&self) -> Vec<String> {
        let mut pressured: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for component in &self.components {
            for (port, &cycles) in &component.blocked {
                if cycles > 0 {
                    if let Some(&channel) = component.node.outputs.get(port) {
                        pressured.insert(channel);
                    }
                }
            }
        }
        let mut stuck: Vec<&Channel> = self
            .channels
            .iter()
            .enumerate()
            .filter(|(index, c)| {
                !c.is_empty() || c.refused_pushes() > 0 || pressured.contains(index)
            })
            .map(|(_, c)| c)
            .collect();
        stuck.sort_by(|a, b| {
            (b.len(), b.refused_pushes(), &a.name).cmp(&(a.len(), a.refused_pushes(), &b.name))
        });
        stuck.iter().map(|c| c.name.clone()).collect()
    }

    /// Per-channel occupancy/credit statistics, sorted by name — the
    /// dynamic ground truth differential tests compare the static
    /// analyzer against.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        let mut stats: Vec<ChannelStats> = self
            .channels
            .iter()
            .map(|c| ChannelStats {
                name: c.name.clone(),
                capacity: c.capacity(),
                occupancy: c.len(),
                max_occupancy: c.max_occupancy(),
                transferred: c.transferred,
                refused_pushes: c.refused_pushes(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Bundles a finished run's [`RunResult`] with channel statistics
    /// and the bottleneck table.
    pub fn report(&self, result: RunResult) -> SimReport {
        SimReport {
            result,
            channels: self.channel_stats(),
            bottlenecks: self.bottlenecks(),
        }
    }

    /// The bottleneck report: output-port blockage counts, worst
    /// first (paper §V-B: "investigate the output ports with the
    /// longest blockage to find the bottleneck component").
    pub fn bottlenecks(&self) -> BottleneckReport {
        let mut blockages: Vec<PortBlockage> = Vec::new();
        for component in &self.components {
            for (port, &cycles) in &component.blocked {
                if cycles > 0 {
                    blockages.push(PortBlockage {
                        component: component.node.path.clone(),
                        port: port.clone(),
                        blocked_cycles: cycles,
                    });
                }
            }
        }
        blockages.sort_by_key(|b| std::cmp::Reverse(b.blocked_cycles));
        BottleneckReport {
            blockages,
            total_cycles: self.cycle,
        }
    }

    /// Recorded state transitions: `(cycle, component, from, to)`.
    pub fn state_transitions(&self) -> &[(u64, String, String, String)] {
        &self.transitions
    }

    /// Hierarchical paths of all flattened components, sorted — the
    /// valid targets for a `freeze` fault.
    pub fn component_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .components
            .iter()
            .map(|c| c.node.path.clone())
            .collect();
        v.sort();
        v
    }

    /// Names of boundary input ports.
    pub fn input_ports(&self) -> Vec<String> {
        let mut v: Vec<String> = self.feeders.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of boundary output ports.
    pub fn output_ports(&self) -> Vec<String> {
        let mut v: Vec<String> = self.probes.keys().cloned().collect();
        v.sort();
        v
    }
}

/// The first cycle at or after `cycle` that is a multiple of `every`
/// (saturating at `u64::MAX` instead of wrapping).
fn next_accept(cycle: u64, every: u64) -> u64 {
    let remainder = cycle % every;
    if remainder == 0 {
        cycle
    } else {
        (cycle - remainder).saturating_add(every)
    }
}

/// Reconstructs a minimal streamlet for synthetic nodes (implicit
/// wires) that have no project entry.
fn reconstruct_streamlet(node: &ComponentNode) -> tydi_ir::Streamlet {
    let ty = tydi_spec::LogicalType::stream(
        tydi_spec::LogicalType::Bit(1),
        tydi_spec::StreamParams::new(),
    );
    let mut s = tydi_ir::Streamlet::new("__wire");
    for name in node.inputs.keys() {
        s.ports.push(tydi_ir::Port::new(
            name.clone(),
            tydi_ir::PortDirection::In,
            ty.clone(),
        ));
    }
    for name in node.outputs.keys() {
        s.ports.push(tydi_ir::Port::new(
            name.clone(),
            tydi_ir::PortDirection::Out,
            ty.clone(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_lang::{compile, CompileOptions};
    use tydi_stdlib::with_stdlib;

    fn compile_app(user: &str) -> Project {
        let sources = with_stdlib(&[("app.td", user)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        compile(&refs, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("compile failed:\n{e}"))
            .project
    }

    #[test]
    fn passthrough_chain_end_to_end() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance a(passthrough_i<type Byte>),
    instance b(passthrough_i<type Byte>),
    i => a.i,
    a.o => b.i,
    b.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.feed("i", (0..10).map(Packet::data)).unwrap();
        let result = sim.run(1000);
        assert!(result.finished, "{result:?}");
        let out = sim.outputs("o").unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].1, Packet::data(0));
        assert_eq!(out[9].1, Packet::data(9));
    }

    #[test]
    fn arithmetic_pipeline_computes() {
        // (a + b) via stdlib adder.
        let project = compile_app(
            r#"
package app;
use std;
type W32 = Stream(Bit(32));
streamlet top_s { a : W32 in, b : W32 in, s : W32 out, }
impl top_i of top_s {
    instance add(adder_i<type W32, type W32, type W32>),
    a => add.in0,
    b => add.in1,
    add.o => s,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.feed("a", [Packet::data(10), Packet::data(20)]).unwrap();
        sim.feed("b", [Packet::data(1), Packet::data(2)]).unwrap();
        let result = sim.run(1000);
        assert!(result.finished);
        let out: Vec<i64> = sim
            .outputs("s")
            .unwrap()
            .iter()
            .map(|(_, p)| p.data)
            .collect();
        assert_eq!(out, vec![11, 22]);
    }

    #[test]
    fn sugared_fanout_simulates() {
        // One input feeding two adders: the duplicator comes from
        // sugaring, and the simulation must still be correct.
        let project = compile_app(
            r#"
package app;
use std;
type W32 = Stream(Bit(32));
streamlet top_s { a : W32 in, b : W32 in, s0 : W32 out, s1 : W32 out, }
impl top_i of top_s {
    instance add0(adder_i<type W32, type W32, type W32>),
    instance add1(adder_i<type W32, type W32, type W32>),
    a => add0.in0,
    a => add1.in0,
    b => add0.in1,
    b => add1.in1,
    add0.o => s0,
    add1.o => s1,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.feed("a", [Packet::data(5)]).unwrap();
        sim.feed("b", [Packet::data(7)]).unwrap();
        let result = sim.run(1000);
        assert!(result.finished);
        assert_eq!(sim.outputs("s0").unwrap()[0].1.data, 12);
        assert_eq!(sim.outputs("s1").unwrap()[0].1.data, 12);
    }

    #[test]
    fn deadlock_detected_when_sink_never_drains() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        // Probe that never accepts: downstream congestion.
        sim.set_probe_backpressure("o", u64::MAX).unwrap();
        sim.feed("i", (0..20).map(Packet::data)).unwrap();
        let result = sim.run(5000);
        let deadlock = result.deadlock.expect("expected a stall report");
        assert!(!deadlock.stuck_channels.is_empty());
        assert!(deadlock.pending_inputs.contains(&"i".to_string()));
        // The passthrough's output is the blocked port.
        let report = sim.bottlenecks();
        assert!(!report.blockages.is_empty());
        assert_eq!(report.blockages[0].port, "o");
    }

    #[test]
    fn backpressure_throttles_throughput() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.set_probe_backpressure("o", 4).unwrap();
        sim.feed("i", (0..8).map(Packet::data)).unwrap();
        let result = sim.run(1000);
        assert!(result.finished);
        let out = sim.outputs("o").unwrap();
        assert_eq!(out.len(), 8);
        // Arrival spacing is at least 4 cycles.
        for pair in out.windows(2) {
            assert!(pair[1].0 - pair[0].0 >= 4);
        }
    }

    /// The event-driven scheduler must agree with the polling loop on
    /// every observable: delivered packets, arrival cycles, injection
    /// cycles and termination classification.
    #[test]
    fn event_driven_matches_polling() {
        let source = r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance a(passthrough_i<type Byte>),
    instance b(passthrough_i<type Byte>),
    i => a.i,
    a.o => b.i,
    b.o => o,
}
"#;
        for stall in [1u64, 3, 7] {
            let project = compile_app(source);
            let registry = BehaviorRegistry::with_std();
            let run = |kind: SchedulerKind| {
                let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
                sim.set_scheduler(kind);
                sim.set_probe_backpressure("o", stall).unwrap();
                sim.feed("i", (0..12).map(Packet::data)).unwrap();
                let result = sim.run(10_000);
                (result.finished, sim.outputs("o").unwrap().to_vec())
            };
            let (finished_poll, out_poll) = run(SchedulerKind::Polling);
            let (finished_event, out_event) = run(SchedulerKind::EventDriven);
            assert_eq!(finished_poll, finished_event, "stall {stall}");
            assert_eq!(out_poll, out_event, "stall {stall}");
        }
    }

    #[test]
    fn completed_run_reports_typed_reason() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.feed("i", (0..4).map(Packet::data)).unwrap();
        let result = sim.run(1000);
        // Quiescence is proven from the event queue: no idle tail.
        assert_eq!(result.reason, StopReason::Completed);
        assert!(result.finished);
        assert!(
            result.cycles < 64,
            "completed run should not wait out the idle threshold, took {}",
            result.cycles
        );
    }

    #[test]
    fn deadlock_reason_names_blocked_ports() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.set_probe_backpressure("o", u64::MAX).unwrap();
        sim.feed("i", (0..20).map(Packet::data)).unwrap();
        let result = sim.run(5000);
        let StopReason::Deadlocked {
            blocked_ports,
            blocked_channels,
        } = &result.reason
        else {
            panic!("expected Deadlocked, got {:?}", result.reason);
        };
        assert!(blocked_ports.iter().any(|p| p.ends_with(".o")));
        // The blocked cycle is reported as channel names too: the
        // boundary output channel the probe never drained, and the
        // upstream hops that filled behind it.
        assert!(blocked_channels.contains(&"boundary.o".to_string()));
        assert!(blocked_channels.contains(&"boundary.i".to_string()));
        assert!(!result.finished);
        // Channel ground truth: the congested hop saturated and
        // recorded refused pushes.
        let report = sim.report(result.clone());
        let hot = report.saturated_channels();
        assert!(!hot.is_empty());
        assert!(hot.iter().any(|c| c.refused_pushes > 0));
    }

    #[test]
    fn cycle_budget_exhaustion_reports_cycle_limit() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.feed("i", (0..100).map(Packet::data)).unwrap();
        let result = sim.run(3);
        assert_eq!(result.reason, StopReason::CycleLimit);
        assert!(!result.finished);
    }

    /// Regression: when the next event lies beyond both the idle
    /// window and the cycle budget, the event-driven loop must report
    /// CycleLimit at exactly `end` — not fabricate a deadlock, and not
    /// let the clock overshoot the budget.
    #[test]
    fn budget_exhaustion_beyond_idle_window_matches_polling() {
        let source = r#"
package app;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s external {
    simulation {
        on (i.recv) {
            delay(100);
            send(o, i.data);
            ack(i);
        }
    }
}
"#;
        let project = compile_app(source);
        let registry = BehaviorRegistry::with_std();
        let run = |kind: SchedulerKind, threshold: u64, budget: u64| {
            let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
            sim.set_scheduler(kind);
            sim.set_idle_threshold(threshold);
            sim.feed("i", [Packet::data(7)]).unwrap();
            sim.run(budget)
        };
        // Budget expires mid-delay (delay 100 > budget 50 > idle 64's
        // worth of remaining events): both loops must agree.
        let polling = run(SchedulerKind::Polling, 64, 50);
        let event = run(SchedulerKind::EventDriven, 64, 50);
        assert_eq!(polling.reason, StopReason::CycleLimit);
        assert_eq!(event.reason, StopReason::CycleLimit);
        assert_eq!(polling.finished, event.finished);
        assert_eq!(polling.deadlock, event.deadlock);
        assert_eq!(polling.cycles, 50);
        assert_eq!(event.cycles, 50, "clock must not overshoot the budget");
        // A large threshold with a tiny budget: same story.
        let clamped = run(SchedulerKind::EventDriven, 500, 10);
        assert_eq!(clamped.reason, StopReason::CycleLimit);
        assert_eq!(clamped.cycles, 10);
        // Idle window expiring *before* the budget: both loops must
        // declare the stall at the same cycle, not run to the budget.
        let polling_idle = run(SchedulerKind::Polling, 10, 50);
        let event_idle = run(SchedulerKind::EventDriven, 10, 50);
        assert_eq!(polling_idle, event_idle);
        assert!(matches!(event_idle.reason, StopReason::Deadlocked { .. }));
        assert!(event_idle.cycles < 50);
    }

    #[test]
    fn idle_threshold_is_configurable() {
        // A unit with a 40-cycle internal delay: a threshold of 8
        // gives up mid-delay, the default of 64 sees it through.
        let source = r#"
package app;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s external {
    simulation {
        on (i.recv) {
            delay(40);
            send(o, i.data);
            ack(i);
        }
    }
}
"#;
        let project = compile_app(source);
        let registry = BehaviorRegistry::with_std();
        let mut impatient = Simulator::new(&project, "top_i", &registry).unwrap();
        impatient.set_idle_threshold(8);
        impatient.feed("i", [Packet::data(1)]).unwrap();
        let early = impatient.run(1000);
        assert!(!early.finished, "{early:?}");
        let mut patient = Simulator::new(&project, "top_i", &registry).unwrap();
        patient.feed("i", [Packet::data(1)]).unwrap();
        let full = patient.run(1000);
        assert!(full.finished, "{full:?}");
        assert_eq!(patient.outputs("o").unwrap().len(), 1);
    }

    /// Regression: a non-synthetic node whose IR lookup fails must
    /// surface [`SimError::MissingIr`] instead of fabricating a
    /// `__wire` implementation that masks the inconsistency.
    #[test]
    fn missing_ir_is_an_error_not_a_fabricated_wire() {
        let project = Project::new("t");
        let registry = BehaviorRegistry::with_std();
        let node = ComponentNode {
            path: "top.ghost".to_string(),
            impl_name: "ghost_i".to_string(),
            builtin: Some("std.passthrough".to_string()),
            sim_source: None,
            inputs: HashMap::new(),
            outputs: HashMap::new(),
            synthetic: false,
        };
        match build_behavior(&project, &registry, &node) {
            Err(SimError::MissingIr { component, missing }) => {
                assert_eq!(component, "top.ghost");
                assert!(missing.contains("ghost_i"));
            }
            Err(other) => panic!("expected MissingIr, got {other:?}"),
            Ok(_) => panic!("expected MissingIr, got a behaviour"),
        }
        // Synthetic wires (flattener-fabricated) still build fine.
        let wire = ComponentNode {
            synthetic: true,
            ..node
        };
        assert!(build_behavior(&project, &registry, &wire).is_ok());
    }

    #[test]
    fn unknown_port_error_lists_available_ports() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        let err = sim.feed("nope", [Packet::data(1)]).unwrap_err();
        match err {
            SimError::UnknownBoundaryPort { port, available } => {
                assert_eq!(port, "nope");
                assert_eq!(available, vec!["i".to_string()]);
            }
            other => panic!("expected UnknownBoundaryPort, got {other:?}"),
        }
    }

    #[test]
    fn stall_fault_matches_probe_backpressure_semantics() {
        // An indefinite stall on the boundary output behaves like a
        // probe that never accepts: same deadlock classification, and
        // the stalled channel is named in the blocked set.
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        sim.set_fault_plan(&FaultPlan::parse("stall(boundary.o,0,*)").unwrap())
            .unwrap();
        sim.feed("i", (0..20).map(Packet::data)).unwrap();
        let result = sim.run(5000);
        let StopReason::Deadlocked {
            blocked_channels, ..
        } = &result.reason
        else {
            panic!("expected Deadlocked, got {:?}", result.reason);
        };
        assert!(blocked_channels.contains(&"boundary.o".to_string()));
        assert!(blocked_channels.contains(&"boundary.i".to_string()));
        assert!(sim.fault_stats().gated_cycles > 0);
    }

    #[test]
    fn finite_stall_delays_but_completes() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let unfaulted = {
            let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
            sim.feed("i", (0..8).map(Packet::data)).unwrap();
            assert!(sim.run(10_000).finished);
            sim.outputs("o").unwrap().last().unwrap().0
        };
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        // Hold the input channel shut for 20 cycles, then release.
        sim.set_fault_plan(&FaultPlan::parse("stall(boundary.i,0,20)").unwrap())
            .unwrap();
        sim.feed("i", (0..8).map(Packet::data)).unwrap();
        let result = sim.run(10_000);
        assert!(result.finished, "{result:?}");
        let out = sim.outputs("o").unwrap();
        assert_eq!(out.len(), 8);
        assert!(
            out.last().unwrap().0 >= unfaulted + 20,
            "stall must delay delivery: {} vs unfaulted {}",
            out.last().unwrap().0,
            unfaulted
        );
    }

    #[test]
    fn frozen_component_deadlock_names_its_channels() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance a(passthrough_i<type Byte>),
    instance b(passthrough_i<type Byte>),
    i => a.i,
    a.o => b.i,
    b.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        let frozen = sim
            .component_paths()
            .into_iter()
            .find(|p| p.ends_with(".b"))
            .expect("component b");
        sim.set_fault_plan(&FaultPlan {
            faults: vec![Fault::Freeze {
                component: frozen.clone(),
                at_cycle: 0,
            }],
            seed: 0,
        })
        .unwrap();
        sim.feed("i", (0..20).map(Packet::data)).unwrap();
        let result = sim.run(5000);
        let StopReason::Deadlocked {
            blocked_channels, ..
        } = &result.reason
        else {
            panic!("expected Deadlocked, got {:?}", result.reason);
        };
        // The wedge is attributable to the frozen component: one of
        // the blocked channels names it (its starved input hop,
        // `... => b.i` in the flattened scheme).
        assert!(
            blocked_channels.iter().any(|c| c.contains("b.i")),
            "blocked channels {blocked_channels:?} must name the frozen component `{frozen}`"
        );
        assert!(sim.fault_stats().frozen_ticks > 0);
        assert!(!result.finished);
    }

    #[test]
    fn faulted_run_agrees_across_schedulers() {
        // Polling and event-driven must see the exact same faulted
        // world: same outputs, same arrival cycles, same termination.
        let source = r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance a(passthrough_i<type Byte>),
    instance b(passthrough_i<type Byte>),
    i => a.i,
    a.o => b.i,
    b.o => o,
}
"#;
        let project = compile_app(source);
        let registry = BehaviorRegistry::with_std();
        for spec in [
            "stall(boundary.i,3,9)",
            "drop(boundary.o,3)",
            "jitter(boundary.o,42,2)",
            "stall(boundary.o,0,*)",
        ] {
            let run = |kind: SchedulerKind| {
                let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
                sim.set_scheduler(kind);
                sim.set_fault_plan(&FaultPlan::parse(spec).unwrap())
                    .unwrap();
                sim.feed("i", (0..12).map(Packet::data)).unwrap();
                let result = sim.run(10_000);
                (result.finished, sim.outputs("o").unwrap().to_vec())
            };
            let (finished_poll, out_poll) = run(SchedulerKind::Polling);
            let (finished_event, out_event) = run(SchedulerKind::EventDriven);
            assert_eq!(finished_poll, finished_event, "{spec}");
            assert_eq!(out_poll, out_event, "{spec}");
        }
    }

    #[test]
    fn drop_credit_throttles_delivery() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let last_arrival = |spec: Option<&str>| {
            let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
            if let Some(spec) = spec {
                sim.set_fault_plan(&FaultPlan::parse(spec).unwrap())
                    .unwrap();
            }
            sim.feed("i", (0..16).map(Packet::data)).unwrap();
            assert!(sim.run(10_000).finished);
            sim.outputs("o").unwrap().last().unwrap().0
        };
        let clean = last_arrival(None);
        let dropped = last_arrival(Some("drop(boundary.i,2)"));
        assert!(
            dropped > clean,
            "dropping every 2nd credit must slow delivery ({dropped} vs {clean})"
        );
    }

    #[test]
    fn unknown_fault_targets_error_with_availability() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        let err = sim
            .set_fault_plan(&FaultPlan::parse("stall(ghost,0,*)").unwrap())
            .unwrap_err();
        match err {
            SimError::UnknownFaultTarget {
                kind,
                target,
                available,
            } => {
                assert_eq!(kind, "channel");
                assert_eq!(target, "ghost");
                assert!(available.contains(&"boundary.i".to_string()));
            }
            other => panic!("expected UnknownFaultTarget, got {other:?}"),
        }
        let err = sim
            .set_fault_plan(&FaultPlan::parse("freeze(ghost,0)").unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::UnknownFaultTarget {
                kind: "component",
                ..
            }
        ));
    }

    #[test]
    fn next_accept_rounds_up() {
        assert_eq!(next_accept(0, 4), 0);
        assert_eq!(next_accept(1, 4), 4);
        assert_eq!(next_accept(4, 4), 4);
        assert_eq!(next_accept(5, 4), 8);
        assert_eq!(next_accept(3, 1), 3);
        assert_eq!(next_accept(1, u64::MAX), u64::MAX);
    }

    #[test]
    fn unknown_port_errors() {
        let project = compile_app(
            r#"
package app;
use std;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance p(passthrough_i<type Byte>),
    i => p.i,
    p.o => o,
}
"#,
        );
        let registry = BehaviorRegistry::with_std();
        let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
        assert!(sim.feed("nope", [Packet::data(1)]).is_err());
        assert!(sim.outputs("nope").is_err());
    }
}
