//! Sharded multi-scenario simulation.
//!
//! A [`SimBatch`] runs N independent stimulus *scenarios* — distinct
//! feeds and backpressure schedules over the same flattened design —
//! and aggregates the per-scenario [`BottleneckReport`]s into one
//! [`BatchReport`]. The design is flattened once and shared immutably;
//! each scenario clones the empty-channel graph into its own
//! [`Simulator`], so scenarios share nothing mutable and shard across
//! [`worker_threads`] scoped threads that pull the next unclaimed
//! scenario (so one slow scenario never idles the rest);
//! `TYDI_THREADS=1` forces the sequential path for debugging and
//! benchmarking. This is the toolchain's only worker pool: the
//! compiler itself runs on one thread.

use crate::behavior::BehaviorRegistry;
use crate::channel::Packet;
use crate::engine::{RunResult, SchedulerKind, SimError, Simulator, StopReason};
use crate::fault::{FaultPlan, FaultStats};
use crate::graph::{flatten, SimGraph};
use crate::report::{BottleneckReport, ChannelStats, PortBlockage};
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tydi_ir::Project;

/// One stimulus scenario: what to feed, how hard to backpressure, and
/// how long to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name, used in reports and errors.
    pub name: String,
    /// Packets to queue per boundary input port.
    pub feeds: Vec<(String, Vec<Packet>)>,
    /// `(output port, accept_every)` backpressure schedule.
    pub backpressure: Vec<(String, u64)>,
    /// Simulation budget in cycles.
    pub max_cycles: u64,
    /// Optional override of the quiescence threshold.
    pub idle_threshold: Option<u64>,
    /// Optional fault plan woven into the run.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// A scenario with no feeds, no backpressure and a 100k-cycle
    /// budget.
    pub fn new(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            feeds: Vec::new(),
            backpressure: Vec::new(),
            max_cycles: 100_000,
            idle_threshold: None,
            faults: None,
        }
    }

    /// Queues stimulus packets on a boundary input port.
    pub fn with_feed(
        mut self,
        port: impl Into<String>,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Scenario {
        self.feeds
            .push((port.into(), packets.into_iter().collect()));
        self
    }

    /// Applies backpressure on an output port: accept only every
    /// `n`-th cycle.
    pub fn with_backpressure(mut self, port: impl Into<String>, every: u64) -> Scenario {
        self.backpressure.push((port.into(), every));
        self
    }

    /// Sets the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Scenario {
        self.max_cycles = max_cycles;
        self
    }

    /// Overrides the quiescence threshold.
    pub fn with_idle_threshold(mut self, cycles: u64) -> Scenario {
        self.idle_threshold = Some(cycles);
        self
    }

    /// Weaves a fault plan into the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = Some(plan);
        self
    }
}

/// The outcome of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario name.
    pub scenario: String,
    /// Run outcome (cycles, termination reason, deadlock report).
    pub result: RunResult,
    /// Packets observed per boundary output, with arrival cycles,
    /// sorted by port name.
    pub outputs: Vec<(String, Vec<(u64, Packet)>)>,
    /// The scenario's bottleneck report.
    pub bottlenecks: BottleneckReport,
    /// Per-channel occupancy/credit statistics, sorted by name.
    pub channels: Vec<ChannelStats>,
    /// What the scenario's injected faults actually did (all zeros
    /// when no fault plan was set).
    pub fault_stats: FaultStats,
}

impl ScenarioReport {
    /// Total packets delivered across all output ports.
    pub fn delivered(&self) -> usize {
        self.outputs.iter().map(|(_, v)| v.len()).sum()
    }
}

/// A simulation failure attributed to the scenario that hit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// The scenario that failed.
    pub scenario: String,
    /// The underlying structured error.
    pub error: SimError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario `{}`: {}", self.scenario, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Aggregated outcomes of a scenario batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-scenario reports for the scenarios that ran, in submission
    /// order.
    pub scenarios: Vec<ScenarioReport>,
    /// Per-scenario failures, in submission order. A failing scenario
    /// no longer aborts the batch: the remaining scenarios run to
    /// completion and every failure is reported here, named.
    pub errors: Vec<BatchError>,
}

impl BatchReport {
    /// Scenarios that ran to proven or assumed completion.
    pub fn completed(&self) -> usize {
        self.scenarios.iter().filter(|s| s.result.finished).count()
    }

    /// Number of scenarios that failed to run at all.
    pub fn failed(&self) -> usize {
        self.errors.len()
    }

    /// Names of scenarios that deadlocked.
    pub fn deadlocked(&self) -> Vec<&str> {
        self.scenarios
            .iter()
            .filter(|s| matches!(s.result.reason, StopReason::Deadlocked { .. }))
            .map(|s| s.scenario.as_str())
            .collect()
    }

    /// Sum of simulated cycles over all scenarios.
    pub fn total_cycles(&self) -> u64 {
        self.scenarios.iter().map(|s| s.result.cycles).sum()
    }

    /// Total packets delivered over all scenarios.
    pub fn total_delivered(&self) -> usize {
        self.scenarios.iter().map(|s| s.delivered()).sum()
    }

    /// Blocked-port totals merged across scenarios: the same
    /// `component.port` blocked in several scenarios accumulates, so
    /// a systemic bottleneck outranks a scenario-local one.
    pub fn worst_blockages(&self) -> Vec<PortBlockage> {
        let mut merged: HashMap<(String, String), u64> = HashMap::new();
        for scenario in &self.scenarios {
            for b in &scenario.bottlenecks.blockages {
                *merged
                    .entry((b.component.clone(), b.port.clone()))
                    .or_insert(0) += b.blocked_cycles;
            }
        }
        let mut blockages: Vec<PortBlockage> = merged
            .into_iter()
            .map(|((component, port), blocked_cycles)| PortBlockage {
                component,
                port,
                blocked_cycles,
            })
            .collect();
        blockages.sort_by(|a, b| {
            b.blocked_cycles
                .cmp(&a.blocked_cycles)
                .then_with(|| a.component.cmp(&b.component))
                .then_with(|| a.port.cmp(&b.port))
        });
        blockages
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Batch report over {} scenario(s):", self.scenarios.len())?;
        for s in &self.scenarios {
            let reason = match &s.result.reason {
                StopReason::Completed => "completed".to_string(),
                StopReason::IdleTimeout => "idle timeout".to_string(),
                StopReason::CycleLimit => "cycle limit".to_string(),
                StopReason::Deadlocked {
                    blocked_ports,
                    blocked_channels,
                } => {
                    let at = if blocked_ports.is_empty() {
                        blocked_channels.join(", ")
                    } else {
                        blocked_ports.join(", ")
                    };
                    format!("DEADLOCKED ({at})")
                }
            };
            writeln!(
                f,
                "  {:<16} {:>8} cycles  {:>6} packet(s)  {reason}",
                s.scenario,
                s.result.cycles,
                s.delivered()
            )?;
        }
        for e in &self.errors {
            writeln!(f, "  {:<16} ERROR  {}", e.scenario, e.error)?;
        }
        writeln!(
            f,
            "  total: {} completed, {} deadlocked, {} failed, {} packet(s) in {} cycles",
            self.completed(),
            self.deadlocked().len(),
            self.failed(),
            self.total_delivered(),
            self.total_cycles()
        )?;
        let worst = self.worst_blockages();
        if !worst.is_empty() {
            writeln!(f, "  worst blocked ports across scenarios:")?;
            for b in worst.iter().take(5) {
                writeln!(
                    f,
                    "    {:>8} blocked cycles  {}.{}",
                    b.blocked_cycles, b.component, b.port
                )?;
            }
        }
        Ok(())
    }
}

/// Shards independent scenarios of one design across threads.
pub struct SimBatch<'a> {
    project: &'a Project,
    top_impl: String,
    registry: &'a BehaviorRegistry,
    scheduler: SchedulerKind,
}

impl<'a> SimBatch<'a> {
    /// A batch over `top_impl`, using the event-driven scheduler.
    pub fn new(
        project: &'a Project,
        top_impl: impl Into<String>,
        registry: &'a BehaviorRegistry,
    ) -> SimBatch<'a> {
        SimBatch {
            project,
            top_impl: top_impl.into(),
            registry,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Selects the cycle loop used for every scenario.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> SimBatch<'a> {
        self.scheduler = kind;
        self
    }

    /// Runs all scenarios, sharded across threads, and aggregates
    /// their reports. A failing scenario does not abort the batch:
    /// every scenario runs to completion and per-scenario failures
    /// land in [`BatchReport::errors`], named and structured. Only a
    /// design that cannot be flattened at all — no scenario could ever
    /// run — fails the whole batch.
    ///
    /// The design is flattened exactly once; every scenario clones the
    /// resulting (empty-channel) [`SimGraph`] instead of re-walking the
    /// implementation hierarchy, so a batch of N scenarios pays for one
    /// flatten, not N.
    pub fn run(&self, scenarios: &[Scenario]) -> Result<BatchReport, BatchError> {
        let graph = flatten(self.project, &self.top_impl, 2).map_err(|e| BatchError {
            scenario: scenarios
                .first()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "<empty batch>".to_string()),
            error: SimError::Graph(e),
        })?;
        let results = map_stealing(scenarios.len(), worker_threads(), |i| {
            self.run_scenario(&graph, &scenarios[i])
        });
        let mut report = BatchReport::default();
        for result in results {
            match result {
                Ok(scenario) => report.scenarios.push(scenario),
                Err(error) => report.errors.push(error),
            }
        }
        Ok(report)
    }

    fn run_scenario(
        &self,
        graph: &SimGraph,
        scenario: &Scenario,
    ) -> Result<ScenarioReport, BatchError> {
        let _span = tydi_obs::trace::span_named("tydi-sim", || format!("sim:{}", scenario.name));
        let attribute = |error: SimError| BatchError {
            scenario: scenario.name.clone(),
            error,
        };
        let mut sim =
            Simulator::from_graph(self.project, graph.clone(), self.registry).map_err(attribute)?;
        sim.set_scheduler(self.scheduler);
        if let Some(threshold) = scenario.idle_threshold {
            sim.set_idle_threshold(threshold);
        }
        for (port, every) in &scenario.backpressure {
            sim.set_probe_backpressure(port, *every)
                .map_err(attribute)?;
        }
        for (port, packets) in &scenario.feeds {
            sim.feed(port, packets.iter().copied()).map_err(attribute)?;
        }
        if let Some(plan) = &scenario.faults {
            sim.set_fault_plan(plan).map_err(attribute)?;
        }
        let result = sim.run(scenario.max_cycles);
        let mut outputs = Vec::new();
        for port in sim.output_ports() {
            let received = sim.outputs(&port).map_err(attribute)?.to_vec();
            outputs.push((port, received));
        }
        Ok(ScenarioReport {
            scenario: scenario.name.clone(),
            result,
            outputs,
            bottlenecks: sim.bottlenecks(),
            channels: sim.channel_stats(),
            fault_stats: sim.fault_stats(),
        })
    }
}

/// Worker threads a [`SimBatch`] shards its scenarios over:
/// `TYDI_THREADS=n` when set (`1` = sequential), else the machine's
/// available parallelism.
pub fn worker_threads() -> usize {
    match std::env::var("TYDI_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Work-stealing map over `0..len`: `workers` scoped threads pull the
/// next unclaimed index from a shared atomic counter, so an uneven
/// workload (one slow item) never idles the other workers the way
/// fixed chunking does. Results come back in index order. Runs
/// sequentially when `workers <= 1` or there is nothing to steal.
fn map_stealing<R, F>(len: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(len).max(1);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(len);
    slots.resize_with(len, || Mutex::new(None));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("steal slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("steal slot poisoned")
                .expect("every index computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_lang::{compile, CompileOptions};
    use tydi_stdlib::with_stdlib;

    #[test]
    fn map_stealing_preserves_order() {
        let out = map_stealing(37, 4, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        // Sequential fallback produces the same thing.
        assert_eq!(map_stealing(5, 1, |i| i * i), out[..5].to_vec());
        assert!(map_stealing(0, 4, |i| i).is_empty());
    }

    fn pipeline_project() -> Project {
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
        let sources = with_stdlib(&[("app.td", source)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        compile(&refs, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("compile failed:\n{e}"))
            .project
    }

    fn scenarios(count: usize) -> Vec<Scenario> {
        (0..count)
            .map(|k| {
                Scenario::new(format!("scenario-{k}"))
                    .with_feed("i", (0..16).map(|v| Packet::data(v + 100 * k as i64)))
                    .with_backpressure("o", 1 + k as u64 % 4)
            })
            .collect()
    }

    #[test]
    fn batch_aggregates_scenarios() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let batch = SimBatch::new(&project, "top_i", &registry);
        let report = batch.run(&scenarios(4)).expect("batch");
        assert_eq!(report.scenarios.len(), 4);
        assert_eq!(report.completed(), 4);
        assert!(report.deadlocked().is_empty());
        assert_eq!(report.total_delivered(), 4 * 16);
        // Scenario order matches submission order despite sharding.
        for (k, s) in report.scenarios.iter().enumerate() {
            assert_eq!(s.scenario, format!("scenario-{k}"));
            let (_, out) = &s.outputs[0];
            assert_eq!(out.len(), 16);
            assert_eq!(out[0].1, Packet::data(100 * k as i64));
        }
        // Backpressured scenarios take longer than the free-running one.
        assert!(report.scenarios[3].result.cycles > report.scenarios[0].result.cycles);
        let text = report.to_string();
        assert!(text.contains("4 completed"));
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let batch_report = SimBatch::new(&project, "top_i", &registry)
            .run(&scenarios(4))
            .expect("batch");
        for (scenario, batched) in scenarios(4).iter().zip(&batch_report.scenarios) {
            let mut sim = Simulator::new(&project, "top_i", &registry).unwrap();
            for (port, every) in &scenario.backpressure {
                sim.set_probe_backpressure(port, *every).unwrap();
            }
            for (port, packets) in &scenario.feeds {
                sim.feed(port, packets.iter().copied()).unwrap();
            }
            let result = sim.run(scenario.max_cycles);
            assert_eq!(result, batched.result, "{}", scenario.name);
            assert_eq!(sim.outputs("o").unwrap(), &batched.outputs[0].1[..]);
        }
    }

    #[test]
    fn batch_reports_deadlocked_scenarios() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let mix = vec![
            Scenario::new("clean").with_feed("i", (0..4).map(Packet::data)),
            Scenario::new("stuck")
                .with_feed("i", (0..16).map(Packet::data))
                .with_backpressure("o", u64::MAX)
                .with_max_cycles(5_000),
        ];
        let report = SimBatch::new(&project, "top_i", &registry)
            .run(&mix)
            .expect("batch");
        assert_eq!(report.completed(), 1);
        assert_eq!(report.deadlocked(), vec!["stuck"]);
        // The merged blockage table names the congested output.
        let worst = report.worst_blockages();
        assert!(worst.iter().any(|b| b.port == "o"));
        // Channel ground truth per scenario: the stuck run saturated a
        // channel and recorded producer-side credit stalls, the clean
        // run did not.
        let stuck = &report.scenarios[1];
        assert!(stuck
            .channels
            .iter()
            .any(|c| c.saturated() && c.refused_pushes > 0));
        let clean = &report.scenarios[0];
        assert!(clean.channels.iter().all(|c| c.occupancy == 0));
    }

    #[test]
    fn batch_errors_name_the_scenario_without_aborting_the_batch() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        // One broken scenario sandwiched between two good ones: the
        // good ones still run, the failure is reported structured and
        // named instead of aborting the whole batch.
        let mix = vec![
            Scenario::new("good-0").with_feed("i", (0..4).map(Packet::data)),
            Scenario::new("typo").with_feed("nope", [Packet::data(1)]),
            Scenario::new("good-1").with_feed("i", (4..8).map(Packet::data)),
        ];
        let report = SimBatch::new(&project, "top_i", &registry)
            .run(&mix)
            .expect("per-scenario errors must not abort the batch");
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        let err = &report.errors[0];
        assert_eq!(err.scenario, "typo");
        assert!(matches!(err.error, SimError::UnknownBoundaryPort { .. }));
        assert!(err.to_string().contains("typo"));
        // The rendered report names the failure too.
        let text = report.to_string();
        assert!(text.contains("typo"), "{text}");
        assert!(text.contains("ERROR"), "{text}");
        assert!(text.contains("1 failed"), "{text}");
    }

    #[test]
    fn faulted_scenario_stalls_and_reports_blocked_channels() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        // Permanently stall the boundary output: the pipeline wedges
        // exactly as if the consumer withheld ready forever.
        let plan = FaultPlan::parse("stall(boundary.o,0,*)").expect("plan");
        let faulty = vec![Scenario::new("stalled")
            .with_feed("i", (0..16).map(Packet::data))
            .with_faults(plan)
            .with_max_cycles(5_000)];
        let report = SimBatch::new(&project, "top_i", &registry)
            .run(&faulty)
            .expect("batch");
        assert_eq!(report.deadlocked(), vec!["stalled"]);
        let scenario = &report.scenarios[0];
        let StopReason::Deadlocked {
            blocked_channels, ..
        } = &scenario.result.reason
        else {
            panic!("expected Deadlocked, got {:?}", scenario.result.reason);
        };
        assert!(blocked_channels.contains(&"boundary.o".to_string()));
        assert!(scenario.fault_stats.gated_cycles > 0);
    }

    #[test]
    fn unknown_fault_target_is_a_named_batch_error() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let plan = FaultPlan::parse("stall(no.such.channel,0,*)").expect("plan");
        let bad = vec![Scenario::new("ghost")
            .with_feed("i", [Packet::data(1)])
            .with_faults(plan)];
        let report = SimBatch::new(&project, "top_i", &registry)
            .run(&bad)
            .expect("aggregated");
        assert_eq!(report.failed(), 1);
        assert_eq!(report.errors[0].scenario, "ghost");
        assert!(matches!(
            report.errors[0].error,
            SimError::UnknownFaultTarget {
                kind: "channel",
                ..
            }
        ));
    }

    #[test]
    fn fault_sweep_is_deterministic_per_seed() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let base = FaultPlan::parse("jitter(boundary.o,1,3)").expect("plan");
        let sweep = |seeds: &[u64]| -> Vec<String> {
            let scenarios: Vec<Scenario> = seeds
                .iter()
                .map(|&seed| {
                    Scenario::new(format!("fault-s{seed}"))
                        .with_feed("i", (0..12).map(Packet::data))
                        .with_faults(base.reseeded(seed))
                })
                .collect();
            SimBatch::new(&project, "top_i", &registry)
                .run(&scenarios)
                .expect("sweep")
                .scenarios
                .iter()
                .map(|s| format!("{:?}|{:?}", s.result, s.outputs))
                .collect()
        };
        let first = sweep(&[1, 2, 3]);
        let second = sweep(&[1, 2, 3]);
        assert_eq!(first, second, "same seeds must replay identically");
        // Different seeds roll different jitter: arrival schedules
        // diverge between sweep arms.
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn polling_batch_agrees_with_event_driven_batch() {
        let project = pipeline_project();
        let registry = BehaviorRegistry::with_std();
        let event = SimBatch::new(&project, "top_i", &registry)
            .run(&scenarios(3))
            .expect("event batch");
        let polling = SimBatch::new(&project, "top_i", &registry)
            .with_scheduler(SchedulerKind::Polling)
            .run(&scenarios(3))
            .expect("polling batch");
        for (e, p) in event.scenarios.iter().zip(&polling.scenarios) {
            assert_eq!(e.outputs, p.outputs);
            assert_eq!(e.result.finished, p.result.finished);
        }
    }
}
