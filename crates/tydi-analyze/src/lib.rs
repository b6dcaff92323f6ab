//! Static dataflow analysis for elaborated Tydi designs.
//!
//! `tydi-analyze` answers, *without running the simulator*, the two
//! questions a designer otherwise needs a full simulation campaign
//! for:
//!
//! 1. **How fast can this design go?** Per-stream sustained-throughput
//!    upper bounds (elements per cycle, optionally scaled to Hz by a
//!    [`tydi_spec::clock::PhysicalClock`]) and pipeline-depth lower
//!    bounds, computed by a monotone fixpoint over the flattened
//!    dataflow graph — effectively the min-cut of service rates along
//!    every path.
//! 2. **Where will it wedge or stall?** Structural hazards as ranked
//!    diagnostics: deadlockable dependency cycles (error), fan-in
//!    contention at merge points, statically unmeetable stream-contract
//!    throughputs, and credit starvation at skewed joins (warnings).
//!
//! The analysis reuses the *simulator's own flattener*
//! ([`tydi_sim::graph::flatten`]) with the simulator's channel
//! capacity, so every channel and component in the report carries
//! exactly the name `tydic sim` would print for it — the differential
//! test suite leans on that parity to check every predicted bound
//! against measured throughput (`predicted >= measured`, and within a
//! tolerance factor when the service models are exact) and every
//! simulated deadlock against the static stall cones.

pub mod flow;
pub mod hazards;
pub mod rates;
pub mod report;
pub mod synthesize;
#[cfg(test)]
pub(crate) mod testutil;

pub use flow::{FlowGraph, RateClass, ServiceModel};
pub use rates::{RateSolution, EPSILON};
pub use report::{
    AnalysisReport, ChannelBound, Confidence, Hazard, HazardKind, PortBound, Severity, StallCone,
};
pub use synthesize::{synthesize_faults, SynthesizedFault};

use tydi_ir::{Project, ProjectIndex};
use tydi_spec::clock::PhysicalClock;

/// Options for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// FIFO capacity assumed per channel. Must match the simulator's
    /// (2) for the differential guarantees to hold.
    pub channel_capacity: usize,
    /// When set, throughput bounds are also reported in Hz.
    pub clock: Option<PhysicalClock>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            // The simulator's default channel depth.
            channel_capacity: 2,
            clock: None,
        }
    }
}

/// Errors producing an analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// Flattening the design failed (unknown top, inconsistent IR, or
    /// a behaviour-less external).
    Graph(tydi_sim::graph::GraphError),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Graph(e) => write!(f, "cannot analyze: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<tydi_sim::graph::GraphError> for AnalyzeError {
    fn from(e: tydi_sim::graph::GraphError) -> Self {
        AnalyzeError::Graph(e)
    }
}

/// Analyzes `top_impl` of an elaborated project.
///
/// The [`ProjectIndex`] provides O(1) port lookups for the
/// stream-contract (rate-mismatch) checks; build one with
/// [`ProjectIndex::build`] or reuse the one the compilation pipeline
/// already made.
pub fn analyze(
    project: &Project,
    index: &ProjectIndex,
    top_impl: &str,
    options: &AnalyzeOptions,
) -> Result<AnalysisReport, AnalyzeError> {
    let _span = tydi_obs::trace::span_named("tydi-analyze", || format!("analyze:{top_impl}"));
    let sim_graph = tydi_sim::graph::flatten(project, top_impl, options.channel_capacity)?;
    let graph = FlowGraph::from_sim_graph(project, top_impl, &sim_graph);
    let solution = rates::solve(&graph);
    let hazard_list = hazards::detect(&graph, &solution, project, index);
    let cones = hazards::stall_cones(&graph);

    let confidence = if graph.components.iter().all(|c| c.model.exact) {
        Confidence::Exact
    } else {
        Confidence::UpperBound
    };

    let channels = graph
        .channels
        .iter()
        .enumerate()
        .map(|(i, ch)| ChannelBound {
            name: ch.name.clone(),
            capacity: ch.capacity,
            elements_per_cycle: solution.channel_rate[i],
            min_latency: solution.channel_latency[i],
        })
        .collect();

    let top_sid = index.streamlet_of_impl_name(project, top_impl);
    let outputs = graph
        .boundary_outputs
        .iter()
        .map(|&(ref port, ch)| {
            let rate = solution.channel_rate[ch];
            let (declared_peak, declared_min) = top_sid
                .and_then(|sid| index.port(project, sid, port))
                .and_then(|p| tydi_spec::lower(&p.ty).ok())
                .and_then(|streams| {
                    streams.iter().find(|s| s.path.is_empty()).map(|root| {
                        (
                            Some(root.peak_elements_per_cycle()),
                            Some(root.min_elements_per_cycle()),
                        )
                    })
                })
                .unwrap_or((None, None));
            PortBound {
                port: port.clone(),
                channel: graph.channels[ch].name.clone(),
                elements_per_cycle: rate,
                throughput_hz: options.clock.as_ref().map(|c| rate * c.frequency_hz),
                min_latency_cycles: solution.channel_latency[ch],
                declared_peak,
                declared_min,
            }
        })
        .collect();

    Ok(AnalysisReport {
        top: top_impl.to_string(),
        components: graph.components.len(),
        channels,
        outputs,
        hazards: hazard_list,
        stall_cones: cones,
        confidence,
        converged: solution.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_ir::{
        Connection, EndpointRef, Implementation, Instance, Port, PortDirection, Streamlet,
    };
    use tydi_spec::{ClockDomain, LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    /// in -> add(latency 4) <- in2, out: a two-input join design.
    fn join_project() -> Project {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("add_s")
                .with_port(Port::new("a", PortDirection::In, stream8()))
                .with_port(Port::new("b", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut add = Implementation::external("add_i", "add_s").with_builtin("std.add");
        add.attributes.insert("param_latency".into(), "4".into());
        p.add_implementation(add).unwrap();
        p.add_streamlet(
            Streamlet::new("top_s")
                .with_port(Port::new("x", PortDirection::In, stream8()))
                .with_port(Port::new("y", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "top_s");
        top.add_instance(Instance::new("adder", "add_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("x"),
            EndpointRef::instance("adder", "a"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::own("y"),
            EndpointRef::instance("adder", "b"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("adder", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        p
    }

    #[test]
    fn analyze_bounds_join_by_its_latency() {
        let p = join_project();
        p.validate().unwrap();
        let index = ProjectIndex::build(&p);
        let report = analyze(&p, &index, "top_i", &AnalyzeOptions::default()).unwrap();
        assert_eq!(report.components, 1);
        let o = report.output("o").unwrap();
        assert!((o.elements_per_cycle - 0.25).abs() < EPSILON);
        assert_eq!(o.min_latency_cycles, Some(3));
        assert_eq!(report.confidence, Confidence::Exact);
        assert!(report.converged);
        assert!(report.max_severity().is_none());
        // Channel names match the simulator's flattener.
        assert!(report.channels.iter().any(|c| c.name == "boundary.x"));
        assert!(report.channels.iter().any(|c| c.name == "boundary.o"));
        // The stall cone of `o` covers every channel of this design.
        assert_eq!(report.stall_cone("o").unwrap().channels.len(), 3);
    }

    #[test]
    fn clock_scales_bounds_to_hz() {
        let p = join_project();
        let index = ProjectIndex::build(&p);
        let options = AnalyzeOptions {
            clock: Some(PhysicalClock::new(
                ClockDomain::default_domain(),
                100_000_000.0,
            )),
            ..AnalyzeOptions::default()
        };
        let report = analyze(&p, &index, "top_i", &options).unwrap();
        let o = report.output("o").unwrap();
        assert!((o.throughput_hz.unwrap() - 25_000_000.0).abs() < 1.0);
    }

    #[test]
    fn unknown_top_is_an_error() {
        let p = join_project();
        let index = ProjectIndex::build(&p);
        let err = analyze(&p, &index, "ghost", &AnalyzeOptions::default()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Graph(_)));
        assert!(err.to_string().contains("ghost"));
    }
}
