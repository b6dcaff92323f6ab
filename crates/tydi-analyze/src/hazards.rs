//! Structural hazard detection over a solved [`FlowGraph`].
//!
//! Four hazard families, in decreasing severity:
//!
//! * **Deadlockable cycles** (error) — a strongly connected component
//!   of the dataflow graph. With bounded FIFOs and handshake
//!   semantics any dependency cycle can fill up and wedge: the classic
//!   structural deadlock of streaming dataflow.
//! * **Fan-in contention** (warning) — a merge point whose combined
//!   input arrival rate exceeds its service rate; the excess
//!   backpressures the producers.
//! * **Rate mismatch** (warning) — a port whose *declared* minimum
//!   throughput (the Tydi stream contract, `StreamParams::throughput`)
//!   exceeds the statically predicted upper bound of the channel that
//!   feeds it: the contract is structurally unmeetable.
//! * **Credit starvation** (warning) — a join whose input arms have a
//!   first-arrival skew at least as large as the FIFO depth of the
//!   early arm: the early FIFO fills before the late arm delivers,
//!   stalling the shared upstream and (in the worst case) live-locking
//!   the pipeline start-up.
//!
//! Separately, [`stall_cones`] computes per boundary output the set of
//! channels that can transitively block it (reverse reachability).
//! Every channel a *simulated* deadlock reports as blocked must fall
//! inside the cone of some blocked output — the differential suite
//! asserts exactly that.

use crate::flow::{FlowComponent, FlowGraph, RateClass};
use crate::rates::{RateSolution, EPSILON};
use crate::report::{Hazard, HazardKind, Severity, StallCone};
use tydi_ir::{Project, ProjectIndex};

/// Runs every hazard detector.
pub fn detect(
    graph: &FlowGraph,
    solution: &RateSolution,
    project: &Project,
    index: &ProjectIndex,
) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    hazards.extend(deadlockable_cycles(graph));
    hazards.extend(fan_in_contention(graph, solution));
    hazards.extend(rate_mismatches(graph, solution, project, index));
    hazards.extend(credit_starvation(graph, solution));
    // Errors first, then warnings, then infos; stable within a class.
    hazards.sort_by_key(|h| std::cmp::Reverse(h.severity));
    hazards
}

/// The declaring implementation of a hazard-site component, when the
/// site is real user code (synthetic duplicators/voiders have no
/// declaration to point at).
fn declaring_impl(comp: &FlowComponent) -> Option<String> {
    (!comp.synthetic && !comp.impl_name.is_empty()).then(|| comp.impl_name.clone())
}

/// Strongly connected components of the component graph (edges follow
/// channels source -> sink), iterative Tarjan. Returns one hazard per
/// non-trivial SCC, naming the channels inside the cycle.
fn deadlockable_cycles(graph: &FlowGraph) -> Vec<Hazard> {
    let n = graph.components.len();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for channel in &graph.channels {
        for &s in &channel.sources {
            for &t in &channel.sinks {
                if !successors[s].contains(&t) {
                    successors[s].push(t);
                }
            }
        }
    }

    // Iterative Tarjan.
    let mut index_of = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index_of[root] != usize::MAX {
            continue;
        }
        // (node, next successor position)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index_of[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = successors[v].get(*pos) {
                *pos += 1;
                if index_of[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index_of[w]);
                }
            } else {
                if low[v] == index_of[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }

    let mut hazards = Vec::new();
    for scc in sccs {
        let cyclic = scc.len() > 1 || successors[scc[0]].contains(&scc[0]);
        if !cyclic {
            continue;
        }
        let in_scc = |c: usize| scc.binary_search(&c).is_ok();
        let mut channels: Vec<String> = graph
            .channels
            .iter()
            .filter(|ch| {
                ch.sources.iter().any(|&s| in_scc(s)) && ch.sinks.iter().any(|&t| in_scc(t))
            })
            .map(|ch| ch.name.clone())
            .collect();
        channels.sort();
        let mut members: Vec<(&str, usize)> = scc
            .iter()
            .map(|&c| (graph.components[c].path.as_str(), c))
            .collect();
        members.sort_unstable();
        let member_names: Vec<&str> = members.iter().map(|&(path, _)| path).collect();
        hazards.push(Hazard {
            kind: HazardKind::DeadlockableCycle,
            severity: Severity::Error,
            component: Some(members[0].0.to_string()),
            impl_name: members
                .iter()
                .find_map(|&(_, c)| declaring_impl(&graph.components[c])),
            channels,
            message: format!(
                "dependency cycle through {}: with bounded FIFOs any cycle can fill and deadlock",
                member_names.join(", ")
            ),
        });
    }
    hazards
}

/// Merge points whose combined input rate exceeds their service rate.
fn fan_in_contention(graph: &FlowGraph, solution: &RateSolution) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    for comp in &graph.components {
        if comp.model.class != RateClass::Merge || comp.inputs.len() < 2 {
            continue;
        }
        let offered: f64 = comp
            .inputs
            .iter()
            .map(|&(_, ch)| solution.channel_rate[ch])
            .sum();
        let service = comp.model.service.min(1.0);
        if offered > service + EPSILON {
            hazards.push(Hazard {
                kind: HazardKind::FanInContention,
                severity: Severity::Warning,
                component: Some(comp.path.clone()),
                impl_name: declaring_impl(comp),
                channels: comp
                    .inputs
                    .iter()
                    .map(|&(_, ch)| graph.channels[ch].name.clone())
                    .collect(),
                message: format!(
                    "fan-in at `{}` is offered {:.3} transfers/cycle across {} inputs but serves \
                     at most {:.3}: producers will see backpressure",
                    comp.path,
                    offered,
                    comp.inputs.len(),
                    service
                ),
            });
        }
    }
    hazards
}

/// Ports whose declared minimum throughput exceeds the predicted
/// bound of the channel feeding them.
fn rate_mismatches(
    graph: &FlowGraph,
    solution: &RateSolution,
    project: &Project,
    index: &ProjectIndex,
) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    // Component input ports.
    for comp in &graph.components {
        if comp.synthetic {
            continue;
        }
        let Some(sid) = index.streamlet_of_impl_name(project, &comp.impl_name) else {
            continue;
        };
        for &(ref port_name, ch) in &comp.inputs {
            if let Some(h) = check_port_contract(
                project,
                index,
                sid,
                port_name,
                &format!("{}.{}", comp.path, port_name),
                &graph.channels[ch].name,
                solution.channel_rate[ch],
                declaring_impl(comp),
            ) {
                hazards.push(h);
            }
        }
    }
    // Top-level output ports: the design's own outgoing contract.
    if let Some(sid) = index.streamlet_of_impl_name(project, &graph.top) {
        for &(ref port_name, ch) in &graph.boundary_outputs {
            if let Some(h) = check_port_contract(
                project,
                index,
                sid,
                port_name,
                &format!("top.{port_name}"),
                &graph.channels[ch].name,
                solution.channel_rate[ch],
                Some(graph.top.clone()),
            ) {
                hazards.push(h);
            }
        }
    }
    hazards
}

/// Checks one port's declared stream throughput against the predicted
/// channel bound.
///
/// Only throughputs declared *above* the default of 1.0 are treated as
/// contracts — an explicit multi-element-per-cycle promise — because
/// the default is attached to every stream and would flag every
/// pipeline that is merely slower than one element per cycle. The
/// transfer-rate bound is scaled by the stream's lane count: a
/// conforming RTL transfer carries up to `lanes` elements even though
/// the simulator moves one element per packet.
#[allow(clippy::too_many_arguments)]
fn check_port_contract(
    project: &Project,
    index: &ProjectIndex,
    sid: tydi_ir::StreamletId,
    port_name: &str,
    site: &str,
    channel_name: &str,
    predicted_transfers: f64,
    impl_name: Option<String>,
) -> Option<Hazard> {
    let (declared, lanes) = declared_min_rate(project, index, sid, port_name)?;
    if declared <= 1.0 + EPSILON {
        return None;
    }
    let predicted_elements = predicted_transfers * lanes as f64;
    if declared <= predicted_elements + EPSILON {
        return None;
    }
    Some(rate_mismatch_hazard(
        site,
        channel_name,
        declared,
        predicted_elements,
        impl_name,
    ))
}

fn rate_mismatch_hazard(
    port: &str,
    channel: &str,
    declared: f64,
    predicted: f64,
    impl_name: Option<String>,
) -> Hazard {
    Hazard {
        kind: HazardKind::RateMismatch,
        severity: Severity::Warning,
        component: Some(port.to_string()),
        impl_name,
        channels: vec![channel.to_string()],
        message: format!(
            "port `{port}` declares a minimum throughput of {declared:.3} elements/cycle but the \
             upstream bound is {predicted:.3}: the stream contract cannot be met"
        ),
    }
}

/// The declared minimum element rate and lane count of a port's root
/// stream, from the Tydi type metadata.
fn declared_min_rate(
    project: &Project,
    index: &ProjectIndex,
    sid: tydi_ir::StreamletId,
    port: &str,
) -> Option<(f64, u32)> {
    let port = index.port(project, sid, port)?;
    let streams = tydi_spec::lower(&port.ty).ok()?;
    let root = streams.iter().find(|s| s.path.is_empty())?;
    Some((root.min_elements_per_cycle(), root.lanes()))
}

/// Joins whose input arms have first-arrival skew at least the FIFO
/// depth of the early arm.
fn credit_starvation(graph: &FlowGraph, solution: &RateSolution) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    for comp in &graph.components {
        let joins = matches!(comp.model.class, RateClass::Join)
            || (comp.model.class == RateClass::Interpreted && comp.inputs.len() >= 2);
        if !joins || comp.inputs.len() < 2 {
            continue;
        }
        let arrivals: Vec<(usize, u64)> = comp
            .inputs
            .iter()
            .filter_map(|&(_, ch)| solution.channel_latency[ch].map(|lat| (ch, lat)))
            .collect();
        if arrivals.len() < 2 {
            continue;
        }
        let &(early_ch, early) = arrivals.iter().min_by_key(|&&(_, lat)| lat).unwrap();
        let &(late_ch, late) = arrivals.iter().max_by_key(|&&(_, lat)| lat).unwrap();
        let skew = late - early;
        let depth = graph.channels[early_ch].capacity as u64;
        if skew >= depth {
            hazards.push(Hazard {
                kind: HazardKind::CreditStarvation,
                severity: Severity::Warning,
                component: Some(comp.path.clone()),
                impl_name: declaring_impl(comp),
                channels: vec![
                    graph.channels[early_ch].name.clone(),
                    graph.channels[late_ch].name.clone(),
                ],
                message: format!(
                    "join at `{}`: input `{}` can arrive {} cycles before `{}` but its FIFO holds \
                     only {} packets — the early arm fills and stalls its producer during start-up",
                    comp.path,
                    graph.channels[early_ch].name,
                    skew,
                    graph.channels[late_ch].name,
                    depth
                ),
            });
        }
    }
    hazards
}

/// Per boundary output, the channels that can transitively block it:
/// reverse reachability from the output channel through component
/// input/output relations. A simulated deadlock can only ever report
/// blocked channels inside the union of these cones (plus cycles,
/// which are flagged as errors separately).
pub fn stall_cones(graph: &FlowGraph) -> Vec<StallCone> {
    graph
        .boundary_outputs
        .iter()
        .map(|&(ref port, root)| {
            let mut seen = vec![false; graph.channels.len()];
            let mut stack = vec![root];
            seen[root] = true;
            while let Some(ch) = stack.pop() {
                for &comp in &graph.channels[ch].sources {
                    for &(_, in_ch) in &graph.components[comp].inputs {
                        if !seen[in_ch] {
                            seen[in_ch] = true;
                            stack.push(in_ch);
                        }
                    }
                }
            }
            let mut channels: Vec<String> = graph
                .channels
                .iter()
                .enumerate()
                .filter(|&(i, _)| seen[i])
                .map(|(_, c)| c.name.clone())
                .collect();
            channels.sort();
            StallCone {
                port: port.clone(),
                channels,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::solve;
    use crate::testutil::TestGraph;

    #[test]
    fn scc_flags_feedback_loop() {
        let g = TestGraph::new(
            &[("boundary.i", 2), ("top.fb", 2), ("boundary.o", 2)],
            &[("i", 0)],
            &[("o", 2)],
        )
        .comp(
            "top.join",
            RateClass::Join,
            1.0,
            1,
            &[("a", 0), ("b", 1)],
            &[("o", 2)],
        )
        .comp(
            "top.loop",
            RateClass::Elementwise,
            1.0,
            1,
            &[("i", 2)],
            &[("o", 1)],
        )
        .build();
        let hazards = deadlockable_cycles(&g);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::DeadlockableCycle);
        assert_eq!(hazards[0].severity, Severity::Error);
        assert!(hazards[0].channels.contains(&"top.fb".to_string()));
        assert!(hazards[0].channels.contains(&"boundary.o".to_string()));
    }

    #[test]
    fn acyclic_pipeline_has_no_cycle_hazard() {
        let g = TestGraph::new(
            &[("boundary.i", 2), ("top.m", 2), ("boundary.o", 2)],
            &[("i", 0)],
            &[("o", 2)],
        )
        .comp(
            "top.a",
            RateClass::Elementwise,
            1.0,
            1,
            &[("i", 0)],
            &[("o", 1)],
        )
        .comp(
            "top.b",
            RateClass::Elementwise,
            1.0,
            1,
            &[("i", 1)],
            &[("o", 2)],
        )
        .build();
        assert!(deadlockable_cycles(&g).is_empty());
    }

    #[test]
    fn mux_overload_raises_fan_in_contention() {
        let g = TestGraph::new(
            &[("boundary.a", 2), ("boundary.b", 2), ("boundary.o", 2)],
            &[("a", 0), ("b", 1)],
            &[("o", 2)],
        )
        .comp(
            "top.mux",
            RateClass::Merge,
            1.0,
            1,
            &[("a", 0), ("b", 1)],
            &[("o", 2)],
        )
        .build();
        let s = solve(&g);
        let hazards = fan_in_contention(&g, &s);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::FanInContention);
        assert_eq!(hazards[0].component.as_deref(), Some("top.mux"));
    }

    #[test]
    fn skewed_join_raises_credit_starvation() {
        // One arm direct, the other behind a 4-cycle stage: skew 4
        // against a depth-2 FIFO.
        let g = TestGraph::new(
            &[
                ("boundary.a", 2),
                ("boundary.b", 2),
                ("top.d", 2),
                ("boundary.o", 2),
            ],
            &[("a", 0), ("b", 1)],
            &[("o", 3)],
        )
        .comp(
            "top.slow",
            RateClass::Elementwise,
            0.25,
            4,
            &[("i", 1)],
            &[("o", 2)],
        )
        .comp(
            "top.join",
            RateClass::Join,
            1.0,
            1,
            &[("a", 0), ("b", 2)],
            &[("o", 3)],
        )
        .build();
        let s = solve(&g);
        let hazards = credit_starvation(&g, &s);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::CreditStarvation);
        assert_eq!(hazards[0].channels[0], "boundary.a");
        assert_eq!(hazards[0].channels[1], "top.d");
    }

    #[test]
    fn balanced_join_is_clean() {
        let g = TestGraph::new(
            &[("boundary.a", 2), ("boundary.b", 2), ("boundary.o", 2)],
            &[("a", 0), ("b", 1)],
            &[("o", 2)],
        )
        .comp(
            "top.join",
            RateClass::Join,
            1.0,
            1,
            &[("a", 0), ("b", 1)],
            &[("o", 2)],
        )
        .build();
        let s = solve(&g);
        assert!(credit_starvation(&g, &s).is_empty());
    }

    #[test]
    fn stall_cone_covers_upstream_channels_only() {
        // Two independent lanes sharing nothing: each output's cone
        // holds its own lane.
        let g = TestGraph::new(
            &[
                ("boundary.a", 2),
                ("boundary.x", 2),
                ("boundary.b", 2),
                ("boundary.y", 2),
            ],
            &[("a", 0), ("b", 2)],
            &[("x", 1), ("y", 3)],
        )
        .comp(
            "top.p",
            RateClass::Elementwise,
            1.0,
            1,
            &[("i", 0)],
            &[("o", 1)],
        )
        .comp(
            "top.q",
            RateClass::Elementwise,
            1.0,
            1,
            &[("i", 2)],
            &[("o", 3)],
        )
        .build();
        let cones = stall_cones(&g);
        assert_eq!(cones.len(), 2);
        assert_eq!(cones[0].port, "x");
        assert_eq!(cones[0].channels, vec!["boundary.a", "boundary.x"]);
        assert_eq!(cones[1].channels, vec!["boundary.b", "boundary.y"]);
    }
}
