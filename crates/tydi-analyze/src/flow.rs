//! The analyzable flow graph and the per-component service model.
//!
//! The graph is built by [`tydi_sim::graph::flatten`] — the *same*
//! flattening the simulator uses, run with the same channel capacity —
//! so every channel and component here carries exactly the name the
//! simulator would report for it. The analysis never ticks the
//! simulator; it only reads the structure.
//!
//! On top of the structure, each component gets a *service model*: a
//! rate class (how its output rate relates to its input rates), a
//! service rate (an upper bound on sustained transfers per cycle per
//! output), and a minimum internal delay (a lower bound on cycles from
//! consuming an input to producing the dependent output). Builtins are
//! classified from their behaviour key; interpreted components are
//! classified by a static scan of their simulation block.

use std::collections::HashMap;
use tydi_ir::{Implementation, Project};
use tydi_lang::sim_ast::{SimAction, SimBlock, SimExpr};
use tydi_sim::graph::SimGraph;

/// How a component's output rates relate to its input rates. The
/// classes mirror the builtin behaviour registry of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateClass {
    /// One output transfer per input transfer (`passthrough`, `not`,
    /// the `*_const` comparators).
    Elementwise,
    /// Fires when *all* inputs have data; output rate is the minimum
    /// of the input rates (binary operators, `and_n`, `or_n`,
    /// `group_combine2`).
    Join,
    /// Forwards whichever input has data; output rate is bounded by
    /// the *sum* of the input rates — the structural fan-in
    /// contention site (`mux`).
    Merge,
    /// Replicates each input transfer to every output (`duplicator`,
    /// `group_split2`); each output rate is bounded by the input rate.
    Fanout,
    /// Passes a data-dependent subset through (`filter`, `demux`);
    /// each output rate is bounded by the input rate.
    Filter,
    /// Collapses a sequence into one result (`sum`, `count`, `min`,
    /// `max`); output rate is bounded by the input rate and depends on
    /// the data shape.
    Reduce,
    /// Emits spontaneously with no inputs (`const`).
    Source,
    /// Consumes and discards (`voider`).
    Sink,
    /// Behaviour comes from an interpreted simulation block; the
    /// service model is a static scan of its handlers.
    Interpreted,
    /// A builtin this analysis does not know; treated conservatively
    /// as `min(service, sum of inputs)` per output.
    Opaque,
}

/// The static service model of one component.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Rate class.
    pub class: RateClass,
    /// Upper bound on sustained transfers per cycle on any single
    /// output port.
    pub service: f64,
    /// Lower bound on internal latency in cycles from input to
    /// dependent output (at least 1: the staged-push/commit cycle).
    pub min_latency: u64,
    /// Whether `service` is believed exact (tight) rather than only an
    /// upper bound. Designs where every component is exact get a
    /// tighter differential tolerance.
    pub exact: bool,
    /// Whether every output transfer is driven by an input transfer,
    /// so output rates are additionally bounded by the input rates.
    /// False for sources and for interpreted blocks with
    /// input-independent sending handlers.
    pub input_driven: bool,
}

/// One component of the flow graph: the structural node from the
/// flattener plus its service model.
#[derive(Debug, Clone)]
pub struct FlowComponent {
    /// Hierarchical path, e.g. `top.pu_0.add` (identical to the
    /// simulator's).
    pub path: String,
    /// Elaborated implementation name (`__wire` for synthetic
    /// feed-throughs).
    pub impl_name: String,
    /// Input port name to channel index, sorted for determinism.
    pub inputs: Vec<(String, usize)>,
    /// Output port name to channel index, sorted for determinism.
    pub outputs: Vec<(String, usize)>,
    /// True for flattener-fabricated feed-through wires.
    pub synthetic: bool,
    /// The service model.
    pub model: ServiceModel,
}

/// One channel of the flow graph.
#[derive(Debug, Clone)]
pub struct FlowChannel {
    /// Channel name, identical to the simulator's (`boundary.<port>`
    /// or `<path>.<src> => <sink>`).
    pub name: String,
    /// FIFO capacity in packets.
    pub capacity: usize,
    /// Components writing this channel.
    pub sources: Vec<usize>,
    /// Components reading this channel.
    pub sinks: Vec<usize>,
}

/// The whole analyzable design.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    /// Top-level implementation name.
    pub top: String,
    /// Components, in flattening order.
    pub components: Vec<FlowComponent>,
    /// Channels, in flattening order.
    pub channels: Vec<FlowChannel>,
    /// Top-level input ports with their boundary channels.
    pub boundary_inputs: Vec<(String, usize)>,
    /// Top-level output ports with their boundary channels.
    pub boundary_outputs: Vec<(String, usize)>,
}

impl FlowGraph {
    /// Builds the flow graph from a flattened design.
    pub fn from_sim_graph(project: &Project, top: &str, graph: &SimGraph) -> FlowGraph {
        let components = graph
            .components
            .iter()
            .map(|node| {
                let mut inputs: Vec<(String, usize)> =
                    node.inputs.iter().map(|(p, &c)| (p.clone(), c)).collect();
                let mut outputs: Vec<(String, usize)> =
                    node.outputs.iter().map(|(p, &c)| (p.clone(), c)).collect();
                inputs.sort();
                outputs.sort();
                let implementation = if node.synthetic {
                    None
                } else {
                    project.implementation(&node.impl_name)
                };
                let model = service_model(
                    node.builtin.as_deref(),
                    node.sim_source.as_deref(),
                    implementation,
                );
                FlowComponent {
                    path: node.path.clone(),
                    impl_name: node.impl_name.clone(),
                    inputs,
                    outputs,
                    synthetic: node.synthetic,
                    model,
                }
            })
            .collect();
        let channels = graph
            .channels
            .iter()
            .enumerate()
            .map(|(index, channel)| FlowChannel {
                name: channel.name.clone(),
                capacity: channel.capacity(),
                sources: graph.channel_sources[index].clone(),
                sinks: graph.channel_sinks[index].clone(),
            })
            .collect();
        FlowGraph {
            top: top.to_string(),
            components,
            channels,
            boundary_inputs: graph.boundary_inputs.clone(),
            boundary_outputs: graph.boundary_outputs.clone(),
        }
    }
}

/// The optional `latency` template parameter shared by the builtin
/// data operators (mirrors the simulator's reading of it).
fn builtin_latency(implementation: Option<&Implementation>) -> u64 {
    implementation
        .and_then(|i| i.attributes.get("param_latency"))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Classifies a component and derives its service model.
fn service_model(
    builtin: Option<&str>,
    sim_source: Option<&str>,
    implementation: Option<&Implementation>,
) -> ServiceModel {
    if let Some(key) = builtin {
        let latency = builtin_latency(implementation);
        // The two-phase data operators (simulator `Binop`: pop one
        // tick, release the held result on a later tick) sustain one
        // fire per max(2, latency) cycles and surface their first
        // result max(1, latency - 1) cycles after the operands meet.
        // Every other builtin forwards in the tick it pops.
        let two_phase = matches!(
            key,
            "std.add"
                | "std.sub"
                | "std.mul"
                | "std.div"
                | "std.cmp_eq"
                | "std.cmp_ne"
                | "std.cmp_lt"
                | "std.cmp_le"
                | "std.cmp_gt"
                | "std.cmp_ge"
        );
        let (service, min_latency) = if two_phase {
            (1.0 / latency.max(2) as f64, (latency - 1).max(1))
        } else {
            (1.0 / latency as f64, latency)
        };
        let (class, exact) = match key {
            "std.passthrough" | "std.not" => (RateClass::Elementwise, true),
            k if k.starts_with("std.eq_const")
                || k.starts_with("std.ne_const")
                || k.starts_with("std.lt_const")
                || k.starts_with("std.le_const")
                || k.starts_with("std.gt_const")
                || k.starts_with("std.ge_const") =>
            {
                (RateClass::Elementwise, true)
            }
            "std.add" | "std.sub" | "std.mul" | "std.div" | "std.cmp_eq" | "std.cmp_ne"
            | "std.cmp_lt" | "std.cmp_le" | "std.cmp_gt" | "std.cmp_ge" | "std.and_n"
            | "std.or_n" | "std.group_combine2" => (RateClass::Join, true),
            "std.mux" => (RateClass::Merge, true),
            "std.duplicator" | "std.group_split2" => (RateClass::Fanout, true),
            // Filter and demux output rates are data-dependent; the
            // input-rate bound is sound but not tight.
            "std.filter" | "std.demux" => (RateClass::Filter, false),
            "std.sum" | "std.count" | "std.min" | "std.max" => (RateClass::Reduce, false),
            "std.const" => (RateClass::Source, true),
            "std.voider" => (RateClass::Sink, true),
            _ => (RateClass::Opaque, false),
        };
        return ServiceModel {
            class,
            service,
            min_latency,
            exact,
            input_driven: class != RateClass::Source,
        };
    }
    if let Some(source) = sim_source {
        return interpreted_model(source);
    }
    // Unreachable for graphs the flattener accepted, but stay total.
    ServiceModel {
        class: RateClass::Opaque,
        service: 1.0,
        min_latency: 1,
        exact: false,
        input_driven: true,
    }
}

/// Derives a service model from an interpreted simulation block by
/// statically scanning its handlers.
///
/// The scan is deliberately one-sided: it must never *under*-estimate
/// what the component can sustain (the differential dominance check
/// depends on the bound staying above the measured rate), so every
/// data-dependent construct resolves toward "faster".
///
/// * `delay(n)` with a constant `n` stretches a firing; the minimum
///   over handlers and `if` branches bounds the firing rate from
///   above by `1 / max(1, min_delay)`.
/// * `send` counts per firing multiply the rate, using the *maximum*
///   over branches; `for` loops with constant bounds multiply by the
///   iteration count, non-constant bounds make the port unbounded
///   (rate capped at 1.0, the physical per-cycle channel limit).
/// * Non-constant delays count as zero.
fn interpreted_model(source: &str) -> ServiceModel {
    let Ok(block) = tydi_lang::parse_simulation(source) else {
        // Malformed blocks are rejected later by the simulator; keep
        // the analysis total with the loosest sound model.
        return ServiceModel {
            class: RateClass::Interpreted,
            service: 1.0,
            min_latency: 1,
            exact: false,
            input_driven: false,
        };
    };
    let (service, min_delay) = scan_block(&block);
    // Output rates are bounded by input rates only if every sending
    // handler needs an input packet to fire.
    let input_driven = block.handlers.iter().all(|handler| {
        max_sends_of(&handler.actions) == SendCount::Known(0)
            || !handler.event.recv_ports().is_empty()
    });
    ServiceModel {
        class: RateClass::Interpreted,
        service,
        // A firing spans at least one commit cycle plus its delays.
        min_latency: 1 + min_delay,
        exact: false,
        input_driven,
    }
}

/// Scans a parsed simulation block: returns `(service, min_delay)`
/// where `service` bounds the per-output transfer rate and `min_delay`
/// is the smallest internal `delay(..)` total any firing can take.
fn scan_block(block: &SimBlock) -> (f64, u64) {
    let mut best_rate: f64 = 0.0;
    let mut min_delay: u64 = u64::MAX;
    for handler in &block.handlers {
        let delay = min_delay_of(&handler.actions);
        let sends = max_sends_of(&handler.actions);
        min_delay = min_delay.min(delay);
        let per_firing = match sends {
            SendCount::Known(0) => continue,
            SendCount::Known(n) => n as f64,
            SendCount::Unbounded => f64::INFINITY,
        };
        best_rate = best_rate.max(per_firing / (1 + delay) as f64);
    }
    if min_delay == u64::MAX {
        min_delay = 0;
    }
    // A channel moves at most one packet per cycle end-to-end, so the
    // physical cap closes the unbounded cases.
    (best_rate.min(1.0), min_delay)
}

/// The number of `send` actions a single firing can perform on its
/// busiest port, maximized over control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendCount {
    Known(u64),
    Unbounded,
}

impl SendCount {
    fn add(self, other: SendCount) -> SendCount {
        match (self, other) {
            (SendCount::Known(a), SendCount::Known(b)) => SendCount::Known(a + b),
            _ => SendCount::Unbounded,
        }
    }

    fn max(self, other: SendCount) -> SendCount {
        match (self, other) {
            (SendCount::Known(a), SendCount::Known(b)) => SendCount::Known(a.max(b)),
            _ => SendCount::Unbounded,
        }
    }

    fn times(self, factor: Option<u64>) -> SendCount {
        match (self, factor) {
            (SendCount::Known(0), _) => SendCount::Known(0),
            (SendCount::Known(a), Some(f)) => SendCount::Known(a * f),
            _ => SendCount::Unbounded,
        }
    }
}

fn const_expr(expr: &SimExpr) -> Option<i64> {
    match expr {
        SimExpr::Int(v) => Some(*v),
        SimExpr::Neg(inner) => const_expr(inner).map(|v| -v),
        _ => None,
    }
}

/// Minimum total `delay(..)` cycles along any control path.
fn min_delay_of(actions: &[SimAction]) -> u64 {
    let mut total = 0u64;
    for action in actions {
        match action {
            SimAction::Delay(expr) => {
                // Non-constant delays could be zero at runtime, so
                // they contribute nothing to the lower bound.
                total += const_expr(expr).map(|v| v.max(0) as u64).unwrap_or(0);
            }
            SimAction::If {
                then_actions,
                else_actions,
                ..
            } => {
                total += min_delay_of(then_actions).min(min_delay_of(else_actions));
            }
            SimAction::For {
                start, end, body, ..
            } => {
                let iterations = match (const_expr(start), const_expr(end)) {
                    (Some(a), Some(b)) if b > a => (b - a) as u64,
                    (Some(_), Some(_)) => 0,
                    // Unknown trip count: could be zero.
                    _ => 0,
                };
                total += iterations * min_delay_of(body);
            }
            _ => {}
        }
    }
    total
}

/// Maximum `send` count on the busiest single port along any control
/// path.
fn max_sends_of(actions: &[SimAction]) -> SendCount {
    let mut per_port: HashMap<&str, SendCount> = HashMap::new();
    collect_sends(actions, &mut per_port);
    per_port
        .into_values()
        .fold(SendCount::Known(0), SendCount::max)
}

fn collect_sends<'a>(actions: &'a [SimAction], per_port: &mut HashMap<&'a str, SendCount>) {
    for action in actions {
        match action {
            SimAction::Send { port, .. } => {
                let entry = per_port.entry(port).or_insert(SendCount::Known(0));
                *entry = entry.add(SendCount::Known(1));
            }
            SimAction::If {
                then_actions,
                else_actions,
                ..
            } => {
                let mut then_sends = HashMap::new();
                let mut else_sends = HashMap::new();
                collect_sends(then_actions, &mut then_sends);
                collect_sends(else_actions, &mut else_sends);
                for (port, count) in then_sends {
                    let other = else_sends.remove(port).unwrap_or(SendCount::Known(0));
                    let entry = per_port.entry(port).or_insert(SendCount::Known(0));
                    *entry = entry.add(count.max(other));
                }
                for (port, count) in else_sends {
                    let entry = per_port.entry(port).or_insert(SendCount::Known(0));
                    *entry = entry.add(count);
                }
            }
            SimAction::For {
                start, end, body, ..
            } => {
                let factor = match (const_expr(start), const_expr(end)) {
                    (Some(a), Some(b)) if b > a => Some((b - a) as u64),
                    (Some(_), Some(_)) => Some(0),
                    _ => None,
                };
                let mut body_sends = HashMap::new();
                collect_sends(body, &mut body_sends);
                for (port, count) in body_sends {
                    let entry = per_port.entry(port).or_insert(SendCount::Known(0));
                    *entry = entry.add(count.times(factor));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(source: &str) -> ServiceModel {
        interpreted_model(source)
    }

    #[test]
    fn builtin_classification_covers_registry() {
        let join = service_model(Some("std.add"), None, None);
        assert_eq!(join.class, RateClass::Join);
        assert!(join.exact);
        assert_eq!(join.service, 0.5);
        let merge = service_model(Some("std.mux"), None, None);
        assert_eq!(merge.class, RateClass::Merge);
        let unknown = service_model(Some("std.future_op"), None, None);
        assert_eq!(unknown.class, RateClass::Opaque);
        assert!(!unknown.exact);
    }

    #[test]
    fn builtin_latency_slows_service() {
        let mut implementation =
            Implementation::external("slow_add_i", "s").with_builtin("std.add");
        implementation
            .attributes
            .insert("param_latency".into(), "8".into());
        let model = service_model(Some("std.add"), None, Some(&implementation));
        assert_eq!(model.service, 1.0 / 8.0);
        assert_eq!(model.min_latency, 7);
        // The default latency-1 operators still pay the two-phase
        // (pop, then release) cycle: half rate, one cycle of latency.
        let fast = Implementation::external("add_i", "s").with_builtin("std.add");
        let fast_model = service_model(Some("std.add"), None, Some(&fast));
        assert_eq!(fast_model.service, 0.5);
        assert_eq!(fast_model.min_latency, 1);
    }

    #[test]
    fn interpreted_delay_caps_rate() {
        let model = model_of("on (i.recv) { delay(4); send(o, i.data); ack(i); }");
        assert_eq!(model.class, RateClass::Interpreted);
        assert_eq!(model.service, 1.0 / 5.0);
        assert_eq!(model.min_latency, 5);
    }

    #[test]
    fn interpreted_branch_takes_fastest_path() {
        // One branch has no delay, so the sound upper bound is the
        // full rate.
        let model = model_of(
            "on (i.recv) { if (i.data > 0) { delay(9); } else { } send(o, i.data); ack(i); }",
        );
        assert_eq!(model.service, 1.0);
        assert_eq!(model.min_latency, 1);
    }

    #[test]
    fn interpreted_multi_send_loops_count_iterations() {
        // Three sends per firing with delay 2 -> 3 transfers per 3
        // cycles, capped at the physical 1.0.
        let model = model_of("on (i.recv) { delay(2); for k in (0..3) { send(o, k); } ack(i); }");
        assert_eq!(model.service, 1.0);
        let slow = model_of("on (i.recv) { delay(5); for k in (0..3) { send(o, k); } ack(i); }");
        assert_eq!(slow.service, 0.5);
    }

    #[test]
    fn handler_without_sends_does_not_set_rate() {
        let model = model_of(
            "state st = \"idle\"; on (o.ack) { set_state(st, \"idle\"); } on (i.recv) { delay(3); send(o, i.data); ack(i); }",
        );
        assert_eq!(model.service, 0.25);
    }
}
