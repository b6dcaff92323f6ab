//! Flattening a hierarchical IR design into a simulation graph.
//!
//! Normal implementations are pure structure, so the simulator
//! recursively inlines them: every *external* implementation becomes a
//! leaf component, every connection becomes a bounded FIFO channel,
//! and the chosen top-level implementation's own ports become boundary
//! channels driven by stimulus feeders / observed by probes.

use crate::channel::Channel;
use std::collections::HashMap;
use std::sync::Arc;
use tydi_ir::{ImplKind, PortDirection, Project};

/// One leaf component of the flattened design.
#[derive(Debug, Clone)]
pub struct ComponentNode {
    /// Hierarchical path, e.g. `top.pu_0.add`.
    pub path: String,
    /// The elaborated implementation name.
    pub impl_name: String,
    /// Builtin behaviour key, when bound.
    pub builtin: Option<String>,
    /// Simulation source, when attached.
    pub sim_source: Option<String>,
    /// Input port name to channel index.
    pub inputs: HashMap<String, usize>,
    /// Output port name to channel index.
    pub outputs: HashMap<String, usize>,
    /// True for components fabricated by the flattener itself
    /// (implicit feed-through wires): they have no project entry, so
    /// the engine must not try to look their IR up.
    pub synthetic: bool,
}

/// The flattened design.
#[derive(Debug, Clone)]
pub struct SimGraph {
    /// All channels; components and boundaries hold indices into this.
    pub channels: Vec<Channel>,
    /// All leaf components.
    pub components: Vec<ComponentNode>,
    /// Top-level input ports with the channels feeding the design.
    pub boundary_inputs: Vec<(String, usize)>,
    /// Top-level output ports with the channels leaving the design.
    pub boundary_outputs: Vec<(String, usize)>,
    /// Per-channel wake list: components that *read* the channel
    /// (stepped when the channel gains a packet).
    pub channel_sinks: Vec<Vec<usize>>,
    /// Per-channel wake list: components that *write* the channel
    /// (stepped when the channel gains credit).
    pub channel_sources: Vec<Vec<usize>>,
}

/// Errors while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The requested top-level implementation does not exist.
    UnknownTop(String),
    /// An IR inconsistency (the project should be validated first).
    Inconsistent(String),
    /// An external implementation has neither a builtin key nor
    /// simulation code, so it cannot be simulated.
    NoBehaviour(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTop(name) => write!(f, "unknown top implementation `{name}`"),
            GraphError::Inconsistent(msg) => write!(f, "inconsistent IR: {msg}"),
            GraphError::NoBehaviour(name) => write!(
                f,
                "external implementation `{name}` has neither a builtin key nor simulation code"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Flattens `top_impl` into a [`SimGraph`].
pub fn flatten(
    project: &Project,
    top_impl: &str,
    channel_capacity: usize,
) -> Result<SimGraph, GraphError> {
    let _span = tydi_obs::trace::span_named("tydi-sim", || format!("flatten:{top_impl}"));
    let implementation = project
        .implementation(top_impl)
        .ok_or_else(|| GraphError::UnknownTop(top_impl.to_string()))?;
    let streamlet = project
        .streamlet(&implementation.streamlet)
        .ok_or_else(|| GraphError::Inconsistent(format!("missing streamlet of `{top_impl}`")))?;

    let mut graph = SimGraph {
        channels: Vec::new(),
        components: Vec::new(),
        boundary_inputs: Vec::new(),
        boundary_outputs: Vec::new(),
        channel_sinks: Vec::new(),
        channel_sources: Vec::new(),
    };

    // Boundary channels for the top-level ports.
    let mut bindings: HashMap<Arc<str>, usize> = HashMap::new();
    for port in &streamlet.ports {
        let idx = graph.channels.len();
        graph.channels.push(Channel::new(
            format!("boundary.{}", port.name),
            channel_capacity,
        ));
        bindings.insert(Arc::clone(&port.name), idx);
        match port.direction {
            PortDirection::In => graph.boundary_inputs.push((port.name.to_string(), idx)),
            PortDirection::Out => graph.boundary_outputs.push((port.name.to_string(), idx)),
        }
    }

    inline(
        project,
        top_impl,
        "top",
        &bindings,
        channel_capacity,
        &mut graph,
        0,
    )?;

    // Wake lists, built once: the event-driven scheduler steps a
    // component only when one of its input channels gained a packet or
    // one of its output channels gained credit.
    graph.channel_sinks = vec![Vec::new(); graph.channels.len()];
    graph.channel_sources = vec![Vec::new(); graph.channels.len()];
    for (index, component) in graph.components.iter().enumerate() {
        for &channel in component.inputs.values() {
            let sinks = &mut graph.channel_sinks[channel];
            if !sinks.contains(&index) {
                sinks.push(index);
            }
        }
        for &channel in component.outputs.values() {
            let sources = &mut graph.channel_sources[channel];
            if !sources.contains(&index) {
                sources.push(index);
            }
        }
    }
    Ok(graph)
}

const MAX_DEPTH: usize = 64;

fn inline(
    project: &Project,
    impl_name: &str,
    path: &str,
    bindings: &HashMap<Arc<str>, usize>,
    channel_capacity: usize,
    graph: &mut SimGraph,
    depth: usize,
) -> Result<(), GraphError> {
    if depth > MAX_DEPTH {
        return Err(GraphError::Inconsistent(format!(
            "instantiation depth exceeds {MAX_DEPTH} at `{path}`"
        )));
    }
    let implementation = project
        .implementation(impl_name)
        .ok_or_else(|| GraphError::Inconsistent(format!("missing implementation `{impl_name}`")))?;
    let streamlet = project
        .streamlet(&implementation.streamlet)
        .ok_or_else(|| GraphError::Inconsistent(format!("missing streamlet of `{impl_name}`")))?;

    match &implementation.kind {
        ImplKind::External {
            builtin,
            sim_source,
        } => {
            if builtin.is_none() && sim_source.is_none() {
                return Err(GraphError::NoBehaviour(impl_name.to_string()));
            }
            let mut inputs = HashMap::new();
            let mut outputs = HashMap::new();
            for port in &streamlet.ports {
                let &channel = bindings.get(&port.name).ok_or_else(|| {
                    GraphError::Inconsistent(format!(
                        "port `{}` of `{path}` has no bound channel",
                        port.name
                    ))
                })?;
                match port.direction {
                    PortDirection::In => inputs.insert(port.name.to_string(), channel),
                    PortDirection::Out => outputs.insert(port.name.to_string(), channel),
                };
            }
            graph.components.push(ComponentNode {
                path: path.to_string(),
                impl_name: impl_name.to_string(),
                builtin: builtin.clone(),
                sim_source: sim_source.clone(),
                inputs,
                outputs,
                synthetic: false,
            });
        }
        ImplKind::Normal {
            instances,
            connections,
        } => {
            // Channel per connection; own-port endpoints reuse the
            // parent bindings.
            let mut instance_bindings: HashMap<&str, HashMap<Arc<str>, usize>> = HashMap::new();
            for instance in instances {
                instance_bindings.insert(&instance.name, HashMap::new());
            }
            for (index, connection) in connections.iter().enumerate() {
                let channel = match (&connection.source.instance, &connection.sink.instance) {
                    (None, None) => {
                        // Feed-through: bridge the two boundary
                        // channels with an implicit wire component.
                        let src = bindings[&connection.source.port];
                        let dst = bindings[&connection.sink.port];
                        let mut inputs = HashMap::new();
                        inputs.insert("i".to_string(), src);
                        let mut outputs = HashMap::new();
                        outputs.insert("o".to_string(), dst);
                        graph.components.push(ComponentNode {
                            path: format!("{path}.__wire{index}"),
                            impl_name: "__wire".to_string(),
                            builtin: Some("std.passthrough".to_string()),
                            sim_source: None,
                            inputs,
                            outputs,
                            synthetic: true,
                        });
                        continue;
                    }
                    (None, Some(_)) => bindings[&connection.source.port],
                    (Some(_), None) => bindings[&connection.sink.port],
                    (Some(_), Some(_)) => {
                        let idx = graph.channels.len();
                        graph.channels.push(Channel::new(
                            format!("{path}.{}", connection.describe()),
                            channel_capacity,
                        ));
                        idx
                    }
                };
                for endpoint in [&connection.source, &connection.sink] {
                    if let Some(instance_name) = &endpoint.instance {
                        instance_bindings
                            .get_mut(&**instance_name)
                            .ok_or_else(|| {
                                GraphError::Inconsistent(format!(
                                    "unknown instance `{instance_name}` in `{impl_name}`"
                                ))
                            })?
                            .insert(endpoint.port.clone(), channel);
                    }
                }
            }
            for instance in instances {
                let child_bindings = &instance_bindings[&*instance.name];
                inline(
                    project,
                    &instance.impl_name,
                    &format!("{path}.{}", instance.name),
                    child_bindings,
                    channel_capacity,
                    graph,
                    depth + 1,
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_ir::{Connection, EndpointRef, Implementation, Instance, Port, Streamlet};
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    fn nested_project() -> Project {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("leaf_i", "pass_s").with_builtin("std.passthrough"),
        )
        .unwrap();
        // mid_i wraps one leaf; top_i wraps two mids in series.
        let mut mid = Implementation::normal("mid_i", "pass_s");
        mid.add_instance(Instance::new("inner", "leaf_i"));
        mid.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("inner", "i"),
        ));
        mid.add_connection(Connection::new(
            EndpointRef::instance("inner", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(mid).unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("a", "mid_i"));
        top.add_instance(Instance::new("b", "mid_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("a", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("a", "o"),
            EndpointRef::instance("b", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("b", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        p
    }

    #[test]
    fn flattens_two_levels() {
        let p = nested_project();
        p.validate().unwrap();
        let g = flatten(&p, "top_i", 2).unwrap();
        // Two leaf components, fully inlined through mid_i.
        assert_eq!(g.components.len(), 2);
        assert_eq!(g.components[0].path, "top.a.inner");
        assert_eq!(g.components[1].path, "top.b.inner");
        assert_eq!(g.boundary_inputs.len(), 1);
        assert_eq!(g.boundary_outputs.len(), 1);
        // Boundary in/out + 1 inter-instance channel = 3.
        assert_eq!(g.channels.len(), 3);
        // a.inner's input is the boundary input channel.
        assert_eq!(g.components[0].inputs["i"], g.boundary_inputs[0].1);
        // a.inner output and b.inner input share the middle channel.
        assert_eq!(g.components[0].outputs["o"], g.components[1].inputs["i"]);
        assert_eq!(g.components[1].outputs["o"], g.boundary_outputs[0].1);
    }

    #[test]
    fn wake_lists_map_channels_to_components() {
        let p = nested_project();
        let g = flatten(&p, "top_i", 2).unwrap();
        // Every component input channel lists the component as sink,
        // every output channel as source.
        for (index, component) in g.components.iter().enumerate() {
            for &channel in component.inputs.values() {
                assert!(g.channel_sinks[channel].contains(&index));
            }
            for &channel in component.outputs.values() {
                assert!(g.channel_sources[channel].contains(&index));
            }
        }
        // The middle channel of the two-leaf chain has exactly one
        // source (a.inner) and one sink (b.inner).
        let middle = g.components[0].outputs["o"];
        assert_eq!(g.channel_sources[middle], vec![0]);
        assert_eq!(g.channel_sinks[middle], vec![1]);
        // The boundary input is read by the first leaf only.
        assert_eq!(g.channel_sinks[g.boundary_inputs[0].1], vec![0]);
        assert!(g.channel_sources[g.boundary_inputs[0].1].is_empty());
    }

    #[test]
    fn feedthrough_becomes_wire_component() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut wire = Implementation::normal("wire_i", "pass_s");
        wire.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(wire).unwrap();
        let g = flatten(&p, "wire_i", 2).unwrap();
        assert_eq!(g.components.len(), 1);
        assert_eq!(g.components[0].builtin.as_deref(), Some("std.passthrough"));
        assert!(g.components[0].synthetic);
    }

    #[test]
    fn unknown_top_errors() {
        let p = nested_project();
        assert!(matches!(
            flatten(&p, "ghost", 2),
            Err(GraphError::UnknownTop(_))
        ));
    }

    #[test]
    fn behaviourless_external_rejected() {
        let mut p = Project::new("t");
        p.add_streamlet(Streamlet::new("s").with_port(Port::new(
            "i",
            PortDirection::In,
            stream8(),
        )))
        .unwrap();
        p.add_implementation(Implementation::external("dead_i", "s"))
            .unwrap();
        assert!(matches!(
            flatten(&p, "dead_i", 2),
            Err(GraphError::NoBehaviour(_))
        ));
    }
}
