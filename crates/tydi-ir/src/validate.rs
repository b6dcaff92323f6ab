//! Design-rule checks on Tydi-IR projects.
//!
//! These re-verify, at the IR level, the rules the Tydi-lang frontend
//! already enforces (paper §III): connected ports carry identical
//! logical types (strict by-declaration equality unless relaxed),
//! protocol complexities are compatible, directions are legal, clock
//! domains match, and every port is used exactly once.
//!
//! The checks run over the shared [`ProjectIndex`]: streamlet and
//! implementation references are resolved to
//! [`StreamletId`]/[`ImplId`] array indices and every port map gets a
//! name→port hash index, so no check walks a definition list
//! linearly. The pipeline builds that index once right after
//! elaboration and passes it in via [`validate_project_with`];
//! [`validate_project`] builds a fresh one for standalone callers.

use crate::component::{Connection, EndpointRef, ImplKind, Implementation, PortDirection};
use crate::error::IrError;
use crate::index::ProjectIndex;
use crate::intern::{ImplId, StreamletId};
use crate::project::Project;
use std::collections::HashMap;
use std::sync::Arc;
use tydi_spec::{Complexity, LogicalType};

/// Runs every check and collects all violations, building a fresh
/// [`ProjectIndex`] for this run.
pub fn validate_project(project: &Project) -> Vec<IrError> {
    validate_project_with(project, &ProjectIndex::build(project))
}

/// Runs every check over an already-built [`ProjectIndex`] (the
/// pipeline's shared one) and collects all violations.
///
/// # Panics
/// Panics when the index does not cover every definition of the
/// project (a stale index would silently mis-resolve references).
pub fn validate_project_with(project: &Project, index: &ProjectIndex) -> Vec<IrError> {
    assert!(
        index.covers(project),
        "stale ProjectIndex: register definitions appended after build"
    );
    let mut errors = Vec::new();
    for streamlet in project.streamlets() {
        validate_streamlet(streamlet, &mut errors);
    }
    for (impl_id, implementation) in project.implementations_with_ids() {
        let _span =
            tydi_obs::trace::span_named("tydi-ir", || format!("drc:{}", implementation.name));
        validate_implementation(project, index, impl_id, implementation, &mut errors);
    }
    errors
}

fn validate_streamlet(streamlet: &crate::component::Streamlet, errors: &mut Vec<IrError>) {
    let mut seen: HashMap<&str, ()> = HashMap::new();
    for port in &streamlet.ports {
        if seen.insert(&port.name, ()).is_some() {
            errors.push(IrError::DuplicateDefinition {
                kind: "port",
                name: format!("{}.{}", streamlet.name, port.name),
            });
        }
        if !matches!(*port.ty, LogicalType::Stream { .. }) {
            errors.push(IrError::PortNotStream {
                streamlet: streamlet.name.clone(),
                port: port.name.clone(),
            });
        }
        if let Err(e) = port.ty.validate() {
            errors.push(e.into());
        }
    }
}

/// Per-implementation context: the shared index plus this
/// implementation's resolved ids, so endpoint resolution never scans.
struct ImplCtx<'a> {
    project: &'a Project,
    index: &'a ProjectIndex,
    implementation: &'a Implementation,
    /// Id of this implementation (keys the index's instance table).
    impl_id: ImplId,
    /// Id of the streamlet this implementation realizes.
    own: StreamletId,
}

/// The resolved view of one connection endpoint.
struct ResolvedEndpoint<'a> {
    port: &'a crate::component::Port,
    /// True when this endpoint produces data *inside* the
    /// implementation body (own `in` ports and instance `out` ports).
    acts_as_source: bool,
}

fn resolve_endpoint<'a>(
    ctx: &ImplCtx<'a>,
    endpoint: &EndpointRef,
    errors: &mut Vec<IrError>,
) -> Option<ResolvedEndpoint<'a>> {
    match &endpoint.instance {
        None => match ctx.index.port(ctx.project, ctx.own, &endpoint.port) {
            Some(port) => Some(ResolvedEndpoint {
                port,
                // An `in` port of the enclosing streamlet supplies
                // data to the body.
                acts_as_source: port.direction == PortDirection::In,
            }),
            None => {
                errors.push(IrError::Unresolved {
                    kind: "port",
                    name: endpoint.to_string(),
                    context: format!("implementation `{}`", ctx.implementation.name),
                });
                None
            }
        },
        Some(instance_name) => {
            let Some(instance) = ctx.index.instance(ctx.project, ctx.impl_id, instance_name) else {
                errors.push(IrError::Unresolved {
                    kind: "instance",
                    name: instance_name.clone(),
                    context: format!("implementation `{}`", ctx.implementation.name),
                });
                return None;
            };
            // Missing impl reported separately by instance checks.
            let streamlet = ctx
                .index
                .streamlet_of_impl_name(ctx.project, &instance.impl_name)?;
            match ctx.index.port(ctx.project, streamlet, &endpoint.port) {
                Some(port) => Some(ResolvedEndpoint {
                    port,
                    // An instance's `out` port supplies data to the body.
                    acts_as_source: port.direction == PortDirection::Out,
                }),
                None => {
                    errors.push(IrError::Unresolved {
                        kind: "port",
                        name: endpoint.to_string(),
                        context: format!("implementation `{}`", ctx.implementation.name),
                    });
                    None
                }
            }
        }
    }
}

fn top_complexity(ty: &LogicalType) -> Option<Complexity> {
    match ty {
        LogicalType::Stream { params, .. } => Some(params.complexity),
        _ => None,
    }
}

fn validate_implementation(
    project: &Project,
    index: &ProjectIndex,
    impl_id: ImplId,
    implementation: &Implementation,
    errors: &mut Vec<IrError>,
) {
    let Some(own) = index.streamlet_of_impl(impl_id) else {
        errors.push(IrError::Unresolved {
            kind: "streamlet",
            name: implementation.streamlet.clone(),
            context: format!("implementation `{}`", implementation.name),
        });
        return;
    };
    let ImplKind::Normal {
        instances,
        connections,
    } = &implementation.kind
    else {
        return;
    };

    // Instance names unique, implementation references resolvable;
    // the shared index then backs every endpoint resolution (first
    // declaration wins on duplicate names).
    let ctx = ImplCtx {
        project,
        index,
        implementation,
        impl_id,
        own,
    };
    for (position, instance) in instances.iter().enumerate() {
        if index.instance_position(impl_id, &instance.name) != Some(position) {
            errors.push(IrError::DuplicateDefinition {
                kind: "instance",
                name: format!("{}.{}", implementation.name, instance.name),
            });
        }
        if project.implementation_id(&instance.impl_name).is_none() {
            errors.push(IrError::Unresolved {
                kind: "implementation",
                name: instance.impl_name.clone(),
                context: format!(
                    "instance `{}` of implementation `{}`",
                    instance.name, implementation.name
                ),
            });
        }
    }

    let relax_all = implementation.attributes.contains_key("NoStrictType");
    let mut usage: HashMap<&EndpointRef, usize> = HashMap::with_capacity(connections.len() * 2);

    for connection in connections {
        validate_connection(&ctx, connection, relax_all, errors);
        *usage.entry(&connection.source).or_insert(0) += 1;
        *usage.entry(&connection.sink).or_insert(0) += 1;
    }

    // Port usage rule: every own port and every instance port must be
    // used exactly once (paper DRC rule 2). Sugaring must already have
    // inserted duplicators/voiders before this check.
    if !implementation.attributes.contains_key("NoPortUsageCheck") {
        let check = |endpoint: EndpointRef, errors: &mut Vec<IrError>| {
            let uses = usage.get(&endpoint).copied().unwrap_or(0);
            if uses != 1 {
                errors.push(IrError::PortUsage {
                    implementation: implementation.name.clone(),
                    endpoint: endpoint.to_string(),
                    uses,
                });
            }
        };
        for port in &project.streamlet_by_id(own).ports {
            check(EndpointRef::own(port.name.clone()), errors);
        }
        for instance in instances {
            // Resolve through the first-declared instance of this
            // name, mirroring endpoint resolution on duplicates.
            let Some(canonical) = index.instance(project, impl_id, &instance.name) else {
                continue;
            };
            let Some(streamlet) = index.streamlet_of_impl_name(project, &canonical.impl_name)
            else {
                continue;
            };
            for port in &project.streamlet_by_id(streamlet).ports {
                check(
                    EndpointRef::instance(instance.name.clone(), port.name.clone()),
                    errors,
                );
            }
        }
    }
}

fn validate_connection(
    ctx: &ImplCtx<'_>,
    connection: &Connection,
    relax_all: bool,
    errors: &mut Vec<IrError>,
) {
    let implementation = ctx.implementation;
    let before = errors.len();
    let source = resolve_endpoint(ctx, &connection.source, errors);
    let sink = resolve_endpoint(ctx, &connection.sink, errors);
    if errors.len() > before {
        return;
    }
    let (Some(source), Some(sink)) = (source, sink) else {
        return;
    };

    if !source.acts_as_source || sink.acts_as_source {
        let message = match (source.acts_as_source, sink.acts_as_source) {
            (false, true) => "connection is reversed: swap source and sink".to_string(),
            (false, false) => format!(
                "`{}` cannot drive data (it is a sink inside this body)",
                connection.source
            ),
            _ => format!(
                "`{}` cannot receive data (it is a source inside this body)",
                connection.sink
            ),
        };
        errors.push(IrError::DirectionError {
            implementation: implementation.name.clone(),
            connection: connection.describe(),
            message,
        });
        return;
    }

    // Rule 1: identical logical types. Ports built by the elaborator
    // share the canonical `Arc` of their hash-consed type, so the
    // common (equal) case is a pointer compare; the deep structural
    // compare only runs for ports from other producers (e.g. projects
    // re-parsed from the IR text format) or on the failure path.
    if !Arc::ptr_eq(&source.port.ty, &sink.port.ty) && source.port.ty != sink.port.ty {
        errors.push(IrError::TypeMismatch {
            implementation: implementation.name.clone(),
            connection: connection.describe(),
            source_type: source.port.ty.to_string(),
            sink_type: sink.port.ty.to_string(),
        });
        return;
    }

    // Strict (by-declaration) equality, unless relaxed.
    if !connection.relax_type_check && !relax_all {
        if let (Some(src_origin), Some(dst_origin)) =
            (&source.port.type_origin, &sink.port.type_origin)
        {
            if src_origin != dst_origin {
                errors.push(IrError::StrictTypeMismatch {
                    implementation: implementation.name.clone(),
                    connection: connection.describe(),
                    source_origin: src_origin.clone(),
                    sink_origin: dst_origin.clone(),
                });
            }
        }
    }

    // Compatible protocol complexities.
    if let (Some(sc), Some(kc)) = (
        top_complexity(&source.port.ty),
        top_complexity(&sink.port.ty),
    ) {
        if !sc.compatible_with_sink(kc) {
            errors.push(IrError::ComplexityMismatch {
                implementation: implementation.name.clone(),
                connection: connection.describe(),
                source_complexity: sc.level(),
                sink_complexity: kc.level(),
            });
        }
    }

    // Same clock domain.
    if source.port.clock != sink.port.clock {
        errors.push(IrError::ClockDomainMismatch {
            implementation: implementation.name.clone(),
            connection: connection.describe(),
            source_domain: source.port.clock.name().to_string(),
            sink_domain: sink.port.clock.name().to_string(),
        });
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Instance, Port, Streamlet};
    use tydi_spec::{ClockDomain, StreamParams};

    fn stream(width: u32) -> LogicalType {
        LogicalType::stream(LogicalType::Bit(width), StreamParams::new())
    }

    fn stream_c(width: u32, c: u8) -> LogicalType {
        LogicalType::stream(
            LogicalType::Bit(width),
            StreamParams::new().with_complexity(Complexity::new(c).unwrap()),
        )
    }

    /// A pass-through streamlet and an external leaf impl.
    fn base_project() -> Project {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream(8)))
                .with_port(Port::new("o", PortDirection::Out, stream(8))),
        )
        .unwrap();
        p.add_implementation(Implementation::external("leaf_i", "pass_s"))
            .unwrap();
        p
    }

    fn wire_through(p: &mut Project) {
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("l", "leaf_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("l", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("l", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
    }

    #[test]
    fn valid_project_passes() {
        let mut p = base_project();
        wire_through(&mut p);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn non_stream_port_rejected() {
        let mut p = Project::new("t");
        p.add_streamlet(Streamlet::new("bad_s").with_port(Port::new(
            "x",
            PortDirection::In,
            LogicalType::Bit(8),
        )))
        .unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::PortNotStream { .. })));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut p = base_project();
        p.add_streamlet(
            Streamlet::new("wide_s")
                .with_port(Port::new("i", PortDirection::In, stream(16)))
                .with_port(Port::new("o", PortDirection::Out, stream(16))),
        )
        .unwrap();
        p.add_implementation(Implementation::external("wide_i", "wide_s"))
            .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.attributes
            .insert("NoPortUsageCheck".into(), String::new());
        top.add_instance(Instance::new("w", "wide_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("w", "i"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::TypeMismatch { .. })));
    }

    #[test]
    fn strict_type_origin_mismatch_detected_and_relaxable() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream(8)).with_origin("pack.TypeA"))
                .with_port(Port::new("o", PortDirection::Out, stream(8)).with_origin("pack.TypeB")),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "s");
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::StrictTypeMismatch { .. })));

        // Same design with a relaxed connection is clean.
        let mut p2 = Project::new("t");
        p2.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream(8)).with_origin("pack.TypeA"))
                .with_port(Port::new("o", PortDirection::Out, stream(8)).with_origin("pack.TypeB")),
        )
        .unwrap();
        let mut top2 = Implementation::normal("top_i", "s");
        top2.add_connection(
            Connection::new(EndpointRef::own("i"), EndpointRef::own("o")).relaxed(),
        );
        p2.add_implementation(top2).unwrap();
        assert_eq!(p2.validate(), Ok(()));
    }

    #[test]
    fn complexity_incompatibility_detected() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream_c(8, 7)))
                .with_port(Port::new("o", PortDirection::Out, stream_c(8, 7))),
        )
        .unwrap();
        p.add_streamlet(
            Streamlet::new("lo_s")
                .with_port(Port::new("i", PortDirection::In, stream_c(8, 2)))
                .with_port(Port::new("o", PortDirection::Out, stream_c(8, 2))),
        )
        .unwrap();
        p.add_implementation(Implementation::external("lo_i", "lo_s"))
            .unwrap();
        let mut top = Implementation::normal("top_i", "s");
        top.attributes
            .insert("NoPortUsageCheck".into(), String::new());
        top.add_instance(Instance::new("l", "lo_i"));
        // C=7 source into C=2 sink: illegal, but types also differ, so
        // use identical types with different complexity via sink port.
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("l", "i"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        // Types differ (complexity is part of the type), so expect a
        // type mismatch; the dedicated complexity check fires when the
        // frontend relaxes types but keeps complexity metadata.
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::TypeMismatch { .. })));
    }

    #[test]
    fn clock_domain_mismatch_detected() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream(8)))
                .with_port(
                    Port::new("o", PortDirection::Out, stream(8))
                        .with_clock(ClockDomain::new("mem")),
                ),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "s");
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::ClockDomainMismatch { .. })));
    }

    #[test]
    fn reversed_connection_detected() {
        let mut p = base_project();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("l", "leaf_i"));
        // Reversed: instance input as source, own input as sink.
        top.add_connection(Connection::new(
            EndpointRef::instance("l", "i"),
            EndpointRef::own("i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("l", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::DirectionError { .. })));
    }

    #[test]
    fn unused_port_detected() {
        let mut p = base_project();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("l", "leaf_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("l", "i"),
        ));
        // l.o and own o never used.
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        let usage_errors: Vec<_> = errs
            .iter()
            .filter(|e| matches!(e, IrError::PortUsage { .. }))
            .collect();
        assert_eq!(usage_errors.len(), 2);
    }

    #[test]
    fn double_use_detected() {
        let mut p = base_project();
        p.add_streamlet(
            Streamlet::new("two_s")
                .with_port(Port::new("i", PortDirection::In, stream(8)))
                .with_port(Port::new("o1", PortDirection::Out, stream(8)))
                .with_port(Port::new("o2", PortDirection::Out, stream(8))),
        )
        .unwrap();
        let mut top = Implementation::normal("fan_i", "two_s");
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o1"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o2"),
        ));
        p.add_implementation(top).unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, IrError::PortUsage { uses: 2, .. })));
    }

    #[test]
    fn unresolved_references_detected() {
        let mut p = Project::new("t");
        p.add_implementation(Implementation::normal("i", "ghost_s"))
            .unwrap();
        let errs = p.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            IrError::Unresolved {
                kind: "streamlet",
                ..
            }
        )));

        let mut p2 = base_project();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.attributes
            .insert("NoPortUsageCheck".into(), String::new());
        top.add_instance(Instance::new("g", "ghost_i"));
        p2.add_implementation(top).unwrap();
        let errs = p2.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            IrError::Unresolved {
                kind: "implementation",
                ..
            }
        )));
    }
}
