//! The component model: streamlets, ports, implementations, instances
//! and connections.
//!
//! The names the structure is wired by — port names, instance names,
//! the implementation an instance realizes, and both ends of every
//! connection — are shared `Arc<str>`s. The elaborator allocates each
//! distinct name once and every later reference clones the `Arc`: an
//! endpoint shares its instance's name and its port's name, and every
//! instance of one implementation shares that implementation's name.
//! Cloning a project (the elaboration cache keeps one) therefore bumps
//! reference counts instead of copying name bytes.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use tydi_spec::{ClockDomain, LogicalType};

/// Direction of a port as seen from outside the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Data enters the component.
    In,
    /// Data leaves the component.
    Out,
}

impl PortDirection {
    /// The opposite direction.
    pub fn flip(self) -> PortDirection {
        match self {
            PortDirection::In => PortDirection::Out,
            PortDirection::Out => PortDirection::In,
        }
    }
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDirection::In => write!(f, "in"),
            PortDirection::Out => write!(f, "out"),
        }
    }
}

/// A typed hardware port (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name, unique within its streamlet.
    pub name: Arc<str>,
    /// Data direction.
    pub direction: PortDirection,
    /// The logical stream type carried by this port.
    pub ty: Arc<LogicalType>,
    /// Clock domain driving the port's handshake.
    pub clock: ClockDomain,
    /// The fully-qualified Tydi-lang declaration this type came from,
    /// used for the strict type equality design-rule check. `None` for
    /// anonymous types, which always compare structurally.
    pub type_origin: Option<Arc<str>>,
}

impl Port {
    /// Creates a port on the default clock domain with no origin.
    pub fn new(name: impl Into<Arc<str>>, direction: PortDirection, ty: LogicalType) -> Self {
        Port::from_arc(name, direction, Arc::new(ty))
    }

    /// Creates a port sharing an already-allocated type.
    ///
    /// The elaborator hands every port the canonical `Arc` from its
    /// hash-consed type store, so structurally equal ports share one
    /// allocation — which is what lets the DRC and the fingerprint
    /// layer use `Arc::ptr_eq` fast paths instead of deep compares.
    pub fn from_arc(
        name: impl Into<Arc<str>>,
        direction: PortDirection,
        ty: Arc<LogicalType>,
    ) -> Self {
        Port {
            name: name.into(),
            direction,
            ty,
            clock: ClockDomain::default(),
            type_origin: None,
        }
    }

    /// Sets the clock domain.
    pub fn with_clock(mut self, clock: ClockDomain) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the declaration origin used for strict type equality.
    pub fn with_origin(mut self, origin: impl Into<Arc<str>>) -> Self {
        self.type_origin = Some(origin.into());
        self
    }
}

/// A streamlet: the port map of a component (paper Table I; analogous
/// to a VHDL entity).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Streamlet {
    /// Streamlet name, unique within the project.
    pub name: String,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Documentation attached to the declaration.
    pub doc: String,
}

impl Streamlet {
    /// Creates an empty streamlet.
    pub fn new(name: impl Into<String>) -> Self {
        Streamlet {
            name: name.into(),
            ports: Vec::new(),
            doc: String::new(),
        }
    }

    /// Adds a port (builder style).
    pub fn with_port(mut self, port: Port) -> Self {
        self.ports.push(port);
        self
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| &*p.name == name)
    }
}

/// A nested implementation instance (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the implementation.
    pub name: Arc<str>,
    /// Name of the implementation being instantiated, shared by every
    /// instance of it.
    pub impl_name: Arc<str>,
    /// Documentation attached to the instance.
    pub doc: String,
}

impl Instance {
    /// Creates an instance.
    pub fn new(name: impl Into<Arc<str>>, impl_name: impl Into<Arc<str>>) -> Self {
        Instance {
            name: name.into(),
            impl_name: impl_name.into(),
            doc: String::new(),
        }
    }
}

/// One endpoint of a connection: either a port of the surrounding
/// implementation (`instance == None`) or a port of a nested instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointRef {
    /// The instance owning the port, or `None` for the implementation's
    /// own ports.
    pub instance: Option<Arc<str>>,
    /// Port name.
    pub port: Arc<str>,
}

impl EndpointRef {
    /// An endpoint on the implementation's own port map.
    pub fn own(port: impl Into<Arc<str>>) -> Self {
        EndpointRef {
            instance: None,
            port: port.into(),
        }
    }

    /// An endpoint on a nested instance.
    pub fn instance(instance: impl Into<Arc<str>>, port: impl Into<Arc<str>>) -> Self {
        EndpointRef {
            instance: Some(instance.into()),
            port: port.into(),
        }
    }
}

impl EndpointRef {
    /// Length of the display form (`inst.port`, or `.port` for an own
    /// port).
    fn display_len(&self) -> usize {
        self.instance.as_deref().map_or(0, str::len) + 1 + self.port.len()
    }
}

impl fmt::Display for EndpointRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.instance {
            Some(inst) => write!(f, "{inst}.{}", self.port),
            None => write!(f, ".{}", self.port),
        }
    }
}

/// A connection between two compatible ports (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// The data source endpoint.
    pub source: EndpointRef,
    /// The data sink endpoint.
    pub sink: EndpointRef,
    /// When true, the strict (by-declaration) type equality check is
    /// relaxed to structural equality (the paper's extra attribute for
    /// disabling strict checking).
    pub relax_type_check: bool,
    /// Marks connections synthesized by the sugaring passes, so reports
    /// can distinguish user code from inferred code.
    pub inserted_by_sugar: bool,
}

impl Connection {
    /// Creates a strict connection.
    pub fn new(source: EndpointRef, sink: EndpointRef) -> Self {
        Connection {
            source,
            sink,
            relax_type_check: false,
            inserted_by_sugar: false,
        }
    }

    /// Relaxes strict type checking on this connection.
    pub fn relaxed(mut self) -> Self {
        self.relax_type_check = true;
        self
    }

    /// A short display name used in diagnostics and generated-code
    /// comments: `source => sink`.
    pub fn describe(&self) -> String {
        let mut text = String::with_capacity(
            self.source.display_len() + " => ".len() + self.sink.display_len(),
        );
        let _ = write!(text, "{} => {}", self.source, self.sink);
        text
    }
}

/// The body of an implementation.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplKind {
    /// A structural body: instances plus connections.
    Normal {
        /// Nested instances in declaration order.
        instances: Vec<Instance>,
        /// Connections in declaration order.
        connections: Vec<Connection>,
    },
    /// A black box. `builtin` names a registered RTL/behaviour
    /// generator (standard-library components, paper §IV-C);
    /// `sim_source` carries event-driven simulation code (paper §V-A).
    External {
        /// Builtin generator key, e.g. `"std.duplicator"`.
        builtin: Option<String>,
        /// Tydi-lang simulation source attached to the impl.
        sim_source: Option<String>,
    },
}

impl ImplKind {
    /// An empty normal body.
    pub fn empty_normal() -> Self {
        ImplKind::Normal {
            instances: Vec::new(),
            connections: Vec::new(),
        }
    }
}

/// An implementation: the inner structure of a component (paper
/// Table I; analogous to a VHDL architecture bound to its entity).
#[derive(Debug, Clone, PartialEq)]
pub struct Implementation {
    /// Implementation name, unique within the project.
    pub name: String,
    /// The streamlet whose port map this implementation realizes.
    pub streamlet: String,
    /// The body.
    pub kind: ImplKind,
    /// Documentation attached to the declaration.
    pub doc: String,
    /// Free-form attributes (e.g. `NoTypeCheck`).
    pub attributes: BTreeMap<String, String>,
}

impl Implementation {
    /// Creates a normal (structural) implementation with an empty body.
    pub fn normal(name: impl Into<String>, streamlet: impl Into<String>) -> Self {
        Implementation {
            name: name.into(),
            streamlet: streamlet.into(),
            kind: ImplKind::empty_normal(),
            doc: String::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Creates an external implementation.
    pub fn external(name: impl Into<String>, streamlet: impl Into<String>) -> Self {
        Implementation {
            name: name.into(),
            streamlet: streamlet.into(),
            kind: ImplKind::External {
                builtin: None,
                sim_source: None,
            },
            doc: String::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Sets the builtin generator key (external impls only).
    pub fn with_builtin(mut self, key: impl Into<String>) -> Self {
        if let ImplKind::External { builtin, .. } = &mut self.kind {
            *builtin = Some(key.into());
        }
        self
    }

    /// Sets the simulation source (external impls only).
    pub fn with_sim_source(mut self, src: impl Into<String>) -> Self {
        if let ImplKind::External { sim_source, .. } = &mut self.kind {
            *sim_source = Some(src.into());
        }
        self
    }

    /// Adds an instance to a normal implementation.
    ///
    /// # Panics
    /// Panics when called on an external implementation.
    pub fn add_instance(&mut self, instance: Instance) {
        match &mut self.kind {
            ImplKind::Normal { instances, .. } => instances.push(instance),
            ImplKind::External { .. } => panic!("cannot add instances to an external impl"),
        }
    }

    /// Adds a connection to a normal implementation.
    ///
    /// # Panics
    /// Panics when called on an external implementation.
    pub fn add_connection(&mut self, connection: Connection) {
        match &mut self.kind {
            ImplKind::Normal { connections, .. } => connections.push(connection),
            ImplKind::External { .. } => panic!("cannot add connections to an external impl"),
        }
    }

    /// Returns the instances of a normal body (empty for external).
    pub fn instances(&self) -> &[Instance] {
        match &self.kind {
            ImplKind::Normal { instances, .. } => instances,
            ImplKind::External { .. } => &[],
        }
    }

    /// Returns the connections of a normal body (empty for external).
    pub fn connections(&self) -> &[Connection] {
        match &self.kind {
            ImplKind::Normal { connections, .. } => connections,
            ImplKind::External { .. } => &[],
        }
    }

    /// True for external (black-box) implementations.
    pub fn is_external(&self) -> bool {
        matches!(self.kind, ImplKind::External { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_spec::StreamParams;

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    #[test]
    fn port_builder() {
        let p = Port::new("in0", PortDirection::In, stream8())
            .with_clock(ClockDomain::new("mem"))
            .with_origin("pack.Input");
        assert_eq!(p.clock.name(), "mem");
        assert_eq!(p.type_origin.as_deref(), Some("pack.Input"));
    }

    #[test]
    fn direction_flip() {
        assert_eq!(PortDirection::In.flip(), PortDirection::Out);
        assert_eq!(PortDirection::Out.flip(), PortDirection::In);
    }

    #[test]
    fn streamlet_port_lookup() {
        let s = Streamlet::new("s")
            .with_port(Port::new("a", PortDirection::In, stream8()))
            .with_port(Port::new("b", PortDirection::Out, stream8()));
        assert!(s.port("a").is_some());
        assert!(s.port("c").is_none());
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(EndpointRef::own("x").to_string(), ".x");
        assert_eq!(EndpointRef::instance("a", "x").to_string(), "a.x");
    }

    #[test]
    fn impl_body_accessors() {
        let mut i = Implementation::normal("top_i", "top_s");
        i.add_instance(Instance::new("a", "adder_i"));
        i.add_connection(Connection::new(
            EndpointRef::own("in0"),
            EndpointRef::instance("a", "in0"),
        ));
        assert_eq!(i.instances().len(), 1);
        assert_eq!(i.connections().len(), 1);
        assert!(!i.is_external());

        let e = Implementation::external("dup", "dup_s").with_builtin("std.duplicator");
        assert!(e.is_external());
        assert!(e.instances().is_empty());
        match &e.kind {
            ImplKind::External { builtin, .. } => {
                assert_eq!(builtin.as_deref(), Some("std.duplicator"))
            }
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "external")]
    fn external_rejects_instances() {
        let mut e = Implementation::external("x", "s");
        e.add_instance(Instance::new("a", "b"));
    }

    #[test]
    fn connection_describe() {
        let c = Connection::new(EndpointRef::own("a"), EndpointRef::instance("i", "b"));
        let described = c.describe();
        assert_eq!(described, ".a => i.b");
        assert_eq!(described, format!("{} => {}", c.source, c.sink));
        assert_eq!(described.capacity(), described.len());
    }
}
