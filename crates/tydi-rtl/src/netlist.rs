//! The backend-neutral structural netlist.
//!
//! A [`Netlist`] is the contract between the Tydi-IR lowering (which
//! runs once, expanding typed stream ports into scalar/vector signals
//! and planning structural wiring) and the per-backend emitters
//! (which only render). Three module body shapes cover everything the
//! toolchain generates:
//!
//! * **structural** — net declarations, continuous wire-to-wire
//!   assignments, and instances with explicit port maps;
//! * **behavioral** — opaque per-backend text blocks produced by the
//!   builtin registry ("too elementary to be described as instances
//!   and connections", paper §IV-C);
//! * **black-box** — interface only, body supplied by an external
//!   tool.
//!
//! Comments are first-class items (not embedded `-- ` text) so each
//! emitter can render them with its own comment leader; the lowering
//! simply omits them when comments are disabled.
//!
//! Signals travel in bundles. A net ([`NetDecl`]) and an instance port
//! map entry ([`PortBinding`]) are each a prefix plus the suffix list
//! of the port they carry. The suffix list depends only on the port's
//! type and direction, so every net and binding of one port shares
//! it. Emitters expand a bundle into its signal names
//! ([`push_signal_name`]) as they render, and lowering allocates one
//! name per net, not one per signal.

use crate::names::Backend;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Direction of a module port, from the module's own perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Driven from outside.
    In,
    /// Driven by this module.
    Out,
}

/// One scalar (`width == 1`) or vector port of a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModulePort {
    /// Legalized signal name.
    pub name: String,
    /// Port direction.
    pub dir: PortDir,
    /// Width in bits; 1 renders as a scalar type.
    pub width: u32,
}

/// An entry of a module's port list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortItem {
    /// A comment line (without comment leader).
    Comment(String),
    /// A port declaration.
    Port(ModulePort),
}

/// One connection's internal nets (signals/wires), declared as a
/// bundle: signal `k` is named by joining `prefix` and `suffixes[k]`
/// ([`signal_name`]) and is `widths[k]` bits wide. Both lists belong
/// to the port the net carries, so every net of that port shares them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDecl {
    /// Legalized net prefix.
    pub prefix: Arc<str>,
    /// The bundle's signal suffixes, in declaration order.
    pub suffixes: Arc<[String]>,
    /// Width in bits of each signal, parallel to `suffixes`; 1 renders
    /// as a scalar type.
    pub widths: Arc<[u32]>,
}

impl NetDecl {
    /// Every signal of the bundle as `(suffix, width)`, in declaration
    /// order.
    pub fn signals(&self) -> impl Iterator<Item = (&str, u32)> {
        self.suffixes
            .iter()
            .zip(self.widths.iter())
            .map(|(suffix, &width)| (suffix.as_str(), width))
    }
}

/// An entry of a structural body's declaration section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetItem {
    /// A comment line (without comment leader).
    Comment(String),
    /// A bundle of net declarations.
    Net(NetDecl),
}

/// An entry of a structural body's concurrent-assignment section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignItem {
    /// A comment line (without comment leader).
    Comment(String),
    /// A continuous assignment `target <= source` / `assign target =
    /// source`. Both sides are plain signal names; expression-level
    /// logic belongs in behavioral bodies.
    Assign {
        /// Driven signal.
        target: String,
        /// Driving signal.
        source: String,
    },
}

/// Appends the name of signal `suffix` of the bundle `prefix` to
/// `out`: `prefix_suffix`, or whichever of the two is non-empty.
pub fn push_signal_name(out: &mut String, prefix: &str, suffix: &str) {
    out.push_str(prefix);
    if !prefix.is_empty() && !suffix.is_empty() {
        out.push('_');
    }
    out.push_str(suffix);
}

/// The name of signal `suffix` of the bundle `prefix` (see
/// [`push_signal_name`]).
pub fn signal_name(prefix: &str, suffix: &str) -> String {
    let mut name = String::with_capacity(prefix.len() + 1 + suffix.len());
    push_signal_name(&mut name, prefix, suffix);
    name
}

/// One bundle of an instance's port map, bound by prefix substitution:
/// for every suffix `s`, the child's signal `formal_s` connects to the
/// parent's signal `actual_s` (names joined by [`signal_name`]). A
/// port's suffix list depends only on its type and direction, so every
/// instance of a child shares it; a clock or reset binds alone with
/// the single empty suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBinding {
    /// The child's bundle prefix (a port name, or a clock signal).
    pub formal: Arc<str>,
    /// The parent's bundle prefix (a port or net name, or a clock).
    pub actual: Arc<str>,
    /// The bundle's signal suffixes, in declaration order.
    pub suffixes: Arc<[String]>,
}

/// One instantiation of another module of the same netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Legalized instance label.
    pub label: String,
    /// Emitted name of the instantiated module, shared by all its
    /// instances.
    pub module: Arc<str>,
    /// Port-map bundles, in declaration order of the child's ports
    /// (clocks first).
    pub bindings: Vec<PortBinding>,
}

impl Instance {
    /// Every connected signal as `(formal prefix, actual prefix,
    /// suffix)`, in port-map order.
    pub fn signals(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.bindings.iter().flat_map(|binding| {
            binding
                .suffixes
                .iter()
                .map(|suffix| (&*binding.formal, &*binding.actual, &**suffix))
        })
    }
}

/// An opaque behavioral body for one backend: text produced by a
/// builtin generator, already indented, newline-terminated, and using
/// that backend's syntax.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BehavioralBody {
    /// Declarations (signals, constants) preceding the statement part.
    pub decls: String,
    /// Concurrent statements and processes.
    pub stmts: String,
}

/// The body of a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleBody {
    /// Nets, continuous assignments, and child instances.
    Structural {
        /// Net declarations, interleaved with comments.
        nets: Vec<NetItem>,
        /// Wire-to-wire assignments, interleaved with comments.
        assigns: Vec<AssignItem>,
        /// Child instantiations, in order.
        instances: Vec<Instance>,
    },
    /// Per-backend opaque text blocks. An emitter whose backend has no
    /// entry reports [`crate::emit::EmitError::MissingBody`].
    Behavioral {
        /// One body per backend that has a registered generator.
        bodies: BTreeMap<Backend, BehavioralBody>,
    },
    /// Interface only; the body is supplied by an external tool.
    BlackBox {
        /// Explanatory comment lines (without comment leader).
        comments: Vec<String>,
    },
}

/// One RTL module: the unit of emission (one file per module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Legalized, netlist-unique module name.
    pub name: String,
    /// Header comment lines (without comment leader), e.g. the source
    /// implementation name and its doc comment.
    pub header: Vec<String>,
    /// The port list, comments interleaved; shared by every module of
    /// one interface.
    pub ports: Arc<[PortItem]>,
    /// The body.
    pub body: ModuleBody,
}

impl Module {
    /// The declared (non-comment) ports.
    pub fn port_decls(&self) -> impl Iterator<Item = &ModulePort> {
        self.ports.iter().filter_map(|item| match item {
            PortItem::Port(p) => Some(p),
            PortItem::Comment(_) => None,
        })
    }
}

/// A whole design: modules in definition order (children before the
/// parents that instantiate them, matching Tydi-IR project order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    /// Project name, for generated-file headers.
    pub name: String,
    /// Whether explanatory comments were collected during lowering
    /// (emitters use this to gate their own header lines).
    pub emit_comments: bool,
    /// The modules.
    pub modules: Vec<Module>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            emit_comments: true,
            modules: Vec::new(),
        }
    }

    /// Looks up a module by emitted name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The child instances of a module's structural body (empty for
    /// behavioral/black-box modules and unknown names).
    pub fn instances_of(&self, name: &str) -> &[Instance] {
        match self.module(name).map(|m| &m.body) {
            Some(ModuleBody::Structural { instances, .. }) => instances,
            _ => &[],
        }
    }

    /// Every module reachable from `root` through instantiations,
    /// `root` first, in deterministic DFS preorder with duplicates
    /// removed. Analysis passes use this to scope a report to the
    /// modules one top level actually emits, and to map hierarchical
    /// component paths onto emitted module names.
    pub fn reachable_from(&self, root: &str) -> Vec<&str> {
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut order: Vec<&str> = Vec::new();
        let mut stack: Vec<&str> = Vec::new();
        if let Some(module) = self.module(root) {
            seen.insert(module.name.as_str());
            stack.push(module.name.as_str());
        }
        while let Some(name) = stack.pop() {
            order.push(name);
            // Children push in reverse so preorder follows declaration
            // order of the instances.
            for instance in self.instances_of(name).iter().rev() {
                if self.module(&instance.module).is_some() && seen.insert(&instance.module) {
                    stack.push(&instance.module);
                }
            }
        }
        order
    }

    /// Total number of net signal declarations across all structural
    /// bodies (a size proxy used by benchmarks).
    pub fn net_count(&self) -> usize {
        self.modules
            .iter()
            .map(|m| match &m.body {
                ModuleBody::Structural { nets, .. } => nets
                    .iter()
                    .map(|n| match n {
                        NetItem::Net(net) => net.suffixes.len(),
                        NetItem::Comment(_) => 0,
                    })
                    .sum(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut n = Netlist::new("p");
        n.modules.push(Module {
            name: "leaf".into(),
            header: vec![],
            ports: vec![
                PortItem::Comment("port i".into()),
                PortItem::Port(ModulePort {
                    name: "i_data".into(),
                    dir: PortDir::In,
                    width: 8,
                }),
            ]
            .into(),
            body: ModuleBody::BlackBox { comments: vec![] },
        });
        n.modules.push(Module {
            name: "top".into(),
            header: vec![],
            ports: vec![].into(),
            body: ModuleBody::Structural {
                nets: vec![
                    NetItem::Comment("c".into()),
                    NetItem::Net(NetDecl {
                        prefix: "n0".into(),
                        suffixes: vec!["valid".to_string(), "data".to_string()].into(),
                        widths: vec![1, 8].into(),
                    }),
                ],
                assigns: vec![],
                instances: vec![],
            },
        });
        n
    }

    #[test]
    fn module_lookup_and_port_decls() {
        let n = sample();
        let leaf = n.module("leaf").unwrap();
        assert_eq!(leaf.port_decls().count(), 1);
        assert!(n.module("ghost").is_none());
    }

    #[test]
    fn net_count_counts_signals_and_skips_comments() {
        assert_eq!(sample().net_count(), 2);
    }

    #[test]
    fn net_bundles_pair_suffixes_with_widths() {
        let net = NetDecl {
            prefix: "n0".into(),
            suffixes: vec!["valid".to_string(), "data".to_string()].into(),
            widths: vec![1, 8].into(),
        };
        let signals: Vec<_> = net.signals().collect();
        assert_eq!(signals, [("valid", 1), ("data", 8)]);
    }

    fn structural(name: &str, children: &[&str]) -> Module {
        Module {
            name: name.into(),
            header: vec![],
            ports: vec![].into(),
            body: ModuleBody::Structural {
                nets: vec![],
                assigns: vec![],
                instances: children
                    .iter()
                    .enumerate()
                    .map(|(k, child)| Instance {
                        label: format!("u{k}"),
                        module: (*child).into(),
                        bindings: vec![],
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn signal_names_join_non_empty_parts() {
        assert_eq!(signal_name("i", "chars_valid"), "i_chars_valid");
        assert_eq!(signal_name("clk", ""), "clk");
        assert_eq!(signal_name("", "valid"), "valid");
    }

    #[test]
    fn instance_signals_substitute_prefixes_over_shared_suffixes() {
        let suffixes: Arc<[String]> = vec!["valid".to_string(), "data".to_string()].into();
        let instance = Instance {
            label: "u_a".into(),
            module: "leaf".into(),
            bindings: vec![
                PortBinding {
                    formal: "clk".into(),
                    actual: "clk_mem".into(),
                    suffixes: vec![String::new()].into(),
                },
                PortBinding {
                    formal: "i".into(),
                    actual: "n0".into(),
                    suffixes: suffixes.clone(),
                },
                PortBinding {
                    formal: "o".into(),
                    actual: "o".into(),
                    suffixes,
                },
            ],
        };
        let pairs: Vec<(String, String)> = instance
            .signals()
            .map(|(formal, actual, suffix)| {
                (signal_name(formal, suffix), signal_name(actual, suffix))
            })
            .collect();
        let expected = [
            ("clk", "clk_mem"),
            ("i_valid", "n0_valid"),
            ("i_data", "n0_data"),
            ("o_valid", "o_valid"),
            ("o_data", "o_data"),
        ];
        assert_eq!(pairs.len(), expected.len());
        for ((formal, actual), (f, a)) in pairs.iter().zip(expected) {
            assert_eq!((formal.as_str(), actual.as_str()), (f, a));
        }
    }

    #[test]
    fn reachable_from_walks_instances_in_preorder() {
        let mut n = Netlist::new("p");
        // top -> {mid, leaf}, mid -> {leaf, leaf} (shared child), plus
        // an unrelated module that must not appear.
        n.modules.push(structural("leaf", &[]));
        n.modules.push(structural("mid", &["leaf", "leaf"]));
        n.modules.push(structural("top", &["mid", "leaf"]));
        n.modules.push(structural("unrelated", &["leaf"]));
        assert_eq!(n.reachable_from("top"), vec!["top", "mid", "leaf"]);
        assert_eq!(n.reachable_from("leaf"), vec!["leaf"]);
        assert!(n.reachable_from("ghost").is_empty());
        assert_eq!(n.instances_of("mid").len(), 2);
        assert!(n.instances_of("leaf").is_empty());
    }
}
