//! Builtin RTL generators.
//!
//! Standard-library components are "too elementary to be described as
//! instances and connections", so their RTL is produced by a hard-coded
//! generation process (paper §IV-C). This module provides the registry
//! that maps a builtin key (such as `std.duplicator`) to a generator
//! function *per backend*, plus the handshake-layer generators the
//! compiler itself depends on. `tydi-stdlib` registers the
//! data-processing generators (arithmetic, comparison, filtering, ...)
//! on top.
//!
//! A generator produces the opaque behavioral body the netlist carries
//! for its backend ([`ArchBody`]: declarations + statements, in that
//! backend's syntax). [`BuiltinRegistry::register`] keeps its historic
//! meaning — register for VHDL — while
//! [`BuiltinRegistry::register_for`] targets any backend; the lowering
//! collects one body per registered backend so a single netlist can be
//! rendered by every emitter.

use crate::error::VhdlError;
use crate::signals::{expand_port, PortMode, VhdlSignal};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, RwLock};
use tydi_ir::{Implementation, Port, PortDirection, Project, Streamlet};
use tydi_rtl::Backend;
use tydi_spec::LogicalType;

/// Everything a generator may inspect.
pub struct BuiltinCtx<'a> {
    /// The surrounding project (for cross-references).
    pub project: &'a Project,
    /// The streamlet whose ports the architecture must drive.
    pub streamlet: &'a Streamlet,
    /// The external implementation carrying the builtin key and any
    /// `param_*` attributes left by template instantiation.
    pub implementation: &'a Implementation,
    /// The root stream widths of each port type asked for so far, by
    /// the type's address (ports of one type share its `Arc`), so each
    /// type is lowered once per module, whichever backends ask.
    widths: RefCell<Vec<(*const LogicalType, RootWidths)>>,
}

/// The signal widths of a port's root physical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootWidths {
    /// Width of the `data` signal.
    pub data: u32,
    /// Width of the `last` signal (the stream's dimensionality).
    pub last: u32,
}

impl<'a> BuiltinCtx<'a> {
    /// The context for generating `implementation` of `streamlet`.
    pub fn new(
        project: &'a Project,
        streamlet: &'a Streamlet,
        implementation: &'a Implementation,
    ) -> Self {
        BuiltinCtx {
            project,
            streamlet,
            implementation,
            widths: RefCell::new(Vec::new()),
        }
    }

    /// The data and `last` widths of `port`'s root physical stream.
    pub fn root_widths(&self, port: &Port) -> Result<RootWidths, String> {
        let ty = Arc::as_ptr(&port.ty);
        if let Some((_, known)) = self.widths.borrow().iter().find(|(t, _)| *t == ty) {
            return Ok(*known);
        }
        let physical = tydi_spec::lower(&port.ty).map_err(|e| e.to_string())?;
        let signals = physical[0].signals();
        let widths = RootWidths {
            data: signals.data_bits,
            last: signals.last_bits,
        };
        self.widths.borrow_mut().push((ty, widths));
        Ok(widths)
    }

    /// Input ports of the streamlet.
    pub fn inputs(&self) -> Vec<&Port> {
        self.streamlet
            .ports
            .iter()
            .filter(|p| p.direction == PortDirection::In)
            .collect()
    }

    /// Output ports of the streamlet.
    pub fn outputs(&self) -> Vec<&Port> {
        self.streamlet
            .ports
            .iter()
            .filter(|p| p.direction == PortDirection::Out)
            .collect()
    }

    /// Looks up a `param_<name>` attribute (without building the key:
    /// an implementation has a handful of attributes).
    pub fn param(&self, name: &str) -> Option<&str> {
        self.implementation
            .attributes
            .iter()
            .find(|(key, _)| key.strip_prefix("param_") == Some(name))
            .map(|(_, value)| value.as_str())
    }
}

/// The behavioral body a generator produces, in its backend's syntax.
/// For VHDL, declarations go between `architecture ... is` and
/// `begin`, statements between `begin` and `end architecture`; for
/// SystemVerilog both sections land inside the `module` body,
/// declarations first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchBody {
    /// Signal/constant declarations.
    pub decls: String,
    /// Concurrent statements and processes.
    pub stmts: String,
}

impl From<ArchBody> for tydi_rtl::netlist::BehavioralBody {
    fn from(body: ArchBody) -> Self {
        tydi_rtl::netlist::BehavioralBody {
            decls: body.decls,
            stmts: body.stmts,
        }
    }
}

/// A builtin generator function.
pub type BuiltinFn = Arc<dyn Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> + Send + Sync>;

/// Thread-safe registry of builtin generators: per backend, by key, so
/// a lookup borrows the key.
#[derive(Clone, Default)]
pub struct BuiltinRegistry {
    map: Arc<RwLock<HashMap<Backend, HashMap<String, BuiltinFn>>>>,
}

impl std::fmt::Debug for BuiltinRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<String> = self.keys();
        f.debug_struct("BuiltinRegistry")
            .field("keys", &keys)
            .finish()
    }
}

impl BuiltinRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BuiltinRegistry::default()
    }

    /// A registry preloaded with the handshake-layer builtins the
    /// compiler's sugaring passes depend on — `std.passthrough`,
    /// `std.duplicator` and `std.voider` — for every backend.
    pub fn with_core() -> Self {
        let reg = BuiltinRegistry::new();
        reg.register("std.passthrough", gen_passthrough);
        reg.register("std.duplicator", gen_duplicator);
        reg.register("std.voider", gen_voider);
        reg.register_for(
            Backend::SystemVerilog,
            "std.passthrough",
            gen_passthrough_sv,
        );
        reg.register_for(Backend::SystemVerilog, "std.duplicator", gen_duplicator_sv);
        reg.register_for(Backend::SystemVerilog, "std.voider", gen_voider_sv);
        reg
    }

    /// Registers (or replaces) a VHDL generator under `key`.
    pub fn register(
        &self,
        key: impl Into<String>,
        generator: impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> + Send + Sync + 'static,
    ) {
        self.register_for(Backend::Vhdl, key, generator);
    }

    /// Registers (or replaces) a generator under `key` for one
    /// backend.
    pub fn register_for(
        &self,
        backend: Backend,
        key: impl Into<String>,
        generator: impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> + Send + Sync + 'static,
    ) {
        self.map
            .write()
            .expect("builtin registry poisoned")
            .entry(backend)
            .or_default()
            .insert(key.into(), Arc::new(generator));
    }

    /// True if `key` has a registered generator for any backend.
    pub fn contains(&self, key: &str) -> bool {
        self.map
            .read()
            .expect("builtin registry poisoned")
            .values()
            .any(|generators| generators.contains_key(key))
    }

    /// True if `key` has a generator for `backend`.
    pub fn contains_for(&self, backend: Backend, key: &str) -> bool {
        self.map
            .read()
            .expect("builtin registry poisoned")
            .get(&backend)
            .is_some_and(|generators| generators.contains_key(key))
    }

    /// The backends `key` is registered for, in
    /// [`Backend::ALL`] order.
    pub fn backends_for(&self, key: &str) -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| self.contains_for(*b, key))
            .collect()
    }

    /// All registered keys (across backends), sorted and deduplicated.
    pub fn keys(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .map
            .read()
            .expect("builtin registry poisoned")
            .values()
            .flat_map(|generators| generators.keys().cloned())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Runs the VHDL generator for `key`.
    pub fn generate(&self, key: &str, ctx: &BuiltinCtx<'_>) -> Result<ArchBody, VhdlError> {
        self.generate_for(Backend::Vhdl, key, ctx)
    }

    /// Runs the generator for `key` on one backend.
    pub fn generate_for(
        &self,
        backend: Backend,
        key: &str,
        ctx: &BuiltinCtx<'_>,
    ) -> Result<ArchBody, VhdlError> {
        let generator = self
            .map
            .read()
            .expect("builtin registry poisoned")
            .get(&backend)
            .and_then(|generators| generators.get(key))
            .cloned();
        match generator {
            None => Err(VhdlError::UnknownBuiltin {
                implementation: ctx.implementation.name.clone(),
                key: key.to_string(),
            }),
            Some(g) => g(ctx).map_err(|message| VhdlError::BuiltinRejected {
                implementation: ctx.implementation.name.clone(),
                key: key.to_string(),
                message,
            }),
        }
    }
}

/// Pairs up the expanded signals of two ports (they must have the same
/// shape, which the DRC guarantees for connected ports).
fn paired_signals(a: &Port, b: &Port) -> Result<Vec<(VhdlSignal, VhdlSignal)>, String> {
    let sa = expand_port(a).map_err(|e| e.to_string())?;
    let sb = expand_port(b).map_err(|e| e.to_string())?;
    if sa.len() != sb.len() {
        return Err(format!(
            "ports `{}` and `{}` have different signal shapes",
            a.name, b.name
        ));
    }
    Ok(sa.into_iter().zip(sb).collect())
}

fn one_in_one_out<'a>(ctx: &'a BuiltinCtx<'_>) -> Result<(&'a Port, &'a Port), String> {
    let inputs = ctx.inputs();
    let outputs = ctx.outputs();
    match (inputs.first(), outputs.first()) {
        (Some(i), Some(o)) => Ok((i, o)),
        _ => Err("passthrough needs one input and one output port".into()),
    }
}

/// `std.passthrough` (VHDL): forward every signal from the input port
/// to the output port; `ready` flows backward.
fn gen_passthrough(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let (input, output) = one_in_one_out(ctx)?;
    let mut stmts = String::new();
    for (si, so) in paired_signals(input, output)? {
        match si.mode {
            PortMode::In => {
                let _ = writeln!(stmts, "  {} <= {};", so.name, si.name);
            }
            PortMode::Out => {
                let _ = writeln!(stmts, "  {} <= {};", si.name, so.name);
            }
        }
    }
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

/// `std.passthrough` (SystemVerilog).
fn gen_passthrough_sv(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let (input, output) = one_in_one_out(ctx)?;
    let mut stmts = String::new();
    for (si, so) in paired_signals(input, output)? {
        match si.mode {
            PortMode::In => {
                let _ = writeln!(stmts, "  assign {} = {};", so.name, si.name);
            }
            PortMode::Out => {
                let _ = writeln!(stmts, "  assign {} = {};", si.name, so.name);
            }
        }
    }
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

fn duplicator_io<'a>(ctx: &'a BuiltinCtx<'_>) -> Result<(&'a Port, Vec<&'a Port>), String> {
    let inputs = ctx.inputs();
    let outputs = ctx.outputs();
    let Some(input) = inputs.first() else {
        return Err("duplicator needs an input port".into());
    };
    if outputs.is_empty() {
        return Err("duplicator needs at least one output port".into());
    }
    Ok((input, outputs))
}

/// `std.duplicator` (VHDL): copy the input packet to every output and
/// only acknowledge the input when *all* outputs acknowledged (paper
/// §IV-C).
fn gen_duplicator(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let (input, outputs) = duplicator_io(ctx)?;
    let in_sigs = expand_port(input).map_err(|e| e.to_string())?;
    let mut decls = String::new();
    let mut stmts = String::new();

    // all_ready: every sink can accept.
    let ready_terms: Vec<String> = outputs
        .iter()
        .map(|o| format!("{}_ready", o.name))
        .collect();
    let _ = writeln!(decls, "  signal all_ready : std_logic;");
    let _ = writeln!(stmts, "  all_ready <= {};", ready_terms.join(" and "));
    let _ = writeln!(stmts, "  {}_ready <= all_ready;", input.name);

    for output in &outputs {
        let out_sigs = expand_port(output).map_err(|e| e.to_string())?;
        for (si, so) in in_sigs.iter().zip(out_sigs.iter()) {
            if si.name.ends_with("_valid") {
                let _ = writeln!(stmts, "  {} <= {} and all_ready;", so.name, si.name);
            } else if si.name.ends_with("_ready") {
                // Handled via all_ready above.
            } else {
                let _ = writeln!(stmts, "  {} <= {};", so.name, si.name);
            }
        }
    }
    Ok(ArchBody { decls, stmts })
}

/// `std.duplicator` (SystemVerilog).
fn gen_duplicator_sv(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let (input, outputs) = duplicator_io(ctx)?;
    let in_sigs = expand_port(input).map_err(|e| e.to_string())?;
    let mut decls = String::new();
    let mut stmts = String::new();

    let ready_terms: Vec<String> = outputs
        .iter()
        .map(|o| format!("{}_ready", o.name))
        .collect();
    let _ = writeln!(decls, "  logic all_ready;");
    let _ = writeln!(stmts, "  assign all_ready = {};", ready_terms.join(" & "));
    let _ = writeln!(stmts, "  assign {}_ready = all_ready;", input.name);

    for output in &outputs {
        let out_sigs = expand_port(output).map_err(|e| e.to_string())?;
        for (si, so) in in_sigs.iter().zip(out_sigs.iter()) {
            if si.name.ends_with("_valid") {
                let _ = writeln!(stmts, "  assign {} = {} & all_ready;", so.name, si.name);
            } else if si.name.ends_with("_ready") {
                // Handled via all_ready above.
            } else {
                let _ = writeln!(stmts, "  assign {} = {};", so.name, si.name);
            }
        }
    }
    Ok(ArchBody { decls, stmts })
}

fn voider_input<'a>(ctx: &'a BuiltinCtx<'_>) -> Result<&'a Port, String> {
    ctx.inputs()
        .first()
        .copied()
        .ok_or_else(|| "voider needs an input port".into())
}

/// `std.voider` (VHDL): always acknowledge and drop the data (paper
/// §IV-C).
fn gen_voider(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let input = voider_input(ctx)?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  {}_ready <= '1';", input.name);
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

/// `std.voider` (SystemVerilog).
fn gen_voider_sv(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let input = voider_input(ctx)?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  assign {}_ready = 1'b1;", input.name);
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    fn ctx_project(
        streamlet: Streamlet,
        implementation: Implementation,
    ) -> (Project, String, String) {
        let mut p = Project::new("t");
        let s_name = streamlet.name.clone();
        let i_name = implementation.name.clone();
        p.add_streamlet(streamlet).unwrap();
        p.add_implementation(implementation).unwrap();
        (p, s_name, i_name)
    }

    #[test]
    fn registry_register_and_lookup() {
        let reg = BuiltinRegistry::with_core();
        assert!(reg.contains("std.duplicator"));
        assert!(!reg.contains("std.missing"));
        assert_eq!(
            reg.keys(),
            vec!["std.duplicator", "std.passthrough", "std.voider"]
        );
    }

    #[test]
    fn core_builtins_cover_every_backend() {
        let reg = BuiltinRegistry::with_core();
        for key in ["std.duplicator", "std.passthrough", "std.voider"] {
            assert_eq!(reg.backends_for(key), Backend::ALL.to_vec(), "{key}");
        }
    }

    #[test]
    fn per_backend_registration_is_independent() {
        let reg = BuiltinRegistry::new();
        reg.register_for(Backend::SystemVerilog, "x.only_sv", |_| {
            Ok(ArchBody::default())
        });
        assert!(reg.contains("x.only_sv"));
        assert!(!reg.contains_for(Backend::Vhdl, "x.only_sv"));
        assert!(reg.contains_for(Backend::SystemVerilog, "x.only_sv"));
        assert_eq!(reg.backends_for("x.only_sv"), vec![Backend::SystemVerilog]);
    }

    #[test]
    fn unknown_builtin_errors() {
        let reg = BuiltinRegistry::new();
        let s = Streamlet::new("s").with_port(Port::new("i", PortDirection::In, stream8()));
        let imp = Implementation::external("x_i", "s");
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        assert!(matches!(
            reg.generate("nope", &ctx),
            Err(VhdlError::UnknownBuiltin { .. })
        ));
    }

    #[test]
    fn passthrough_forwards_and_backwards() {
        let reg = BuiltinRegistry::with_core();
        let s = Streamlet::new("s")
            .with_port(Port::new("i", PortDirection::In, stream8()))
            .with_port(Port::new("o", PortDirection::Out, stream8()));
        let imp = Implementation::external("pass_i", "s");
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        let body = reg.generate("std.passthrough", &ctx).unwrap();
        assert!(body.stmts.contains("o_valid <= i_valid;"));
        assert!(body.stmts.contains("o_data <= i_data;"));
        assert!(body.stmts.contains("i_ready <= o_ready;"));
        let sv = reg
            .generate_for(Backend::SystemVerilog, "std.passthrough", &ctx)
            .unwrap();
        assert!(sv.stmts.contains("assign o_valid = i_valid;"));
        assert!(sv.stmts.contains("assign o_data = i_data;"));
        assert!(sv.stmts.contains("assign i_ready = o_ready;"));
    }

    #[test]
    fn duplicator_acknowledges_when_all_ready() {
        let reg = BuiltinRegistry::with_core();
        let s = Streamlet::new("s")
            .with_port(Port::new("i", PortDirection::In, stream8()))
            .with_port(Port::new("o0", PortDirection::Out, stream8()))
            .with_port(Port::new("o1", PortDirection::Out, stream8()));
        let imp = Implementation::external("dup_i", "s");
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        let body = reg.generate("std.duplicator", &ctx).unwrap();
        assert!(body.stmts.contains("all_ready <= o0_ready and o1_ready;"));
        assert!(body.stmts.contains("i_ready <= all_ready;"));
        assert!(body.stmts.contains("o0_valid <= i_valid and all_ready;"));
        assert!(body.stmts.contains("o1_data <= i_data;"));
        let sv = reg
            .generate_for(Backend::SystemVerilog, "std.duplicator", &ctx)
            .unwrap();
        assert!(sv.decls.contains("logic all_ready;"));
        assert!(sv.stmts.contains("assign all_ready = o0_ready & o1_ready;"));
        assert!(sv.stmts.contains("assign o0_valid = i_valid & all_ready;"));
        assert!(sv.stmts.contains("assign o1_data = i_data;"));
    }

    #[test]
    fn voider_always_ready() {
        let reg = BuiltinRegistry::with_core();
        let s = Streamlet::new("s").with_port(Port::new("i", PortDirection::In, stream8()));
        let imp = Implementation::external("void_i", "s");
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        let body = reg.generate("std.voider", &ctx).unwrap();
        assert_eq!(body.stmts.trim(), "i_ready <= '1';");
        let sv = reg
            .generate_for(Backend::SystemVerilog, "std.voider", &ctx)
            .unwrap();
        assert_eq!(sv.stmts.trim(), "assign i_ready = 1'b1;");
    }

    #[test]
    fn builtin_rejection_wraps_message() {
        let reg = BuiltinRegistry::with_core();
        let s = Streamlet::new("s"); // no ports at all
        let imp = Implementation::external("dup_i", "s");
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        match reg.generate("std.duplicator", &ctx) {
            Err(VhdlError::BuiltinRejected { message, .. }) => {
                assert!(message.contains("input"));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn param_lookup() {
        let s = Streamlet::new("s");
        let mut imp = Implementation::external("x", "s");
        imp.attributes.insert("param_outputs".into(), "4".into());
        let (p, s_name, i_name) = ctx_project(s, imp);
        let ctx = BuiltinCtx::new(
            &p,
            p.streamlet(&s_name).unwrap(),
            p.implementation(&i_name).unwrap(),
        );
        assert_eq!(ctx.param("outputs"), Some("4"));
        assert_eq!(ctx.param("missing"), None);
    }
}
