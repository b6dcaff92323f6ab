//! The emitter abstraction: netlist in, text files out.
//!
//! An [`Emitter`] renders one [`Module`] to one source file;
//! [`Emitter::emit_netlist`] renders every module in definition order.

use crate::names::Backend;
use crate::netlist::{Module, Netlist};

/// One generated source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmittedFile {
    /// Suggested file name, e.g. `top_i.vhd` or `top_i.sv`.
    pub name: String,
    /// File contents.
    pub contents: String,
}

/// Errors raised while rendering a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A behavioral module has no body for the requested backend: the
    /// builtin was registered for some backends but not this one.
    MissingBody {
        /// The module lacking a body.
        module: String,
        /// The backend that asked for it.
        backend: Backend,
    },
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::MissingBody { module, backend } => write!(
                f,
                "module `{module}` has no behavioral body for backend `{backend}` \
                 (builtin not registered for this backend)"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

/// Renders netlist modules in one backend's syntax.
///
/// Renders netlist modules for one backend.
pub trait Emitter {
    /// The backend this emitter renders.
    fn backend(&self) -> Backend;

    /// The file name for one module.
    fn file_name(&self, module: &Module) -> String {
        format!("{}.{}", module.name, self.backend().file_extension())
    }

    /// Renders one module to source text.
    fn emit_module(&self, netlist: &Netlist, module: &Module) -> Result<String, EmitError>;

    /// Renders every module, one file per module, in definition
    /// order.
    fn emit_netlist(&self, netlist: &Netlist) -> Result<Vec<EmittedFile>, EmitError> {
        netlist
            .modules
            .iter()
            .map(|module| {
                let _span =
                    tydi_obs::trace::span_named("tydi-rtl", || format!("emit:{}", module.name));
                Ok(EmittedFile {
                    name: self.file_name(module),
                    contents: self.emit_module(netlist, module)?,
                })
            })
            .collect()
    }
}

/// The emitter for a backend.
pub fn emitter_for(backend: Backend) -> Box<dyn Emitter + Send + Sync> {
    match backend {
        Backend::Vhdl => Box::new(crate::vhdl::VhdlEmitter),
        Backend::SystemVerilog => Box::new(crate::verilog::SystemVerilogEmitter),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::ModuleBody;

    #[test]
    fn emitter_for_covers_all_backends() {
        for backend in Backend::ALL {
            assert_eq!(emitter_for(backend).backend(), backend);
        }
    }

    #[test]
    fn missing_body_error_names_module_and_backend() {
        let mut netlist = Netlist::new("p");
        netlist.modules.push(Module {
            name: "m".into(),
            header: vec![],
            ports: vec![].into(),
            body: ModuleBody::Behavioral {
                bodies: Default::default(),
            },
        });
        let err = emitter_for(Backend::SystemVerilog)
            .emit_netlist(&netlist)
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("`m`") && text.contains("verilog"), "{text}");
    }
}
