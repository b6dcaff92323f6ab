//! The SystemVerilog emitter.
//!
//! Renders each netlist module as a SystemVerilog `module`: ANSI-style
//! port list, `logic` nets, continuous `assign`s, and named port
//! connections for instances. Behavioral bodies come from the
//! per-backend builtin registry and are spliced in verbatim.

use crate::emit::{EmitError, Emitter};
use crate::names::Backend;
use crate::netlist::{
    push_signal_name, AssignItem, Module, ModuleBody, NetItem, Netlist, PortDir, PortItem,
};
use std::fmt::Write as _;

/// Renders a bit width as a SystemVerilog type.
pub fn sv_type(width: u32) -> String {
    let mut out = String::new();
    push_sv_type(&mut out, width);
    out
}

/// Appends the SystemVerilog type of a `width`-bit signal to `out`.
pub fn push_sv_type(out: &mut String, width: u32) {
    if width == 1 {
        out.push_str("logic");
    } else {
        let _ = write!(out, "logic [{}:0]", width - 1);
    }
}

/// The SystemVerilog direction keyword for a port.
pub fn dir_keyword(dir: PortDir) -> &'static str {
    match dir {
        PortDir::In => "input",
        PortDir::Out => "output",
    }
}

/// Emits SystemVerilog, one module per file.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemVerilogEmitter;

impl Emitter for SystemVerilogEmitter {
    fn backend(&self) -> Backend {
        Backend::SystemVerilog
    }

    fn emit_module(&self, netlist: &Netlist, module: &Module) -> Result<String, EmitError> {
        let mut out = String::new();
        if netlist.emit_comments {
            let _ = writeln!(
                out,
                "// Generated by tydi-rtl from project `{}`.",
                netlist.name
            );
            for line in &module.header {
                let _ = writeln!(out, "// {line}");
            }
        }
        self.emit_port_list(&mut out, module);
        self.emit_body(&mut out, module)?;
        let _ = writeln!(out, "endmodule");
        Ok(out)
    }
}

impl SystemVerilogEmitter {
    fn emit_port_list(&self, out: &mut String, module: &Module) {
        let _ = writeln!(out, "module {} (", module.name);
        let decl_count = module.port_decls().count();
        let mut seen_decls = 0;
        for item in module.ports.iter() {
            match item {
                PortItem::Comment(c) => {
                    let _ = writeln!(out, "  // {c}");
                }
                PortItem::Port(p) => {
                    seen_decls += 1;
                    let sep = if seen_decls < decl_count { "," } else { "" };
                    let _ = write!(out, "  {} ", dir_keyword(p.dir));
                    push_sv_type(out, p.width);
                    let _ = writeln!(out, " {}{sep}", p.name);
                }
            }
        }
        let _ = writeln!(out, ");");
        let _ = writeln!(out);
    }

    fn emit_body(&self, out: &mut String, module: &Module) -> Result<(), EmitError> {
        match &module.body {
            ModuleBody::Behavioral { bodies } => {
                let body =
                    bodies
                        .get(&Backend::SystemVerilog)
                        .ok_or_else(|| EmitError::MissingBody {
                            module: module.name.clone(),
                            backend: Backend::SystemVerilog,
                        })?;
                out.push_str(&body.decls);
                out.push_str(&body.stmts);
            }
            ModuleBody::BlackBox { comments } => {
                for c in comments {
                    let _ = writeln!(out, "  // {c}");
                }
            }
            ModuleBody::Structural {
                nets,
                assigns,
                instances,
            } => {
                for item in nets {
                    match item {
                        NetItem::Comment(c) => {
                            let _ = writeln!(out, "  // {c}");
                        }
                        NetItem::Net(net) => {
                            for (suffix, width) in net.signals() {
                                out.push_str("  ");
                                push_sv_type(out, width);
                                out.push(' ');
                                push_signal_name(out, &net.prefix, suffix);
                                out.push_str(";\n");
                            }
                        }
                    }
                }
                if !nets.is_empty() && !assigns.is_empty() {
                    let _ = writeln!(out);
                }
                for item in assigns {
                    match item {
                        AssignItem::Comment(c) => {
                            let _ = writeln!(out, "  // {c}");
                        }
                        AssignItem::Assign { target, source } => {
                            let _ = writeln!(out, "  assign {target} = {source};");
                        }
                    }
                }
                for (i, instance) in instances.iter().enumerate() {
                    if i > 0 || !nets.is_empty() || !assigns.is_empty() {
                        let _ = writeln!(out);
                    }
                    let _ = writeln!(out, "  {} {} (", instance.module, instance.label);
                    for (k, (formal, actual, suffix)) in instance.signals().enumerate() {
                        out.push_str(if k == 0 { "    ." } else { ",\n    ." });
                        push_signal_name(out, formal, suffix);
                        out.push_str(" (");
                        push_signal_name(out, actual, suffix);
                        out.push(')');
                    }
                    out.push_str("\n  );\n");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{BehavioralBody, Instance, ModulePort, NetDecl, PortBinding};

    #[test]
    fn sv_types() {
        assert_eq!(sv_type(1), "logic");
        assert_eq!(sv_type(8), "logic [7:0]");
    }

    fn netlist_with(body: ModuleBody) -> Netlist {
        let mut n = Netlist::new("p");
        n.modules.push(Module {
            name: "m".into(),
            header: vec!["Implementation: m".into()],
            ports: vec![
                PortItem::Port(ModulePort {
                    name: "clk".into(),
                    dir: PortDir::In,
                    width: 1,
                }),
                PortItem::Comment("port i : Stream(Bit(8))".into()),
                PortItem::Port(ModulePort {
                    name: "i_data".into(),
                    dir: PortDir::In,
                    width: 8,
                }),
                PortItem::Port(ModulePort {
                    name: "o_valid".into(),
                    dir: PortDir::Out,
                    width: 1,
                }),
            ]
            .into(),
            body,
        });
        n
    }

    #[test]
    fn module_ports_and_separators() {
        let n = netlist_with(ModuleBody::BlackBox { comments: vec![] });
        let text = SystemVerilogEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.starts_with("// Generated by tydi-rtl from project `p`.\n"));
        assert!(text.contains("module m ("));
        assert!(text.contains("  input logic clk,"));
        assert!(text.contains("  // port i : Stream(Bit(8))"));
        assert!(text.contains("  input logic [7:0] i_data,"));
        // Last declaration has no trailing comma.
        assert!(text.contains("  output logic o_valid\n"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn behavioral_body_is_verbatim() {
        let mut bodies = std::collections::BTreeMap::new();
        bodies.insert(
            Backend::SystemVerilog,
            BehavioralBody {
                decls: "  logic x;\n".into(),
                stmts: "  assign x = 1'b1;\n".into(),
            },
        );
        let n = netlist_with(ModuleBody::Behavioral { bodies });
        let text = SystemVerilogEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.contains("  logic x;\n  assign x = 1'b1;\nendmodule"));
    }

    #[test]
    fn vhdl_only_body_is_rejected() {
        let mut bodies = std::collections::BTreeMap::new();
        bodies.insert(Backend::Vhdl, BehavioralBody::default());
        let n = netlist_with(ModuleBody::Behavioral { bodies });
        assert!(matches!(
            SystemVerilogEmitter.emit_module(&n, &n.modules[0]),
            Err(EmitError::MissingBody { .. })
        ));
    }

    #[test]
    fn structural_body_renders_nets_assigns_instances() {
        let n = netlist_with(ModuleBody::Structural {
            nets: vec![
                NetItem::Comment("i -> u.i".into()),
                NetItem::Net(NetDecl {
                    prefix: "n0".into(),
                    suffixes: vec!["data".to_string()].into(),
                    widths: vec![8].into(),
                }),
            ],
            assigns: vec![AssignItem::Assign {
                target: "o_data".into(),
                source: "i_data".into(),
            }],
            instances: vec![Instance {
                label: "u_a".into(),
                module: "leaf".into(),
                bindings: vec![
                    PortBinding {
                        formal: "clk".into(),
                        actual: "clk".into(),
                        suffixes: vec![String::new()].into(),
                    },
                    PortBinding {
                        formal: "i".into(),
                        actual: "n0".into(),
                        suffixes: vec!["data".to_string()].into(),
                    },
                ],
            }],
        });
        let text = SystemVerilogEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.contains("  // i -> u.i"));
        assert!(text.contains("  logic [7:0] n0_data;"));
        assert!(text.contains("  assign o_data = i_data;"));
        assert!(text.contains("  leaf u_a ("));
        assert!(text.contains("    .clk (clk),\n    .i_data (n0_data)\n  );"));
    }

    #[test]
    fn file_name_uses_sv_extension() {
        let n = netlist_with(ModuleBody::BlackBox { comments: vec![] });
        assert_eq!(SystemVerilogEmitter.file_name(&n.modules[0]), "m.sv");
    }
}
