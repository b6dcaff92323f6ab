//! The VHDL emitter.
//!
//! Renders each netlist module as an entity/architecture pair. The
//! output format is pinned by the golden snapshots in the workspace
//! root (`tests/golden/vhdl/`): structural bodies become `architecture
//! structural` with direct entity instantiation, behavioral bodies
//! `architecture rtl`, black boxes `architecture black_box`.

use crate::emit::{EmitError, Emitter};
use crate::names::Backend;
use crate::netlist::{
    push_signal_name, AssignItem, Module, ModuleBody, NetItem, Netlist, PortDir, PortItem,
};
use std::fmt::Write as _;

/// Renders a bit width as a VHDL type.
pub fn vhdl_type(width: u32) -> String {
    let mut out = String::new();
    push_vhdl_type(&mut out, width);
    out
}

/// Appends the VHDL type of a `width`-bit signal to `out`.
pub fn push_vhdl_type(out: &mut String, width: u32) {
    if width == 1 {
        out.push_str("std_logic");
    } else {
        let _ = write!(out, "std_logic_vector({} downto 0)", width - 1);
    }
}

/// The VHDL port-mode keyword for a direction.
pub fn mode_keyword(dir: PortDir) -> &'static str {
    match dir {
        PortDir::In => "in",
        PortDir::Out => "out",
    }
}

/// Emits VHDL-93, one design unit per module.
#[derive(Debug, Clone, Copy, Default)]
pub struct VhdlEmitter;

impl Emitter for VhdlEmitter {
    fn backend(&self) -> Backend {
        Backend::Vhdl
    }

    fn emit_module(&self, netlist: &Netlist, module: &Module) -> Result<String, EmitError> {
        let mut out = String::new();
        self.emit_header(&mut out, netlist, module);
        self.emit_entity(&mut out, module);
        self.emit_architecture(&mut out, module)?;
        Ok(out)
    }
}

impl VhdlEmitter {
    fn emit_header(&self, out: &mut String, netlist: &Netlist, module: &Module) {
        if netlist.emit_comments {
            let _ = writeln!(
                out,
                "-- Generated by tydi-vhdl from project `{}`.",
                netlist.name
            );
            for line in &module.header {
                let _ = writeln!(out, "-- {line}");
            }
        }
        let _ = writeln!(out, "library ieee;");
        let _ = writeln!(out, "use ieee.std_logic_1164.all;");
        let _ = writeln!(out, "use ieee.numeric_std.all;");
        let _ = writeln!(out);
    }

    fn emit_entity(&self, out: &mut String, module: &Module) {
        let entity = &module.name;
        let _ = writeln!(out, "entity {entity} is");
        let _ = writeln!(out, "  port (");
        // Join with `;` on declaration lines only (comments pass
        // through).
        let decl_count = module.port_decls().count();
        let mut seen_decls = 0;
        for item in module.ports.iter() {
            match item {
                PortItem::Comment(c) => {
                    let _ = writeln!(out, "    -- {c}");
                }
                PortItem::Port(p) => {
                    seen_decls += 1;
                    let sep = if seen_decls < decl_count { ";" } else { "" };
                    let _ = write!(out, "    {} : {} ", p.name, mode_keyword(p.dir));
                    push_vhdl_type(out, p.width);
                    out.push_str(sep);
                    out.push('\n');
                }
            }
        }
        let _ = writeln!(out, "  );");
        let _ = writeln!(out, "end entity {entity};");
        let _ = writeln!(out);
    }

    fn emit_architecture(&self, out: &mut String, module: &Module) -> Result<(), EmitError> {
        let entity = &module.name;
        match &module.body {
            ModuleBody::Behavioral { bodies } => {
                let body = bodies
                    .get(&Backend::Vhdl)
                    .ok_or_else(|| EmitError::MissingBody {
                        module: module.name.clone(),
                        backend: Backend::Vhdl,
                    })?;
                let _ = writeln!(out, "architecture rtl of {entity} is");
                out.push_str(&body.decls);
                let _ = writeln!(out, "begin");
                out.push_str(&body.stmts);
                let _ = writeln!(out, "end architecture rtl;");
            }
            ModuleBody::BlackBox { comments } => {
                let _ = writeln!(out, "architecture black_box of {entity} is");
                let _ = writeln!(out, "begin");
                for c in comments {
                    let _ = writeln!(out, "  -- {c}");
                }
                let _ = writeln!(out, "end architecture black_box;");
            }
            ModuleBody::Structural {
                nets,
                assigns,
                instances,
            } => {
                let _ = writeln!(out, "architecture structural of {entity} is");
                for item in nets {
                    match item {
                        NetItem::Comment(c) => {
                            let _ = writeln!(out, "  -- {c}");
                        }
                        NetItem::Net(net) => {
                            for (suffix, width) in net.signals() {
                                out.push_str("  signal ");
                                push_signal_name(out, &net.prefix, suffix);
                                out.push_str(" : ");
                                push_vhdl_type(out, width);
                                out.push_str(";\n");
                            }
                        }
                    }
                }
                let _ = writeln!(out, "begin");
                for item in assigns {
                    match item {
                        AssignItem::Comment(c) => {
                            let _ = writeln!(out, "  -- {c}");
                        }
                        AssignItem::Assign { target, source } => {
                            let _ = writeln!(out, "  {target} <= {source};");
                        }
                    }
                }
                for instance in instances {
                    let _ = writeln!(
                        out,
                        "  {} : entity work.{}",
                        instance.label, instance.module
                    );
                    out.push_str("    port map (\n");
                    for (k, (formal, actual, suffix)) in instance.signals().enumerate() {
                        out.push_str(if k == 0 { "      " } else { ",\n      " });
                        push_signal_name(out, formal, suffix);
                        out.push_str(" => ");
                        push_signal_name(out, actual, suffix);
                    }
                    out.push_str("\n    );\n");
                }
                let _ = writeln!(out, "end architecture structural;");
            }
        }
        let _ = writeln!(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{BehavioralBody, ModulePort, NetDecl, PortBinding};

    #[test]
    fn vhdl_types() {
        assert_eq!(vhdl_type(1), "std_logic");
        assert_eq!(vhdl_type(8), "std_logic_vector(7 downto 0)");
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
            ]
            .into(),
            body,
        });
        n
    }

    #[test]
    fn entity_ports_and_separators() {
        let n = netlist_with(ModuleBody::BlackBox { comments: vec![] });
        let text = VhdlEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.contains("entity m is"));
        assert!(text.contains("    clk : in std_logic;"));
        assert!(text.contains("    -- port i : Stream(Bit(8))"));
        // Last declaration has no trailing semicolon.
        assert!(text.contains("    i_data : in std_logic_vector(7 downto 0)\n"));
        assert!(text.contains("architecture black_box of m is"));
    }

    #[test]
    fn behavioral_body_is_verbatim() {
        let mut bodies = std::collections::BTreeMap::new();
        bodies.insert(
            Backend::Vhdl,
            BehavioralBody {
                decls: "  signal x : std_logic;\n".into(),
                stmts: "  x <= '1';\n".into(),
            },
        );
        let n = netlist_with(ModuleBody::Behavioral { bodies });
        let text = VhdlEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.contains("architecture rtl of m is\n  signal x : std_logic;\nbegin\n  x <= '1';\nend architecture rtl;"));
    }

    #[test]
    fn missing_vhdl_body_errors() {
        let n = netlist_with(ModuleBody::Behavioral {
            bodies: Default::default(),
        });
        assert!(matches!(
            VhdlEmitter.emit_module(&n, &n.modules[0]),
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
                    suffixes: vec!["valid".to_string(), "data".to_string()].into(),
                    widths: vec![1, 8].into(),
                }),
            ],
            assigns: vec![AssignItem::Assign {
                target: "o_data".into(),
                source: "i_data".into(),
            }],
            instances: vec![crate::netlist::Instance {
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
        let text = VhdlEmitter.emit_module(&n, &n.modules[0]).unwrap();
        assert!(text.contains("  -- i -> u.i"));
        assert!(text.contains(
            "  signal n0_valid : std_logic;\n  signal n0_data : std_logic_vector(7 downto 0);\n"
        ));
        assert!(text.contains("  o_data <= i_data;"));
        assert!(text.contains("  u_a : entity work.leaf"));
        assert!(text.contains("      clk => clk,\n      i_data => n0_data\n"));
    }

    #[test]
    fn file_name_uses_vhd_extension() {
        let n = netlist_with(ModuleBody::BlackBox { comments: vec![] });
        assert_eq!(VhdlEmitter.file_name(&n.modules[0]), "m.vhd");
    }
}
