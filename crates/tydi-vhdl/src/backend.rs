//! Project-level RTL generation.
//!
//! Tydi-IR is lowered **once** to the backend-neutral netlist
//! ([`crate::lower::lower_project`]) and then rendered by a
//! [`tydi_rtl::Emitter`]; [`generate_project`] is the historic VHDL
//! entry point, [`generate_project_for`] selects any backend. Each
//! Tydi-IR implementation becomes one design unit: normal
//! implementations get structural bodies (direct instantiation, one
//! signal bundle per connection); external implementations get either
//! a behavioral body from the builtin registry or a black-box stub.
//!
//! Every build lowers and emits the whole project; incremental builds
//! reuse parses and elaborations (`tydi_lang::cache`), not generated
//! text. `tydic build -o` then rewrites only the files whose bytes
//! changed, so unchanged outputs keep their mtimes.

use crate::builtin::BuiltinRegistry;
use crate::error::VhdlError;
use crate::lower::lower_project;
use std::fmt::Write as _;
use tydi_ir::Project;
use tydi_rtl::{emitter_for, Backend};

/// Code generation options.
#[derive(Debug, Clone)]
pub struct VhdlOptions {
    /// Emit explanatory comments in the generated code.
    pub emit_comments: bool,
    /// Run IR validation before generating (recommended; the
    /// structural emitter assumes DRC invariants).
    pub validate: bool,
}

impl Default for VhdlOptions {
    fn default() -> Self {
        VhdlOptions {
            emit_comments: true,
            validate: true,
        }
    }
}

/// One generated source file (any backend).
pub type VhdlFile = tydi_rtl::EmittedFile;

/// Generates one VHDL file per implementation, in definition order.
pub fn generate_project(
    project: &Project,
    registry: &BuiltinRegistry,
    options: &VhdlOptions,
) -> Result<Vec<VhdlFile>, VhdlError> {
    generate_project_for(project, registry, options, Backend::Vhdl)
}

/// Generates one file per implementation for any backend: lower once,
/// then render with that backend's emitter.
pub fn generate_project_for(
    project: &Project,
    registry: &BuiltinRegistry,
    options: &VhdlOptions,
    backend: Backend,
) -> Result<Vec<VhdlFile>, VhdlError> {
    let netlist = lower_project(project, registry, options)?;
    Ok(emitter_for(backend).emit_netlist(&netlist)?)
}

/// Concatenates generated files into one string, each prefixed with a
/// `<comment> file: <name>` banner so piped output stays splittable.
pub fn files_to_string(files: &[VhdlFile], backend: Backend) -> String {
    let mut out = String::new();
    for f in files {
        let _ = writeln!(out, "{} file: {}", backend.comment_prefix(), f.name);
        out.push_str(&f.contents);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_ir::{
        Connection, EndpointRef, Implementation, Instance, Port, PortDirection, Streamlet,
    };
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    /// Every generated file of `p` behind its `file:` banner.
    fn render(p: &Project, options: &VhdlOptions, backend: Backend) -> String {
        let files =
            generate_project_for(p, &BuiltinRegistry::with_core(), options, backend).unwrap();
        files_to_string(&files, backend)
    }

    /// in -> leaf a -> leaf b -> out, exercising all net cases.
    fn chain_project() -> Project {
        let mut p = Project::new("chain");
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
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("a", "leaf_i"));
        top.add_instance(Instance::new("b", "leaf_i"));
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
    fn generates_one_file_per_impl() {
        let p = chain_project();
        let files =
            generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].name, "leaf_i.vhd");
        assert_eq!(files[1].name, "top_i.vhd");
    }

    #[test]
    fn entity_has_expanded_ports_and_clock() {
        let p = chain_project();
        let files =
            generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let top = &files[1].contents;
        assert!(top.contains("entity top_i is"));
        assert!(top.contains("clk : in std_logic"));
        assert!(top.contains("rst : in std_logic"));
        assert!(top.contains("i_valid : in std_logic"));
        assert!(top.contains("i_ready : out std_logic"));
        assert!(top.contains("i_data : in std_logic_vector(7 downto 0)"));
        assert!(top.contains("o_valid : out std_logic"));
    }

    #[test]
    fn structural_architecture_instantiates_and_wires() {
        let p = chain_project();
        let files =
            generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let top = &files[1].contents;
        // Intermediate signal for the instance-to-instance hop.
        assert!(top.contains("signal n1_a_o_valid : std_logic;"));
        assert!(top.contains("signal n1_a_o_data : std_logic_vector(7 downto 0);"));
        // Direct binding of own ports into instance port maps.
        assert!(top.contains("u_a : entity work.leaf_i"));
        assert!(top.contains("i_valid => i_valid"));
        assert!(top.contains("o_valid => n1_a_o_valid"));
        assert!(top.contains("u_b : entity work.leaf_i"));
        assert!(top.contains("i_valid => n1_a_o_valid"));
        assert!(top.contains("o_valid => o_valid"));
    }

    #[test]
    fn builtin_architecture_embedded() {
        let p = chain_project();
        let files =
            generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let leaf = &files[0].contents;
        assert!(leaf.contains("architecture rtl of leaf_i is"));
        assert!(leaf.contains("o_data <= i_data;"));
    }

    #[test]
    fn verilog_backend_emits_modules_from_the_same_lowering() {
        let p = chain_project();
        let files = generate_project_for(
            &p,
            &BuiltinRegistry::with_core(),
            &VhdlOptions::default(),
            Backend::SystemVerilog,
        )
        .unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].name, "leaf_i.sv");
        assert_eq!(files[1].name, "top_i.sv");
        let leaf = &files[0].contents;
        assert!(leaf.contains("module leaf_i ("));
        assert!(leaf.contains("assign o_data = i_data;"));
        let top = &files[1].contents;
        assert!(top.contains("logic n1_a_o_valid;"));
        assert!(top.contains("logic [7:0] n1_a_o_data;"));
        assert!(top.contains("leaf_i u_a ("));
        assert!(top.contains(".o_valid (n1_a_o_valid)"));
        assert!(top.contains(".i_valid (n1_a_o_valid)"));
        assert!(tydi_rtl::check::check_verilog(top).is_empty());
    }

    #[test]
    fn feed_through_connection_assigns_directly() {
        let mut p = Project::new("wire");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut top = Implementation::normal("wire_i", "pass_s");
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        let text = render(&p, &VhdlOptions::default(), Backend::Vhdl);
        assert!(text.contains("o_valid <= i_valid;"));
        assert!(text.contains("o_data <= i_data;"));
        assert!(text.contains("i_ready <= o_ready;"));
    }

    #[test]
    fn invalid_project_refused() {
        let mut p = Project::new("bad");
        p.add_streamlet(Streamlet::new("s").with_port(Port::new(
            "i",
            PortDirection::In,
            stream8(),
        )))
        .unwrap();
        // Unused port i -> port usage violation.
        p.add_implementation(Implementation::normal("i_i", "s"))
            .unwrap();
        let err = generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default());
        assert!(matches!(err, Err(VhdlError::InvalidProject(_))));
    }

    #[test]
    fn unknown_builtin_surfaces() {
        let mut p = Project::new("x");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(Implementation::external("e_i", "s").with_builtin("std.not_a_thing"))
            .unwrap();
        let err = generate_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default());
        assert!(matches!(err, Err(VhdlError::UnknownBuiltin { .. })));
    }

    /// `top_i`'s architecture over ports that lower to two physical
    /// streams, pinned byte for byte.
    const NESTED_VHDL_ARCHITECTURE: &str = r#"architecture structural of top_i is
  -- a.o => b.i
  signal n1_a_o_valid : std_logic;
  signal n1_a_o_ready : std_logic;
  signal n1_a_o_data : std_logic_vector(3 downto 0);
  signal n1_a_o_resp_valid : std_logic;
  signal n1_a_o_resp_ready : std_logic;
  signal n1_a_o_resp_data : std_logic_vector(7 downto 0);
begin
  -- .fi => .fo
  fo_valid <= fi_valid;
  fi_ready <= fo_ready;
  fo_data <= fi_data;
  fi_resp_valid <= fo_resp_valid;
  fo_resp_ready <= fi_resp_ready;
  fi_resp_data <= fo_resp_data;
  u_a : entity work.leaf_i
    port map (
      clk => clk,
      rst => rst,
      i_valid => i_valid,
      i_ready => i_ready,
      i_data => i_data,
      i_resp_valid => i_resp_valid,
      i_resp_ready => i_resp_ready,
      i_resp_data => i_resp_data,
      o_valid => n1_a_o_valid,
      o_ready => n1_a_o_ready,
      o_data => n1_a_o_data,
      o_resp_valid => n1_a_o_resp_valid,
      o_resp_ready => n1_a_o_resp_ready,
      o_resp_data => n1_a_o_resp_data
    );
  u_b : entity work.leaf_i
    port map (
      clk => clk,
      rst => rst,
      i_valid => n1_a_o_valid,
      i_ready => n1_a_o_ready,
      i_data => n1_a_o_data,
      i_resp_valid => n1_a_o_resp_valid,
      i_resp_ready => n1_a_o_resp_ready,
      i_resp_data => n1_a_o_resp_data,
      o_valid => o_valid,
      o_ready => o_ready,
      o_data => o_data,
      o_resp_valid => o_resp_valid,
      o_resp_ready => o_resp_ready,
      o_resp_data => o_resp_data
    );
end architecture structural;

"#;

    /// The SystemVerilog body of the same module.
    const NESTED_SV_BODY: &str = r#"  // a.o => b.i
  logic n1_a_o_valid;
  logic n1_a_o_ready;
  logic [3:0] n1_a_o_data;
  logic n1_a_o_resp_valid;
  logic n1_a_o_resp_ready;
  logic [7:0] n1_a_o_resp_data;

  // .fi => .fo
  assign fo_valid = fi_valid;
  assign fi_ready = fo_ready;
  assign fo_data = fi_data;
  assign fi_resp_valid = fo_resp_valid;
  assign fo_resp_ready = fi_resp_ready;
  assign fi_resp_data = fo_resp_data;

  leaf_i u_a (
    .clk (clk),
    .rst (rst),
    .i_valid (i_valid),
    .i_ready (i_ready),
    .i_data (i_data),
    .i_resp_valid (i_resp_valid),
    .i_resp_ready (i_resp_ready),
    .i_resp_data (i_resp_data),
    .o_valid (n1_a_o_valid),
    .o_ready (n1_a_o_ready),
    .o_data (n1_a_o_data),
    .o_resp_valid (n1_a_o_resp_valid),
    .o_resp_ready (n1_a_o_resp_ready),
    .o_resp_data (n1_a_o_resp_data)
  );

  leaf_i u_b (
    .clk (clk),
    .rst (rst),
    .i_valid (n1_a_o_valid),
    .i_ready (n1_a_o_ready),
    .i_data (n1_a_o_data),
    .i_resp_valid (n1_a_o_resp_valid),
    .i_resp_ready (n1_a_o_resp_ready),
    .i_resp_data (n1_a_o_resp_data),
    .o_valid (o_valid),
    .o_ready (o_ready),
    .o_data (o_data),
    .o_resp_valid (o_resp_valid),
    .o_resp_ready (o_resp_ready),
    .o_resp_data (o_resp_data)
  );
endmodule
"#;

    #[test]
    fn nested_port_maps_nets_and_assigns_are_pinned() {
        let p = crate::lower::tests::nested_project();
        let generate = |backend| {
            generate_project_for(
                &p,
                &BuiltinRegistry::with_core(),
                &VhdlOptions::default(),
                backend,
            )
            .unwrap()
            .remove(1)
        };
        let vhdl = generate(Backend::Vhdl);
        assert_eq!(vhdl.name, "top_i.vhd");
        assert!(
            vhdl.contents.ends_with(NESTED_VHDL_ARCHITECTURE),
            "{}",
            vhdl.contents
        );
        let sv = generate(Backend::SystemVerilog);
        assert!(sv.contents.ends_with(NESTED_SV_BODY), "{}", sv.contents);
    }

    #[test]
    fn to_string_banners_every_file() {
        let p = chain_project();
        let text = render(&p, &VhdlOptions::default(), Backend::Vhdl);
        assert!(text.contains("-- file: leaf_i.vhd\n"));
        assert!(text.contains("-- file: top_i.vhd\n"));
        let sv = render(&p, &VhdlOptions::default(), Backend::SystemVerilog);
        assert!(sv.contains("// file: leaf_i.sv\n"));
        assert!(sv.contains("// file: top_i.sv\n"));
    }

    #[test]
    fn comments_can_be_disabled() {
        let p = chain_project();
        let opts = VhdlOptions {
            emit_comments: false,
            validate: true,
        };
        let text = render(&p, &opts, Backend::Vhdl);
        // Only the `-- file:` banners remain; the generated code
        // itself carries no comments.
        for line in text.lines() {
            if line.trim_start().starts_with("--") {
                assert!(line.starts_with("-- file: "), "unexpected comment: {line}");
            }
        }
        assert!(text.contains("-- file: leaf_i.vhd"));
    }
}
