//! Hard-coded RTL generation processes for the standard library
//! (paper §IV-C: "this generation process must be manually defined").
//!
//! Each generator inspects the concrete streamlet produced by template
//! instantiation — port count, data widths, `last` widths — and emits
//! a behavioral VHDL architecture body. Template arguments arrive as
//! `param_*` attributes on the external implementation.

use std::fmt::Write as _;
use tydi_ir::Port;
use tydi_vhdl::builtin::{ArchBody, BuiltinCtx};
use tydi_vhdl::BuiltinRegistry;

/// Registers every standard-library generator on `registry`.
pub fn register_builtins(registry: &BuiltinRegistry) {
    registry.register("std.add", gen_binop("+"));
    registry.register("std.sub", gen_binop("-"));
    registry.register("std.mul", gen_mul);
    registry.register("std.div", gen_binop("/"));
    registry.register("std.cmp_eq", gen_compare("="));
    registry.register("std.cmp_ne", gen_compare("/="));
    registry.register("std.cmp_lt", gen_compare("<"));
    registry.register("std.cmp_le", gen_compare("<="));
    registry.register("std.cmp_gt", gen_compare(">"));
    registry.register("std.cmp_ge", gen_compare(">="));
    registry.register("std.eq_const", gen_compare_const("="));
    registry.register("std.ne_const", gen_compare_const("/="));
    registry.register("std.lt_const", gen_compare_const("<"));
    registry.register("std.le_const", gen_compare_const("<="));
    registry.register("std.gt_const", gen_compare_const(">"));
    registry.register("std.ge_const", gen_compare_const(">="));
    registry.register("std.and_n", gen_logic_n("and"));
    registry.register("std.or_n", gen_logic_n("or"));
    registry.register("std.not", gen_not);
    registry.register("std.filter", gen_filter);
    registry.register("std.sum", gen_reduce(ReduceKind::Sum));
    registry.register("std.count", gen_reduce(ReduceKind::Count));
    registry.register("std.min", gen_reduce(ReduceKind::Min));
    registry.register("std.max", gen_reduce(ReduceKind::Max));
    registry.register("std.demux", gen_demux);
    registry.register("std.mux", gen_mux);
    registry.register("std.const", gen_const);
    registry.register("std.group_split2", gen_group_split2);
    registry.register("std.group_combine2", gen_group_combine2);
}

// ---- shared helpers -----------------------------------------------------

/// The data width of a port's root physical stream (its type is
/// lowered once per module).
pub(crate) fn data_width(ctx: &BuiltinCtx<'_>, port: &Port) -> Result<u32, String> {
    Ok(ctx.root_widths(port)?.data)
}

/// The `last` width (dimension) of a port's root physical stream.
pub(crate) fn last_width(ctx: &BuiltinCtx<'_>, port: &Port) -> Result<u32, String> {
    Ok(ctx.root_widths(port)?.last)
}

pub(crate) fn port<'a>(ctx: &'a BuiltinCtx<'_>, name: &str) -> Result<&'a Port, String> {
    ctx.streamlet
        .port(name)
        .ok_or_else(|| format!("missing port `{name}`"))
}

/// Renders a data signal as a VHDL `unsigned`, handling the
/// single-bit `std_logic` case.
fn as_unsigned(signal: &str, width: u32) -> String {
    if width == 1 {
        format!("unsigned'(\"\" & {signal})")
    } else {
        format!("unsigned({signal})")
    }
}

/// Renders an assignment of an unsigned expression to a data signal.
fn assign_data(signal: &str, width: u32, expr: &str) -> String {
    if width == 1 {
        format!("  {signal} <= {expr}(0);\n")
    } else {
        format!("  {signal} <= std_logic_vector({expr});\n")
    }
}

/// Renders an integer constant at a given width.
fn const_literal(value: i64, width: u32) -> String {
    if width == 1 {
        format!("'{}'", value & 1)
    } else {
        format!("std_logic_vector(to_signed({value}, {width}))")
    }
}

pub(crate) fn int_param(ctx: &BuiltinCtx<'_>, name: &str) -> Result<i64, String> {
    ctx.param(name)
        .ok_or_else(|| format!("missing template parameter `{name}`"))?
        .parse::<i64>()
        .map_err(|_| format!("template parameter `{name}` is not an integer"))
}

/// Two-input handshake join feeding one output: shared by arithmetic
/// and comparison generators. `op_line` produces the data statement.
fn join2(
    ctx: &BuiltinCtx<'_>,
    op_line: impl FnOnce(&Port, &Port, &Port) -> Result<String, String>,
) -> Result<ArchBody, String> {
    let in0 = port(ctx, "in0")?;
    let in1 = port(ctx, "in1")?;
    let out = port(ctx, "o")?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  o_valid <= in0_valid and in1_valid;");
    let _ = writeln!(stmts, "  in0_ready <= in0_valid and in1_valid and o_ready;");
    let _ = writeln!(stmts, "  in1_ready <= in0_valid and in1_valid and o_ready;");
    stmts.push_str(&op_line(in0, in1, out)?);
    // Forward `last` from the first operand when the output carries
    // dimensions (operands of a join must be dimension-aligned).
    if last_width(ctx, out)? > 0 && last_width(ctx, in0)? == last_width(ctx, out)? {
        let _ = writeln!(stmts, "  o_last <= in0_last;");
    }
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

// ---- arithmetic -----------------------------------------------------------

fn gen_binop(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        join2(ctx, |in0, in1, out| {
            let w0 = data_width(ctx, in0)?;
            let w1 = data_width(ctx, in1)?;
            let wo = data_width(ctx, out)?;
            let expr = format!(
                "resize({} {op} {}, {wo})",
                as_unsigned("in0_data", w0),
                as_unsigned("in1_data", w1)
            );
            Ok(assign_data("o_data", wo, &expr))
        })
    }
}

/// Multiplication needs explicit resizing of the full product.
fn gen_mul(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    join2(ctx, |in0, in1, out| {
        let w0 = data_width(ctx, in0)?;
        let w1 = data_width(ctx, in1)?;
        let wo = data_width(ctx, out)?;
        let expr = format!(
            "resize({} * {}, {wo})",
            as_unsigned("in0_data", w0),
            as_unsigned("in1_data", w1)
        );
        Ok(assign_data("o_data", wo, &expr))
    })
}

// ---- comparison -----------------------------------------------------------

fn gen_compare(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        join2(ctx, |in0, in1, _out| {
            let w0 = data_width(ctx, in0)?;
            let w1 = data_width(ctx, in1)?;
            Ok(format!(
                "  o_data <= '1' when {} {op} {} else '0';\n",
                as_unsigned("in0_data", w0),
                as_unsigned("in1_data", w1)
            ))
        })
    }
}

fn gen_compare_const(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        let input = port(ctx, "i")?;
        let wi = data_width(ctx, input)?;
        let v = int_param(ctx, "v")?;
        let mut stmts = String::new();
        let _ = writeln!(stmts, "  o_valid <= i_valid;");
        let _ = writeln!(stmts, "  i_ready <= o_ready;");
        let _ = writeln!(
            stmts,
            "  o_data <= '1' when signed({}) {op} to_signed({v}, {wi}) else '0';",
            if wi == 1 {
                "'0' & i_data".to_string()
            } else {
                "i_data".to_string()
            }
        );
        if last_width(ctx, input)? > 0
            && last_width(ctx, port(ctx, "o")?)? == last_width(ctx, input)?
        {
            let _ = writeln!(stmts, "  o_last <= i_last;");
        }
        Ok(ArchBody {
            decls: String::new(),
            stmts,
        })
    }
}

// ---- n-ary logic ----------------------------------------------------------

fn gen_logic_n(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        let inputs = ctx.inputs();
        if inputs.is_empty() {
            return Err(format!("{op}-gate needs at least one input"));
        }
        let mut stmts = String::new();
        let valids: Vec<String> = inputs.iter().map(|p| format!("{}_valid", p.name)).collect();
        let datas: Vec<String> = inputs.iter().map(|p| format!("{}_data", p.name)).collect();
        let all_valid = valids.join(" and ");
        let _ = writeln!(stmts, "  o_valid <= {all_valid};");
        let _ = writeln!(stmts, "  o_data <= {};", datas.join(&format!(" {op} ")));
        for p in &inputs {
            let _ = writeln!(stmts, "  {}_ready <= {all_valid} and o_ready;", p.name);
        }
        Ok(ArchBody {
            decls: String::new(),
            stmts,
        })
    }
}

fn gen_not(_ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  o_valid <= i_valid;");
    let _ = writeln!(stmts, "  i_ready <= o_ready;");
    let _ = writeln!(stmts, "  o_data <= not i_data;");
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

// ---- stream manipulation ---------------------------------------------------

fn gen_filter(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let input = port(ctx, "i")?;
    let out = port(ctx, "o")?;
    let mut decls = String::new();
    let mut stmts = String::new();
    let _ = writeln!(decls, "  signal both : std_logic;");
    let _ = writeln!(decls, "  signal forward : std_logic;");
    let _ = writeln!(decls, "  signal consumed : std_logic;");
    let _ = writeln!(stmts, "  both <= i_valid and keep_valid;");
    let _ = writeln!(stmts, "  forward <= both and keep_data;");
    let _ = writeln!(stmts, "  o_valid <= forward;");
    let _ = writeln!(stmts, "  o_data <= i_data;");
    if last_width(ctx, input)? > 0 && last_width(ctx, out)? == last_width(ctx, input)? {
        let _ = writeln!(stmts, "  o_last <= i_last;");
    }
    let _ = writeln!(
        stmts,
        "  consumed <= (forward and o_ready) or (both and not keep_data);"
    );
    let _ = writeln!(stmts, "  i_ready <= consumed;");
    let _ = writeln!(stmts, "  keep_ready <= consumed;");
    Ok(ArchBody { decls, stmts })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceKind {
    Sum,
    Count,
    Min,
    Max,
}

/// A registered reduction over the innermost sequence dimension: one
/// accumulator plus a pending-result register, closing on `last`.
fn gen_reduce(kind: ReduceKind) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        let input = port(ctx, "i")?;
        let out = port(ctx, "o")?;
        let wi = data_width(ctx, input)?;
        let wo = data_width(ctx, out)?;
        let in_last = last_width(ctx, input)?;
        if in_last == 0 {
            return Err("reduction input must have dimension >= 1".into());
        }
        let inner_last = if in_last == 1 {
            "i_last".to_string()
        } else {
            "i_last(0)".to_string()
        };
        let element = format!("resize({}, {wo})", as_unsigned("i_data", wi));
        let update = match kind {
            ReduceKind::Sum => format!("acc + {element}"),
            ReduceKind::Count => "acc + 1".to_string(),
            ReduceKind::Min => format!("minimum(acc, {element})"),
            ReduceKind::Max => format!("maximum(acc, {element})"),
        };
        let init = match kind {
            ReduceKind::Sum | ReduceKind::Count | ReduceKind::Max => "(others => '0')".to_string(),
            ReduceKind::Min => "(others => '1')".to_string(),
        };
        let mut decls = String::new();
        let _ = writeln!(decls, "  signal acc : unsigned({} downto 0);", wo - 1);
        let _ = writeln!(decls, "  signal result_valid : std_logic;");
        let _ = writeln!(
            decls,
            "  signal result_data : std_logic_vector({} downto 0);",
            wo - 1
        );
        let mut stmts = String::new();
        let _ = writeln!(stmts, "  o_valid <= result_valid;");
        let _ = writeln!(stmts, "  o_data <= result_data;");
        let _ = writeln!(stmts, "  i_ready <= (not result_valid) or o_ready;");
        let _ = writeln!(stmts, "  reduce_proc : process(clk)");
        let _ = writeln!(stmts, "  begin");
        let _ = writeln!(stmts, "    if rising_edge(clk) then");
        let _ = writeln!(stmts, "      if rst = '1' then");
        let _ = writeln!(stmts, "        acc <= {init};");
        let _ = writeln!(stmts, "        result_valid <= '0';");
        let _ = writeln!(stmts, "      else");
        let _ = writeln!(
            stmts,
            "        if result_valid = '1' and o_ready = '1' then"
        );
        let _ = writeln!(stmts, "          result_valid <= '0';");
        let _ = writeln!(stmts, "        end if;");
        let _ = writeln!(
            stmts,
            "        if i_valid = '1' and ((not result_valid) = '1' or o_ready = '1') then"
        );
        let _ = writeln!(stmts, "          if {inner_last} = '1' then");
        let _ = writeln!(
            stmts,
            "            result_data <= std_logic_vector({update});"
        );
        let _ = writeln!(stmts, "            result_valid <= '1';");
        let _ = writeln!(stmts, "            acc <= {init};");
        let _ = writeln!(stmts, "          else");
        let _ = writeln!(stmts, "            acc <= {update};");
        let _ = writeln!(stmts, "          end if;");
        let _ = writeln!(stmts, "        end if;");
        let _ = writeln!(stmts, "      end if;");
        let _ = writeln!(stmts, "    end if;");
        let _ = writeln!(stmts, "  end process reduce_proc;");
        Ok(ArchBody { decls, stmts })
    }
}

fn gen_demux(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let outputs = ctx.outputs();
    let n = outputs.len();
    if n == 0 {
        return Err("demux needs at least one output".into());
    }
    let sel_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let mut decls = String::new();
    let _ = writeln!(decls, "  signal sel : unsigned({} downto 0);", sel_bits - 1);
    let _ = writeln!(decls, "  signal fire : std_logic;");
    let mut stmts = String::new();
    for (k, output) in outputs.iter().enumerate() {
        let name = &output.name;
        let _ = writeln!(
            stmts,
            "  {name}_valid <= i_valid when to_integer(sel) = {k} else '0';"
        );
        let _ = writeln!(stmts, "  {name}_data <= i_data;");
        if last_width(ctx, output).unwrap_or(0) > 0 {
            let _ = writeln!(stmts, "  {name}_last <= i_last;");
        }
    }
    let readies: Vec<String> = outputs
        .iter()
        .enumerate()
        .map(|(k, o)| format!("{}_ready when to_integer(sel) = {k}", o.name))
        .collect();
    let _ = writeln!(stmts, "  i_ready <= {} else '0';", readies.join(" else "));
    let _ = writeln!(stmts, "  fire <= i_valid and i_ready;");
    let _ = writeln!(stmts, "  advance_proc : process(clk)");
    let _ = writeln!(stmts, "  begin");
    let _ = writeln!(stmts, "    if rising_edge(clk) then");
    let _ = writeln!(stmts, "      if rst = '1' then");
    let _ = writeln!(stmts, "        sel <= (others => '0');");
    let _ = writeln!(stmts, "      elsif fire = '1' then");
    let _ = writeln!(stmts, "        if to_integer(sel) = {} then", n - 1);
    let _ = writeln!(stmts, "          sel <= (others => '0');");
    let _ = writeln!(stmts, "        else");
    let _ = writeln!(stmts, "          sel <= sel + 1;");
    let _ = writeln!(stmts, "        end if;");
    let _ = writeln!(stmts, "      end if;");
    let _ = writeln!(stmts, "    end if;");
    let _ = writeln!(stmts, "  end process advance_proc;");
    Ok(ArchBody { decls, stmts })
}

fn gen_mux(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let inputs = ctx.inputs();
    let n = inputs.len();
    if n == 0 {
        return Err("mux needs at least one input".into());
    }
    let sel_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let mut decls = String::new();
    let _ = writeln!(decls, "  signal sel : unsigned({} downto 0);", sel_bits - 1);
    let _ = writeln!(decls, "  signal fire : std_logic;");
    let mut stmts = String::new();
    let valid_cases: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(k, p)| format!("{}_valid when to_integer(sel) = {k}", p.name))
        .collect();
    let data_cases: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(k, p)| format!("{}_data when to_integer(sel) = {k}", p.name))
        .collect();
    let _ = writeln!(
        stmts,
        "  o_valid <= {} else '0';",
        valid_cases.join(" else ")
    );
    let _ = writeln!(
        stmts,
        "  o_data <= {} else {}_data;",
        data_cases.join(" else "),
        inputs[0].name
    );
    for (k, p) in inputs.iter().enumerate() {
        let _ = writeln!(
            stmts,
            "  {}_ready <= o_ready when to_integer(sel) = {k} else '0';",
            p.name
        );
    }
    let _ = writeln!(stmts, "  fire <= o_valid and o_ready;");
    let _ = writeln!(stmts, "  advance_proc : process(clk)");
    let _ = writeln!(stmts, "  begin");
    let _ = writeln!(stmts, "    if rising_edge(clk) then");
    let _ = writeln!(stmts, "      if rst = '1' then");
    let _ = writeln!(stmts, "        sel <= (others => '0');");
    let _ = writeln!(stmts, "      elsif fire = '1' then");
    let _ = writeln!(stmts, "        if to_integer(sel) = {} then", n - 1);
    let _ = writeln!(stmts, "          sel <= (others => '0');");
    let _ = writeln!(stmts, "        else");
    let _ = writeln!(stmts, "          sel <= sel + 1;");
    let _ = writeln!(stmts, "        end if;");
    let _ = writeln!(stmts, "      end if;");
    let _ = writeln!(stmts, "    end if;");
    let _ = writeln!(stmts, "  end process advance_proc;");
    Ok(ArchBody { decls, stmts })
}

fn gen_const(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let out = port(ctx, "o")?;
    let wo = data_width(ctx, out)?;
    let v = int_param(ctx, "v")?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  o_valid <= '1';");
    let _ = writeln!(stmts, "  o_data <= {};", const_literal(v, wo));
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

/// The widths of the first two Group fields of a port's stream
/// element.
pub(crate) fn group2_field_widths(p: &Port) -> Result<(u32, u32), String> {
    let tydi_spec::LogicalType::Stream { element, .. } = &*p.ty else {
        return Err(format!("port `{}` is not a stream", p.name));
    };
    let fields = element.fields();
    if fields.len() < 2 {
        return Err(format!(
            "port `{}` must carry a Group with at least two fields",
            p.name
        ));
    }
    Ok((fields[0].ty.bit_width(), fields[1].ty.bit_width()))
}

/// `std.group_split2`: slice a two-field Group element into its field
/// streams; acknowledge the input when both sinks accepted (the
/// duplicator handshake pattern).
fn gen_group_split2(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let input = port(ctx, "i")?;
    let (wa, wb) = group2_field_widths(input)?;
    let out_a = port(ctx, "a")?;
    let out_b = port(ctx, "b")?;
    if data_width(ctx, out_a)? != wa || data_width(ctx, out_b)? != wb {
        return Err("output widths must match the Group field widths".into());
    }
    let mut decls = String::new();
    let mut stmts = String::new();
    let _ = writeln!(decls, "  signal both_ready : std_logic;");
    let _ = writeln!(stmts, "  both_ready <= a_ready and b_ready;");
    let _ = writeln!(stmts, "  i_ready <= both_ready;");
    let _ = writeln!(stmts, "  a_valid <= i_valid and both_ready;");
    let _ = writeln!(stmts, "  b_valid <= i_valid and both_ready;");
    let _ = writeln!(stmts, "  a_data <= i_data({} downto 0);", wa - 1);
    let _ = writeln!(stmts, "  b_data <= i_data({} downto {wa});", wa + wb - 1);
    if last_width(ctx, input)? > 0 {
        if last_width(ctx, out_a)? == last_width(ctx, input)? {
            let _ = writeln!(stmts, "  a_last <= i_last;");
        }
        if last_width(ctx, out_b)? == last_width(ctx, input)? {
            let _ = writeln!(stmts, "  b_last <= i_last;");
        }
    }
    Ok(ArchBody { decls, stmts })
}

/// `std.group_combine2`: concatenate two element streams into a Group
/// element (field `a` occupies the low bits, matching Group packing).
fn gen_group_combine2(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let in_a = port(ctx, "a")?;
    let in_b = port(ctx, "b")?;
    let out = port(ctx, "o")?;
    let (wa, wb) = group2_field_widths(out)?;
    if data_width(ctx, in_a)? != wa || data_width(ctx, in_b)? != wb {
        return Err("input widths must match the Group field widths".into());
    }
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  o_valid <= a_valid and b_valid;");
    let _ = writeln!(stmts, "  a_ready <= a_valid and b_valid and o_ready;");
    let _ = writeln!(stmts, "  b_ready <= a_valid and b_valid and o_ready;");
    let _ = writeln!(stmts, "  o_data <= b_data & a_data;");
    if last_width(ctx, out)? > 0 && last_width(ctx, in_a)? == last_width(ctx, out)? {
        let _ = writeln!(stmts, "  o_last <= a_last;");
    }
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

#[cfg(test)]
mod tests {

    use crate::source::{with_stdlib, STDLIB_FILE_NAME};
    use tydi_lang::{compile, CompileOptions};
    use tydi_vhdl::{check::check_vhdl, generate_project, VhdlOptions};

    /// Compiles user source with the stdlib and generates VHDL.
    fn build(user: &str) -> String {
        let sources = with_stdlib(&[("app.td", user)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let out = compile(&refs, &CompileOptions::default()).unwrap_or_else(|e| {
            panic!("compile failed:\n{e}");
        });
        let registry = crate::full_registry();
        let files = generate_project(&out.project, &registry, &VhdlOptions::default())
            .expect("vhdl generation");
        let mut all = String::new();
        for f in files {
            all.push_str(&f.contents);
        }
        all
    }

    #[test]
    fn adder_generates_resized_sum() {
        let vhdl = build(
            r#"
package app;
use std;
type W32 = Stream(Bit(32));
type W33 = Stream(Bit(33));
streamlet top_s { a : W32 in, b : W32 in, s : W33 out, }
impl top_i of top_s {
    instance add(adder_i<type W32, type W32, type W33>),
    a => add.in0,
    b => add.in1,
    add.o => s,
}
"#,
        );
        assert!(vhdl.contains("resize(unsigned(in0_data) + unsigned(in1_data), 33)"));
        assert!(vhdl.contains("o_valid <= in0_valid and in1_valid;"));
        let issues = check_vhdl(&vhdl);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn comparator_and_logic_gates() {
        let vhdl = build(
            r#"
package app;
use std;
type W8 = Stream(Bit(8));
streamlet top_s { a : W8 in, b : W8 in, c : W8 in, d : W8 in, o : BoolStream out, }
impl top_i of top_s {
    instance lt(lt_i<type W8, type W8>),
    instance gt(gt_i<type W8, type W8>),
    instance both(and_n_i<2>),
    a => lt.in0,
    b => lt.in1,
    c => gt.in0,
    d => gt.in1,
    lt.o => both.i[0],
    gt.o => both.i[1],
    both.o => o,
}
"#,
        );
        assert!(vhdl.contains("when unsigned(in0_data) < unsigned(in1_data)"));
        assert!(vhdl.contains("o_data <= i_0_data and i_1_data;"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn const_compare_uses_parameter() {
        let vhdl = build(
            r#"
package app;
use std;
type W16 = Stream(Bit(16));
streamlet top_s { i : W16 in, o : BoolStream out, }
impl top_i of top_s {
    instance cmp(ge_const_i<type W16, 42>),
    i => cmp.i,
    cmp.o => o,
}
"#,
        );
        assert!(vhdl.contains("to_signed(42, 16)"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn reduce_has_accumulator_process() {
        let vhdl = build(
            r#"
package app;
use std;
type Seq32 = Stream(Bit(32), d=1);
type W64 = Stream(Bit(64));
streamlet top_s { i : Seq32 in, o : W64 out, }
impl top_i of top_s {
    instance s(sum_i<type Seq32, type W64>),
    i => s.i,
    s.o => o,
}
"#,
        );
        assert!(vhdl.contains("signal acc : unsigned(63 downto 0);"));
        assert!(vhdl.contains("reduce_proc : process(clk)"));
        assert!(vhdl.contains("if i_last = '1' then"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn reduce_rejects_dimensionless_input() {
        let sources = with_stdlib(&[(
            "app.td",
            r#"
package app;
use std;
type W32 = Stream(Bit(32));
streamlet top_s { i : W32 in, o : W32 out, }
impl top_i of top_s {
    instance s(sum_i<type W32, type W32>),
    i => s.i,
    s.o => o,
}
"#,
        )]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let out = compile(&refs, &CompileOptions::default()).unwrap();
        let registry = crate::full_registry();
        let err = generate_project(&out.project, &registry, &VhdlOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn demux_mux_round_robin() {
        let vhdl = build(
            r#"
package app;
use std;
type W8 = Stream(Bit(8));
streamlet top_s { i : W8 in, o : W8 out, }
impl top_i of top_s {
    instance d(demux_i<type W8, 4>),
    instance m(mux_i<type W8, 4>),
    i => d.i,
    for k in (0..4) {
        d.o[k] => m.i[k],
    }
    m.o => o,
}
"#,
        );
        assert!(vhdl.contains("o_0_valid <= i_valid when to_integer(sel) = 0 else '0';"));
        assert!(vhdl.contains("advance_proc : process(clk)"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn filter_consumes_dropped_packets() {
        let vhdl = build(
            r#"
package app;
use std;
type W8 = Stream(Bit(8));
streamlet top_s { i : W8 in, k : BoolStream in, o : W8 out, }
impl top_i of top_s {
    instance f(filter_i<type W8>),
    i => f.i,
    k => f.keep,
    f.o => o,
}
"#,
        );
        assert!(vhdl.contains("forward <= both and keep_data;"));
        assert!(vhdl.contains("consumed <= (forward and o_ready) or (both and not keep_data);"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn const_source_drives_literal() {
        let vhdl = build(
            r#"
package app;
use std;
type W16 = Stream(Bit(16));
streamlet top_s { o : W16 out, }
impl top_i of top_s {
    instance c(const_source_i<type W16, 1234>),
    c.o => o,
}
"#,
        );
        assert!(vhdl.contains("o_data <= std_logic_vector(to_signed(1234, 16));"));
        assert!(vhdl.contains("o_valid <= '1';"));
        assert!(check_vhdl(&vhdl).is_empty());
    }

    #[test]
    fn stdlib_source_is_registered_under_expected_name() {
        assert_eq!(STDLIB_FILE_NAME, "std.td");
    }
}
