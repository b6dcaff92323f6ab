//! SystemVerilog generation processes for the standard library.
//!
//! One-to-one twins of the VHDL generators in [`crate::builtins`],
//! registered for [`Backend::SystemVerilog`] on the per-backend
//! builtin registry. Each generator inspects the same concrete
//! streamlet (port count, data widths, `last` widths) and emits a
//! SystemVerilog module body: continuous `assign`s for the
//! combinational builtins, `always_ff` processes for the registered
//! ones. Data is unsigned (as in the VHDL twins) except the
//! constant comparators, which compare signed.

use crate::builtins::{data_width, group2_field_widths, int_param, last_width, port};
use std::fmt::Write as _;
use tydi_rtl::verilog::sv_type;
use tydi_rtl::Backend;
use tydi_vhdl::builtin::{ArchBody, BuiltinCtx};
use tydi_vhdl::BuiltinRegistry;

/// Registers every standard-library SystemVerilog generator on
/// `registry`, under the same keys as the VHDL set.
pub fn register_builtins_sv(registry: &BuiltinRegistry) {
    let b = Backend::SystemVerilog;
    registry.register_for(b, "std.add", gen_binop("+"));
    registry.register_for(b, "std.sub", gen_binop("-"));
    registry.register_for(b, "std.mul", gen_mul);
    registry.register_for(b, "std.div", gen_binop("/"));
    registry.register_for(b, "std.cmp_eq", gen_compare("=="));
    registry.register_for(b, "std.cmp_ne", gen_compare("!="));
    registry.register_for(b, "std.cmp_lt", gen_compare("<"));
    registry.register_for(b, "std.cmp_le", gen_compare("<="));
    registry.register_for(b, "std.cmp_gt", gen_compare(">"));
    registry.register_for(b, "std.cmp_ge", gen_compare(">="));
    registry.register_for(b, "std.eq_const", gen_compare_const("=="));
    registry.register_for(b, "std.ne_const", gen_compare_const("!="));
    registry.register_for(b, "std.lt_const", gen_compare_const("<"));
    registry.register_for(b, "std.le_const", gen_compare_const("<="));
    registry.register_for(b, "std.gt_const", gen_compare_const(">"));
    registry.register_for(b, "std.ge_const", gen_compare_const(">="));
    registry.register_for(b, "std.and_n", gen_logic_n("&"));
    registry.register_for(b, "std.or_n", gen_logic_n("|"));
    registry.register_for(b, "std.not", gen_not);
    registry.register_for(b, "std.filter", gen_filter);
    registry.register_for(b, "std.sum", gen_reduce(ReduceKind::Sum));
    registry.register_for(b, "std.count", gen_reduce(ReduceKind::Count));
    registry.register_for(b, "std.min", gen_reduce(ReduceKind::Min));
    registry.register_for(b, "std.max", gen_reduce(ReduceKind::Max));
    registry.register_for(b, "std.demux", gen_demux);
    registry.register_for(b, "std.mux", gen_mux);
    registry.register_for(b, "std.const", gen_const);
    registry.register_for(b, "std.group_split2", gen_group_split2);
    registry.register_for(b, "std.group_combine2", gen_group_combine2);
}

// ---- shared helpers -----------------------------------------------------

/// Renders an expression evaluated at `width` bits via a
/// SystemVerilog size cast: the cast's context width propagates to
/// the operands, so a single-operand expression is zero-extended or
/// truncated exactly like the VHDL `resize` on `unsigned`.
fn resized(expr: &str, width: u32) -> String {
    format!("{width}'({expr})")
}

/// Wraps `v` into the `width`-bit two's-complement range, matching
/// the truncation VHDL's `to_signed(v, width)` applies before a
/// comparison.
fn wrap_signed(v: i64, width: u32) -> i64 {
    if width >= 64 {
        return v;
    }
    let modulus = 1i128 << width;
    let mut wrapped = (v as i128).rem_euclid(modulus);
    if wrapped >= modulus / 2 {
        wrapped -= modulus;
    }
    wrapped as i64
}

/// Renders an integer constant at a given width.
fn const_literal(value: i64, width: u32) -> String {
    if width == 1 {
        format!("1'b{}", value & 1)
    } else {
        format!("{width}'({value})")
    }
}

/// The innermost `last` lane of an input with dimension >= 1.
fn inner_last(width: u32) -> &'static str {
    if width == 1 {
        "i_last"
    } else {
        "i_last[0]"
    }
}

/// Two-input handshake join feeding one output (the twin of the VHDL
/// `join2`). `op_line` produces the data statement.
fn join2(
    ctx: &BuiltinCtx<'_>,
    op_line: impl FnOnce(&tydi_ir::Port, &tydi_ir::Port, &tydi_ir::Port) -> Result<String, String>,
) -> Result<ArchBody, String> {
    let in0 = port(ctx, "in0")?;
    let in1 = port(ctx, "in1")?;
    let out = port(ctx, "o")?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  assign o_valid = in0_valid & in1_valid;");
    let _ = writeln!(
        stmts,
        "  assign in0_ready = in0_valid & in1_valid & o_ready;"
    );
    let _ = writeln!(
        stmts,
        "  assign in1_ready = in0_valid & in1_valid & o_ready;"
    );
    stmts.push_str(&op_line(in0, in1, out)?);
    // Forward `last` from the first operand when the output carries
    // dimensions (operands of a join must be dimension-aligned).
    if last_width(ctx, out)? > 0 && last_width(ctx, in0)? == last_width(ctx, out)? {
        let _ = writeln!(stmts, "  assign o_last = in0_last;");
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
            // The VHDL twin computes `resize(a {op} b, wo)` where
            // numeric_std evaluates `a {op} b` at max(w0, w1) bits
            // (the carry is dropped *before* the resize). A bare
            // `wo'(a {op} b)` would instead evaluate at wo bits and
            // keep the carry, so truncate at the operand width first
            // when the output is wider.
            let wmax = w0.max(w1);
            let expr = format!("in0_data {op} in1_data");
            let expr = if wo > wmax {
                resized(&resized(&expr, wmax), wo)
            } else {
                resized(&expr, wo)
            };
            Ok(format!("  assign o_data = {expr};\n"))
        })
    }
}

/// Multiplication keeps the full double-width product into the
/// truncation (the VHDL twin resizes the max(w0+w1)-bit product), so
/// a single `wo`-bit cast — low `wo` bits of the product — matches.
fn gen_mul(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    join2(ctx, |_in0, _in1, out| {
        let wo = data_width(ctx, out)?;
        Ok(format!(
            "  assign o_data = {};\n",
            resized("in0_data * in1_data", wo)
        ))
    })
}

// ---- comparison -----------------------------------------------------------

fn gen_compare(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        join2(ctx, |_in0, _in1, _out| {
            Ok(format!(
                "  assign o_data = (in0_data {op} in1_data) ? 1'b1 : 1'b0;\n"
            ))
        })
    }
}

fn gen_compare_const(op: &'static str) -> impl Fn(&BuiltinCtx<'_>) -> Result<ArchBody, String> {
    move |ctx| {
        let input = port(ctx, "i")?;
        let wi = data_width(ctx, input)?;
        let v = int_param(ctx, "v")?;
        // The VHDL twin compares against `to_signed(v, wi)`, which
        // truncates an out-of-range constant into the wi-bit signed
        // range; apply the same wrap here so both backends compare
        // against the same value.
        let v = wrap_signed(v, wi);
        let mut stmts = String::new();
        let _ = writeln!(stmts, "  assign o_valid = i_valid;");
        let _ = writeln!(stmts, "  assign i_ready = o_ready;");
        // Signed comparison, zero-extending a single-bit payload first
        // (the twin of the VHDL `'0' & i_data`).
        let lhs = if wi == 1 {
            "$signed({1'b0, i_data})".to_string()
        } else {
            "$signed(i_data)".to_string()
        };
        let _ = writeln!(stmts, "  assign o_data = ({lhs} {op} {v}) ? 1'b1 : 1'b0;");
        if last_width(ctx, input)? > 0
            && last_width(ctx, port(ctx, "o")?)? == last_width(ctx, input)?
        {
            let _ = writeln!(stmts, "  assign o_last = i_last;");
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
        let all_valid = valids.join(" & ");
        let _ = writeln!(stmts, "  assign o_valid = {all_valid};");
        let _ = writeln!(
            stmts,
            "  assign o_data = {};",
            datas.join(&format!(" {op} "))
        );
        for p in &inputs {
            let _ = writeln!(stmts, "  assign {}_ready = {all_valid} & o_ready;", p.name);
        }
        Ok(ArchBody {
            decls: String::new(),
            stmts,
        })
    }
}

fn gen_not(_ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  assign o_valid = i_valid;");
    let _ = writeln!(stmts, "  assign i_ready = o_ready;");
    let _ = writeln!(stmts, "  assign o_data = ~i_data;");
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
    let _ = writeln!(decls, "  logic both;");
    let _ = writeln!(decls, "  logic forward;");
    let _ = writeln!(decls, "  logic consumed;");
    let _ = writeln!(stmts, "  assign both = i_valid & keep_valid;");
    let _ = writeln!(stmts, "  assign forward = both & keep_data;");
    let _ = writeln!(stmts, "  assign o_valid = forward;");
    let _ = writeln!(stmts, "  assign o_data = i_data;");
    if last_width(ctx, input)? > 0 && last_width(ctx, out)? == last_width(ctx, input)? {
        let _ = writeln!(stmts, "  assign o_last = i_last;");
    }
    let _ = writeln!(
        stmts,
        "  assign consumed = (forward & o_ready) | (both & ~keep_data);"
    );
    let _ = writeln!(stmts, "  assign i_ready = consumed;");
    let _ = writeln!(stmts, "  assign keep_ready = consumed;");
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
        let wo = data_width(ctx, out)?;
        let in_last = last_width(ctx, input)?;
        if in_last == 0 {
            return Err("reduction input must have dimension >= 1".into());
        }
        let last = inner_last(in_last);
        let element = resized("i_data", wo);
        let update = match kind {
            ReduceKind::Sum => format!("acc + {element}"),
            ReduceKind::Count => format!("acc + {}", const_literal(1, wo)),
            ReduceKind::Min => format!("(acc < {element}) ? acc : {element}"),
            ReduceKind::Max => format!("(acc > {element}) ? acc : {element}"),
        };
        let init = match kind {
            ReduceKind::Sum | ReduceKind::Count | ReduceKind::Max => "'0",
            ReduceKind::Min => "'1",
        };
        let mut decls = String::new();
        let _ = writeln!(decls, "  {} acc;", sv_type(wo));
        let _ = writeln!(decls, "  logic result_valid;");
        let _ = writeln!(decls, "  {} result_data;", sv_type(wo));
        let mut stmts = String::new();
        let _ = writeln!(stmts, "  assign o_valid = result_valid;");
        let _ = writeln!(stmts, "  assign o_data = result_data;");
        let _ = writeln!(stmts, "  assign i_ready = ~result_valid | o_ready;");
        let _ = writeln!(stmts, "  always_ff @(posedge clk) begin");
        let _ = writeln!(stmts, "    if (rst) begin");
        let _ = writeln!(stmts, "      acc <= {init};");
        let _ = writeln!(stmts, "      result_valid <= 1'b0;");
        let _ = writeln!(stmts, "    end else begin");
        let _ = writeln!(stmts, "      if (result_valid && o_ready) begin");
        let _ = writeln!(stmts, "        result_valid <= 1'b0;");
        let _ = writeln!(stmts, "      end");
        let _ = writeln!(
            stmts,
            "      if (i_valid && (!result_valid || o_ready)) begin"
        );
        let _ = writeln!(stmts, "        if ({last}) begin");
        let _ = writeln!(stmts, "          result_data <= {update};");
        let _ = writeln!(stmts, "          result_valid <= 1'b1;");
        let _ = writeln!(stmts, "          acc <= {init};");
        let _ = writeln!(stmts, "        end else begin");
        let _ = writeln!(stmts, "          acc <= {update};");
        let _ = writeln!(stmts, "        end");
        let _ = writeln!(stmts, "      end");
        let _ = writeln!(stmts, "    end");
        let _ = writeln!(stmts, "  end");
        Ok(ArchBody { decls, stmts })
    }
}

/// A round-robin `sel` counter process shared by demux and mux.
fn sel_counter(stmts: &mut String, n: usize) {
    let _ = writeln!(stmts, "  always_ff @(posedge clk) begin");
    let _ = writeln!(stmts, "    if (rst) begin");
    let _ = writeln!(stmts, "      sel <= '0;");
    let _ = writeln!(stmts, "    end else if (fire) begin");
    let _ = writeln!(stmts, "      if (sel == {}) begin", n - 1);
    let _ = writeln!(stmts, "        sel <= '0;");
    let _ = writeln!(stmts, "      end else begin");
    let _ = writeln!(stmts, "        sel <= sel + 1'b1;");
    let _ = writeln!(stmts, "      end");
    let _ = writeln!(stmts, "    end");
    let _ = writeln!(stmts, "  end");
}

fn sel_decls(n: usize) -> String {
    let sel_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let mut decls = String::new();
    let _ = writeln!(decls, "  {} sel;", sv_type(sel_bits));
    let _ = writeln!(decls, "  logic fire;");
    decls
}

fn gen_demux(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let outputs = ctx.outputs();
    let n = outputs.len();
    if n == 0 {
        return Err("demux needs at least one output".into());
    }
    let decls = sel_decls(n);
    let mut stmts = String::new();
    for (k, output) in outputs.iter().enumerate() {
        let name = &output.name;
        let _ = writeln!(
            stmts,
            "  assign {name}_valid = (sel == {k}) ? i_valid : 1'b0;"
        );
        let _ = writeln!(stmts, "  assign {name}_data = i_data;");
        if last_width(ctx, output).unwrap_or(0) > 0 {
            let _ = writeln!(stmts, "  assign {name}_last = i_last;");
        }
    }
    let readies: Vec<String> = outputs
        .iter()
        .enumerate()
        .map(|(k, o)| format!("(sel == {k}) ? {}_ready :", o.name))
        .collect();
    let _ = writeln!(stmts, "  assign i_ready = {} 1'b0;", readies.join(" "));
    let _ = writeln!(stmts, "  assign fire = i_valid & i_ready;");
    sel_counter(&mut stmts, n);
    Ok(ArchBody { decls, stmts })
}

fn gen_mux(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let inputs = ctx.inputs();
    let n = inputs.len();
    if n == 0 {
        return Err("mux needs at least one input".into());
    }
    let decls = sel_decls(n);
    let mut stmts = String::new();
    let valid_cases: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(k, p)| format!("(sel == {k}) ? {}_valid :", p.name))
        .collect();
    let data_cases: Vec<String> = inputs
        .iter()
        .enumerate()
        .map(|(k, p)| format!("(sel == {k}) ? {}_data :", p.name))
        .collect();
    let _ = writeln!(stmts, "  assign o_valid = {} 1'b0;", valid_cases.join(" "));
    let _ = writeln!(
        stmts,
        "  assign o_data = {} {}_data;",
        data_cases.join(" "),
        inputs[0].name
    );
    for (k, p) in inputs.iter().enumerate() {
        let _ = writeln!(
            stmts,
            "  assign {}_ready = (sel == {k}) ? o_ready : 1'b0;",
            p.name
        );
    }
    let _ = writeln!(stmts, "  assign fire = o_valid & o_ready;");
    sel_counter(&mut stmts, n);
    Ok(ArchBody { decls, stmts })
}

fn gen_const(ctx: &BuiltinCtx<'_>) -> Result<ArchBody, String> {
    let out = port(ctx, "o")?;
    let wo = data_width(ctx, out)?;
    let v = int_param(ctx, "v")?;
    let mut stmts = String::new();
    let _ = writeln!(stmts, "  assign o_valid = 1'b1;");
    let _ = writeln!(stmts, "  assign o_data = {};", const_literal(v, wo));
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
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
    let _ = writeln!(decls, "  logic both_ready;");
    let _ = writeln!(stmts, "  assign both_ready = a_ready & b_ready;");
    let _ = writeln!(stmts, "  assign i_ready = both_ready;");
    let _ = writeln!(stmts, "  assign a_valid = i_valid & both_ready;");
    let _ = writeln!(stmts, "  assign b_valid = i_valid & both_ready;");
    let _ = writeln!(stmts, "  assign a_data = i_data[{}:0];", wa - 1);
    let _ = writeln!(stmts, "  assign b_data = i_data[{}:{wa}];", wa + wb - 1);
    if last_width(ctx, input)? > 0 {
        if last_width(ctx, out_a)? == last_width(ctx, input)? {
            let _ = writeln!(stmts, "  assign a_last = i_last;");
        }
        if last_width(ctx, out_b)? == last_width(ctx, input)? {
            let _ = writeln!(stmts, "  assign b_last = i_last;");
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
    let _ = writeln!(stmts, "  assign o_valid = a_valid & b_valid;");
    let _ = writeln!(stmts, "  assign a_ready = a_valid & b_valid & o_ready;");
    let _ = writeln!(stmts, "  assign b_ready = a_valid & b_valid & o_ready;");
    let _ = writeln!(stmts, "  assign o_data = {{b_data, a_data}};");
    if last_width(ctx, out)? > 0 && last_width(ctx, in_a)? == last_width(ctx, out)? {
        let _ = writeln!(stmts, "  assign o_last = a_last;");
    }
    Ok(ArchBody {
        decls: String::new(),
        stmts,
    })
}

#[cfg(test)]
mod tests {
    use crate::source::with_stdlib;
    use tydi_lang::{compile, CompileOptions};
    use tydi_rtl::check::check_verilog;
    use tydi_rtl::Backend;
    use tydi_vhdl::{generate_project_for, VhdlOptions};

    /// Compiles user source with the stdlib and generates
    /// SystemVerilog.
    fn build_sv(user: &str) -> String {
        let sources = with_stdlib(&[("app.td", user)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let out = compile(&refs, &CompileOptions::default()).unwrap_or_else(|e| {
            panic!("compile failed:\n{e}");
        });
        let registry = crate::full_registry();
        let files = generate_project_for(
            &out.project,
            &registry,
            &VhdlOptions::default(),
            Backend::SystemVerilog,
        )
        .expect("verilog generation");
        let mut all = String::new();
        for f in files {
            all.push_str(&f.contents);
        }
        all
    }

    #[test]
    fn adder_generates_resized_sum() {
        let sv = build_sv(
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
        // The carry is dropped at the 32-bit operand width before the
        // zero-extension to 33 bits, matching the VHDL
        // `resize(a + b, 33)` where numeric_std adds at 32 bits.
        assert!(sv.contains("assign o_data = 33'(32'(in0_data + in1_data));"));
        assert!(sv.contains("assign o_valid = in0_valid & in1_valid;"));
        let issues = check_verilog(&sv);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn multiplier_keeps_full_product_into_truncation() {
        let sv = build_sv(
            r#"
package app;
use std;
type W32 = Stream(Bit(32));
type W64 = Stream(Bit(64));
streamlet top_s { a : W32 in, b : W32 in, p : W64 out, }
impl top_i of top_s {
    instance mul(multiplier_i<type W32, type W32, type W64>),
    a => mul.in0,
    b => mul.in1,
    mul.o => p,
}
"#,
        );
        // No operand-width truncation: the 64-bit cast context keeps
        // the low 64 bits of the full product, as the VHDL
        // `resize(a * b, 64)` does.
        assert!(sv.contains("assign o_data = 64'(in0_data * in1_data);"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn comparator_and_logic_gates() {
        let sv = build_sv(
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
        assert!(sv.contains("assign o_data = (in0_data < in1_data) ? 1'b1 : 1'b0;"));
        assert!(sv.contains("assign o_data = i_0_data & i_1_data;"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn const_compare_is_signed() {
        let sv = build_sv(
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
        assert!(sv.contains("assign o_data = ($signed(i_data) >= 42) ? 1'b1 : 1'b0;"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn const_compare_wraps_out_of_range_constants_like_vhdl() {
        // `to_signed(200, 8)` wraps to -56 in the VHDL twin; the SV
        // twin must compare against the same wrapped value.
        let sv = build_sv(
            r#"
package app;
use std;
type W8 = Stream(Bit(8));
streamlet top_s { i : W8 in, o : BoolStream out, }
impl top_i of top_s {
    instance cmp(ge_const_i<type W8, 200>),
    i => cmp.i,
    cmp.o => o,
}
"#,
        );
        assert!(sv.contains("assign o_data = ($signed(i_data) >= -56) ? 1'b1 : 1'b0;"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn wrap_signed_matches_to_signed_truncation() {
        use super::wrap_signed;
        assert_eq!(wrap_signed(42, 16), 42);
        assert_eq!(wrap_signed(200, 8), -56);
        assert_eq!(wrap_signed(-1, 8), -1);
        assert_eq!(wrap_signed(128, 8), -128);
        assert_eq!(wrap_signed(127, 8), 127);
        assert_eq!(wrap_signed(1, 1), -1);
        assert_eq!(wrap_signed(0, 1), 0);
        assert_eq!(wrap_signed(i64::MAX, 64), i64::MAX);
        assert_eq!(wrap_signed(i64::MIN, 70), i64::MIN);
    }

    #[test]
    fn reduce_has_accumulator_process() {
        let sv = build_sv(
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
        assert!(sv.contains("logic [63:0] acc;"));
        assert!(sv.contains("always_ff @(posedge clk) begin"));
        assert!(sv.contains("if (i_last) begin"));
        assert!(sv.contains("acc + 64'(i_data)"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn demux_mux_round_robin() {
        let sv = build_sv(
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
        assert!(sv.contains("assign o_0_valid = (sel == 0) ? i_valid : 1'b0;"));
        assert!(sv.contains("logic [1:0] sel;"));
        assert!(sv.contains("sel <= sel + 1'b1;"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn filter_consumes_dropped_packets() {
        let sv = build_sv(
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
        assert!(sv.contains("assign forward = both & keep_data;"));
        assert!(sv.contains("assign consumed = (forward & o_ready) | (both & ~keep_data);"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn const_source_drives_literal() {
        let sv = build_sv(
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
        assert!(sv.contains("assign o_data = 16'(1234);"));
        assert!(sv.contains("assign o_valid = 1'b1;"));
        assert!(check_verilog(&sv).is_empty());
    }

    #[test]
    fn group_split_and_combine_slice_fields() {
        let sv = build_sv(
            r#"
package app;
use std;
Group PairG {
    x: Bit(16),
    y: Bit(16),
}
type Pair = Stream(PairG);
type Half = Stream(Bit(16));
streamlet top_s { pairs : Pair in, swapped : Pair out, }
@NoStrictType
impl top_i of top_s {
    instance sp(group_split2_i<type Pair, type Half, type Half>),
    instance cb(group_combine2_i<type Half, type Half, type Pair>),
    pairs => sp.i,
    sp.a => cb.b,
    sp.b => cb.a,
    cb.o => swapped,
}
"#,
        );
        assert!(sv.contains("assign a_data = i_data[15:0];"));
        assert!(sv.contains("assign b_data = i_data[31:16];"));
        assert!(sv.contains("assign o_data = {b_data, a_data};"));
        assert!(check_verilog(&sv).is_empty());
    }
}
