//! A canonical pretty-printer for the Tydi-lang AST.
//!
//! `write_package` renders a parsed [`Package`] back to surface
//! syntax in one deterministic layout, into any [`fmt::Write`] sink,
//! and [`print_package`] runs it over a `String`. Every helper appends
//! to the sink instead of returning a `String` of its own, so printing
//! an n-term expression chain is O(n). Two uses:
//!
//! * **AST fingerprints** for the incremental pipeline
//!   ([`crate::fingerprint`]), which stream the printed form straight
//!   into the hasher: it is independent of spans, whitespace and
//!   (non-doc) comments, so a comment-only edit produces the same
//!   fingerprint and reuses every downstream artifact;
//! * **round-trip testing**: parse → print → re-parse must reach a
//!   fixed point (`print(parse(print(ast))) == print(ast)`), which
//!   pins parser and printer against each other.
//!
//! Compound expressions are printed fully parenthesized so the output
//! re-parses to the same tree regardless of precedence; parentheses
//! are not represented in the AST, so this is still a fixed point.

use crate::ast::*;
use std::fmt::{self, Write};

/// Renders a package to canonical surface syntax.
pub fn print_package(package: &Package) -> String {
    let mut out = String::new();
    write_package(&mut out, package).expect("writing to a String cannot fail");
    out
}

/// Writes a package's canonical surface syntax into `out`.
pub(crate) fn write_package(out: &mut impl Write, package: &Package) -> fmt::Result {
    writeln!(out, "package {};", package.name)?;
    for used in &package.uses {
        writeln!(out, "use {used};")?;
    }
    for decl in &package.decls {
        print_decl(out, decl)?;
    }
    Ok(())
}

fn print_decl(out: &mut impl Write, decl: &Decl) -> fmt::Result {
    match decl {
        Decl::Const(c) => {
            out.write_str("const ")?;
            const_body(out, c)?;
            out.write_str(";\n")
        }
        Decl::TypeAlias { name, ty, .. } => {
            write!(out, "type {name} = ")?;
            type_expr(out, ty)?;
            out.write_str(";\n")
        }
        Decl::Group { name, fields, .. } => print_composite(out, "Group", name, fields),
        Decl::Union { name, fields, .. } => print_composite(out, "Union", name, fields),
        Decl::Streamlet(s) => {
            print_attributes(out, &s.attributes)?;
            write!(out, "streamlet {}", s.name)?;
            template_params(out, &s.params)?;
            out.write_str(" {\n")?;
            for port in &s.ports {
                out.write_str("    ")?;
                port_decl(out, port)?;
                out.write_str(",\n")?;
            }
            out.write_str("}\n")
        }
        Decl::Impl(i) => print_impl(out, i),
        Decl::Assert { expr, message, .. } => {
            out.write_str("assert(")?;
            assert_args(out, expr, message)?;
            out.write_str(");\n")
        }
    }
}

fn print_composite(
    out: &mut impl Write,
    keyword: &str,
    name: &str,
    fields: &[(String, TypeExpr)],
) -> fmt::Result {
    writeln!(out, "{keyword} {name} {{")?;
    for (field, ty) in fields {
        write!(out, "    {field} : ")?;
        type_expr(out, ty)?;
        out.write_str(",\n")?;
    }
    out.write_str("}\n")
}

fn print_attributes(out: &mut impl Write, attributes: &[Attribute]) -> fmt::Result {
    for attr in attributes {
        write!(out, "@{}", attr.name)?;
        if let Some(arg) = &attr.arg {
            out.write_char('(')?;
            expr(out, arg)?;
            out.write_char(')')?;
        }
        out.write_char('\n')?;
    }
    Ok(())
}

fn print_impl(out: &mut impl Write, i: &ImplDecl) -> fmt::Result {
    print_attributes(out, &i.attributes)?;
    write!(out, "impl {}", i.name)?;
    template_params(out, &i.params)?;
    out.write_str(" of ")?;
    named_ref(out, &i.streamlet)?;
    match &i.body {
        ImplBody::External { simulation: None } => out.write_str(" external;\n"),
        ImplBody::External {
            simulation: Some(sim),
        } => {
            // The simulation body is preserved verbatim: the parser
            // captures (and trims) the raw text between the braces.
            writeln!(out, " external {{\nsimulation {{\n{}\n}}\n}}", sim.source)
        }
        ImplBody::Normal(stmts) => {
            out.write_str(" {\n")?;
            for stmt in stmts {
                print_stmt(out, stmt, 1)?;
            }
            out.write_str("}\n")
        }
    }
}

/// Writes `depth` levels of four-space indentation.
fn indent(out: &mut impl Write, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("    ")?;
    }
    Ok(())
}

fn print_stmt(out: &mut impl Write, stmt: &Stmt, depth: usize) -> fmt::Result {
    indent(out, depth)?;
    match stmt {
        Stmt::Instance {
            name,
            impl_ref,
            array,
            ..
        } => {
            write!(out, "instance {name}(")?;
            named_ref(out, impl_ref)?;
            out.write_char(')')?;
            if let Some(n) = array {
                out.write_str(" [")?;
                expr(out, n)?;
                out.write_char(']')?;
            }
            out.write_str(",\n")
        }
        Stmt::Connect { src, dst, .. } => {
            endpoint(out, src)?;
            out.write_str(" => ")?;
            endpoint(out, dst)?;
            out.write_str(",\n")
        }
        Stmt::For {
            var,
            iterable,
            body,
            ..
        } => {
            write!(out, "for {var} in ")?;
            expr(out, iterable)?;
            out.write_str(" {\n")?;
            for s in body {
                print_stmt(out, s, depth + 1)?;
            }
            indent(out, depth)?;
            out.write_str("}\n")
        }
        Stmt::If { .. } => print_if(out, stmt, depth),
        Stmt::Assert {
            expr: e, message, ..
        } => {
            out.write_str("assert(")?;
            assert_args(out, e, message)?;
            out.write_str("),\n")
        }
        Stmt::Const(c) => {
            out.write_str("const ")?;
            const_body(out, c)?;
            out.write_str(",\n")
        }
    }
}

/// Prints an `if` chain, folding a single nested `if` in the else
/// branch back into `else if` (the shape the parser builds). The
/// caller has already indented the first line.
fn print_if(out: &mut impl Write, stmt: &Stmt, depth: usize) -> fmt::Result {
    let mut current = stmt;
    loop {
        let Stmt::If {
            cond,
            body,
            else_body,
            ..
        } = current
        else {
            unreachable!("print_if called on a non-if statement");
        };
        out.write_str("if (")?;
        expr(out, cond)?;
        out.write_str(") {\n")?;
        for s in body {
            print_stmt(out, s, depth + 1)?;
        }
        indent(out, depth)?;
        match else_body.as_slice() {
            [] => return out.write_str("}\n"),
            [nested @ Stmt::If { .. }] => {
                out.write_str("} else ")?;
                current = nested;
            }
            stmts => {
                out.write_str("} else {\n")?;
                for s in stmts {
                    print_stmt(out, s, depth + 1)?;
                }
                indent(out, depth)?;
                return out.write_str("}\n");
            }
        }
    }
}

fn const_body(out: &mut impl Write, c: &ConstDecl) -> fmt::Result {
    out.write_str(&c.name)?;
    if let Some(kind) = &c.kind {
        out.write_str(" : ")?;
        var_kind(out, kind)?;
    }
    out.write_str(" = ")?;
    expr(out, &c.value)
}

fn var_kind(out: &mut impl Write, kind: &VarKind) -> fmt::Result {
    match kind {
        VarKind::Int => out.write_str("int"),
        VarKind::Float => out.write_str("float"),
        VarKind::Str => out.write_str("string"),
        VarKind::Bool => out.write_str("bool"),
        VarKind::Clock => out.write_str("clockdomain"),
        VarKind::Array(inner) => {
            out.write_char('[')?;
            var_kind(out, inner)?;
            out.write_char(']')
        }
    }
}

fn assert_args(out: &mut impl Write, e: &Expr, message: &Option<Expr>) -> fmt::Result {
    expr(out, e)?;
    if let Some(m) = message {
        out.write_str(", ")?;
        expr(out, m)?;
    }
    Ok(())
}

/// Writes `items` separated by `", "`.
fn comma_separated<W: Write, T>(
    out: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (k, x) in items.iter().enumerate() {
        if k > 0 {
            out.write_str(", ")?;
        }
        item(out, x)?;
    }
    Ok(())
}

fn template_params(out: &mut impl Write, params: &[TemplateParam]) -> fmt::Result {
    if params.is_empty() {
        return Ok(());
    }
    out.write_char('<')?;
    comma_separated(out, params, |out, p| {
        write!(out, "{}: ", p.name)?;
        match &p.kind {
            TemplateParamKind::Int => out.write_str("int"),
            TemplateParamKind::Float => out.write_str("float"),
            TemplateParamKind::Str => out.write_str("string"),
            TemplateParamKind::Bool => out.write_str("bool"),
            TemplateParamKind::Clock => out.write_str("clockdomain"),
            TemplateParamKind::Type => out.write_str("type"),
            TemplateParamKind::ImplOf(s) => write!(out, "impl of {s}"),
        }
    })?;
    out.write_char('>')
}

fn named_ref(out: &mut impl Write, r: &NamedRef) -> fmt::Result {
    out.write_str(&r.name)?;
    if r.args.is_empty() {
        return Ok(());
    }
    out.write_char('<')?;
    comma_separated(out, &r.args, |out, arg| match arg {
        TemplateArgExpr::Value(e) => expr(out, e),
        TemplateArgExpr::Type(t) => {
            out.write_str("type ")?;
            type_expr(out, t)
        }
        TemplateArgExpr::Impl(i) => {
            out.write_str("impl ")?;
            named_ref(out, i)
        }
    })?;
    out.write_char('>')
}

fn port_decl(out: &mut impl Write, port: &PortDecl) -> fmt::Result {
    write!(out, "{} : ", port.name)?;
    type_expr(out, &port.ty)?;
    out.write_str(match port.direction {
        PortDir::In => " in",
        PortDir::Out => " out",
    })?;
    if let Some(n) = &port.array {
        out.write_str(" [")?;
        expr(out, n)?;
        out.write_char(']')?;
    }
    match &port.clock {
        Some(ClockSpec::Named(name, _)) => write!(out, " !{name}"),
        Some(ClockSpec::Expr(e)) => {
            out.write_str(" !(")?;
            expr(out, e)?;
            out.write_char(')')
        }
        None => Ok(()),
    }
}

fn endpoint(out: &mut impl Write, e: &EndpointExpr) -> fmt::Result {
    if let Some((instance, index)) = &e.instance {
        out.write_str(instance)?;
        if let Some(i) = index {
            out.write_char('[')?;
            expr(out, i)?;
            out.write_char(']')?;
        }
        out.write_char('.')?;
    }
    out.write_str(&e.port)?;
    if let Some(i) = &e.port_index {
        out.write_char('[')?;
        expr(out, i)?;
        out.write_char(']')?;
    }
    Ok(())
}

/// Writes a type expression.
fn type_expr(out: &mut impl Write, ty: &TypeExpr) -> fmt::Result {
    match ty {
        TypeExpr::Null(_) => out.write_str("Null"),
        TypeExpr::Bit(width, _) => {
            out.write_str("Bit(")?;
            expr(out, width)?;
            out.write_char(')')
        }
        TypeExpr::Ref(name, _) => out.write_str(name),
        TypeExpr::Stream { element, args, .. } => {
            out.write_str("Stream(")?;
            type_expr(out, element)?;
            for arg in args {
                match arg {
                    StreamArg::Dimension(e) => {
                        out.write_str(", d=")?;
                        expr(out, e)?;
                    }
                    StreamArg::Throughput(e) => {
                        out.write_str(", t=")?;
                        expr(out, e)?;
                    }
                    StreamArg::Complexity(e) => {
                        out.write_str(", c=")?;
                        expr(out, e)?;
                    }
                    StreamArg::Direction(name, _) => write!(out, ", r={name}")?,
                    StreamArg::Synchronicity(name, _) => write!(out, ", x={name}")?,
                    StreamArg::User(t) => {
                        out.write_str(", u=")?;
                        type_expr(out, t)?;
                    }
                    StreamArg::Keep(e) => {
                        out.write_str(", keep=")?;
                        expr(out, e)?;
                    }
                }
            }
            out.write_char(')')
        }
    }
}

/// Writes an expression, fully parenthesizing compound forms.
fn expr(out: &mut impl Write, e: &Expr) -> fmt::Result {
    match e {
        Expr::Int(v, _) => {
            if *v < 0 {
                // `-N` lexes as unary minus; parenthesize so the
                // printed form stays one expression in any context.
                write!(out, "({v})")
            } else {
                write!(out, "{v}")
            }
        }
        // `{:?}` always keeps a `.0` or exponent, so the token
        // re-lexes as a float.
        Expr::Float(v, _) => write!(out, "{v:?}"),
        Expr::Str(s, _) => quote(out, s),
        Expr::Bool(v, _) => write!(out, "{v}"),
        Expr::Clock(name, _) => {
            out.write_str("clockdomain(")?;
            quote(out, name)?;
            out.write_char(')')
        }
        Expr::Ident(name, _) => out.write_str(name),
        Expr::Array(items, _) => {
            out.write_char('[')?;
            comma_separated(out, items, |out, item| expr(out, item))?;
            out.write_char(']')
        }
        Expr::Range {
            start, end, step, ..
        } => {
            out.write_char('(')?;
            expr(out, start)?;
            out.write_str("..")?;
            expr(out, end)?;
            if let Some(s) = step {
                out.write_str(" step ")?;
                expr(out, s)?;
            }
            out.write_char(')')
        }
        Expr::Index { base, index, .. } => {
            expr(out, base)?;
            out.write_char('[')?;
            expr(out, index)?;
            out.write_char(']')
        }
        Expr::Unary { op, operand, .. } => {
            out.write_str(match op {
                UnaryOp::Neg => "(-",
                UnaryOp::Not => "(!",
            })?;
            expr(out, operand)?;
            out.write_char(')')
        }
        Expr::Chain { first, rest, .. } => {
            // Printed as the nested form `((first op1 x1) op2 x2)`,
            // without recursing along the chain.
            for _ in rest {
                out.write_char('(')?;
            }
            expr(out, first)?;
            for (op, operand) in rest {
                out.write_str(infix(*op))?;
                expr(out, operand)?;
                out.write_char(')')?;
            }
            Ok(())
        }
        Expr::Call { name, args, .. } => {
            write!(out, "{name}(")?;
            comma_separated(out, args, |out, arg| expr(out, arg))?;
            out.write_char(')')
        }
    }
}

/// A binary operator with the spaces around it.
fn infix(op: BinOp) -> &'static str {
    match op {
        BinOp::Or => " || ",
        BinOp::And => " && ",
        BinOp::Eq => " == ",
        BinOp::Ne => " != ",
        BinOp::Lt => " < ",
        BinOp::Le => " <= ",
        BinOp::Gt => " > ",
        BinOp::Ge => " >= ",
        BinOp::Add => " + ",
        BinOp::Sub => " - ",
        BinOp::Mul => " * ",
        BinOp::Div => " / ",
        BinOp::Rem => " % ",
        BinOp::Pow => " ^ ",
    }
}

/// Quotes a string literal using only the escapes the lexer accepts.
fn quote(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '\\' => out.write_str("\\\\")?,
            '"' => out.write_str("\\\"")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            other => out.write_char(other)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_package;

    fn roundtrip(source: &str) -> (String, String) {
        let (package, diags) = parse_package(0, source);
        let package = package.unwrap_or_else(|| panic!("parse failed: {diags:?}"));
        assert!(
            !crate::diagnostics::has_errors(&diags),
            "parse errors: {diags:?}"
        );
        let first = print_package(&package);
        let (reparsed, diags2) = parse_package(0, &first);
        let reparsed = reparsed.unwrap_or_else(|| panic!("re-parse failed:\n{first}\n{diags2:?}"));
        assert!(
            !crate::diagnostics::has_errors(&diags2),
            "re-parse errors for:\n{first}\n{diags2:?}"
        );
        let second = print_package(&reparsed);
        (first, second)
    }

    #[test]
    fn simple_design_reaches_fixed_point() {
        let (first, second) = roundtrip(
            r#"
package demo;
use std;
const width : int = 8 * 2;
type Byte = Stream(Bit(width), d=1, c=7);
streamlet wire_s { i : Byte in, o : Byte out !mem, }
@NoStrictType
impl wire_i of wire_s { i => o, }
"#,
        );
        assert_eq!(first, second);
        assert!(first.contains("package demo;"));
        assert!(first.contains("(8 * 2)"));
    }

    #[test]
    fn templates_and_generative_syntax_reach_fixed_point() {
        let (first, second) = roundtrip(
            r#"
package t;
streamlet p_s<n: int, t: type> { i : Stream(Bit(n)) in [n], }
impl p_i<n: int, pu: impl of p_s> of p_s<n, type Bit(8)> {
    instance u(pu) [n],
    for k in (0..n step 2) {
        if (k > 2) { i[k] => u[k].i, } else if (k == 1) { assert(true, "msg"), }
        else { const z = [1, 2], }
    }
}
"#,
        );
        assert_eq!(first, second);
    }

    #[test]
    fn external_simulation_body_is_preserved_verbatim() {
        let (first, second) = roundtrip(
            r#"
package s;
type W = Stream(Bit(8));
streamlet e_s { i : W in, o : W out, }
impl e_i of e_s external {
    simulation {
        state st = "idle";
        on (i.recv && st == "idle") { send(o, i.data); ack(i); }
    }
}
"#,
        );
        assert_eq!(first, second);
        assert!(first.contains("state st = \"idle\";"));
    }

    #[test]
    fn comment_only_edits_print_identically() {
        let base = r#"
package c;
type W = Stream(Bit(8));
streamlet s { i : W in, o : W out, }
impl x of s { i => o, }
"#;
        let commented = format!("// a comment\n{base}\n// trailing note\n");
        let (p1, _) = parse_package(0, base);
        let (p2, _) = parse_package(0, &commented);
        assert_eq!(print_package(&p1.unwrap()), print_package(&p2.unwrap()));
    }
}
