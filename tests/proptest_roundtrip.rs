//! Property test: a random well-formed Tydi-lang program round-trips
//! parse → pretty-print → re-parse to an equivalent AST.
//!
//! The generator builds structurally diverse programs — constants
//! with nested math and mixed same-precedence operator chains, stream types with dimension/complexity/
//! throughput/user arguments, Groups/Unions, templated streamlets and
//! implementations, clock-domain annotations, generative `for`/`if`/
//! `assert`, instances with template arguments, and external impls
//! with simulation blocks — from a byte-string "DNA", so every case
//! is well-formed by construction while still exercising the lexer,
//! parser and printer across the grammar.
//!
//! Equivalence is checked as a printer fixed point: `print(parse(s))`
//! and `print(parse(print(parse(s))))` must be byte-identical (spans
//! differ between the two parses, so the canonical printed form *is*
//! the span-insensitive AST equality), plus structural spot checks on
//! declaration counts.

use proptest::prelude::*;
use std::fmt::Write as _;
use tydi::lang::parser::parse_package;
use tydi::lang::pretty::print_package;

/// Deterministically builds a well-formed program from DNA bytes.
/// `allow_sim` gates simulation blocks: their body text is captured
/// verbatim by the parser (comments included), so tests that inject
/// comment noise into every line disable them.
fn program_from_with(dna: &[u8], allow_sim: bool) -> String {
    let byte = |i: usize| -> i64 { i64::from(dna[i % dna.len()]) };
    let mut src = String::from("package gen;\nuse std;\n");

    // Constants with nested math expressions.
    for k in 0..(byte(0) % 3) {
        let a = byte(1 + k as usize) + 1;
        let b = byte(2 + k as usize) + 2;
        let expr = match byte(3 + k as usize) % 7 {
            0 => format!("{a} + {b} * 2"),
            1 => format!("min({a}, {b}) + max({b}, 1)"),
            2 => format!("ceil(log2(2 ^ {})) + {b}", (a % 6) + 1),
            3 => format!("({a}..{b} step 2)"),
            // Mixed same-precedence chains, each one n-ary node.
            4 => format!("{a} - {b} + {a} - 1 + {b} * {a} / 3 % 7 * 2 - {b}"),
            5 => format!("{a} < {b} == ({b} >= {a}) != true || {a} == {b} && {b} > 0 && true"),
            _ => format!("-{a} + {b} ^ 2 ^ 1 - [{a}, {b}][1] * ({b} - {a} - 1) % 5"),
        };
        let kind = match byte(4 + k as usize) % 3 {
            0 => " : int",
            1 => "",
            _ => " : [int]",
        };
        let value = if kind == " : [int]" {
            format!("[{a}, {b}, {}]", a + b)
        } else {
            expr
        };
        let _ = writeln!(src, "const c{k}{kind} = {value};");
    }

    // Type aliases with varied stream parameters.
    let n_types = 1 + byte(5) % 3;
    for k in 0..n_types {
        let width = 1 + byte(6 + k as usize) % 63;
        let mut args = String::new();
        if byte(7 + k as usize) % 2 == 0 {
            let _ = write!(args, ", d={}", 1 + byte(8 + k as usize) % 3);
        }
        if byte(9 + k as usize) % 2 == 0 {
            let _ = write!(args, ", c={}", 1 + byte(10 + k as usize) % 7);
        }
        if byte(11 + k as usize) % 3 == 0 {
            let _ = write!(args, ", t={}.5", 1 + byte(12 + k as usize) % 4);
        }
        if byte(13 + k as usize) % 4 == 0 {
            args.push_str(", u=Bit(3)");
        }
        let _ = writeln!(src, "type T{k} = Stream(Bit({width}){args});");
    }

    // Occasionally a Group or Union of bit fields.
    if byte(14) % 3 == 0 {
        let keyword = if byte(15) % 2 == 0 { "Group" } else { "Union" };
        let _ = writeln!(
            src,
            "{keyword} Rec {{ a : Bit({}), b : Bit({}), }}",
            1 + byte(16) % 15,
            1 + byte(17) % 15
        );
    }

    // A plain streamlet plus, sometimes, a templated one.
    let clock = if byte(18) % 3 == 0 { " !fast" } else { "" };
    let arr = if byte(19) % 3 == 0 {
        format!(" [{}]", 1 + byte(20) % 4)
    } else {
        String::new()
    };
    let _ = writeln!(
        src,
        "streamlet plain_s {{ i : T0 in{arr}{clock}, o : T0 out, }}"
    );
    let templated = byte(21) % 2 == 0;
    if templated {
        let _ = writeln!(
            src,
            "streamlet tpl_s<n: int, t: type> {{ i : t in [n], o : t out, }}"
        );
    }

    // An external implementation, sometimes with simulation code.
    if !allow_sim || byte(22) % 2 == 0 {
        let _ = writeln!(src, "@builtin(\"std.passthrough\")");
        let _ = writeln!(src, "impl ext_i of plain_s external;");
    } else {
        let _ = writeln!(
            src,
            "impl ext_i of plain_s external {{\n    simulation {{\n        state st = \"idle\";\n        on (i.recv && st == \"idle\") {{ send(o, i.data + {}); ack(i); }}\n    }}\n}}",
            byte(23) % 9
        );
    }

    // A structural implementation exercising statements.
    if byte(24) % 3 == 0 {
        src.push_str("@NoStrictType\n");
    }
    let _ = writeln!(src, "impl top_i of plain_s {{");
    let _ = writeln!(src, "    instance u0(ext_i),");
    if templated {
        let _ = writeln!(
            src,
            "    instance u1(tpl_i<{}, type T0>) [{}],",
            1 + byte(25) % 4,
            1 + byte(26) % 3
        );
    }
    match byte(27) % 4 {
        0 => {
            let _ = writeln!(
                src,
                "    for k in (0..{}) {{\n        i => u0.i,\n    }}",
                1 + byte(28) % 4
            );
        }
        1 => {
            let _ = writeln!(
                src,
                "    if (c0 > {}) {{\n        i => u0.i,\n    }} else if (c0 == 1) {{\n        assert(true, \"one\"),\n    }} else {{\n        const local = 3,\n    }}",
                byte(29) % 5
            );
        }
        2 => {
            let _ = writeln!(src, "    assert({} < {}, \"bound\"),", byte(30) % 9, 300);
            let _ = writeln!(src, "    i => u0.i,");
        }
        _ => {
            let _ = writeln!(src, "    i => u0.i,");
        }
    }
    let _ = writeln!(src, "    u0.o => o,");
    let _ = writeln!(src, "}}");
    src
}

fn program_from(dna: &[u8]) -> String {
    program_from_with(dna, true)
}

fn parse_ok(source: &str, context: &str) -> tydi::lang::ast::Package {
    let (package, diags) = parse_package(0, source);
    assert!(
        !tydi::lang::diagnostics::has_errors(&diags),
        "{context} produced parse errors:\n{source}\ndiagnostics: {diags:?}"
    );
    package.unwrap_or_else(|| panic!("{context}: no package parsed from:\n{source}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated programs parse cleanly, and parse → print → re-parse
    /// reaches the printer fixed point with identical structure.
    #[test]
    fn random_program_round_trips(dna in proptest::collection::vec(0u8..=255, 8..48)) {
        let source = program_from(&dna);
        let first_ast = parse_ok(&source, "generated program");
        let printed = print_package(&first_ast);
        let second_ast = parse_ok(&printed, "pretty-printed program");
        let reprinted = print_package(&second_ast);
        prop_assert!(
            printed == reprinted,
            "printer fixed point violated for:\n{source}\nfirst print:\n{printed}\nsecond print:\n{reprinted}"
        );
        // Structural equivalence spot checks (spans aside, the
        // canonical print is the AST's identity).
        prop_assert_eq!(first_ast.name.as_str(), second_ast.name.as_str());
        prop_assert_eq!(&first_ast.uses, &second_ast.uses);
        prop_assert_eq!(first_ast.decls.len(), second_ast.decls.len());
        for (a, b) in first_ast.decls.iter().zip(&second_ast.decls) {
            prop_assert_eq!(a.name(), b.name());
        }
    }

    /// The canonical print is insensitive to comments and whitespace
    /// noise injected between tokens-at-line-boundaries.
    #[test]
    fn noise_does_not_change_the_canonical_form(dna in proptest::collection::vec(0u8..=255, 8..32)) {
        let source = program_from_with(&dna, false);
        let noisy: String = source
            .lines()
            .map(|line| format!("{line}  // noise\n"))
            .collect::<String>()
            + "\n/* trailing\n   block comment */\n";
        let clean = print_package(&parse_ok(&source, "clean"));
        let noised = print_package(&parse_ok(&noisy, "noisy"));
        prop_assert_eq!(clean, noised);
    }
}
