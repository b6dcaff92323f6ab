//! The parser's nesting budget (`tydi::lang::parser::MAX_NESTING`).
//!
//! Every construct that nests (parentheses, array literals, index
//! brackets, prefix and `^` operators, types, statement bodies,
//! `else if` chains, simulation blocks and expressions) takes one level
//! of one shared budget. For each shape, the test finds the deepest
//! input the parser accepts and checks that:
//!
//! - the budget, not something else, is what stops it: one level
//!   deeper is exactly one spanned "nesting too deep" diagnostic;
//! - the deepest accepted input compiles end to end on this test's
//!   own thread (2 MiB by default), so no later pass runs out of stack
//!   on anything the parser lets through.

use tydi::lang::diagnostics::has_errors;
use tydi::lang::parser::{parse_package, MAX_NESTING};
use tydi::lang::{compile, CompileOptions};

/// One family of inputs, nested `n` times.
struct Shape {
    name: &'static str,
    build: fn(usize) -> String,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "parentheses",
        build: |n| format!("const x = {}1{};", "(".repeat(n), ")".repeat(n)),
    },
    Shape {
        name: "operands in parentheses",
        build: |n| format!("const x = {}1{};", "1 + (".repeat(n), ")".repeat(n)),
    },
    Shape {
        name: "array literals",
        build: |n| format!("const x = {}1{};", "[".repeat(n), "]".repeat(n)),
    },
    Shape {
        name: "index postfixes",
        build: |n| {
            format!(
                "const x = {}1{}{};",
                "[".repeat(n),
                "]".repeat(n),
                "[0]".repeat(n)
            )
        },
    },
    Shape {
        name: "prefix operators",
        build: |n| format!("const x = {}1;", "- ".repeat(n)),
    },
    Shape {
        name: "powers",
        build: |n| format!("const x = {}1;", "1 ^ ".repeat(n)),
    },
    Shape {
        name: "types",
        build: |n| format!("type D = {}Bit(8){};", "Stream(".repeat(n), ")".repeat(n)),
    },
    Shape {
        name: "for bodies",
        build: |n| {
            format!(
                "impl t_i of t_s {{ {} i => o, {} }}",
                "for k in (0..1) { ".repeat(n),
                "}".repeat(n)
            )
        },
    },
    Shape {
        name: "if bodies",
        build: |n| {
            format!(
                "impl t_i of t_s {{ {} i => o, {} }}",
                "if (true) { ".repeat(n),
                "}".repeat(n)
            )
        },
    },
    Shape {
        name: "else-if chains",
        build: |n| {
            format!(
                "impl t_i of t_s {{ if (false) {{ }} {}else {{ i => o, }} }}",
                "else if (false) { } ".repeat(n)
            )
        },
    },
    Shape {
        name: "simulation actions",
        build: |n| {
            format!(
                "impl e_i of t_s external {{ simulation {{ on (i.recv) {{ {}ack(i); {}}} }} }}",
                "if (1 > 0) { ".repeat(n),
                "} ".repeat(n)
            )
        },
    },
    Shape {
        name: "simulation expressions",
        build: |n| {
            format!(
                "impl e_i of t_s external {{ simulation {{ on (i.recv) {{ delay({}1{}); }} }} }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        },
    },
];

fn source(shape: &Shape, n: usize) -> String {
    format!(
        "package deep;\ntype W = Stream(Bit(8));\nstreamlet t_s {{ i : W in, o : W out, }}\n{}\n",
        (shape.build)(n)
    )
}

fn too_deep(message: &str) -> bool {
    message.starts_with("nesting too deep")
}

/// The largest `n` whose input parses without a nesting diagnostic.
fn deepest_accepted(shape: &Shape) -> usize {
    let accepted = |n: usize| {
        let (_, diags) = parse_package(0, &source(shape, n));
        !diags.iter().any(|d| too_deep(&d.message))
    };
    let (mut lo, mut hi) = (1, MAX_NESTING + 1);
    assert!(accepted(lo), "{}: one level is accepted", shape.name);
    assert!(!accepted(hi), "{}: the budget stops it", shape.name);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if accepted(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[test]
fn inputs_nested_at_the_budget_compile_and_one_deeper_is_one_diagnostic() {
    for shape in SHAPES {
        let n = deepest_accepted(shape);
        // Each shape spends at most a few levels outside its repeated
        // construct (the initializer, the impl body, the handler).
        assert!(
            n + 4 >= MAX_NESTING,
            "{}: only {n} levels accepted",
            shape.name
        );

        let deepest = source(shape, n);
        let (_, diags) = parse_package(0, &deepest);
        assert!(!has_errors(&diags), "{}: {diags:?}", shape.name);
        if let Err(failure) = compile(&[("deep.td", &deepest)], &CompileOptions::default()) {
            panic!("{} at {n} levels: {:?}", shape.name, failure.diagnostics);
        }

        let deeper = source(shape, n + 1);
        let (_, diags) = parse_package(0, &deeper);
        assert_eq!(diags.len(), 1, "{}: {diags:?}", shape.name);
        assert!(too_deep(&diags[0].message), "{}: {diags:?}", shape.name);
        let span = diags[0].span.expect("the nesting diagnostic has a span");
        assert!(span.start > 0 && span.end <= deeper.len());
    }
}

/// Far past the budget the parser stops at the first level too deep:
/// one diagnostic, and the lexer still reports errors in the unread
/// tail, before it.
#[test]
fn far_too_deep_input_is_one_diagnostic_and_the_tail_still_lexes() {
    let deep = 100_000;
    let source = format!(
        "package deep;\nconst x = {}1{};\nconst y = 1 $ 2;\n",
        "(".repeat(deep),
        ")".repeat(deep)
    );
    let (_, diags) = parse_package(0, &source);
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(messages.len(), 2, "{messages:?}");
    assert_eq!(messages[0], "unexpected character `$`");
    assert!(too_deep(messages[1]), "{messages:?}");
}
