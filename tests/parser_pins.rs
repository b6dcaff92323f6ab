//! Pins of the front end's observable output, so a change to the
//! lexer or parser that moves a diagnostic or a fingerprint shows up
//! as a reviewable failure:
//!
//! - `tests/golden/diagnostics/<name>.td` holds a malformed input and
//!   `<name>.stderr` the diagnostics `tydic check` renders for it
//!   (truncated files, lex errors after parse errors, stray bytes, a
//!   missing `}`, a bad escape, out-of-range integers, and a DRC
//!   finding on a connection sugaring rewrote). Regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test parser_pins`.
//! - The AST fingerprint of every cookbook design and of the standard
//!   library. It keys the artifact cache, so a printer change that
//!   moves it invalidates every cache without a format bump.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use tydi::lang::fingerprint::ast_fingerprint;
use tydi::lang::parser::parse_package;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn malformed_inputs_render_pinned_diagnostics() {
    let dir = repo_path("tests/golden/diagnostics");
    let mut inputs: Vec<String> = fs::read_dir(&dir)
        .expect("diagnostics golden dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .filter(|name| name.ends_with(".td"))
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 10, "malformed inputs: {inputs:?}");
    for input in inputs {
        // Run from the golden directory so the rendered path is the
        // bare file name.
        let out = Command::new(env!("CARGO_BIN_EXE_tydic"))
            .args(["check", &input, "--no-cache"])
            .current_dir(&dir)
            .output()
            .expect("run tydic");
        assert_eq!(out.status.code(), Some(1), "{input} fails to compile");
        let actual = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
        let golden = dir.join(input.replace(".td", ".stderr"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            fs::write(&golden, &actual).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {golden:?} ({e})"));
        assert_eq!(actual, expected, "diagnostics for {input} drifted");
    }
}

/// The fingerprints the nested-binary-node parser and printer gave
/// these sources.
const PINNED_FINGERPRINTS: &[(&str, &str)] = &[
    ("std.td", "10a6ddd50a5f4a04"),
    ("01_variables.td", "0a6bf26fd43a22d2"),
    ("02_types.td", "c1ea30de1494aa00"),
    ("03_templates.td", "36d851762d424dd3"),
    ("04_generative.td", "30e59d70516584c5"),
    ("05_external_sim.td", "fbf6e29cdd0450b4"),
    ("06_sugaring.td", "a7d018771effb6db"),
    ("07_clockdomains.td", "e23ce80e388f157d"),
    ("08_transform_types.td", "fb140376d90cbe72"),
    ("09_parallelize.td", "042b51710e52d76d"),
    ("10_full_flow.td", "97d66b50f63d6681"),
    ("11_batch_sim.td", "25d574cd3b7a0a9d"),
    ("12_emit_verilog.td", "09d4cde18e6124d9"),
    ("13_analyze.td", "3c9451e4ab4786e9"),
    ("mixed", "69a74d645d29a663"),
];

/// Every operator level, chains of each, `^` runs, prefix operators,
/// index postfixes and parenthesized chains in operand position.
const MIXED: &str = "package mixed;\n\
    const a = 10 - 3 + 2 * 7 / 3 % 4 - 2 ^ 3 ^ 2 + -a[1][2] * (b - c - d);\n\
    const b = 1 < 2 == true && false || !(x > 3) && y <= z != (p >= q) || r;\n\
    const c = ((a + b) - c) + (d - (e + f)) + [1 + 2, 3 * 4 * 5][0];\n";

fn fingerprint(text: &str) -> String {
    let (package, diags) = parse_package(0, text);
    assert!(diags.is_empty(), "{diags:?}");
    ast_fingerprint(&package.expect("package")).to_string()
}

#[test]
fn ast_fingerprints_are_pinned() {
    let mut sources = vec![
        (
            "std.td".to_string(),
            tydi::stdlib::stdlib_source().to_string(),
        ),
        ("mixed".to_string(), MIXED.to_string()),
    ];
    for entry in fs::read_dir(repo_path("cookbook")).expect("cookbook dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|ext| ext == "td") {
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            sources.push((name, fs::read_to_string(&path).expect("read design")));
        }
    }
    assert_eq!(
        sources.len(),
        PINNED_FINGERPRINTS.len(),
        "one pin per source"
    );
    for (name, text) in &sources {
        let pinned = PINNED_FINGERPRINTS
            .iter()
            .find(|(pinned, _)| pinned == name)
            .unwrap_or_else(|| panic!("no pinned fingerprint for {name}"));
        assert_eq!(fingerprint(text), pinned.1, "fingerprint of {name}");
    }
}
