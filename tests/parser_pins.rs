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
//!   moves it invalidates every cache without a format bump. A second
//!   set of pins, under a byte-wise reference hash, pins the printed
//!   forms themselves.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use tydi::lang::ast::Package;
use tydi::lang::fingerprint::ast_fingerprint;
use tydi::lang::parser::parse_package;
use tydi::lang::pretty::print_package;

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

/// The fingerprints of these sources under the word-wise hash.
const PINNED_FINGERPRINTS: &[(&str, &str)] = &[
    ("std.td", "16980cee48109b8f"),
    ("01_variables.td", "c4d525a3dda2608c"),
    ("02_types.td", "add6751f8ab9036a"),
    ("03_templates.td", "68681646e33c9d74"),
    ("04_generative.td", "35f73c858cfb7411"),
    ("05_external_sim.td", "31ad16b3639aaf49"),
    ("06_sugaring.td", "56221d2aed116dcf"),
    ("07_clockdomains.td", "2752fb2e35ebdf23"),
    ("08_transform_types.td", "898a3c45708846d9"),
    ("09_parallelize.td", "be67216866bcfd2d"),
    ("10_full_flow.td", "4766276def22c574"),
    ("11_batch_sim.td", "c0f0fd07455aadfe"),
    ("12_emit_verilog.td", "d1c1835155277c9f"),
    ("13_analyze.td", "dbfafa09587e63ac"),
    ("mixed", "20187cb05efd24a5"),
];

/// The same sources' fingerprints under the byte-wise FNV-1a hash the
/// `Fingerprinter` used before it hashed words, over the printed forms
/// the nested-binary-node parser and printer gave. `bytewise_fingerprint`
/// still reproduces them from today's printed forms, so the printer
/// changes no printed byte.
const BYTEWISE_FINGERPRINTS: &[(&str, &str)] = &[
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

fn parse(text: &str) -> Package {
    let (package, diags) = parse_package(0, text);
    assert!(diags.is_empty(), "{diags:?}");
    package.expect("package")
}

fn fingerprint(text: &str) -> String {
    ast_fingerprint(&parse(text)).to_string()
}

/// A reference for the AST fingerprint's byte stream: byte-wise FNV-1a
/// over the length-prefixed tag `ast`, the printed form and its length,
/// as `Fingerprinter` framed them before it hashed words.
fn bytewise_fingerprint(text: &str) -> String {
    let printed = print_package(&parse(text));
    let stream = [
        &3u64.to_le_bytes()[..],
        b"ast",
        printed.as_bytes(),
        &(printed.len() as u64).to_le_bytes(),
    ];
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for &byte in stream.into_iter().flatten() {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x1_0000_0193);
    }
    format!("{state:016x}")
}

/// The standard library, `MIXED` and every cookbook design.
fn pinned_sources() -> Vec<(String, String)> {
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
    sources
}

fn assert_pinned(pins: &[(&str, &str)], hash: fn(&str) -> String) {
    let sources = pinned_sources();
    assert_eq!(sources.len(), pins.len(), "one pin per source");
    for (name, text) in &sources {
        let pinned = pins
            .iter()
            .find(|(pinned, _)| pinned == name)
            .unwrap_or_else(|| panic!("no pinned fingerprint for {name}"));
        assert_eq!(hash(text), pinned.1, "fingerprint of {name}");
    }
}

#[test]
fn ast_fingerprints_are_pinned() {
    assert_pinned(PINNED_FINGERPRINTS, fingerprint);
}

#[test]
fn printed_forms_are_unchanged() {
    assert_pinned(BYTEWISE_FINGERPRINTS, bytewise_fingerprint);
}
