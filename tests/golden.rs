//! Golden-file snapshot tests over the cookbook designs, one row per
//! pinned artifact:
//!
//! | row       | snapshot directory       | contents                               |
//! |-----------|--------------------------|----------------------------------------|
//! | `vhdl`    | `tests/golden/vhdl/`     | every VHDL file behind `-- file:`      |
//! | `verilog` | `tests/golden/verilog/`  | every SystemVerilog file behind `// file:` |
//! | `ir`      | `tests/golden/ir/`       | the elaborated Tydi-IR text            |
//!
//! Each cookbook program is compiled together with the standard
//! library and must match its snapshot byte for byte, so refactors of
//! the elaborator or the emission pipeline are reviewed as explicit
//! diffs rather than silent drift. The IR row pins the elaborator at
//! its contract with the backends: the emitted IR text, preceded by
//! comment lines with the template statistics, the connection-span
//! count and any diagnostics.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fs;
use std::path::PathBuf;
use tydi::ir::text::emit_project;
use tydi::lang::diagnostics::has_errors;
use tydi::lang::instantiate::elaborate;
use tydi::lang::parser::parse_package;
use tydi::lang::{compile, CompileOptions};
use tydi::stdlib::{full_registry, with_stdlib};
use tydi::vhdl::{generate_project_for, Backend, VhdlOptions};

/// One kind of pinned artifact.
struct Golden {
    dir: &'static str,
    ext: &'static str,
    render: fn(&str, &str) -> String,
}

const VHDL: Golden = Golden {
    dir: "tests/golden/vhdl",
    ext: "vhd",
    render: render_vhdl,
};

const VERILOG: Golden = Golden {
    dir: "tests/golden/verilog",
    ext: "sv",
    render: render_verilog,
};

const IR: Golden = Golden {
    dir: "tests/golden/ir",
    ext: "tir",
    render: render_ir,
};

#[test]
fn cookbook_vhdl_matches_golden_snapshots() {
    VHDL.check_cookbook();
}

#[test]
fn cookbook_verilog_matches_golden_snapshots() {
    VERILOG.check_cookbook();
}

#[test]
fn cookbook_ir_matches_golden_snapshots() {
    IR.check_cookbook();
}

/// A design that fails elaboration reports exactly these diagnostics,
/// in this order: each cause once, without the cascade of streamlets
/// and impls that fail because of it.
#[test]
fn broken_design_diagnostics_are_pinned() {
    let broken = r#"
package broken;
type T = Stream(Bit(nope));
streamlet s { i : T in, o : T out, }
impl x of s { i => o, }
streamlet z { i : Stream(Bit(0)) in, o : Stream(Bit(8)) out, }
impl y of z { i => o, }
assert(1 == 2, "both paths see me");
"#;
    let (pkg, diags) = parse_package(0, broken);
    assert!(!has_errors(&diags));
    let (_, _, diags) = elaborate(vec![pkg.unwrap()], "golden");
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(messages, EXPECTED_BROKEN_DIAGNOSTICS);
}

/// One entry per cause: a change to how often an error is reported
/// shows up here.
const EXPECTED_BROKEN_DIAGNOSTICS: &[&str] = &[
    "undefined name `nope`",
    "Bit width must be positive, got 0",
    "assert failed: both paths see me",
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn cookbook_files() -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(repo_path("cookbook"))
        .expect("cookbook dir")
        .filter_map(|e| {
            let name = e.expect("entry").file_name().to_string_lossy().to_string();
            name.ends_with(".td").then_some(name)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 11,
        "expected at least 11 cookbook designs, found {}",
        files.len()
    );
    files
}

fn render_vhdl(file: &str, text: &str) -> String {
    render_rtl(file, text, Backend::Vhdl, "--")
}

fn render_verilog(file: &str, text: &str) -> String {
    render_rtl(file, text, Backend::SystemVerilog, "//")
}

/// Compiles one design and renders every generated file behind a
/// `<comment> file:` banner, in definition order.
fn render_rtl(file: &str, text: &str, backend: Backend, comment: &str) -> String {
    let sources = with_stdlib(&[(file, text)]);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let out = compile(&refs, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("cookbook {file} failed to compile:\n{e}"));
    let registry = full_registry();
    tydi::fletcher::register_fletcher_rtl(&registry);
    let files = generate_project_for(&out.project, &registry, &VhdlOptions::default(), backend)
        .unwrap_or_else(|e| panic!("cookbook {file} failed {backend:?} generation:\n{e}"));
    let mut rendered = String::new();
    for f in &files {
        rendered.push_str(&format!("{comment} file: {}\n", f.name));
        rendered.push_str(&f.contents);
    }
    rendered
}

/// Elaborates one design (no sugaring, no DRC) and renders its IR
/// text behind the elaboration statistics and diagnostics.
fn render_ir(file: &str, text: &str) -> String {
    let mut packages = Vec::new();
    for (index, (name, text)) in with_stdlib(&[(file, text)]).iter().enumerate() {
        let (package, diags) = parse_package(index, text);
        assert!(!has_errors(&diags), "{name}: parse errors: {diags:?}");
        packages.extend(package);
    }
    let (project, info, diags) = elaborate(packages, "golden");
    let mut rendered = format!(
        "// template_instantiations: {}\n\
         // template_cache_hits: {}\n\
         // connection_spans: {}\n",
        info.template_instantiations,
        info.template_cache_hits,
        info.connection_span_count()
    );
    for d in &diags {
        rendered.push_str(&format!("// diagnostic: {}\n", d.message));
    }
    rendered.push_str(&emit_project(&project));
    rendered
}

impl Golden {
    /// Every cookbook design matches its snapshot, and every snapshot
    /// belongs to a cookbook design (no stale goldens). Driven off the
    /// cookbook directory so newly added designs are covered (and
    /// creatable via `UPDATE_GOLDEN=1`) without editing this file.
    fn check_cookbook(&self) {
        let cookbook = cookbook_files();
        for file in &cookbook {
            self.check(file);
        }
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            return;
        }
        let suffix = format!(".{}", self.ext);
        let mut goldens: Vec<String> = fs::read_dir(repo_path(self.dir))
            .expect("golden dir (run UPDATE_GOLDEN=1 once)")
            .filter_map(|e| {
                let name = e.expect("entry").file_name().to_string_lossy().to_string();
                name.strip_suffix(&suffix).map(|stem| format!("{stem}.td"))
            })
            .collect();
        goldens.sort();
        assert_eq!(
            cookbook, goldens,
            "stale golden snapshot(s): every {}/*{suffix} must match a cookbook design",
            self.dir
        );
    }

    /// Compares (or, with `UPDATE_GOLDEN=1`, rewrites) one snapshot.
    fn check(&self, cookbook_file: &str) {
        let path = repo_path("cookbook").join(cookbook_file);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let actual = (self.render)(cookbook_file, &text);
        let stem = cookbook_file.trim_end_matches(".td");
        let golden_path = repo_path(self.dir).join(format!("{stem}.{}", self.ext));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            fs::create_dir_all(golden_path.parent().unwrap()).expect("golden dir");
            fs::write(&golden_path, &actual).expect("write golden");
            return;
        }
        let expected = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {golden_path:?} ({e}); \
                 run `UPDATE_GOLDEN=1 cargo test --test golden` to create it"
            )
        });
        if actual == expected {
            return;
        }
        // Point at the first diverging line for a reviewable failure.
        let mismatch = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map(|i| {
                format!(
                    "first mismatch at line {}:\n  actual:   {}\n  expected: {}",
                    i + 1,
                    actual.lines().nth(i).unwrap_or(""),
                    expected.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "outputs differ after the last common line (actual {} line(s), \
                     expected {} line(s); check trailing content)",
                    actual.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "{} output for {cookbook_file} drifted from {golden_path:?}.\n{mismatch}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden` and review the diff.",
            self.ext
        );
    }
}
