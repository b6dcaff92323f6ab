//! Differential tests for the incremental compilation pipeline: a
//! compile served (partly or fully) from a warm [`ArtifactCache`]
//! must produce **byte-identical** VHDL and SystemVerilog to a cold
//! compile of the same sources — for every cookbook design and for
//! every edit kind the cache distinguishes:
//!
//! * a *touch* (recompile with unchanged text) reuses every stage;
//! * a *comment-only edit* re-parses the edited file but reuses
//!   elaboration, sugaring and the DRC (the AST fingerprint is
//!   comment-insensitive);
//! * a *structural edit* (template argument change, added
//!   definitions) recomputes the dirty cone — and still matches the
//!   cold compile of the edited text bit for bit;
//! * a cache restored from disk behaves like the in-memory one.

use std::fs;
use std::path::PathBuf;
use tydi::lang::{
    compile, compile_with_cache, ArtifactCache, CompileOptions, CompileOutput, Stage,
};
use tydi::stdlib::{full_registry, stdlib_source, STDLIB_FILE_NAME};
use tydi::vhdl::{generate_project_for, Backend, BuiltinRegistry, VhdlOptions};

fn cookbook_files() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cookbook");
    let mut files: Vec<String> = fs::read_dir(dir)
        .expect("cookbook dir")
        .filter_map(|e| {
            let name = e.expect("entry").file_name().to_string_lossy().to_string();
            name.ends_with(".td").then_some(name)
        })
        .collect();
    files.sort();
    files
}

fn cookbook_text(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("cookbook")
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn sources_for(file: &str, text: &str) -> Vec<(String, String)> {
    vec![
        (STDLIB_FILE_NAME.to_string(), stdlib_source().to_string()),
        (file.to_string(), text.to_string()),
    ]
}

fn registry() -> BuiltinRegistry {
    let registry = full_registry();
    tydi::fletcher::register_fletcher_rtl(&registry);
    registry
}

fn render_backend(
    project: &tydi::ir::Project,
    registry: &BuiltinRegistry,
    backend: Backend,
) -> String {
    generate_project_for(project, registry, &VhdlOptions::default(), backend)
        .unwrap_or_else(|e| panic!("{backend} generation failed: {e}"))
        .iter()
        .map(|f| {
            format!(
                "{} file: {}\n{}",
                backend.comment_prefix(),
                f.name,
                f.contents
            )
        })
        .collect()
}

/// Renders both backends' concatenated output for a project.
fn render_both(project: &tydi::ir::Project, registry: &BuiltinRegistry) -> (String, String) {
    (
        render_backend(project, registry, Backend::Vhdl),
        render_backend(project, registry, Backend::SystemVerilog),
    )
}

fn compile_cold(file: &str, text: &str) -> CompileOutput {
    let sources = sources_for(file, text);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    compile(&refs, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{file} failed to compile:\n{e}"))
}

fn compile_warm(file: &str, text: &str, cache: &mut ArtifactCache) -> CompileOutput {
    let sources = sources_for(file, text);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    compile_with_cache(&refs, &CompileOptions::default(), cache)
        .unwrap_or_else(|e| panic!("{file} failed cached compile:\n{e}"))
}

/// Sums (reused, recomputed) for one stage across the records.
fn stage_counts(output: &CompileOutput, stage: Stage) -> (usize, usize) {
    output
        .stage_records
        .iter()
        .filter(|r| r.stage == stage)
        .fold((0, 0), |(re, rc), r| (re + r.reused, rc + r.recomputed))
}

/// Asserts warm output equals a cold compile of the same text, both
/// in diagnostics-bearing compile results and in emitted RTL bytes.
fn assert_differential(file: &str, text: &str, warm: &CompileOutput) {
    let cold = compile_cold(file, text);
    let registry = registry();
    let (cold_vhdl, cold_sv) = render_both(&cold.project, &registry);
    let (warm_vhdl, warm_sv) = render_both(&warm.project, &registry);
    assert_eq!(cold_vhdl, warm_vhdl, "{file}: VHDL drifted under the cache");
    assert_eq!(cold_sv, warm_sv, "{file}: SV drifted under the cache");
    // Diagnostics replay identically (message + stage + severity).
    let render = |out: &CompileOutput| -> Vec<String> {
        out.diagnostics
            .iter()
            .map(|d| format!("{}|{}|{}", d.severity, d.stage, d.message))
            .collect()
    };
    assert_eq!(render(&cold), render(warm), "{file}: diagnostics drifted");
    assert_eq!(
        cold.sugar_report, warm.sugar_report,
        "{file}: sugar report drifted"
    );
}

/// Touch: recompiling unchanged text through a warm cache reuses
/// every stage and matches the cold compile byte for byte.
#[test]
fn touch_reuses_everything_and_matches_cold() {
    for file in cookbook_files() {
        let text = cookbook_text(&file);
        let mut cache = ArtifactCache::new();
        compile_warm(&file, &text, &mut cache); // populate
        let warm = compile_warm(&file, &text, &mut cache);
        let (parse_reused, parse_recomputed) = stage_counts(&warm, Stage::Parse);
        assert_eq!(parse_recomputed, 0, "{file}: touch must not re-parse");
        assert_eq!(parse_reused, 2, "{file}: stdlib + design reuse");
        assert_eq!(stage_counts(&warm, Stage::Elaborate), (1, 0), "{file}");
        assert_eq!(stage_counts(&warm, Stage::Sugar), (1, 0), "{file}");
        assert_eq!(stage_counts(&warm, Stage::Drc), (1, 0), "{file}");
        assert_differential(&file, &text, &warm);
    }
}

/// Comment-only edit: the edited file re-parses, but its AST
/// fingerprint is unchanged, so elaboration and everything after it
/// reuse — and the output still matches a cold compile.
#[test]
fn comment_only_edit_reuses_elaboration() {
    for file in cookbook_files() {
        let text = cookbook_text(&file);
        let mut cache = ArtifactCache::new();
        compile_warm(&file, &text, &mut cache);
        let edited = format!("// touched by incremental_cache tests\n{text}\n// trailing\n");
        let warm = compile_warm(&file, &edited, &mut cache);
        let (parse_reused, parse_recomputed) = stage_counts(&warm, Stage::Parse);
        assert_eq!(parse_reused, 1, "{file}: stdlib reuses");
        assert_eq!(parse_recomputed, 1, "{file}: edited file re-parses");
        assert_eq!(
            stage_counts(&warm, Stage::Elaborate),
            (1, 0),
            "{file}: comment edit must not re-elaborate"
        );
        assert_differential(&file, &edited, &warm);
    }
}

/// Structural edit: appended definitions change the AST fingerprint,
/// elaboration recomputes, and the warm output matches a cold compile
/// of the edited text.
#[test]
fn structural_edit_recomputes_and_matches_cold() {
    for file in cookbook_files() {
        let text = cookbook_text(&file);
        let mut cache = ArtifactCache::new();
        compile_warm(&file, &text, &mut cache);
        let edited = format!(
            "{text}\ntype CacheProbeT = Stream(Bit(7));\n\
             streamlet cache_probe_s {{ i : CacheProbeT in, o : CacheProbeT out, }}\n\
             impl cache_probe_i of cache_probe_s {{ i => o, }}\n"
        );
        let warm = compile_warm(&file, &edited, &mut cache);
        assert_eq!(
            stage_counts(&warm, Stage::Elaborate),
            (0, 1),
            "{file}: structural edit must re-elaborate"
        );
        assert!(
            warm.project.implementation("cache_probe_i").is_some(),
            "{file}: edit visible in output"
        );
        assert_differential(&file, &edited, &warm);
    }
}

/// Template-argument change: flipping an instantiation argument in
/// the templates cookbook recomputes elaboration and matches cold.
#[test]
fn template_argument_change_matches_cold() {
    let file = "03_templates.td";
    let text = cookbook_text(file);
    let mut cache = ArtifactCache::new();
    compile_warm(file, &text, &mut cache);
    // A genuine template-argument change: widen the lane type.
    let edited = text.replace("Stream(Bit(8))", "Stream(Bit(24))");
    assert_ne!(text, edited, "03_templates.td should use Stream(Bit(8))");
    let warm = compile_warm(file, &edited, &mut cache);
    assert_eq!(stage_counts(&warm, Stage::Elaborate), (0, 1));
    assert_differential(file, &edited, &warm);
    // And back: the original artifact is still cached, so everything
    // reuses and still matches cold.
    let back = compile_warm(file, &text, &mut cache);
    assert_eq!(stage_counts(&back, Stage::Elaborate), (1, 0));
    assert_differential(file, &text, &back);
}

/// Disk persistence: a cache saved and reloaded serves the elaborate
/// stage from disk and still produces byte-identical output.
#[test]
fn persisted_cache_round_trips_and_matches_cold() {
    let dir = std::env::temp_dir().join(format!("tydic-differential-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for file in ["01_variables.td", "06_sugaring.td", "10_full_flow.td"] {
        let text = cookbook_text(file);
        let mut cache = ArtifactCache::new();
        compile_warm(file, &text, &mut cache);
        cache.save(&dir).expect("save cache");

        let mut restored = ArtifactCache::load(&dir);
        assert_eq!(restored.elab_entries(), cache.elab_entries());
        let warm = compile_warm(file, &text, &mut restored);
        assert_eq!(
            stage_counts(&warm, Stage::Elaborate),
            (1, 0),
            "{file}: disk hit"
        );
        let (parse_reused, parse_recomputed) = stage_counts(&warm, Stage::Parse);
        assert_eq!(
            (parse_reused, parse_recomputed),
            (2, 0),
            "{file}: full elab hit needs no AST materialization"
        );
        assert_differential(file, &text, &warm);

        // A comment edit against the restored cache: the unchanged
        // stdlib AST is rebuilt on demand, the elaboration recomputes
        // only because the edited design changed structurally? No —
        // comment edits keep the AST fingerprint, so even from disk
        // the elaborate stage reuses.
        let edited = format!("// disk warm start\n{text}");
        let mut restored2 = ArtifactCache::load(&dir);
        let warm2 = compile_warm(file, &edited, &mut restored2);
        assert_eq!(
            stage_counts(&warm2, Stage::Elaborate),
            (1, 0),
            "{file}: comment edit reuses elaboration from disk"
        );
        assert_differential(file, &edited, &warm2);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// More distinct texts than the parse cache holds, each compiled with
/// the stdlib through one cache: the stdlib entry every compile looks
/// up must never be the one a new text evicts (an insertion-order
/// cache dropped it after 256 texts, and the compile failed with
/// "could not be rebuilt").
#[test]
fn parse_cache_eviction_never_fails_a_compile() {
    let mut cache = ArtifactCache::new();
    for k in 0..300 {
        let file = format!("edit{k}.td");
        let text = format!(
            "package p{k};\ntype B = Stream(Bit({}));\n\
             streamlet s {{ i : B in, o : B out, }}\nimpl x of s {{ i => o, }}\n",
            k + 1
        );
        let warm = compile_warm(&file, &text, &mut cache);
        assert!(warm.project.implementation("x").is_some(), "{file}");
    }
}
