//! The staged compiler pipeline (paper Fig. 3).
//!
//! `parse` → `evaluate`/`expand` (elaboration) → `sugar` → `DRC` →
//! Tydi-IR, with per-stage wall-clock timings so the benchmark harness
//! can report where compilation time goes.
//!
//! [`compile`] is a compatibility wrapper over the
//! [`Session`](crate::session::Session) driver, which exposes the same
//! stages individually for tools that want to observe or interleave
//! them.

use crate::cache::{ArtifactCache, ElabArtifact};
use crate::diagnostics::Diagnostic;
use crate::fingerprint::{elaboration_key, Fingerprint};
use crate::instantiate::ElabInfo;
use crate::session::{Session, Stage};
use crate::span::SourceFile;
use crate::sugar::SugarReport;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tydi_ir::{Project, ProjectIndex};

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Name of the output IR project.
    pub project_name: String,
    /// Run the sugaring pass (paper Fig. 4). Disabling it reproduces
    /// the paper's "without sugaring" Table IV row: designs must then
    /// connect every port explicitly.
    pub enable_sugaring: bool,
    /// Run the design-rule check and fail compilation on violations.
    pub run_drc: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            project_name: "tydi_design".to_string(),
            enable_sugaring: true,
            run_drc: true,
        }
    }
}

/// Time spent per pipeline stage.
///
/// The per-stage fields are **self times** — what each stage spent on
/// its own work. The self-time sum is not elapsed time, so the
/// pipeline's wall-clock window is tracked separately in
/// [`StageTimings::wall`];
/// reports should present `wall` as "how long compilation took" and
/// the self times as the per-stage breakdown. (Historically `tydic
/// --timings` presented the sum as elapsed time, double-counting
/// overlapped stage work.)
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Fingerprinting source texts and ASTs for the artifact cache: a
    /// part of [`StageTimings::parse`], so [`StageTimings::total`]
    /// does not add it again.
    pub fingerprint: Duration,
    /// Evaluation, template instantiation, generative expansion.
    pub elaborate: Duration,
    /// Duplicator/voider insertion.
    pub sugar: Duration,
    /// Design-rule check.
    pub drc: Duration,
    /// Static throughput/backpressure analysis (zero unless a tool ran
    /// the `tydi-analyze` pass and recorded it via
    /// [`CompileOutput::record_stage`]).
    pub analyze: Duration,
    /// Lowering to the RTL netlist (zero unless a tool generated code
    /// and recorded it via [`CompileOutput::record_codegen`]).
    pub lower: Duration,
    /// Rendering generated files (netlist emission or IR text).
    pub emit: Duration,
    /// Writing generated files to disk.
    pub write: Duration,
    /// Wall-clock window from the start of the first stage to the end
    /// of the last one, extended over any stage or code generation
    /// recorded afterwards (zero when no stage ran).
    pub wall: Duration,
}

impl StageTimings {
    /// Sum of the per-stage self times. This is *not* elapsed time;
    /// use [`StageTimings::wall`] for that.
    pub fn total(&self) -> Duration {
        self.parse
            + self.elaborate
            + self.sugar
            + self.drc
            + self.analyze
            + self.lower
            + self.emit
            + self.write
    }
}

/// A successful compilation.
#[derive(Debug)]
pub struct CompileOutput {
    /// The validated IR project.
    pub project: Project,
    /// The shared name-resolution index over [`CompileOutput::project`],
    /// built once after elaboration and kept current through
    /// sugaring; backends reuse it instead of rebuilding their own
    /// lookup maps (see [`tydi_ir::index`]).
    pub index: Arc<ProjectIndex>,
    /// Non-error diagnostics (warnings, notes).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// Registered source files (for rendering diagnostics).
    pub files: Vec<SourceFile>,
    /// What sugaring did.
    pub sugar_report: SugarReport,
    /// Elaboration statistics.
    pub elab_info: ElabInfo,
    /// Per-stage execution records, in order, including how much work
    /// each stage reused from the artifact cache.
    pub stage_records: Vec<crate::session::StageRecord>,
}

impl CompileOutput {
    /// Records a stage a tool ran on top of this finished compile
    /// (e.g. the `tydi-analyze` pass behind `tydic analyze`), folding
    /// its self time into [`CompileOutput::timings`] and appending a
    /// [`StageRecord`](crate::session::StageRecord) so `--timings`
    /// reports it uniformly with the compiler's own stages. The
    /// wall-clock window is extended by the stage's duration: the
    /// stage ran strictly after the compile window closed.
    pub fn record_stage(&mut self, stage: Stage, duration: Duration, diagnostics: usize) {
        match stage {
            Stage::Parse => self.timings.parse += duration,
            Stage::Elaborate => self.timings.elaborate += duration,
            Stage::Sugar => self.timings.sugar += duration,
            Stage::Drc => self.timings.drc += duration,
            Stage::Analyze => self.timings.analyze += duration,
        }
        self.timings.wall += duration;
        self.stage_records.push(crate::session::StageRecord {
            stage,
            duration,
            diagnostics,
            reused: 0,
            recomputed: 1,
        });
    }

    /// Records the code generation a tool ran on this finished compile
    /// (`tydic build`): the self times of lowering, emission and file
    /// writes, and `window`, the elapsed time from the end of the
    /// compile through the last write, by which the wall-clock window
    /// grows.
    pub fn record_codegen(
        &mut self,
        lower: Duration,
        emit: Duration,
        write: Duration,
        window: Duration,
    ) {
        self.timings.lower += lower;
        self.timings.emit += emit;
        self.timings.write += write;
        self.timings.wall += window;
    }
}

/// A failed compilation, carrying everything needed to render the
/// errors.
#[derive(Debug)]
pub struct CompileFailure {
    /// All diagnostics, including at least one error.
    pub diagnostics: Vec<Diagnostic>,
    /// Registered source files.
    pub files: Vec<SourceFile>,
}

impl CompileFailure {
    /// Renders every diagnostic against the sources.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(&self.files))
            .collect()
    }
}

impl fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl std::error::Error for CompileFailure {}

/// Compiles Tydi-lang sources (`(file name, text)` pairs) to Tydi-IR.
///
/// This is the one-call entry point; it drives a
/// [`Session`](crate::session::Session) through the four Fig. 3
/// stages, one after the other on the calling thread.
pub fn compile(
    sources: &[(&str, &str)],
    options: &CompileOptions,
) -> Result<CompileOutput, Box<CompileFailure>> {
    let mut session = Session::new(options.clone());
    // Stage 1: parse (code structure #1).
    let packages = session.parse(sources)?;
    // Stage 2: evaluate + expand (code structures #2/#3).
    let (mut project, elab_info) = session.elaborate(packages)?;
    // Stage 3: sugaring.
    let sugar_report = session.sugar(&mut project);
    // Stage 4: design-rule check.
    session.drc(&project, &elab_info)?;
    Ok(session.finish(project, sugar_report, elab_info))
}

/// Compiles through an [`ArtifactCache`], recomputing only the dirty
/// cone of the dependency map `source text → AST → elaborated
/// project`:
///
/// * unchanged files replay their memoized parse (diagnostics
///   included) without touching the parser;
/// * when the options plus the ordered AST fingerprints match a
///   memoized elaboration artifact, the elaborate, sugar and DRC
///   stages are all served from the cache — a comment-only edit
///   re-parses one file and reuses everything else;
/// * changed units recompute exactly as in [`compile`].
///   Parse artifacts memoize the parser's exact output (diagnostics
///   included, which replay verbatim); elaboration artifacts are
///   stored only when the compile succeeds, so elaborate/DRC errors
///   always re-run and re-report.
///
/// The output is bit-for-bit identical to what [`compile`] produces
/// for the same sources (the differential test-suite pins this per
/// cookbook design). Per-stage reuse is reported in
/// [`CompileOutput::stage_records`].
pub fn compile_with_cache(
    sources: &[(&str, &str)],
    options: &CompileOptions,
    cache: &mut ArtifactCache,
) -> Result<CompileOutput, Box<CompileFailure>> {
    let mut session = Session::new(options.clone());
    let units = session.parse_incremental(sources, cache)?;
    let asts: Vec<Fingerprint> = units.iter().map(|u| u.ast).collect();
    let key = elaboration_key(options, &asts);
    if let Some(artifact) = cache.lookup_elab(key) {
        tydi_obs::trace::instant("core", "elab-cache-hit");
        tydi_obs::metrics::counter_add("cache.elab.lookup_hits", 1);
        let artifact = artifact.clone();
        // The artifact's diagnostics replay under the elaborate
        // record; each diagnostic still carries its own stage label.
        session.replay_stage(Stage::Elaborate, artifact.diagnostics);
        session.replay_stage(Stage::Sugar, Vec::new());
        session.replay_stage(Stage::Drc, Vec::new());
        session.adopt_index(artifact.index);
        return Ok(session.finish(artifact.project, artifact.sugar_report, artifact.info));
    }
    tydi_obs::trace::instant("core", "elab-cache-miss");
    tydi_obs::metrics::counter_add("cache.elab.lookup_misses", 1);
    let packages = {
        let _span = tydi_obs::trace::span("core", "materialize");
        session.materialize_packages(&units, cache)?
    };
    let diags_before = session.diagnostics().len();
    let (mut project, elab_info) = session.elaborate(packages)?;
    let sugar_report = session.sugar(&mut project);
    session.drc(&project, &elab_info)?;
    let stage_diagnostics = session.diagnostics()[diags_before..].to_vec();
    // IR names are shared `Arc<str>`s: this copy, and the one a hit
    // hands out, bump reference counts and allocate the definition
    // tables and one `Vec` per body, not one string per name.
    let artifact_project = project.clone();
    let artifact_info = elab_info.clone();
    let output = session.finish(project, sugar_report, elab_info);
    cache.store_elab(
        key,
        ElabArtifact {
            project: artifact_project,
            index: Arc::clone(&output.index),
            info: artifact_info,
            sugar_report,
            diagnostics: stage_diagnostics,
        },
    );
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: &str = r#"
package demo;
type Byte = Stream(Bit(8));
streamlet wire_s { i : Byte in, o : Byte out, }
impl wire_i of wire_s { i => o, }
"#;

    #[test]
    fn compile_wire() {
        let out = compile(&[("wire.td", WIRE)], &CompileOptions::default()).unwrap();
        assert!(out.project.implementation("wire_i").is_some());
        assert_eq!(out.sugar_report, SugarReport::default());
        assert!(out.timings.total() > Duration::ZERO);
    }

    #[test]
    fn sugaring_fixes_fanout_and_reports() {
        let src = r#"
package demo;
type Byte = Stream(Bit(8));
streamlet fan_s { i : Byte in, o1 : Byte out, o2 : Byte out, }
impl fan_i of fan_s {
    i => o1,
    i => o2,
}
"#;
        let out = compile(&[("fan.td", src)], &CompileOptions::default()).unwrap();
        assert_eq!(out.sugar_report.duplicators, 1);
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.stage == "sugar" && d.message.contains("1 duplicator")));

        // Without sugaring, the same design fails the DRC.
        let no_sugar = CompileOptions {
            enable_sugaring: false,
            ..CompileOptions::default()
        };
        let err = compile(&[("fan.td", src)], &no_sugar).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.stage == "drc" && d.message.contains("port usage")));
    }

    #[test]
    fn drc_type_mismatch_has_span() {
        let src = r#"
package demo;
type A = Stream(Bit(8));
type B = Stream(Bit(16));
streamlet s { i : A in, o : B out, }
impl x of s { i => o, }
"#;
        let err = compile(&[("t.td", src)], &CompileOptions::default()).unwrap_err();
        let drc: Vec<_> = err
            .diagnostics
            .iter()
            .filter(|d| d.stage == "drc")
            .collect();
        assert!(!drc.is_empty());
        assert!(drc.iter().any(|d| d.span.is_some()));
        let rendered = err.render();
        assert!(rendered.contains("t.td"));
    }

    #[test]
    fn strict_type_mismatch_detected_and_relaxable() {
        // Two aliases with identical structure: strict DRC must still
        // reject the connection (paper §IV-B).
        let src = r#"
package demo;
type A = Stream(Bit(8));
type B = Stream(Bit(8));
streamlet s { i : A in, o : B out, }
impl x of s { i => o, }
"#;
        let err = compile(&[("t.td", src)], &CompileOptions::default()).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("strict type equality")));

        // The @NoStrictType attribute relaxes the check.
        let relaxed = r#"
package demo;
type A = Stream(Bit(8));
type B = Stream(Bit(8));
streamlet s { i : A in, o : B out, }
@NoStrictType
impl x of s { i => o, }
"#;
        let out = compile(&[("t.td", relaxed)], &CompileOptions::default()).unwrap();
        assert!(out.project.implementation("x").is_some());
    }

    #[test]
    fn record_stage_folds_analyze_into_timings() {
        let mut out = compile(&[("wire.td", WIRE)], &CompileOptions::default()).unwrap();
        let wall_before = out.timings.wall;
        let total_before = out.timings.total();
        out.record_stage(Stage::Analyze, Duration::from_millis(3), 2);
        assert_eq!(out.timings.analyze, Duration::from_millis(3));
        assert_eq!(out.timings.wall, wall_before + Duration::from_millis(3));
        assert_eq!(out.timings.total(), total_before + Duration::from_millis(3));
        let record = out.stage_records.last().unwrap();
        assert_eq!(record.stage, Stage::Analyze);
        assert_eq!(record.diagnostics, 2);
        assert_eq!(Stage::Analyze.name(), "analyze");
    }

    #[test]
    fn parse_failure_short_circuits() {
        let err = compile(
            &[("bad.td", "package x;\nconst = ;")],
            &CompileOptions::default(),
        )
        .unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.stage == "parse"));
    }
}
