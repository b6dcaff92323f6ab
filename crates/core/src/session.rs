//! The compilation session driver.
//!
//! A [`Session`] owns everything that outlives a single pipeline
//! stage — options, registered source files, accumulated diagnostics
//! and per-stage records — and exposes the paper's Fig. 3 stages as
//! composable steps:
//!
//! ```text
//! let mut session = Session::new(options);
//! let packages            = session.parse(sources)?;
//! let (project, elab)     = session.elaborate(packages)?;
//! let report              = session.sugar(&mut project);
//! session.drc(&project, &elab)?;
//! let output              = session.finish(project, report, elab);
//! ```
//!
//! Every stage runs under [`Session::run_stage`], which records its
//! wall-clock duration and how many diagnostics it emitted, so tools
//! report stage behaviour uniformly instead of each stage hand-rolling
//! its own timing. [`compile`](crate::compile) is a thin wrapper over
//! this driver and remains the one-call entry point.

use crate::ast::Package;
use crate::cache::{ArtifactCache, ParseArtifact, ParseKey};
use crate::diagnostics::{has_errors, Diagnostic};
use crate::fingerprint::{ast_fingerprint, source_fingerprint, Fingerprint};
use crate::instantiate::{elaborate, ElabInfo};
use crate::parser::parse_package;
use crate::pipeline::{CompileFailure, CompileOptions, CompileOutput, StageTimings};
use crate::span::SourceFile;
use crate::sugar::{apply_sugaring_with, SugarReport};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tydi_ir::validate::violations;
use tydi_ir::{Project, ProjectIndex};

/// The pipeline stages of paper Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lexing + parsing (per file).
    Parse,
    /// Evaluation, template instantiation, generative expansion.
    Elaborate,
    /// Duplicator/voider insertion.
    Sugar,
    /// Design-rule checks (per implementation).
    Drc,
    /// Static throughput/backpressure analysis (`tydic analyze`),
    /// recorded by tools running the `tydi-analyze` pass on top of a
    /// finished compile.
    Analyze,
}

impl Stage {
    /// The stage's diagnostic label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Elaborate => "elaborate",
            Stage::Sugar => "sugar",
            Stage::Drc => "drc",
            Stage::Analyze => "analyze",
        }
    }
}

/// What one stage execution did.
#[derive(Debug, Clone, Copy)]
pub struct StageRecord {
    /// Which stage ran.
    pub stage: Stage,
    /// Wall-clock *self* time of this stage execution (zero when the
    /// whole stage was served from the artifact cache).
    pub duration: Duration,
    /// Diagnostics emitted during the stage.
    pub diagnostics: usize,
    /// Work units served from the artifact cache (files for parse,
    /// whole-project artifacts for the later stages).
    pub reused: usize,
    /// Work units actually recomputed.
    pub recomputed: usize,
}

/// One parsed input file in the incremental pipeline: its cache key
/// plus the fingerprint of its canonical printed AST. The ordered AST
/// fingerprints of all units form the elaboration key.
#[derive(Debug, Clone, Copy)]
pub struct ParsedUnit {
    /// Parse-cache key (file slot + source fingerprint).
    pub key: ParseKey,
    /// AST fingerprint (comment/whitespace-insensitive).
    pub ast: Fingerprint,
}

/// A compilation session: drives the staged pipeline and accumulates
/// files, diagnostics and stage records across stages.
#[derive(Debug)]
pub struct Session {
    options: CompileOptions,
    files: Vec<SourceFile>,
    diagnostics: Vec<Diagnostic>,
    records: Vec<StageRecord>,
    /// Cache work counts reported by the currently running stage
    /// closure, folded into its [`StageRecord`].
    pending_counts: Option<(usize, usize)>,
    /// Start of the first stage and end of the latest stage: the
    /// pipeline's wall-clock window, reported separately from the
    /// per-stage self times (see [`StageTimings::wall`]).
    first_stage_start: Option<Instant>,
    last_stage_end: Option<Instant>,
    /// The shared name-resolution index, built right after
    /// elaboration (or adopted from a cached artifact) and kept current
    /// by the sugaring pass, so the sugar, DRC and lowering stages
    /// never rebuild their own maps.
    index: Option<Arc<ProjectIndex>>,
    /// Time spent fingerprinting source texts and ASTs, a part of the
    /// parse stage's self time.
    fingerprint: Duration,
}

impl Session {
    /// Creates a session with the given options.
    pub fn new(options: CompileOptions) -> Self {
        Session {
            options,
            files: Vec::new(),
            diagnostics: Vec::new(),
            records: Vec::new(),
            pending_counts: None,
            first_stage_start: None,
            last_stage_end: None,
            index: None,
            fingerprint: Duration::ZERO,
        }
    }

    /// The session's options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// All diagnostics accumulated so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// All source files registered so far.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// Per-stage records, in execution order.
    pub fn stage_records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Aggregated per-stage self times (summed when a stage ran
    /// twice), plus the pipeline's wall-clock window. The per-stage
    /// fields are *self* times; reports must never present their sum
    /// as elapsed time (that was the historic `--timings`
    /// double-counting bug).
    pub fn timings(&self) -> StageTimings {
        let mut t = StageTimings::default();
        for record in &self.records {
            match record.stage {
                Stage::Parse => t.parse += record.duration,
                Stage::Elaborate => t.elaborate += record.duration,
                Stage::Sugar => t.sugar += record.duration,
                Stage::Drc => t.drc += record.duration,
                Stage::Analyze => t.analyze += record.duration,
            }
        }
        t.fingerprint = self.fingerprint;
        t.wall = match (self.first_stage_start, self.last_stage_end) {
            (Some(start), Some(end)) => end.saturating_duration_since(start),
            _ => Duration::ZERO,
        };
        t
    }

    /// Runs one fingerprint computation over file `name` under a
    /// `<layer>:<name>` span, adding its time to the parse stage's
    /// fingerprint part.
    fn fingerprinted(
        &mut self,
        layer: &str,
        name: &str,
        f: impl FnOnce() -> Fingerprint,
    ) -> Fingerprint {
        let _span = tydi_obs::trace::span_named("core", || format!("{layer}:{name}"));
        let started = Instant::now();
        let fingerprint = f();
        self.fingerprint += started.elapsed();
        fingerprint
    }

    /// Reports how much of the current stage's work was served from
    /// the artifact cache; called by stage closures, folded into the
    /// stage's [`StageRecord`].
    fn set_stage_counts(&mut self, reused: usize, recomputed: usize) {
        self.pending_counts = Some((reused, recomputed));
    }

    /// Runs `f` as a named stage, recording duration and emitted
    /// diagnostics.
    fn run_stage<T>(&mut self, stage: Stage, f: impl FnOnce(&mut Self) -> T) -> T {
        let _span = tydi_obs::trace::span_named("core", || format!("stage:{}", stage.name()));
        let diags_before = self.diagnostics.len();
        let t0 = Instant::now();
        self.first_stage_start.get_or_insert(t0);
        let out = f(self);
        let (reused, recomputed) = self.pending_counts.take().unwrap_or((0, 1));
        self.last_stage_end = Some(Instant::now());
        self.records.push(StageRecord {
            stage,
            duration: t0.elapsed(),
            diagnostics: self.diagnostics.len() - diags_before,
            reused,
            recomputed,
        });
        out
    }

    /// Records a stage as fully served from the artifact cache,
    /// replaying the diagnostics it originally emitted.
    pub(crate) fn replay_stage(&mut self, stage: Stage, diagnostics: Vec<Diagnostic>) {
        tydi_obs::trace::instant_named("core", || format!("replay:{}", stage.name()));
        let now = Instant::now();
        self.first_stage_start.get_or_insert(now);
        self.last_stage_end = Some(now);
        self.records.push(StageRecord {
            stage,
            duration: Duration::ZERO,
            diagnostics: diagnostics.len(),
            reused: 1,
            recomputed: 0,
        });
        self.diagnostics.extend(diagnostics);
    }

    /// The failure value for the current diagnostics.
    fn fail(&self) -> Box<CompileFailure> {
        Box::new(CompileFailure {
            diagnostics: self.diagnostics.clone(),
            files: self.files.clone(),
        })
    }

    /// `Err` when any accumulated diagnostic is an error.
    fn bail_on_errors(&self) -> Result<(), Box<CompileFailure>> {
        if has_errors(&self.diagnostics) {
            Err(self.fail())
        } else {
            Ok(())
        }
    }

    /// Stage 1: parses `(file name, text)` pairs into packages, in
    /// input order.
    pub fn parse(&mut self, sources: &[(&str, &str)]) -> Result<Vec<Package>, Box<CompileFailure>> {
        let packages = self.run_stage(Stage::Parse, |session| {
            // File ids continue across parse() calls: spans index into
            // the session-wide file table.
            let base = session.files.len();
            session.files.extend(
                sources
                    .iter()
                    .map(|(name, text)| SourceFile::new(*name, *text)),
            );
            let mut packages = Vec::new();
            for (index, (name, text)) in sources.iter().enumerate() {
                let _span = tydi_obs::trace::span_named("core", || format!("parse:{name}"));
                let (package, mut file_diags) = parse_package(base + index, text);
                session.diagnostics.append(&mut file_diags);
                if let Some(p) = package {
                    packages.push(p);
                }
            }
            session.set_stage_counts(0, sources.len());
            packages
        });
        self.bail_on_errors()?;
        Ok(packages)
    }

    /// Stage 1, incremental: parses `(file name, text)` pairs through
    /// the artifact cache. Unchanged files (same name, same bytes,
    /// same slot in the file table) replay their memoized diagnostics
    /// without re-parsing; changed files are parsed and refresh
    /// their cache entries. Returns one [`ParsedUnit`] per file — the
    /// AST fingerprints feed the elaboration key, and the packages
    /// themselves stay in the cache until
    /// [`Session::materialize_packages`] proves they are needed.
    pub fn parse_incremental(
        &mut self,
        sources: &[(&str, &str)],
        cache: &mut ArtifactCache,
    ) -> Result<Vec<ParsedUnit>, Box<CompileFailure>> {
        let units = self.run_stage(Stage::Parse, |session| {
            let base = session.files.len();
            session.files.extend(
                sources
                    .iter()
                    .map(|(name, text)| SourceFile::new(*name, *text)),
            );
            let mut units: Vec<Option<ParsedUnit>> = vec![None; sources.len()];
            // Diagnostics are staged per file and appended in input
            // order below, so warm and cold compiles report in the
            // same order regardless of which files hit the cache.
            let mut diags_by_file: Vec<Vec<Diagnostic>> = vec![Vec::new(); sources.len()];
            let mut missing: Vec<(usize, ParseKey)> = Vec::new();
            let mut reused = 0usize;
            for (index, (name, text)) in sources.iter().enumerate() {
                let key = ParseKey {
                    slot: base + index,
                    source: session.fingerprinted("source-fingerprint", name, || {
                        source_fingerprint(name, text)
                    }),
                };
                match cache.lookup_parse(key) {
                    Some(artifact) => {
                        tydi_obs::trace::instant_named("core", || {
                            format!("parse-cache-hit:{name}")
                        });
                        reused += 1;
                        diags_by_file[index] = artifact.diagnostics.clone();
                        units[index] = Some(ParsedUnit {
                            key,
                            ast: artifact.ast,
                        });
                    }
                    None => missing.push((index, key)),
                }
            }
            let recomputed = missing.len();
            for (index, key) in missing {
                let (name, text) = sources[index];
                let (package, diags) = {
                    let _span = tydi_obs::trace::span_named("core", || format!("parse:{name}"));
                    parse_package(base + index, text)
                };
                diags_by_file[index] = diags.clone();
                match package {
                    Some(package) => {
                        let ast = session
                            .fingerprinted("fingerprint", name, || ast_fingerprint(&package));
                        units[index] = Some(ParsedUnit { key, ast });
                        cache.store_parse(
                            key,
                            ParseArtifact {
                                package: Some(package),
                                ast,
                                diagnostics: diags,
                            },
                        );
                    }
                    None => {
                        // Total parse failure (no tree at all): the
                        // compile bails below and nothing is cached,
                        // so the error re-reports on every attempt.
                        units[index] = Some(ParsedUnit {
                            key,
                            ast: Fingerprint(0),
                        });
                    }
                }
            }
            for diags in diags_by_file {
                session.diagnostics.extend(diags);
            }
            session.set_stage_counts(reused, recomputed);
            units.into_iter().flatten().collect::<Vec<_>>()
        });
        self.bail_on_errors()?;
        Ok(units)
    }

    /// Materializes the package ASTs behind [`ParsedUnit`]s, sharing
    /// the declarations of memoized trees and re-parsing entries whose
    /// AST was dropped by disk persistence or evicted (recorded as
    /// additional parse work). A re-parsed tree is used directly, whether or not the
    /// cache still holds an entry to attach it to. Called only when
    /// the elaboration artifact missed.
    pub fn materialize_packages(
        &mut self,
        units: &[ParsedUnit],
        cache: &mut ArtifactCache,
    ) -> Result<Vec<Package>, Box<CompileFailure>> {
        let mut packages: Vec<Option<Package>> = units
            .iter()
            .map(|unit| {
                cache
                    .lookup_parse(unit.key)
                    .and_then(|artifact| artifact.package.clone())
            })
            .collect();
        let rebuilt: Vec<usize> = (0..units.len())
            .filter(|&index| packages[index].is_none())
            .collect();
        if !rebuilt.is_empty() {
            self.run_stage(Stage::Parse, |session| {
                for &index in &rebuilt {
                    let slot = units[index].key.slot;
                    let package = {
                        let file = &session.files[slot];
                        let _span =
                            tydi_obs::trace::span_named("core", || format!("parse:{}", file.name));
                        parse_package(slot, &file.text).0
                    };
                    if let Some(package) = package {
                        cache.attach_package(units[index].key, package.clone());
                        packages[index] = Some(package);
                    }
                }
                session.set_stage_counts(0, rebuilt.len());
            });
        }
        let mut out = Vec::with_capacity(units.len());
        for (unit, package) in units.iter().zip(packages) {
            match package {
                Some(package) => out.push(package),
                None => {
                    // The text no longer parses to a tree at all — a
                    // corrupt cache. Fail soft: report and let the
                    // caller wipe the cache.
                    self.diagnostics.push(Diagnostic::error(
                        "parse",
                        format!(
                            "artifact cache entry for `{}` could not be rebuilt; \
                             delete the cache directory and re-run",
                            self.files
                                .get(unit.key.slot)
                                .map(|f| f.name.to_string())
                                .unwrap_or_else(|| format!("file #{}", unit.key.slot))
                        ),
                        None,
                    ));
                    return Err(self.fail());
                }
            }
        }
        Ok(out)
    }

    /// Stage 2: evaluates and expands packages into an IR project.
    pub fn elaborate(
        &mut self,
        packages: Vec<Package>,
    ) -> Result<(Project, ElabInfo), Box<CompileFailure>> {
        let (project, info) = self.run_stage(Stage::Elaborate, |session| {
            let (project, info, mut diags) = elaborate(packages, &session.options.project_name);
            session.diagnostics.append(&mut diags);
            // Build the shared name-resolution index once, right
            // here; sugar, DRC and lowering all reuse it.
            session.index = Some(Arc::new(ProjectIndex::build(&project)));
            (project, info)
        });
        self.bail_on_errors()?;
        Ok((project, info))
    }

    /// Stage 3: duplicator/voider insertion. Skipped (recording an
    /// empty stage) when the options disable sugaring.
    pub fn sugar(&mut self, project: &mut Project) -> SugarReport {
        self.run_stage(Stage::Sugar, |session| {
            let report = if session.options.enable_sugaring {
                // Reuse the index built after elaboration; fall back
                // to a fresh build for callers driving stages with a
                // project this session did not elaborate.
                let mut index = session
                    .index
                    .take()
                    .filter(|index| index.covers(project))
                    .unwrap_or_else(|| Arc::new(ProjectIndex::build(project)));
                let report = apply_sugaring_with(project, Arc::make_mut(&mut index));
                session.index = Some(index);
                report
            } else {
                SugarReport::default()
            };
            if report.duplicators + report.voiders > 0 {
                session.diagnostics.push(Diagnostic::note(
                    Stage::Sugar.name(),
                    format!(
                        "inserted {} duplicator(s) and {} voider(s)",
                        report.duplicators, report.voiders
                    ),
                    None,
                ));
            }
            report
        })
    }

    /// Stage 4: design-rule checks ([`tydi_ir::validate::violations`]),
    /// one implementation after the other. Violations become
    /// diagnostics carrying the source span of the offending
    /// connection, found by its position.
    pub fn drc(&mut self, project: &Project, info: &ElabInfo) -> Result<(), Box<CompileFailure>> {
        self.run_stage(Stage::Drc, |session| {
            if !session.options.run_drc {
                return;
            }
            let violations = match session.index.as_deref() {
                Some(index) if index.covers(project) => violations(project, index),
                _ => violations(project, &ProjectIndex::build(project)),
            };
            for violation in violations {
                let span = violation
                    .connection
                    .and_then(|(id, position)| info.connection_span(id, position));
                session.diagnostics.push(Diagnostic::error(
                    Stage::Drc.name(),
                    violation.error.to_string(),
                    span,
                ));
            }
        });
        self.bail_on_errors()
    }

    /// Adopts the index of a cached elaboration artifact, so
    /// [`Session::finish`] hands it out instead of rebuilding one.
    pub fn adopt_index(&mut self, index: Arc<ProjectIndex>) {
        self.index = Some(index);
    }

    /// Consumes the session into a successful [`CompileOutput`].
    ///
    /// The output carries the shared [`ProjectIndex`] for the final
    /// project (rebuilt here only when no current one exists — e.g.
    /// for a caller that drove the stages with a project this session
    /// did not elaborate).
    pub fn finish(
        mut self,
        project: Project,
        sugar_report: SugarReport,
        elab_info: ElabInfo,
    ) -> CompileOutput {
        let timings = self.timings();
        let index = match self.index.take() {
            Some(index) if index.covers(&project) => index,
            _ => Arc::new(ProjectIndex::build(&project)),
        };
        CompileOutput {
            project,
            index,
            diagnostics: self.diagnostics,
            timings,
            files: self.files,
            sugar_report,
            elab_info,
            stage_records: self.records,
        }
    }
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
    fn stages_record_uniformly() {
        let mut session = Session::new(CompileOptions::default());
        let packages = session.parse(&[("wire.td", WIRE)]).unwrap();
        let (mut project, info) = session.elaborate(packages).unwrap();
        let report = session.sugar(&mut project);
        session.drc(&project, &info).unwrap();
        let stages: Vec<Stage> = session.stage_records().iter().map(|r| r.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Parse, Stage::Elaborate, Stage::Sugar, Stage::Drc]
        );
        assert!(session.timings().total() > Duration::ZERO);
        let output = session.finish(project, report, info);
        assert!(output.project.implementation("wire_i").is_some());
    }

    #[test]
    fn wall_time_is_reported_separately_from_stage_self_times() {
        let mut session = Session::new(CompileOptions::default());
        let packages = session.parse(&[("wire.td", WIRE)]).unwrap();
        // An artificial gap between stages: the wall window must cover
        // it while the per-stage self times must not.
        std::thread::sleep(Duration::from_millis(15));
        let (mut project, info) = session.elaborate(packages).unwrap();
        session.sugar(&mut project);
        session.drc(&project, &info).unwrap();
        let t = session.timings();
        assert!(
            t.wall >= Duration::from_millis(15),
            "wall covers gaps: {t:?}"
        );
        assert!(
            t.total() < Duration::from_millis(15) + t.parse + t.elaborate + t.sugar + t.drc,
            "self-time sum must exclude the inter-stage gap: {t:?}"
        );
        for stage in [t.parse, t.elaborate, t.sugar, t.drc] {
            assert!(
                stage <= t.wall,
                "a stage cannot exceed the wall window: {t:?}"
            );
        }
    }

    #[test]
    fn incremental_parse_reuses_unchanged_files() {
        use crate::cache::ArtifactCache;
        let mut cache = ArtifactCache::new();
        let mut first = Session::new(CompileOptions::default());
        first
            .parse_incremental(&[("wire.td", WIRE)], &mut cache)
            .unwrap();
        assert_eq!(first.stage_records()[0].recomputed, 1);
        assert_eq!(first.stage_records()[0].reused, 0);

        let mut second = Session::new(CompileOptions::default());
        let units = second
            .parse_incremental(&[("wire.td", WIRE)], &mut cache)
            .unwrap();
        assert_eq!(second.stage_records()[0].reused, 1);
        assert_eq!(second.stage_records()[0].recomputed, 0);
        let packages = second.materialize_packages(&units, &mut cache).unwrap();
        assert_eq!(packages.len(), 1);
        assert_eq!(packages[0].name, "demo");
    }

    #[test]
    fn materialized_packages_share_decls_with_the_cache() {
        use crate::cache::ArtifactCache;
        let mut cache = ArtifactCache::new();
        let mut session = Session::new(CompileOptions::default());
        let units = session
            .parse_incremental(&[("wire.td", WIRE)], &mut cache)
            .unwrap();
        let packages = session.materialize_packages(&units, &mut cache).unwrap();
        let cached = cache
            .lookup_parse(units[0].key)
            .and_then(|artifact| artifact.package.as_ref())
            .expect("the parse cache holds the tree");
        assert_eq!(packages[0].decls.len(), 3);
        assert_eq!(cached.decls.len(), packages[0].decls.len());
        for (shared, original) in packages[0].decls.iter().zip(&cached.decls) {
            assert!(Arc::ptr_eq(shared, original));
        }
    }

    #[test]
    fn parse_stage_counts_diagnostics() {
        let mut session = Session::new(CompileOptions::default());
        let err = session
            .parse(&[("bad.td", "package x;\nconst = ;")])
            .unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.stage == "parse"));
        let record = &session.stage_records()[0];
        assert_eq!(record.stage, Stage::Parse);
        assert!(record.diagnostics > 0);
    }

    #[test]
    fn many_files_parse_in_order() {
        // Package order must match input order.
        let sources: Vec<(String, String)> = (0..32)
            .map(|k| {
                (
                    format!("f{k}.td"),
                    format!(
                        "package p{k};\ntype B = Stream(Bit(8));\n\
                         streamlet s{k} {{ i : B in, o : B out, }}\n\
                         impl x{k} of s{k} {{ i => o, }}"
                    ),
                )
            })
            .collect();
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let mut session = Session::new(CompileOptions::default());
        let packages = session.parse(&refs).unwrap();
        assert_eq!(packages.len(), 32);
        for (k, package) in packages.iter().enumerate() {
            assert_eq!(package.name, format!("p{k}"));
        }
    }

    #[test]
    fn incremental_parse_calls_keep_file_ids_aligned() {
        // A second parse() call must attach diagnostics to the files
        // it registered, not to the first call's.
        let mut session = Session::new(CompileOptions::default());
        session.parse(&[("good.td", WIRE)]).unwrap();
        let err = session
            .parse(&[("bad.td", "package x;\nconst = ;")])
            .unwrap_err();
        let diag = err
            .diagnostics
            .iter()
            .find(|d| d.stage == "parse")
            .expect("parse error");
        let rendered = diag.render(&err.files);
        assert!(rendered.contains("bad.td"), "rendered: {rendered}");
        assert!(!rendered.contains("good.td"), "rendered: {rendered}");
    }

    #[test]
    fn drc_failure_keeps_session_usable_for_reporting() {
        let src = r#"
package demo;
type A = Stream(Bit(8));
type B = Stream(Bit(16));
streamlet s { i : A in, o : B out, }
impl x of s { i => o, }
"#;
        let mut session = Session::new(CompileOptions::default());
        let packages = session.parse(&[("t.td", src)]).unwrap();
        let (mut project, info) = session.elaborate(packages).unwrap();
        session.sugar(&mut project);
        let err = session.drc(&project, &info).unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.stage == "drc"));
        // The DRC stage was still recorded.
        assert!(session
            .stage_records()
            .iter()
            .any(|r| matches!(r.stage, Stage::Drc) && r.diagnostics > 0));
    }
}
