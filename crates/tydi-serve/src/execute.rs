//! The job executor: the one function that runs a `tydic` job —
//! `check`, `compile`/`build`, `analyze` or `sim` — against an
//! [`ArtifactCache`], rendering everything the job prints into the
//! response's stdout and stderr buffers.
//!
//! `tydic` hands every job to [`run_job`]: in-process, or through
//! `--daemon` to the warm daemon, which calls the same function. A
//! daemon-served job is therefore byte-identical to an in-process run
//! apart from the timing values it reports. The option checks
//! ([`validate`]) are shared the same way, so a bad `--emit` reads the
//! same from the command line and the socket.

use crate::protocol::{DiagnosticInfo, JobKind, JobRequest, JobResponse};
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tydi_lang::pipeline::CompileFailure;
use tydi_lang::span::oversized_source;
use tydi_lang::{
    compile_with_cache, ArtifactCache, CompileOptions, CompileOutput, Diagnostic, SourceFile, Span,
    Stage,
};
use tydi_obs::{memory, metrics};
use tydi_sim::{FaultPlan, Packet, Scenario, SimBatch, Simulator};
use tydi_stdlib::{full_registry, stdlib_source, STDLIB_FILE_NAME};
use tydi_vhdl::{emitter_for, lower_project_with, Backend, VhdlError, VhdlOptions};

/// The `--emit` spellings, as usage and error messages list them.
pub const EMIT_FORMATS: &str = "ir|vhdl|verilog";

/// Parses an `--emit` value: `None` is Tydi-IR text, otherwise the
/// netlist backend that renders the RTL.
fn parse_emit(text: &str) -> Result<Option<Backend>, String> {
    match text {
        "ir" => Ok(None),
        "vhdl" => Ok(Some(Backend::Vhdl)),
        "verilog" | "sv" | "systemverilog" => Ok(Some(Backend::SystemVerilog)),
        other => Err(format!(
            "unknown --emit format `{other}` (expected {EMIT_FORMATS})"
        )),
    }
}

/// Parses a `--deny` severity.
fn parse_deny(text: &str) -> Result<tydi_analyze::Severity, String> {
    tydi_analyze::Severity::parse(text)
        .ok_or_else(|| format!("unknown --deny severity `{text}` (expected info|warning|error)"))
}

/// Parses an `--inject` fault spec.
fn parse_inject(text: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(text).map_err(|e| format!("--inject: {e}"))
}

/// A request's options, parsed and cross-checked.
pub struct Settings {
    backend: Option<Backend>,
    deny: Option<tydi_analyze::Severity>,
    faults: Option<FaultPlan>,
}

/// Parses and cross-checks a request's options. An error is a usage
/// error (exit code 2): `tydic` reports it before running anything,
/// and [`run_job`] answers it for requests arriving on the socket.
pub fn validate(request: &JobRequest) -> Result<Settings, String> {
    if request.files.is_empty() {
        return Err("no input files".to_string());
    }
    let settings = Settings {
        backend: parse_emit(&request.emit)?,
        deny: request.deny.as_deref().map(parse_deny).transpose()?,
        faults: request.inject.as_deref().map(parse_inject).transpose()?,
    };
    if request.kind == JobKind::Sim && request.top.is_none() {
        return Err("sim needs --top <impl> (the implementation to simulate)".to_string());
    }
    if request.inject_sweep.is_some() && request.inject.is_none() {
        return Err("--inject-sweep needs --inject <spec>".to_string());
    }
    if request.inject.is_some() && request.kind != JobKind::Sim {
        return Err("--inject is only supported with `sim`".to_string());
    }
    Ok(settings)
}

/// Runs one job against the cache. Every metric the job publishes
/// lands under `scope` (the daemon passes `req.<n>.`; `tydic` passes
/// the empty scope). The response embeds that namespace, prefix
/// stripped, as `metrics_json`; a non-empty namespace is then scrubbed
/// from the registry, so a long-lived daemon's registry does not grow
/// with request count.
pub fn run_job(request: &JobRequest, cache: &mut ArtifactCache, scope: &str) -> JobResponse {
    let started = Instant::now();
    // Only a job whose metrics someone reads takes memory readings: the
    // procfs reads cost tens of microseconds.
    let reads_memory = request.timings || request.timings_json;
    let faults_at_start = reads_memory.then(memory::minor_faults).flatten();
    let scope_guard = (!scope.is_empty()).then(|| metrics::scoped(scope.to_string()));
    let mut response = match validate(request) {
        Ok(settings) => run_validated(request, &settings, cache, scope, faults_at_start),
        Err(message) => JobResponse::failure(request.id, 2, message),
    };
    if reads_memory {
        publish_memory(faults_at_start);
    }
    response.metrics_json = metrics::snapshot().within(scope).to_json();
    if scope_guard.is_some() {
        // The guard is still active, so the empty prefix resolves to
        // exactly this request's namespace.
        metrics::clear_prefix("");
    }
    drop(scope_guard);
    response.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    response
}

fn run_validated(
    request: &JobRequest,
    settings: &Settings,
    cache: &mut ArtifactCache,
    scope: &str,
    faults_at_start: Option<u64>,
) -> JobResponse {
    let mut response = JobResponse::new(request.id);
    let sources = match load_sources(request) {
        Ok(sources) => sources,
        Err(failure) => return *failure,
    };
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(name, text)| (name.as_str(), text.as_str()))
        .collect();
    let compile_options = CompileOptions {
        project_name: "tydic_out".to_string(),
        enable_sugaring: request.sugaring,
        run_drc: true,
    };
    let mut output = match compile_with_cache(&refs, &compile_options, cache) {
        Ok(output) => output,
        Err(failure) => return compile_failed(request.id, &failure),
    };
    let compiled = Instant::now();
    tydi_lang::publish_compile_metrics(&output);
    for diagnostic in &output.diagnostics {
        response.stderr.push_str(&diagnostic.render(&output.files));
    }
    response.diagnostics = diagnostic_infos(&output.diagnostics, &output.files);
    let stats = output.project.stats();
    let _ = writeln!(
        response.stderr,
        "ok: {} streamlet(s), {} implementation(s), {} connection(s) in {:?}",
        stats.streamlets, stats.implementations, stats.connections, output.timings.wall
    );
    response.warm = output
        .stage_records
        .iter()
        .any(|record| matches!(record.stage, Stage::Elaborate) && record.reused > 0);
    // `analyze` and `build` record their own work first, then render
    // the timings themselves so their rows are populated.
    if request.timings && !matches!(request.kind, JobKind::Analyze | JobKind::Build) {
        // A sim job's report has no memory line. It is the one
        // `--timings` report that tests/serve_protocol.rs compares
        // between daemon and in-process runs with only durations masked,
        // and the two processes' memory readings differ.
        // `--timings-json` still reads them when the job ends.
        let memory_from = faults_at_start.filter(|_| request.kind != JobKind::Sim);
        render_timings(&output, scope, memory_from, false, &mut response.stderr);
    }

    match request.kind {
        JobKind::Check => {}
        JobKind::Build => {
            let mut codegen = Codegen::default();
            if let Err(message) = emit(
                request,
                settings.backend,
                &output,
                &mut codegen,
                &mut response,
            ) {
                response.fail(1, message);
            }
            output.record_codegen(
                codegen.lower,
                codegen.emit,
                codegen.write,
                compiled.elapsed(),
            );
            tydi_lang::publish_compile_metrics(&output);
            if request.timings {
                render_timings(&output, scope, faults_at_start, true, &mut response.stderr);
            }
        }
        JobKind::Analyze => analyze(
            request,
            settings.deny,
            &mut output,
            scope,
            faults_at_start,
            &mut response,
        ),
        JobKind::Sim => simulate(request, &settings.faults, &output, scope, &mut response),
        JobKind::Status | JobKind::Shutdown => unreachable!("handled by the server"),
    }
    response
}

/// Reads the job's input files (the standard library is implicit
/// unless the job disables it). A file that cannot be read fails the
/// job with exit code 2; one that is not UTF-8, or too long for a
/// source span, fails it like a compile error, with one diagnostic.
fn load_sources(request: &JobRequest) -> Result<Vec<(String, String)>, Box<JobResponse>> {
    let mut sources: Vec<(String, String)> = Vec::new();
    if request.include_std {
        sources.push((STDLIB_FILE_NAME.to_string(), stdlib_source().to_string()));
    }
    for file in &request.files {
        let bytes = std::fs::read(file).map_err(|e| {
            Box::new(JobResponse::failure(
                request.id,
                2,
                format!("cannot read `{file}`: {e}"),
            ))
        })?;
        if let Some(message) = oversized_source(bytes.len()) {
            let failure = CompileFailure {
                diagnostics: vec![Diagnostic::error("read", message, Some(Span::new(0, 0, 0)))],
                files: vec![SourceFile::new(file, "")],
            };
            return Err(Box::new(compile_failed(request.id, &failure)));
        }
        let text = String::from_utf8(bytes).map_err(|e| {
            let offset = e.utf8_error().valid_up_to();
            let message = format!("invalid UTF-8 byte `0x{:02x}`", e.as_bytes()[offset]);
            let failure = CompileFailure {
                diagnostics: vec![Diagnostic::error(
                    "read",
                    message,
                    Some(Span::new(0, offset, offset)),
                )],
                files: vec![SourceFile::new(file, String::from_utf8_lossy(e.as_bytes()))],
            };
            Box::new(compile_failed(request.id, &failure))
        })?;
        sources.push((file.clone(), text));
    }
    Ok(sources)
}

/// The response of a job whose sources did not compile.
fn compile_failed(id: u64, failure: &CompileFailure) -> JobResponse {
    JobResponse {
        ok: false,
        exit_code: 1,
        stderr: failure.render(),
        diagnostics: diagnostic_infos(&failure.diagnostics, &failure.files),
        ..JobResponse::new(id)
    }
}

/// Publishes the job's memory readings: the process's peak RSS
/// (`timings.memory.peak_rss_kb`; under `serve`, the daemon's own
/// peak) and the minor page faults the job has taken so far
/// (`timings.memory.minor_faults`, counted from `faults_at_start`).
/// They sit under `timings.`: like the times, they are measurements,
/// not a function of the job. Each is absent where procfs is, and
/// neither is read unless the request asks for timings
/// (`JobRequest::timings` or `JobRequest::timings_json`).
fn publish_memory(faults_at_start: Option<u64>) {
    if let Some(kb) = memory::peak_rss_kb() {
        metrics::counter_set("timings.memory.peak_rss_kb", kb);
    }
    if let (Some(start), Some(now)) = (faults_at_start, memory::minor_faults()) {
        metrics::counter_set("timings.memory.minor_faults", now.saturating_sub(start));
    }
}

/// The `--timings` report: per-stage *self* times (and, after code
/// generation, the lower/emit/write self times), then the self-time
/// sum and the wall-clock window as separate totals, then per-stage
/// cache reuse counts and the memory readings so far (the minor
/// faults counted from `faults_at_start`; no memory line without it).
/// The memory and type-store lines read the job's own metrics back
/// from the registry, so the report and `--timings-json` agree (the
/// JSON's memory readings are taken again when the job ends).
fn render_timings(
    output: &CompileOutput,
    scope: &str,
    faults_at_start: Option<u64>,
    codegen: bool,
    err: &mut String,
) {
    let t = output.timings;
    let _ = writeln!(
        err,
        "stages: parse {:?} (fingerprint {:?}), elaborate {:?}, sugar {:?}, drc {:?}, analyze {:?} (self times)",
        t.parse, t.fingerprint, t.elaborate, t.sugar, t.drc, t.analyze
    );
    if codegen {
        let _ = writeln!(
            err,
            "codegen: lower {:?}, emit {:?}, write {:?} (self times)",
            t.lower, t.emit, t.write
        );
    }
    let _ = writeln!(err, "totals: self {:?}, wall {:?}", t.total(), t.wall);
    let mut reused = [0usize; 4];
    let mut recomputed = [0usize; 4];
    for record in &output.stage_records {
        let slot = match record.stage {
            Stage::Parse => 0,
            Stage::Elaborate => 1,
            Stage::Sugar => 2,
            Stage::Drc => 3,
            // Analysis runs after the compile and is never served from
            // the artifact cache; it has no reuse column.
            Stage::Analyze => continue,
        };
        reused[slot] += record.reused;
        recomputed[slot] += record.recomputed;
    }
    let _ = writeln!(
        err,
        "cache: parse {} reused / {} recomputed, elaborate {}/{}, sugar {}/{}, drc {}/{}",
        reused[0],
        recomputed[0],
        reused[1],
        recomputed[1],
        reused[2],
        recomputed[2],
        reused[3],
        recomputed[3],
    );
    if faults_at_start.is_some() {
        publish_memory(faults_at_start);
    }
    let job = metrics::snapshot().within(scope);
    if let (Some(kb), Some(faults)) = (
        job.counter("timings.memory.peak_rss_kb"),
        job.counter("timings.memory.minor_faults"),
    ) {
        let _ = writeln!(
            err,
            "memory: peak RSS {:.1} MiB, {faults} minor faults",
            kb as f64 / 1024.0
        );
    }
    let _ = writeln!(
        err,
        "types: {} distinct node(s) interned, {} dedup hit(s) ({:.0}% hit rate)",
        job.counter("types.distinct").unwrap_or(0),
        job.counter("types.intern_hits").unwrap_or(0),
        job.gauge("types.intern_hit_rate_pct").unwrap_or(0.0),
    );
}

/// Self times of a `build` job's code generation layers.
#[derive(Default)]
struct Codegen {
    lower: Duration,
    emit: Duration,
    write: Duration,
}

/// Runs `f`, adding its elapsed time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

/// `compile`/`build`: emit IR text or RTL through the netlist backends.
/// An error is the message the job fails with.
fn emit(
    request: &JobRequest,
    backend: Option<Backend>,
    output: &CompileOutput,
    times: &mut Codegen,
    response: &mut JobResponse,
) -> Result<(), String> {
    let out_dir = request.out_dir.as_ref().map(PathBuf::from);
    let Some(backend) = backend else {
        let text = timed(&mut times.emit, || {
            tydi_ir::text::emit_project(&output.project)
        });
        match &out_dir {
            Some(dir) => {
                let path = dir.join("project.tir");
                timed(&mut times.write, || {
                    std::fs::create_dir_all(dir)
                        .and_then(|()| write_if_changed(&path, text.as_bytes()))
                })
                .map_err(|e| format!("write failed: {e}"))?;
                let _ = writeln!(response.stderr, "wrote {}", path.display());
                response.artifacts.push(path.display().to_string());
            }
            None => response.stdout.push_str(&text),
        }
        return Ok(());
    };
    let netlist = timed(&mut times.lower, || {
        let registry = full_registry();
        tydi_fletcher::register_fletcher_rtl(&registry);
        // The compile already ran the design-rule checks; lowering
        // must not run them a second time.
        let options = VhdlOptions {
            validate: false,
            ..VhdlOptions::default()
        };
        lower_project_with(&output.project, &output.index, &registry, &options)
    });
    let generated = netlist
        .and_then(|netlist| {
            timed(&mut times.emit, || {
                emitter_for(backend).emit_netlist(&netlist)
            })
            .map_err(VhdlError::from)
        })
        .map_err(|e| format!("{backend} generation failed: {e}"))?;
    timed(&mut times.write, || match &out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
            for file in &generated {
                let path = dir.join(&file.name);
                write_if_changed(&path, file.contents.as_bytes())
                    .map_err(|e| format!("write failed: {e}"))?;
                response.artifacts.push(path.display().to_string());
            }
            let _ = writeln!(
                response.stderr,
                "wrote {} file(s) to {}",
                generated.len(),
                dir.display()
            );
            Ok(())
        }
        // Banner each file so concatenated stdout stays splittable
        // (e.g. `tydic compile ... | csplit`).
        None => {
            response
                .stdout
                .push_str(&tydi_vhdl::files_to_string(&generated, backend));
            Ok(())
        }
    })
}

/// Writes `contents` to `path` unless the file there already holds
/// exactly these bytes, so an unchanged output keeps its mtime and
/// tools that watch it see no change.
fn write_if_changed(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    if !holds(path, contents) {
        std::fs::write(path, contents)?;
    }
    Ok(())
}

/// True when `path` is a file holding exactly `contents`: the length
/// comes from the metadata, then the bytes are compared one
/// fixed-size chunk at a time, so no file is read whole.
fn holds(path: &Path, contents: &[u8]) -> bool {
    let Ok(mut file) = std::fs::File::open(path) else {
        return false;
    };
    let same_length = file
        .metadata()
        .is_ok_and(|meta| meta.is_file() && meta.len() == contents.len() as u64);
    if !same_length {
        return false;
    }
    let mut chunk = [0u8; 16 * 1024];
    let mut rest = contents;
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return rest.is_empty(),
            Ok(n) if n <= rest.len() && chunk[..n] == rest[..n] => rest = &rest[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            _ => return false,
        }
    }
}

/// `analyze`: static throughput/latency bounds and structural hazards
/// over the elaborated design, without running the simulator.
fn analyze(
    request: &JobRequest,
    deny: Option<tydi_analyze::Severity>,
    output: &mut CompileOutput,
    scope: &str,
    faults_at_start: Option<u64>,
    response: &mut JobResponse,
) {
    let top = match request.top.as_deref() {
        Some(top) => top.to_string(),
        None => match output.project.top_level_candidates().first() {
            Some(top) => top.to_string(),
            None => return response.fail(1, "no top-level implementation candidate found".into()),
        },
    };
    let analyze_options = tydi_analyze::AnalyzeOptions {
        clock: request.clock_mhz.map(|mhz| {
            tydi_spec::clock::PhysicalClock::new(
                tydi_spec::ClockDomain::default_domain(),
                mhz * 1e6,
            )
        }),
        ..tydi_analyze::AnalyzeOptions::default()
    };
    let started = Instant::now();
    let report = match tydi_analyze::analyze(&output.project, &output.index, &top, &analyze_options)
    {
        Ok(report) => report,
        Err(e) => return response.fail(1, e.to_string()),
    };
    output.record_stage(Stage::Analyze, started.elapsed(), report.hazards.len());
    // Republish so the analyze stage's time and hazard count reach the
    // registry (and thus `--timings` and `--timings-json`).
    tydi_lang::publish_compile_metrics(output);
    metrics::counter_set("analyze.hazards", report.hazards.len() as u64);
    if request.timings {
        render_timings(output, scope, faults_at_start, false, &mut response.stderr);
    }
    if request.json {
        response.stdout.push_str(&report.to_json());
    } else {
        let _ = write!(response.stdout, "{report}");
    }
    let Some(deny) = deny else { return };
    let denied: Vec<&tydi_analyze::Hazard> = report.hazards_at_least(deny).collect();
    if denied.is_empty() {
        return;
    }
    // Each denied hazard renders through the compiler's diagnostic
    // renderer, pointing at the declaration of the implementation at
    // the hazard site when the elaborator recorded its span
    // (cache-restored compiles carry no spans and fall back to the
    // span-less form).
    for hazard in &denied {
        let span = hazard
            .impl_name
            .as_deref()
            .and_then(|name| output.elab_info.impl_span(name));
        let diagnostic = tydi_lang::Diagnostic::error(
            "analyze",
            format!("{}: {}", hazard.kind.name(), hazard.message),
            span,
        );
        response.stderr.push_str(&diagnostic.render(&output.files));
    }
    response.fail(
        1,
        format!(
            "analyze: {} hazard(s) at or above `{}` in `{top}`",
            denied.len(),
            deny.name()
        ),
    );
}

/// `sim`: shard deterministic stimulus scenarios over the design and
/// print the aggregated batch report.
///
/// Scenario `k` feeds every boundary input with `packets` values
/// offset by `k * 1000` and throttles every output to accept only
/// every `1 + k % 4` cycles, so the batch covers free-running and
/// increasingly backpressured schedules in one invocation.
fn simulate(
    request: &JobRequest,
    faults: &Option<FaultPlan>,
    output: &CompileOutput,
    scope: &str,
    response: &mut JobResponse,
) {
    let project = &output.project;
    let top = request.top.as_deref().expect("checked by validate");
    let mut behaviors = tydi_sim::BehaviorRegistry::with_std();
    tydi_fletcher::register_fletcher_behaviors(&mut behaviors, Default::default());
    // One probe simulator just to discover the boundary ports.
    let (input_ports, output_ports) = match Simulator::new(project, top, &behaviors) {
        Ok(probe) => (probe.input_ports(), probe.output_ports()),
        Err(e) => return response.fail(1, format!("cannot build simulator: {e}")),
    };
    let make_scenario = |k: usize, name: String| {
        let mut scenario = Scenario::new(name).with_max_cycles(request.max_cycles);
        if let Some(idle) = request.idle {
            scenario = scenario.with_idle_threshold(idle);
        }
        for port in &input_ports {
            let base = k as i64 * 1000;
            scenario = scenario.with_feed(
                port,
                (0..request.packets as i64).map(|v| Packet::data(base + v)),
            );
        }
        for port in &output_ports {
            scenario = scenario.with_backpressure(port, 1 + k as u64 % 4);
        }
        scenario
    };
    let count = request.scenarios.max(1);
    let scenarios: Vec<Scenario> = match (faults, &request.inject_sweep) {
        (None, _) => (0..count)
            .map(|k| make_scenario(k, format!("scenario-{k}")))
            .collect(),
        (Some(plan), None) => (0..count)
            .map(|k| make_scenario(k, format!("scenario-{k}")).with_faults(plan.clone()))
            .collect(),
        // The sweep reruns every scenario once per seed; only the
        // jitter faults actually vary with the seed, but the whole
        // plan is reseeded so a sweep over a deterministic plan is a
        // (cheap) replication check.
        (Some(plan), Some(seeds)) => seeds
            .iter()
            .flat_map(|&seed| (0..count).map(move |k| (k, seed)))
            .map(|(k, seed)| {
                make_scenario(k, format!("scenario-{k}-seed-{seed}"))
                    .with_faults(plan.reseeded(seed))
            })
            .collect(),
    };

    let started = Instant::now();
    let report = match SimBatch::new(project, top, &behaviors).run(&scenarios) {
        Ok(report) => report,
        Err(e) => return response.fail(1, format!("simulation failed: {e}")),
    };
    let elapsed = started.elapsed();
    publish_sim_metrics(&report);
    metrics::gauge_set("sim.elapsed_ms", elapsed.as_secs_f64() * 1e3);
    let _ = write!(response.stdout, "{report}");
    if request.timings {
        render_channel_stats(&report, scope, &mut response.stderr);
    }
    let _ = writeln!(
        response.stderr,
        "simulated {} scenario(s) over `{top}` in {elapsed:?} (event-driven scheduler, {} thread(s))",
        report.scenarios.len(),
        tydi_sim::worker_threads(),
    );
    // Per-scenario failures are aggregated (every scenario ran), but
    // they still fail the job.
    if report.failed() > 0 {
        response.fail(
            1,
            format!(
                "simulation: {} of {} scenario(s) failed",
                report.failed(),
                scenarios.len()
            ),
        );
    }
}

/// Publishes every scenario's per-channel counters under the `sim.`
/// prefix, replacing any previous batch. The `--timings` channel
/// report and `--timings-json` both read these entries back.
fn publish_sim_metrics(report: &tydi_sim::BatchReport) {
    use tydi_obs::metrics::counter_set;
    metrics::clear_prefix("sim.");
    counter_set("sim.scenarios", report.scenarios.len() as u64);
    counter_set("sim.scenarios_failed", report.failed() as u64);
    let gated: u64 = report
        .scenarios
        .iter()
        .map(|s| s.fault_stats.gated_cycles)
        .sum();
    let frozen: u64 = report
        .scenarios
        .iter()
        .map(|s| s.fault_stats.frozen_ticks)
        .sum();
    if gated > 0 || frozen > 0 {
        counter_set("sim.fault.gated_cycles", gated);
        counter_set("sim.fault.frozen_ticks", frozen);
    }
    for scenario in &report.scenarios {
        for c in &scenario.channels {
            let key = format!("sim.channel.{}.{}", scenario.scenario, c.name);
            counter_set(&format!("{key}.transferred"), c.transferred);
            counter_set(&format!("{key}.max_occupancy"), c.max_occupancy as u64);
            counter_set(&format!("{key}.capacity"), c.capacity as u64);
            counter_set(&format!("{key}.refused"), c.refused_pushes);
        }
    }
}

/// One channel row of the `sim --timings` report.
struct ChannelRow<'a> {
    name: &'a str,
    transferred: u64,
    max_occupancy: u64,
    capacity: u64,
    refused: u64,
}

impl ChannelRow<'_> {
    fn saturated(&self) -> bool {
        self.max_occupancy >= self.capacity
    }
}

/// `sim --timings`: per-scenario channel occupancy and credit-stall
/// counters, most refused pushes first, so saturated FIFOs (the
/// backpressure front) are visible without re-running under a
/// profiler. Every number comes from the job's metrics (the report
/// only drives scenario/channel iteration order), so this output and
/// `--timings-json` can never disagree.
fn render_channel_stats(report: &tydi_sim::BatchReport, scope: &str, err: &mut String) {
    let job = metrics::snapshot().within(scope);
    for scenario in &report.scenarios {
        let rows: Vec<ChannelRow<'_>> = scenario
            .channels
            .iter()
            .map(|c| {
                let key = format!("sim.channel.{}.{}", scenario.scenario, c.name);
                let counter = |field: &str| job.counter(&format!("{key}.{field}")).unwrap_or(0);
                ChannelRow {
                    name: &c.name,
                    transferred: counter("transferred"),
                    max_occupancy: counter("max_occupancy"),
                    capacity: counter("capacity"),
                    refused: counter("refused"),
                }
            })
            .collect();
        let mut stats: Vec<&ChannelRow<'_>> = rows
            .iter()
            .filter(|c| c.transferred > 0 || c.refused > 0)
            .collect();
        stats.sort_by(|a, b| {
            (b.refused, b.max_occupancy, a.name).cmp(&(a.refused, a.max_occupancy, b.name))
        });
        let _ = writeln!(
            err,
            "channels [{}]: {} active of {} ({} saturated)",
            scenario.scenario,
            stats.len(),
            rows.len(),
            rows.iter().filter(|c| c.saturated()).count(),
        );
        err.push_str("  xfer   max/cap  refused  name\n");
        for c in stats.iter().take(12) {
            let _ = writeln!(
                err,
                "  {:<6} {:>3}/{:<4} {:>7}  {}{}",
                c.transferred,
                c.max_occupancy,
                c.capacity,
                c.refused,
                c.name,
                if c.saturated() { "  [saturated]" } else { "" },
            );
        }
        if stats.len() > 12 {
            let _ = writeln!(err, "  ... {} more", stats.len() - 12);
        }
    }
}

impl JobResponse {
    /// Marks the job failed, appending the newline-terminated message
    /// to stderr (the shape `tydic`'s error reporting produces).
    fn fail(&mut self, exit_code: i32, message: String) {
        self.ok = false;
        self.exit_code = exit_code;
        self.stderr.push_str(message.trim_end_matches('\n'));
        self.stderr.push('\n');
    }
}

/// Maps rendered-text diagnostics to their structured wire form.
fn diagnostic_infos(
    diagnostics: &[tydi_lang::Diagnostic],
    files: &[tydi_lang::SourceFile],
) -> Vec<DiagnosticInfo> {
    diagnostics
        .iter()
        .map(|d| {
            let location = d
                .span
                .and_then(|span| files.get(span.file as usize).map(|file| (span, file)));
            let (file, line, col) = match location {
                Some((span, file)) => {
                    let (line, col) = file.line_col(span.start as usize);
                    (file.name.to_string(), line as u64, col as u64)
                }
                None => (String::new(), 0, 0),
            };
            DiagnosticInfo {
                severity: d.severity.to_string(),
                stage: d.stage.to_string(),
                message: d.message.clone(),
                file,
                line,
                col,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const GOOD: &str = "\
package demo;
type Byte = Stream(Bit(8));
streamlet wire_s { i : Byte in, o : Byte out, }
impl wire_i of wire_s { i => o, }
";

    fn write_source(dir: &Path, name: &str, text: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tydi-serve-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn check_job_reports_the_summary_line() {
        let dir = temp_dir("check");
        let file = write_source(&dir, "demo.td", GOOD);
        let mut request = JobRequest::new(JobKind::Check);
        request.files = vec![file];
        let mut cache = ArtifactCache::new();
        let response = run_job(&request, &mut cache, "");
        assert!(response.ok, "stderr: {}", response.stderr);
        assert!(
            response.stderr.contains("ok: ") && response.stderr.contains("streamlet(s)"),
            "summary line present: {}",
            response.stderr
        );
        assert!(response.stdout.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_job_carries_structured_diagnostics() {
        let dir = temp_dir("fail");
        let file = write_source(&dir, "bad.td", "package demo;\nconst x = ;\n");
        let mut request = JobRequest::new(JobKind::Check);
        request.files = vec![file.clone()];
        let mut cache = ArtifactCache::new();
        let response = run_job(&request, &mut cache, "");
        assert!(!response.ok);
        assert_eq!(response.exit_code, 1);
        let error = response
            .diagnostics
            .iter()
            .find(|d| d.severity == "error")
            .expect("an error diagnostic");
        assert_eq!(error.file, file);
        assert!(error.line > 0 && error.col > 0, "span mapped: {error:?}");
        assert!(response.stderr.contains("error:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_job_writes_artifacts_into_out_dir() {
        let dir = temp_dir("build");
        let file = write_source(&dir, "demo.td", GOOD);
        let out = dir.join("out");
        let mut request = JobRequest::new(JobKind::Build);
        request.files = vec![file];
        request.out_dir = Some(out.display().to_string());
        let mut cache = ArtifactCache::new();
        let response = run_job(&request, &mut cache, "");
        assert!(response.ok, "stderr: {}", response.stderr);
        assert!(!response.artifacts.is_empty());
        for artifact in &response.artifacts {
            assert!(Path::new(artifact).exists(), "artifact on disk: {artifact}");
        }
        assert!(response.stderr.contains("wrote"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoped_job_embeds_and_scrubs_its_metrics() {
        let dir = temp_dir("scope");
        let file = write_source(&dir, "demo.td", GOOD);
        let mut request = JobRequest::new(JobKind::Check);
        request.files = vec![file];
        let mut cache = ArtifactCache::new();
        let response = run_job(&request, &mut cache, "req.test-scope.");
        assert!(response.ok, "stderr: {}", response.stderr);
        let metrics = tydi_obs::json::parse(&response.metrics_json).unwrap();
        assert!(
            metrics.get("timings.wall_ms").is_some(),
            "request metrics captured: {}",
            response.metrics_json
        );
        let leftover = metrics::snapshot();
        assert_eq!(
            leftover.prefixed("req.test-scope.").count(),
            0,
            "request namespace scrubbed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `--timings` report carries the memory line, whether or not
    /// the client also keeps the metrics document; a job that asks for
    /// neither reads no memory.
    #[test]
    fn memory_readings_follow_the_timings_request() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        let dir = temp_dir("memory");
        let file = write_source(&dir, "demo.td", GOOD);
        let mut cache = ArtifactCache::new();
        let mut request = JobRequest::new(JobKind::Check);
        request.files = vec![file];
        let plain = run_job(&request, &mut cache, "req.memory-plain.");
        assert!(!plain.metrics_json.contains("timings.memory."));
        request.timings = true;
        let reported = run_job(&request, &mut cache, "req.memory-timings.");
        assert!(
            reported.stderr.contains("memory: peak RSS "),
            "{}",
            reported.stderr
        );
        assert!(reported
            .metrics_json
            .contains("timings.memory.minor_faults"));
        request.timings = false;
        request.timings_json = true;
        let kept = run_job(&request, &mut cache, "req.memory-json.");
        assert!(!kept.stderr.contains("memory: "), "{}", kept.stderr);
        assert!(kept.metrics_json.contains("timings.memory.peak_rss_kb"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_options_fail_with_usage_exit_code() {
        let mut cache = ArtifactCache::new();
        let mut request = JobRequest::new(JobKind::Check);
        let response = run_job(&request, &mut cache, "");
        assert_eq!(response.exit_code, 2, "no input files");
        request.files = vec!["x.td".to_string()];
        request.emit = "edif".to_string();
        let response = run_job(&request, &mut cache, "");
        assert_eq!(response.exit_code, 2);
        assert!(response.stderr.contains("unknown --emit format"));
        request.emit = "ir".to_string();
        request.deny = Some("fatal".to_string());
        let response = run_job(&request, &mut cache, "");
        assert_eq!(response.exit_code, 2);
        assert!(response.stderr.contains("unknown --deny severity"));
    }
}
