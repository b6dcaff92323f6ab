//! `daemon_edit`: one warm `tydic serve`, one client, a seeded stream of
//! jobs over a working set. Before each job the benchmark rewrites one
//! file: a comment-only edit or a semantic edit (a new `const`); jobs
//! are `check`, `build` and `analyze`. Each response's stdout and exit
//! code must equal an in-process `run_job` of the same request.
//!
//! The stream visits the files in working-set order, and per file runs
//! `build`, comment-edit `check`, `analyze` and semantic-edit `check`,
//! in that order. The seed picks the edits and generates the chain and
//! the TPC-H queries, but not the order: after every job that changed
//! its cache the daemon re-reads the whole on-disk cache, so a job costs
//! more while large designs' results are in it, and a seeded order would
//! move each job's time from seed to seed. Every pass writes comments and
//! `const` values it has not written before, so both edit checks miss
//! the parse cache, while `build` and `analyze` see the same text every
//! pass and hit it. The artifact cache keeps 16 elaboration results,
//! first in first out, and every visit stores two (the build and the
//! semantic edit), so by the next visit to a file its results are gone:
//! `build` and the semantic `check` always miss the elaboration cache,
//! the comment `check` and `analyze` always hit it.
//!
//! The cache also keeps at most [`PARSE_CAPACITY`] parse results, first
//! in first out, and once it is full a compile can evict a parse result
//! it still needs (the standard library's, the oldest) and fail. So
//! before a pass would overflow it, the benchmark restarts the daemon,
//! clears its own in-process cache and runs one warm-up pass, all
//! outside the timed jobs.

use crate::common::{
    fresh_dir, job, job_stage_ms, ms_since, reuse_counts, Ctx, Daemon, Outcome, Setups,
};
use crate::gen::{self, Design, Rng};
use crate::layers;
use crate::probes::{common_probes, compile_layers, Samples, SimSet};
use crate::stats::{median, quantile, Classes};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tydi_lang::cache::PARSE_CAPACITY;
use tydi_lang::ArtifactCache;
use tydi_serve::protocol::{JobKind, JobRequest, JobResponse};

/// TPC-H rows of the working set's queries.
const ROWS: usize = 1024;
/// Instances of the working set's generated chain.
const CHAIN: u64 = 4000;

/// The job kinds, in the order a pass runs them on each file.
#[derive(Clone, Copy)]
enum Kind {
    Build,
    CommentCheck,
    Analyze,
    SemanticCheck,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::Build,
        Kind::CommentCheck,
        Kind::Analyze,
        Kind::SemanticCheck,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::CommentCheck => "comment-check",
            Kind::SemanticCheck => "semantic-check",
            Kind::Build => "build",
            Kind::Analyze => "analyze",
        }
    }

    /// Whether each pass gives the job a text no earlier pass wrote.
    fn fresh(self) -> bool {
        matches!(self, Kind::CommentCheck | Kind::SemanticCheck)
    }
}

struct State {
    designs: Vec<Design>,
    /// The jobs of one pass: every kind on every file, except `analyze`
    /// on designs the analyzer rejects (it refuses external
    /// implementations without a behaviour model).
    jobs: Vec<(usize, Kind)>,
    daemon: Daemon,
    cache: ArtifactCache,
    /// Seeded tag of this run's edits.
    tag: u64,
    /// Passes run so far, warm-ups included; numbers the edits.
    pass: u64,
    /// Request id.
    id: u64,
    /// Verdicts of the warm-up pass run by the set-up, not yet counted.
    setup_verdicts: Vec<Result<(), String>>,
    /// Largest peak resident set of the daemons stopped so far (MiB).
    peak_rss_mb: f64,
    /// Daemon restarts during the measured phase.
    restarts: u64,
}

fn daemon_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("daemon")
}

fn working_set(ctx: &Ctx, dir: &Path) -> Result<Vec<Design>, String> {
    let mut designs = gen::cookbook(&ctx.root, dir).map_err(|e| format!("cookbook: {e}"))?;
    let (_, cases) = gen::tpch(ctx.seed, ROWS);
    designs.extend(gen::tpch_designs(&cases, ROWS, dir));
    let mut chain = gen::chain(&mut Rng::new(ctx.seed, 99), CHAIN, dir.join("chain.td"));
    chain.name = "chain".to_string();
    designs.push(chain);
    Ok(designs)
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let dir = ctx.work.join("inputs");
    fresh_dir(&dir)?;
    let designs = working_set(ctx, &dir)?;
    for design in &designs {
        design
            .write()
            .map_err(|e| format!("{}: {e}", design.name))?;
    }
    let mut probe_cache = ArtifactCache::new();
    let mut jobs = Vec::new();
    for (index, design) in designs.iter().enumerate() {
        let analyzable =
            tydi_serve::execute::run_job(&job(JobKind::Analyze, design, 0), &mut probe_cache, "");
        for kind in Kind::ALL {
            if !matches!(kind, Kind::Analyze) || analyzable.exit_code == 0 {
                jobs.push((index, kind));
            }
        }
    }
    let mut state = State {
        designs,
        jobs,
        daemon: Daemon::start(ctx, &daemon_dir(ctx))?,
        cache: ArtifactCache::new(),
        tag: Rng::new(ctx.seed, 7).range(100, 999),
        pass: 0,
        id: 0,
        setup_verdicts: Vec::new(),
        peak_rss_mb: 0.0,
        restarts: 0,
    };
    state.setup_verdicts = warm_up(ctx, &mut state)?;
    Ok(state)
}

/// One untimed pass that fills the daemon's and the in-process cache;
/// returns its verdicts.
fn warm_up(ctx: &Ctx, state: &mut State) -> Result<Vec<Result<(), String>>, String> {
    state.pass += 1;
    let mut verdicts = Vec::new();
    for (index, kind) in state.jobs.clone() {
        verdicts.push(one_job(ctx, state, index, kind)?.verdict);
    }
    Ok(verdicts)
}

/// Whether the next pass could overflow the parse cache, so that a compile
/// might evict a parse result it still needs. The in-process cache saw
/// the same requests in the same order as the daemon's, so it holds as
/// many parse results.
fn parse_cache_would_overflow(state: &State) -> bool {
    let fresh = state.jobs.iter().filter(|(_, kind)| kind.fresh()).count();
    state.cache.parse_entries() + fresh > PARSE_CAPACITY
}

/// The largest peak resident set of this state's daemons so far (MiB).
fn peak_rss_mb(state: &State) -> f64 {
    let current = state.daemon.peak_rss_mb().unwrap_or(0.0);
    state.peak_rss_mb.max(current)
}

/// Replaces the daemon and the in-process cache with fresh ones and
/// warms them; returns the warm-up's verdicts.
fn restart(ctx: &Ctx, state: &mut State) -> Result<Vec<Result<(), String>>, String> {
    state.peak_rss_mb = peak_rss_mb(state);
    state.daemon.restart(ctx, &daemon_dir(ctx))?;
    state.cache = ArtifactCache::new();
    state.restarts += 1;
    warm_up(ctx, state)
}

/// The file text a job of `kind` sees in pass `pass`: the base text
/// plus an edit. The edit checks get a new text every pass.
fn edited(base: &str, kind: Kind, tag: u64, pass: u64) -> String {
    match kind {
        Kind::Build => format!("{base}\n// build {tag}\n"),
        Kind::CommentCheck => format!("{base}\n// edit {tag}.{pass}\n"),
        Kind::Analyze => format!("{base}\n// analyze {tag}\n"),
        Kind::SemanticCheck => format!("{base}\nconst bench_edit_{tag} = {pass};\n"),
    }
}

/// What one job measured.
struct Done {
    response: JobResponse,
    /// Round trip through the daemon (ms).
    roundtrip: f64,
    /// The same request through in-process `run_job` (ms).
    exec: f64,
    verdict: Result<(), String>,
}

/// Rewrites the file, sends the job, runs the same request in-process
/// and compares the two.
fn one_job(ctx: &Ctx, state: &mut State, index: usize, kind: Kind) -> Result<Done, String> {
    state.id += 1;
    let design = &state.designs[index];
    let last = design.files.len() - 1;
    std::fs::write(
        &design.files[last],
        edited(&design.texts[last], kind, state.tag, state.pass),
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    let job_kind = match kind {
        Kind::CommentCheck | Kind::SemanticCheck => JobKind::Check,
        Kind::Build => JobKind::Build,
        Kind::Analyze => JobKind::Analyze,
    };
    let mut request = job(job_kind, design, state.id);
    let out = |side: &str| ctx.work.join(side).join(index.to_string());
    if matches!(kind, Kind::Build) {
        request.out_dir = Some(out("daemon-out").display().to_string());
    }
    let t0 = Instant::now();
    let response = state.daemon.request(&request)?;
    let ms = ms_since(t0);
    let mut local_request: JobRequest = request.clone();
    if matches!(kind, Kind::Build) {
        local_request.out_dir = Some(out("local-out").display().to_string());
    }
    let t0 = Instant::now();
    let local = tydi_serve::execute::run_job(&local_request, &mut state.cache, "");
    let exec = ms_since(t0);
    let name = format!("{} {}", design.name, kind.name());
    let verdict = if response.exit_code != 0 {
        Err(format!(
            "{name}: daemon exit {}: {}",
            response.exit_code,
            response.stderr.trim()
        ))
    } else if response.exit_code != local.exit_code || response.stdout != local.stdout {
        Err(format!(
            "{name}: daemon response differs from in-process run_job"
        ))
    } else if matches!(kind, Kind::Build) {
        compare_artifacts(&out("daemon-out"), &out("local-out")).map_err(|e| format!("{name}: {e}"))
    } else {
        Ok(())
    };
    Ok(Done {
        response,
        roundtrip: ms,
        exec,
        verdict,
    })
}

fn compare_artifacts(a: &Path, b: &Path) -> Result<(), String> {
    let read = |dir: &Path| -> Result<Vec<(String, Vec<u8>)>, String> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            let bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
            files.push((entry.file_name().to_string_lossy().to_string(), bytes));
        }
        files.sort();
        Ok(files)
    };
    if read(a)? == read(b)? {
        Ok(())
    } else {
        Err("daemon build artifacts differ from in-process ones".to_string())
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Setups::new(ctx);
    let mut state = setups.run(|| setup(ctx))?;
    for verdict in std::mem::take(&mut state.setup_verdicts) {
        outcome.check(verdict);
    }
    for design in &state.designs {
        outcome.note(format!("input.{}", design.name), design.size_json());
    }
    let registry = layers::registry();
    let sim = if ctx.trace {
        Some(SimSet::new(ctx)?)
    } else {
        None
    };
    let mut tracer = Tracer::new(ctx.trace);
    let mut samples = Samples::default();
    let mut classes = Classes::default();
    let mut passes = Vec::new();
    let jobs = state.jobs.clone();
    let deadline = ctx.deadline();
    setups.start();
    while passes.is_empty() || Instant::now() < deadline {
        if !ctx.trace && setups.due() {
            // Stop the old daemon first: the new one takes its directory.
            let (peak, restarts) = (peak_rss_mb(&state), state.restarts);
            state.daemon.stop();
            state = setups.run(|| setup(ctx))?;
            (state.peak_rss_mb, state.restarts) = (peak, restarts);
            for verdict in std::mem::take(&mut state.setup_verdicts) {
                outcome.check(verdict);
            }
        } else if parse_cache_would_overflow(&state) {
            for verdict in restart(ctx, &mut state)? {
                outcome.check(verdict);
            }
        }
        state.pass += 1;
        let (mut wall, mut stages) = (0.0, 0.0);
        let (mut roundtrip, mut transport, mut exec) = (Vec::new(), Vec::new(), Vec::new());
        let (mut parse, mut elab) = ((0u64, 0u64), (0u64, 0u64));
        for &(index, kind) in &jobs {
            tracer.next_op();
            let open = tracer.enter("serve.job");
            let done = one_job(ctx, &mut state, index, kind)?;
            tracer.exit(open);
            let ms = done.roundtrip;
            if outcome.check(done.verdict) {
                classes.add(
                    &format!("{} {}", state.designs[index].name, kind.name()),
                    ms,
                );
            }
            wall += ms;
            roundtrip.push(ms);
            exec.push(done.exec);
            transport.push(ms - done.response.elapsed_ms);
            stages += job_stage_ms(&done.response.metrics_json);
            let [p, e] = reuse_counts(&done.response.metrics_json);
            parse = (parse.0 + p.0, parse.1 + p.0 + p.1);
            elab = (elab.0 + e.0, elab.1 + e.0 + e.1);
        }
        passes.push(wall);
        if ctx.trace {
            samples.add("serve.roundtrip_ms", median(&roundtrip));
            samples.add("serve.transport_ms", median(&transport));
            samples.add("serve.exec_ms", median(&exec));
            samples.add(
                "cache.parse_reuse_ratio",
                parse.0 as f64 / parse.1.max(1) as f64,
            );
            samples.add("cache.elab_hit_ratio", elab.0 as f64 / elab.1.max(1) as f64);
            samples.add("pass.wall_ms", wall);
            samples.add(
                "unaccounted_ms",
                wall - transport.iter().sum::<f64>() - stages,
            );
            let out = ctx.work.join("layers");
            compile_layers(&state.designs, &registry, &mut tracer, &mut samples, &out)?;
            common_probes(ctx, &state.designs, &mut tracer, &mut samples, false)?;
            if let Some(sim) = &sim {
                sim.pass(&mut tracer, &mut samples, passes.len() == 1, &mut outcome)?;
            }
        }
    }
    outcome.note("passes", passes.len());
    outcome.note("daemon_restarts", state.restarts);
    outcome.note("jobs_per_pass", jobs.len());
    outcome.note("samples_per_class", classes.min_class_count());
    if !ctx.trace {
        outcome.note("class_median_ms", classes.medians_json());
        outcome.set("setup_s", setups.mean_s(), "s");
        outcome.set("op_ms_min", classes.geomean_quantile(0.0), "ms");
        outcome.set("op_ms_p90", classes.geomean_quantile(0.9), "ms");
        outcome.set("pass_ms", quantile(&passes, 0.0), "ms");
        outcome.set("peak_rss_mb", peak_rss_mb(&state), "MiB");
        return Ok(outcome);
    }
    for (name, value) in samples.medians() {
        outcome.metrics.insert(name, (value, ""));
    }
    outcome.tracer = Some(tracer);
    Ok(outcome)
}
