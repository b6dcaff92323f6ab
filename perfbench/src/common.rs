//! Pieces every workload shares: the run context and outcome, process
//! timing, the warm daemon, query simulation and the layer sweep.

use crate::gen::Design;
use crate::layers;
use crate::oracle;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tydi_ir::Project;
use tydi_lang::{compile_with_cache, ArtifactCache, CompileOptions};
use tydi_serve::client::Client;
use tydi_serve::protocol::{JobKind, JobRequest, JobResponse};
use tydi_sim::{BehaviorRegistry, Packet, Scenario, SimBatch, Simulator};

/// Set-ups per run, spread evenly over it; `setup_s` is their mean.
const SETUPS: u32 = 5;

/// The run's parameters.
pub struct Ctx {
    /// Root of the checkout.
    pub root: PathBuf,
    /// The `tydic` binary under test.
    pub tydic: PathBuf,
    /// Working directory of this run, inside the checkout.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Ctx {
    /// When the measured phase that starts now must end.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and checked.
    pub attempted: u64,
    /// Of which failed an oracle.
    pub failed: u64,
    /// Of which were Q19 results disagreeing with the reference.
    pub q19: u64,
    /// First failure messages, for stderr.
    pub problems: Vec<String>,
    /// Set when the benchmark itself could not do its job (a setup
    /// step failed); the result is then not `correct`.
    pub broken: Option<String>,
    /// Metrics by name: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Run-record entries: name to a JSON value.
    pub record: BTreeMap<String, String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        self.count(result, false)
    }

    /// Counts one simulated query (or batch) result. A Q19 mismatch is
    /// the known simulator divergence: it counts as failed and in `q19`,
    /// and leaves the run [`correct`](Outcome::correct).
    pub fn check_query(&mut self, query: &str, result: Result<(), String>) -> bool {
        self.count(result, query == "q19")
    }

    /// True when the benchmark did its job and every failure it counted
    /// is the known Q19 divergence.
    pub fn correct(&self) -> bool {
        self.broken.is_none() && self.failed == self.q19
    }

    fn count(&mut self, result: Result<(), String>, known_q19: bool) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(message) => {
                self.failed += 1;
                self.q19 += u64::from(known_q19);
                if self.problems.len() < 20 {
                    eprintln!("perfbench: FAILED {message}");
                    self.problems.push(message);
                }
                false
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Adds a run-record entry (`value` is JSON).
    pub fn note(&mut self, name: impl Into<String>, value: impl ToString) {
        self.record.insert(name.into(), value.to_string());
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times a workload's set-ups: the first before the measured phase, the
/// others at even intervals during it, each replacing the state.
///
/// The host's CPU alternates between a fast and a slow phase lasting
/// seconds. Back-to-back set-ups all land in one phase, so a run's
/// set-up time took one of two values, and a median over runs jumped
/// between them. Set-ups spread over the run and averaged move smoothly
/// with the share of the run spent in each phase.
pub struct Setups {
    times: Vec<f64>,
    /// Start of the measured phase, once it has started.
    start: Option<Instant>,
    every: Duration,
}

impl Setups {
    /// No set-up yet.
    pub fn new(ctx: &Ctx) -> Setups {
        Setups {
            times: Vec::new(),
            start: None,
            every: Duration::from_secs_f64(ctx.seconds / f64::from(SETUPS)),
        }
    }

    /// Runs and times one set-up.
    pub fn run<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let state = setup()?;
        self.times.push(t0.elapsed().as_secs_f64());
        Ok(state)
    }

    /// Marks the start of the measured phase.
    pub fn start(&mut self) {
        self.start = Some(Instant::now());
    }

    /// Whether the next set-up is due.
    pub fn due(&self) -> bool {
        let done = self.times.len() as u32;
        done < SETUPS
            && self
                .start
                .is_some_and(|start| start.elapsed() >= self.every * done)
    }

    /// The mean set-up time in seconds.
    pub fn mean_s(&self) -> f64 {
        self.times.iter().sum::<f64>() / self.times.len() as f64
    }
}

/// Creates (or empties) a directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// A command running the `tydic` under test.
fn tydic(ctx: &Ctx) -> Command {
    Command::new(&ctx.tydic)
}

/// The arguments of a cold `tydic build --no-cache --emit vhdl -o <out>`
/// of `design`.
fn build_args(design: &Design, out: &Path) -> Vec<OsString> {
    let mut args: Vec<OsString> = ["build", "--no-cache", "--emit", "vhdl", "-o"]
        .map(OsString::from)
        .to_vec();
    args.push(out.into());
    if !design.sugaring {
        args.push("--no-sugar".into());
    }
    args.extend(design.files.iter().map(OsString::from));
    args
}

/// One cold `tydic build --no-cache --emit vhdl -o <out>` of `design`;
/// returns spawn-to-exit milliseconds and the number of files `tydic`
/// reports having written.
pub fn tydic_build(ctx: &Ctx, design: &Design, out: &Path) -> Result<(f64, usize), String> {
    let mut command = tydic(ctx);
    command.args(build_args(design, out));
    command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", ctx.tydic.display()))?;
    let ms = ms_since(t0);
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{}: tydic build exited with {}: {}",
            design.name,
            output.status,
            stderr.trim()
        ));
    }
    let written = stderr
        .lines()
        .find_map(|l| l.strip_prefix("wrote ")?.split(' ').next()?.parse().ok())
        .ok_or_else(|| {
            format!(
                "{}: no `wrote N file(s)` line: {}",
                design.name,
                stderr.trim()
            )
        })?;
    Ok((ms, written))
}

/// Median spawn-to-exit milliseconds of `tydic --version` over `n`
/// runs: the cost of starting the process at all.
pub fn process_start_ms(ctx: &Ctx, n: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let status = tydic(ctx)
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawn tydic: {e}"))?;
        times.push(ms_since(t0));
        if !status.success() {
            return Err(format!("tydic --version exited with {status}"));
        }
    }
    Ok(median(&times))
}

/// Peak resident set (MiB) of one cold `tydic build` of `design`. A
/// child's recorded peak includes that of the process it was spawned
/// from (exec keeps the old address space's peak), so the build runs
/// under `perfbench --peak-rss`, a freshly started, small process.
pub fn tydic_build_peak_rss_mb(ctx: &Ctx, design: &Design, out: &Path) -> Result<f64, String> {
    let launcher = std::env::current_exe().map_err(|e| format!("perfbench binary: {e}"))?;
    let output = Command::new(launcher)
        .arg("--peak-rss")
        .arg(&ctx.tydic)
        .args(build_args(design, out))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn perfbench --peak-rss: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse() {
        Ok(mb) if output.status.success() => Ok(mb),
        _ => Err(format!("{}: no peak resident set measured", design.name)),
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// The largest peak resident set of any waited-for child process, in
/// MiB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> Option<f64> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the layout of Linux's `struct rusage` on
    // 64-bit targets (two `timeval`s, then 14 `long`s), and `usage` is
    // a valid, writable value of it for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// A `tydic serve` daemon on a socket under the run's directory.
pub struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    /// Starts a daemon with its cache under `dir` and connects to it.
    pub fn start(ctx: &Ctx, dir: &Path) -> Result<Daemon, String> {
        fresh_dir(dir)?;
        let socket = dir.join("s");
        // The daemon runs every job on a fresh thread; with one malloc
        // arena its peak resident set does not depend on which arena
        // each job thread happened to get (jobs never run concurrently
        // here, so the arena is never contended).
        let mut child = tydic(ctx)
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--socket")
            .arg(&socket)
            // Should this process die without shutting the daemon down,
            // the daemon exits by itself once idle.
            .args(["--idle-timeout", "60000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn tydic serve: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&socket) {
                Ok(client) => return Ok(Daemon { child, client }),
                Err(e) if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "daemon did not accept on {}: {e}",
                        socket.display()
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Sends one job and waits for its answer.
    pub fn request(&mut self, request: &JobRequest) -> Result<JobResponse, String> {
        self.client
            .request(request)
            .map_err(|e| format!("daemon request failed: {e}"))
    }

    /// The daemon's peak resident set in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Shuts this daemon down and starts a fresh one, with an empty
    /// cache under `dir`, in its place.
    pub fn restart(&mut self, ctx: &Ctx, dir: &Path) -> Result<(), String> {
        self.stop();
        *self = Daemon::start(ctx, dir)?;
        Ok(())
    }

    /// Asks the daemon to shut down and waits for it to exit (killing
    /// it after 5 s). Stopping a stopped daemon does nothing.
    pub fn stop(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let _ = self.client.request(&JobRequest::new(JobKind::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A compiled TPC-H query ready to simulate.
pub struct Query {
    /// Query id (`q1`, `q19`, ...).
    pub id: &'static str,
    /// Top-level implementation.
    pub top: String,
    /// The compiled project.
    pub project: Project,
    /// Reference outputs per port.
    pub expected: Vec<(String, Vec<i64>)>,
    /// Cycle budget.
    pub budget: u64,
}

/// Simulated statistics of one run.
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Packets moved over all channels.
    pub transfers: u64,
    /// Pushes refused for lack of credit.
    pub refused: u64,
}

/// Compiles the TPC-H queries in-process and builds their behaviour
/// registry (Fletcher sources stream the generated tables).
pub fn compile_queries(
    data: &tydi_tpch::TpchData,
    cases: &[tydi_tpch::QueryCase],
) -> Result<(Vec<Query>, BehaviorRegistry), String> {
    let mut queries = Vec::new();
    for case in cases {
        let compiled = case.compile()?;
        queries.push(Query {
            id: case.id,
            top: case.top_impl.clone(),
            project: compiled.project,
            expected: case.expected.clone(),
            budget: (data.rows as u64 + 64) * 64,
        });
    }
    let mut registry = BehaviorRegistry::with_std();
    tydi_fletcher::register_fletcher_behaviors(&mut registry, data.tables.clone());
    Ok((queries, registry))
}

/// Simulates one query (`Simulator::new` + `run`) and checks its
/// outputs against the software reference. The timed part is
/// returned separately from the check.
pub fn simulate(
    query: &Query,
    registry: &BehaviorRegistry,
    tracer: &mut Tracer,
    digest: &mut tydi_ir::fingerprint::Fingerprinter,
) -> Result<(f64, SimStats, Result<(), String>), String> {
    let t0 = Instant::now();
    let mut sim = tracer
        .span("sim.new", |_| {
            Simulator::new(&query.project, &query.top, registry)
        })
        .map_err(|e| format!("{}: {e}", query.id))?;
    let result = tracer.span("sim.run", |_| sim.run(query.budget));
    let ms = ms_since(t0);
    let mut outputs = BTreeMap::new();
    for port in sim.output_ports() {
        let packets = sim.outputs(&port).map_err(|e| e.to_string())?;
        outputs.insert(
            port,
            packets
                .iter()
                .filter(|(_, p)| !p.empty)
                .map(|(_, p)| p.data)
                .collect::<Vec<i64>>(),
        );
    }
    let channels = sim.channel_stats();
    oracle::sim_digest(digest, result.cycles, &channels);
    let stats = SimStats {
        cycles: result.cycles,
        transfers: channels.iter().map(|c| c.transferred).sum(),
        refused: channels.iter().map(|c| c.refused_pushes).sum(),
    };
    Ok((
        ms,
        stats,
        oracle::check_query(query.id, &query.expected, &outputs),
    ))
}

/// Packets fed to each scenario of the parallelize batch.
const BATCH_PACKETS: i64 = 400;
/// Scenarios in the parallelize batch.
const BATCH_SCENARIOS: usize = 4;
/// Top of `cookbook/09_parallelize.td`.
pub const BATCH_TOP: &str = "one_per_cycle_i";

/// The batch scenarios: scenario `k` feeds `1000k + v` and applies
/// backpressure every `1 + k % 4` cycles.
pub fn batch_scenarios() -> Vec<Scenario> {
    (0..BATCH_SCENARIOS)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_feed(
                    "i",
                    (0..BATCH_PACKETS).map(|v| Packet::data(v + 1000 * k as i64)),
                )
                .with_backpressure("o", 1 + k as u64 % 4)
        })
        .collect()
}

/// One `SimBatch` run of the parallelize design; checks every scenario
/// delivered each input plus one, in order.
pub fn run_batch(
    project: &Project,
    registry: &BehaviorRegistry,
    scenarios: &[Scenario],
    tracer: &mut Tracer,
) -> Result<(f64, Result<(), String>), String> {
    let t0 = Instant::now();
    let report = tracer
        .span("sim.batch", |_| {
            SimBatch::new(project, BATCH_TOP, registry).run(scenarios)
        })
        .map_err(|e| e.to_string())?;
    let ms = ms_since(t0);
    let check = (|| {
        if report.failed() > 0 {
            return Err(format!("batch: {} scenario(s) failed", report.failed()));
        }
        for (k, scenario) in report.scenarios.iter().enumerate() {
            let got: Vec<i64> = scenario
                .outputs
                .iter()
                .flat_map(|(_, packets)| {
                    packets
                        .iter()
                        .filter(|(_, p)| !p.empty)
                        .map(|(_, p)| p.data)
                })
                .collect();
            let want: Vec<i64> = (0..BATCH_PACKETS)
                .map(|v| v + 1000 * k as i64 + 1)
                .collect();
            if got != want {
                return Err(format!(
                    "batch scenario {k}: {} packet(s) differ from input + 1",
                    got.len()
                ));
            }
        }
        Ok(())
    })();
    Ok((ms, check))
}

/// Compiles `cookbook/09_parallelize.td` for the batch runs.
pub fn parallelize_project(root: &Path) -> Result<Project, String> {
    let text = std::fs::read_to_string(root.join("cookbook/09_parallelize.td"))
        .map_err(|e| format!("read cookbook/09_parallelize.td: {e}"))?;
    let sources = [
        (tydi_stdlib::STDLIB_FILE_NAME, tydi_stdlib::stdlib_source()),
        ("09_parallelize.td", text.as_str()),
    ];
    tydi_lang::compile(&sources, &CompileOptions::default())
        .map(|out| out.project)
        .map_err(|e| e.render())
}

/// A request for `kind` over `design`'s files, as `tydic --daemon` sends it.
pub fn job(kind: JobKind, design: &Design, id: u64) -> JobRequest {
    let mut request = JobRequest::new(kind);
    request.id = id;
    request.files = design
        .files
        .iter()
        .map(|p| p.display().to_string())
        .collect();
    request.sugaring = design.sugaring;
    request
}

/// Reuse ratios of one cached compile's parse and elaborate stages,
/// read from a job's metrics (they come from `stage_records`).
pub fn reuse_counts(metrics_json: &str) -> [(u64, u64); 2] {
    let Ok(json) = tydi_obs::json::parse(metrics_json) else {
        return [(0, 0); 2];
    };
    let count = |key: &str| json.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    [
        (
            count("cache.stage.parse.reused"),
            count("cache.stage.parse.recomputed"),
        ),
        (
            count("cache.stage.elaborate.reused"),
            count("cache.stage.elaborate.recomputed"),
        ),
    ]
}

/// Stage self times a job reported in its metrics, summed (ms).
pub fn job_stage_ms(metrics_json: &str) -> f64 {
    let Ok(json) = tydi_obs::json::parse(metrics_json) else {
        return 0.0;
    };
    ["parse", "elaborate", "sugar", "drc", "analyze"]
        .iter()
        .filter_map(|stage| {
            json.get(&format!("timings.{stage}_ms"))
                .and_then(|v| v.as_f64())
        })
        .sum()
}

/// Everything one layer sweep measured over a design set.
#[derive(Default)]
pub struct SweepResult {
    /// Self time per layer, summed over the set (ms).
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Self time per layer per design (ms).
    pub per_design: BTreeMap<String, BTreeMap<&'static str, f64>>,
    /// Wall time of the whole sweep (ms).
    pub wall_ms: f64,
    /// Source bytes parsed.
    pub parse_bytes: u64,
    /// Connections in the elaborated projects.
    pub connections: u64,
    /// Generated VHDL modules.
    pub modules: u64,
    /// Generated VHDL bytes.
    pub vhdl_bytes: u64,
}

impl SweepResult {
    /// Self time of one layer over the set (ms).
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// The layers a cold `tydic build` runs, in order.
pub const BUILD_LAYERS: [&str; 10] = [
    "core.stdlib_parse",
    "core.parse",
    "core.fingerprint",
    "core.elaborate",
    "core.sugar",
    "core.drc",
    "ir.validate",
    "vhdl.lower",
    "rtl.emit",
    "io.write",
];

/// Builds and analyzes every design in-process, one span per layer
/// call, writing VHDL under `out`.
pub fn layer_sweep(
    designs: &[Design],
    registry: &tydi_vhdl::BuiltinRegistry,
    tracer: &mut Tracer,
    out: &Path,
) -> Result<SweepResult, String> {
    let mut sweep = SweepResult::default();
    let t0 = Instant::now();
    for (index, design) in designs.iter().enumerate() {
        tracer.next_op();
        let mark = tracer.mark();
        // Same directory every sweep: files are overwritten in place,
        // as the timed `tydic build` runs do.
        let dir = out.join(index.to_string());
        let built = layers::build(design, registry, tracer, Some(&dir))?;
        // The analyzer refuses some designs (external implementations
        // without a behaviour model); the time to say so still counts.
        let _ = layers::analyze(&built, tracer);
        let times = tracer.self_ms(mark);
        for (layer, ms) in &times {
            *sweep.layer_ms.entry(layer).or_default() += ms;
        }
        sweep.per_design.insert(design.name.clone(), times);
        sweep.parse_bytes += built.parse_bytes;
        sweep.connections += built.project.stats().connections as u64;
        sweep.modules += built.files.len() as u64;
        sweep.vhdl_bytes += built
            .files
            .iter()
            .map(|f| f.contents.len() as u64)
            .sum::<u64>();
    }
    sweep.wall_ms = ms_since(t0);
    Ok(sweep)
}

/// Cache layers over a design set: fill an [`ArtifactCache`], save it,
/// load it back, then recompile every design after a comment-only edit
/// through the loaded cache. Returns `(save_ms, load_ms, parse reuse
/// ratio, elaboration hit ratio)`.
pub fn cache_probe(
    designs: &[Design],
    tracer: &mut Tracer,
    dir: &Path,
) -> Result<(f64, f64, f64, f64), String> {
    fresh_dir(dir)?;
    let mut cache = ArtifactCache::new();
    let compile = |design: &Design, cache: &mut ArtifactCache, edit: bool| {
        let mut sources = vec![(
            tydi_stdlib::STDLIB_FILE_NAME.to_string(),
            tydi_stdlib::stdlib_source().to_string(),
        )];
        sources.extend(design.sources());
        if edit {
            if let Some(last) = sources.last_mut() {
                last.1.push_str("\n// edited\n");
            }
        }
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let options = CompileOptions {
            project_name: layers::PROJECT_NAME.to_string(),
            enable_sugaring: design.sugaring,
            run_drc: true,
        };
        compile_with_cache(&refs, &options, cache)
            .map_err(|e| format!("{}: {}", design.name, e.render()))
    };
    for design in designs {
        compile(design, &mut cache, false)?;
    }
    let t0 = Instant::now();
    tracer
        .span("cache.save", |_| cache.save(dir))
        .map_err(|e| format!("cache save: {e}"))?;
    let save_ms = ms_since(t0);
    let t0 = Instant::now();
    let mut loaded = tracer.span("cache.load", |_| ArtifactCache::load(dir));
    let load_ms = ms_since(t0);
    let (mut parse, mut elab) = ((0usize, 0usize), (0usize, 0usize));
    for design in designs {
        let output = compile(design, &mut loaded, true)?;
        for record in &output.stage_records {
            let slot = match record.stage {
                tydi_lang::Stage::Parse => &mut parse,
                tydi_lang::Stage::Elaborate => &mut elab,
                _ => continue,
            };
            slot.0 += record.reused;
            slot.1 += record.reused + record.recomputed;
        }
    }
    let ratio = |(hit, all): (usize, usize)| {
        if all == 0 {
            0.0
        } else {
            hit as f64 / all as f64
        }
    };
    Ok((save_ms, load_ms, ratio(parse), ratio(elab)))
}
