//! `tydic` — the Tydi-lang command-line compiler.
//!
//! ```text
//! tydic check   <file.td>... [--watch]       parse + elaborate + DRC
//! tydic compile <file.td>... [options]       emit Tydi-IR, VHDL or Verilog
//! tydic build   <file.td>... [options]       compile with --emit vhdl default
//! tydic sim     <file.td>... --top <impl>    batch-simulate scenarios
//! tydic analyze <file.td>... [--top <impl>]  static throughput/hazard analysis
//! tydic serve   [--lsp]                      warm compiler daemon / LSP server
//! tydic --help | --version
//!
//! options:
//!   --emit ir|vhdl|verilog  output format (default: ir; build: vhdl)
//!   --no-sugar          disable duplicator/voider insertion
//!   --no-std            do not implicitly include the standard library
//!   --timings           print per-stage self times, the wall total,
//!                       and per-stage cache reuse counts
//!   --timings-json <f>  write the full metrics snapshot as JSON
//!   --trace <file>      write a Chrome trace-event file of the run
//!   --trace-fine        add fine-grained spans to --trace
//!   --no-cache          disable the on-disk artifact cache
//!   --cache-dir <dir>   artifact cache location (default: .tydic-cache)
//!   -o, --out-dir <dir> write output files instead of stdout
//!   --daemon            run the job on the warm `tydic serve` daemon
//!                       (spawned on demand; falls back in-process if
//!                       unreachable; not with --trace)
//!
//! check options:
//!   --watch             stay resident: poll the input files' mtimes
//!                       and recompile the dirty cone on change
//!   --poll-ms <n>       watch poll interval (default: 200)
//!   --watch-runs <n>    exit after n compiles (testing hook)
//!
//! sim options:
//!   --top <impl>        top-level implementation to simulate (required)
//!   --scenarios <n>     number of stimulus scenarios (default: 4)
//!   --packets <n>       packets per boundary input (default: 64)
//!   --max-cycles <n>    cycle budget per scenario (default: 100000)
//!   --idle <n>          quiescence threshold in idle cycles
//!   --inject <spec>     inject faults (stall/jitter/freeze/drop clauses)
//!   --inject-sweep <seeds>  rerun the fault plan per seed (comma list)
//!
//! analyze options:
//!   --top <impl>        implementation to analyze (default: the
//!                       uninstantiated top-level candidate)
//!   --format text|json  report format (default: text)
//!   --deny <severity>   exit nonzero if a hazard at or above
//!                       info|warning|error is found
//!   --clock-mhz <f>     scale throughput bounds to Hz
//!
//! serve options:
//!   --lsp               speak the Language Server Protocol on stdio
//!                       instead of serving the job socket
//!   --socket <path>     unix socket path (default: <cache-dir>/serve.sock)
//!   --max-requests <n>  exit after n compile jobs (testing hook)
//!   --job-timeout <ms>  per-job wall-clock limit (structured `timeout`)
//!   --max-jobs <n>      admission gate: answer `busy` above n jobs
//!   --idle-timeout <ms> exit (persisting the cache) after idling this long
//!
//! `tydic serve status` prints the running daemon's health.
//! ```

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use tydi_lang::ArtifactCache;
use tydi_serve::execute::{self, EMIT_FORMATS};
use tydi_serve::protocol::{JobKind, JobRequest, JobResponse};

const USAGE: &str = "\
usage: tydic <check|compile|build|sim|analyze|serve> <file.td>... [options]

commands:
  check      parse + elaborate + design-rule check only
  compile    check, then emit Tydi-IR, VHDL or SystemVerilog
  build      compile, defaulting to --emit vhdl
  sim        check, then batch-simulate stimulus scenarios
  analyze    check, then statically bound per-stream throughput and
             latency and flag structural hazards (no simulation)
  serve      stay resident as a warm compiler daemon on a unix socket
             under the cache directory (or, with --lsp, speak the
             Language Server Protocol on stdio)

options:
  --emit ir|vhdl|verilog
                    output format (default: ir; `build` defaults vhdl)
  --no-sugar        disable duplicator/voider insertion
  --no-std          do not implicitly include the standard library
  --timings         print per-stage self times, the wall-clock total,
                    and per-stage cache reuse counts
  --timings-json <file>
                    write the run's full metrics snapshot (timings,
                    cache, type-store, sim, analyze) as one flat
                    JSON object
  --trace <file>    record a Chrome trace-event file (load it in
                    chrome://tracing or https://ui.perfetto.dev)
  --trace-fine      include fine-grained spans (per-component
                    firing, per analyzer iteration) in the trace
  --no-cache        disable the on-disk artifact cache
  --cache-dir <dir> artifact cache location (default: .tydic-cache);
                    wipe it by deleting the directory
  -o, --out-dir <dir>
                    write output files into <dir> instead of stdout
                    (stdout prefixes each file with a `file:` banner)
  --daemon          route the job through the warm `tydic serve`
                    daemon for this cache directory, spawning it on
                    demand; falls back to an in-process compile when
                    the daemon cannot be reached (not with --trace:
                    the job runs in the daemon's process)
  -h, --help        print this help
  -V, --version     print the version

check options:
  --watch           stay resident: poll the input files' mtimes and
                    recompile only the dirty cone on change
  --poll-ms <n>     watch poll interval in milliseconds (default: 200)
  --watch-runs <n>  exit after n compiles (testing hook)

sim options:
  --top <impl>      top-level implementation to simulate (required)
  --scenarios <n>   number of stimulus scenarios (default: 4)
  --packets <n>     packets per boundary input (default: 64)
  --max-cycles <n>  cycle budget per scenario (default: 100000)
  --idle <n>        quiescence threshold in idle cycles (default: 64)
  --inject <spec>   inject faults; <spec> is `;`-separated clauses:
                    stall(ch,from,n|*), jitter(ch,seed,max),
                    freeze(comp,at), drop(ch,n)
  --inject-sweep <seeds>
                    rerun every scenario once per comma-separated
                    seed, reseeding the fault plan's jitter each time

analyze options:
  --top <impl>      implementation to analyze (default: the design's
                    uninstantiated top-level candidate)
  --format text|json
                    report format (default: text)
  --deny <severity> exit nonzero when a hazard at or above the given
                    severity (info|warning|error) is present
  --clock-mhz <f>   clock frequency; also reports bounds in Hz

serve options:
  --lsp             speak the Language Server Protocol on stdio (for
                    editors) instead of serving the job socket
  --socket <path>   unix socket path (default: <cache-dir>/serve.sock)
  --max-requests <n>
                    exit after n compile jobs (testing hook)
  --job-timeout <ms>
                    per-job wall-clock limit; a job over it answers a
                    structured `timeout` and the daemon keeps serving
  --max-jobs <n>    admission gate: with n compile jobs in flight new
                    ones answer `busy` (clients retry with backoff)
  --idle-timeout <ms>
                    exit after this long without a request, persisting
                    the warm cache on the way out

  `tydic serve status` prints the running daemon's health (uptime,
  jobs served/active/timed-out/panicked, cache entries, idle
  deadline) without spawning one.";

/// A usage or I/O error; rendered to stderr with the given exit code.
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn failure(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Parsed command line: the job itself plus the flags that only the
/// command-line front end acts on.
struct Options {
    command: String,
    /// The job every command but `serve` runs.
    request: JobRequest,
    /// Disable the on-disk artifact cache.
    no_cache: bool,
    /// Artifact cache directory override.
    cache_dir: Option<PathBuf>,
    /// `check`: stay resident and recompile on file changes.
    watch: bool,
    /// `check --watch`: poll interval in milliseconds.
    poll_ms: u64,
    /// `check --watch`: exit after this many compiles (testing hook).
    watch_runs: Option<usize>,
    /// Chrome trace-event output file.
    trace: Option<PathBuf>,
    /// Include fine-grained spans in the trace.
    trace_fine: bool,
    /// Metrics-snapshot JSON output file.
    timings_json: Option<PathBuf>,
    /// Run the job on the warm daemon.
    daemon: bool,
    /// `serve`: speak LSP on stdio instead of the job socket.
    lsp: bool,
    /// `serve`/`--daemon`: socket path override.
    socket: Option<PathBuf>,
    /// `serve`: exit after this many compile jobs (testing hook).
    max_requests: Option<u64>,
    /// `serve`: per-job wall-clock limit in milliseconds.
    job_timeout_ms: Option<u64>,
    /// `serve`: admission-gate capacity.
    max_jobs: Option<u64>,
    /// `serve`: idle auto-shutdown threshold in milliseconds.
    idle_timeout_ms: Option<u64>,
}

fn parse_count<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, CliError> {
    value
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?
        .parse::<T>()
        .map_err(|_| CliError::usage(format!("{flag} needs a number")))
}

fn parse_args(args: &[String]) -> Result<Option<Options>, CliError> {
    // `--help`/`--version` win regardless of position. Ignore broken
    // pipes (e.g. `tydic --help | head`).
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let _ = writeln!(std::io::stdout(), "{USAGE}");
        return Ok(None);
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        let _ = writeln!(std::io::stdout(), "tydic {}", env!("CARGO_PKG_VERSION"));
        return Ok(None);
    }
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    let kind = match command.as_str() {
        "check" => JobKind::Check,
        "compile" | "build" => JobKind::Build,
        "analyze" => JobKind::Analyze,
        "sim" => JobKind::Sim,
        // `serve` runs no job of its own.
        "serve" => JobKind::Status,
        _ => {
            return Err(CliError::usage(format!(
                "unknown command `{command}` (expected `check`, `compile`, `build`, `sim`, \
                 `analyze` or `serve`)\n{USAGE}"
            )))
        }
    };

    let mut request = JobRequest::new(kind);
    // `build` is `compile` for users who want RTL out of the box.
    if command == "compile" {
        request.emit = "ir".to_string();
    }
    let mut options = Options {
        command: command.clone(),
        request,
        no_cache: false,
        cache_dir: None,
        watch: false,
        poll_ms: 200,
        watch_runs: None,
        trace: None,
        trace_fine: false,
        timings_json: None,
        daemon: false,
        lsp: false,
        socket: None,
        max_requests: None,
        job_timeout_ms: None,
        max_jobs: None,
        idle_timeout_ms: None,
    };
    let request = &mut options.request;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::usage(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--emit" => request.emit = value(&format!("a value ({EMIT_FORMATS})"))?,
            "-o" | "--out-dir" => request.out_dir = Some(value("a directory")?),
            "--no-std" => request.include_std = false,
            "--no-sugar" => request.sugaring = false,
            "--timings" => request.timings = true,
            "--timings-json" => options.timings_json = Some(value("a file")?.into()),
            "--trace" => options.trace = Some(value("a file")?.into()),
            "--trace-fine" => options.trace_fine = true,
            "--no-cache" => options.no_cache = true,
            "--cache-dir" => options.cache_dir = Some(value("a directory")?.into()),
            "--watch" => options.watch = true,
            "--poll-ms" => options.poll_ms = parse_count(arg, iter.next())?,
            "--watch-runs" => options.watch_runs = Some(parse_count(arg, iter.next())?),
            "--top" => request.top = Some(value("an implementation name")?),
            "--scenarios" => request.scenarios = parse_count(arg, iter.next())?,
            "--packets" => request.packets = parse_count(arg, iter.next())?,
            "--max-cycles" => request.max_cycles = parse_count(arg, iter.next())?,
            "--idle" => request.idle = Some(parse_count(arg, iter.next())?),
            "--inject" => request.inject = Some(value("a fault spec")?),
            "--inject-sweep" => {
                let seeds = value("comma-separated seeds")?;
                let parsed: Result<Vec<u64>, _> =
                    seeds.split(',').map(|s| s.trim().parse::<u64>()).collect();
                request.inject_sweep = Some(parsed.map_err(|_| {
                    CliError::usage(format!(
                        "--inject-sweep needs comma-separated seeds, got `{seeds}`"
                    ))
                })?);
            }
            "--format" => {
                request.json = match value("a value (text|json)")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown --format `{other}` (expected text|json)"
                        )))
                    }
                };
            }
            "--deny" => request.deny = Some(value("a severity (info|warning|error)")?),
            "--clock-mhz" => request.clock_mhz = Some(parse_count(arg, iter.next())?),
            "--daemon" => options.daemon = true,
            "--lsp" => options.lsp = true,
            "--socket" => options.socket = Some(value("a path")?.into()),
            "--max-requests" => options.max_requests = Some(parse_count(arg, iter.next())?),
            "--job-timeout" => options.job_timeout_ms = Some(parse_count(arg, iter.next())?),
            "--max-jobs" => options.max_jobs = Some(parse_count(arg, iter.next())?),
            "--idle-timeout" => options.idle_timeout_ms = Some(parse_count(arg, iter.next())?),
            other if other.starts_with('-') => {
                return Err(CliError::usage(format!("unknown option `{other}`")));
            }
            file => request.files.push(file.to_string()),
        }
    }
    options.request.timings_json = options.timings_json.is_some();
    if options.command == "serve" {
        if options.daemon {
            return Err(CliError::usage("--daemon is not supported with `serve`"));
        }
    } else {
        execute::validate(&options.request).map_err(CliError::usage)?;
    }
    if options.watch && options.command != "check" {
        return Err(CliError::usage("--watch is only supported with `check`"));
    }
    if options.trace_fine && options.trace.is_none() {
        return Err(CliError::usage("--trace-fine needs --trace <file>"));
    }
    if options.lsp && options.command != "serve" {
        return Err(CliError::usage("--lsp is only supported with `serve`"));
    }
    if options.daemon && options.trace.is_some() {
        return Err(CliError::usage(
            "--trace is not supported with --daemon (the job runs in the daemon's process)",
        ));
    }
    Ok(Some(options))
}

fn cache_dir(options: &Options) -> PathBuf {
    options
        .cache_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(tydi_lang::CACHE_DIR_NAME))
}

/// Loads the persistent cache (an empty, never-saved one under
/// `--no-cache`).
fn load_cache(options: &Options) -> ArtifactCache {
    if options.no_cache {
        ArtifactCache::new()
    } else {
        ArtifactCache::load(&cache_dir(options))
    }
}

/// Persists the cache when enabled and changed; persistence failures
/// are warnings (compilation already succeeded or failed on its own
/// terms). A successful save clears the cache's dirty flag, so a
/// watch iteration that was served entirely from the cache skips the
/// manifest rewrite and garbage-collection sweep.
fn persist_cache(options: &Options, cache: &mut ArtifactCache) {
    if options.no_cache || !cache.is_dirty() {
        return;
    }
    let dir = cache_dir(options);
    if let Err(e) = cache.save(&dir) {
        eprintln!("warning: cannot persist cache to `{}`: {e}", dir.display());
    }
}

/// Runs the job once — on the daemon when `--daemon` reaches one,
/// otherwise in-process through the same executor — then writes its
/// output, its `--timings-json` file, and returns its exit code. The
/// in-process cache is loaded on first use and kept across `--watch`
/// iterations.
fn run_once(options: &Options, cache: &mut Option<ArtifactCache>) -> u8 {
    let remote = match options.daemon.then(|| run_daemon_job(options)) {
        Some(Ok(response)) => Some(response),
        // The fallback path: the daemon could not be reached (or
        // spawned); run in-process exactly as without `--daemon`, so
        // the flag never makes a build fail.
        Some(Err(e)) => {
            eprintln!("warning: daemon unavailable ({e}); compiling in-process");
            None
        }
        None => None,
    };
    let response = remote.unwrap_or_else(|| {
        let cache = cache.get_or_insert_with(|| load_cache(options));
        let response = execute::run_job(&options.request, cache, "");
        persist_cache(options, cache);
        response
    });
    // Stdout write failures are broken pipes (e.g. piping into
    // `head`), ignored like everywhere else in this binary.
    let _ = write!(std::io::stdout(), "{}", response.stdout);
    let _ = std::io::stdout().flush();
    eprint!("{}", response.stderr);
    if let Some(path) = &options.timings_json {
        if let Err(e) = fs::write(path, format!("{}\n", response.metrics_json)) {
            eprintln!(
                "warning: cannot write timings JSON to `{}`: {e}",
                path.display()
            );
        }
    }
    response.exit_code.clamp(0, 255) as u8
}

/// `tydic check --watch`: compile, then poll the input files and
/// recompile through the persistent artifact cache whenever something
/// changes. Compile failures are reported and watching continues.
///
/// With `--daemon` the watcher is a thin client: every recompile is a
/// job on the warm daemon (shared with every other `--daemon` client
/// of this cache), and only the change detection runs here. A daemon
/// that becomes unreachable mid-watch degrades to in-process compiles
/// for that iteration.
fn run_watch(options: &Options) {
    let files = &options.request.files;
    eprintln!(
        "watching {} file(s); recompiling on change (ctrl-c to stop)",
        files.len()
    );
    let mut cache = None;
    let mut stamps = WatchStamps::capture(files);
    let mut runs = 0usize;
    loop {
        runs += 1;
        run_once(options, &mut cache);
        if options.watch_runs.is_some_and(|limit| runs >= limit) {
            return;
        }
        loop {
            std::thread::sleep(std::time::Duration::from_millis(options.poll_ms.max(10)));
            if stamps.refresh(files) {
                eprintln!("change detected, recompiling...");
                break;
            }
        }
    }
}

/// Change detection for `--watch`: size + mtime per watched file as
/// the cheap first check, with a content-fingerprint fallback for the
/// metadata blind spot — an edit that preserves the file's length
/// within the filesystem's mtime granularity (e.g. two quick saves in
/// the same second) leaves size and mtime untouched but must still
/// trigger a recompile.
struct WatchStamps {
    /// Size + mtime per file (`None` for unreadable files, so a
    /// deleted file also registers as a change).
    meta: Vec<Option<(u64, std::time::SystemTime)>>,
    /// Content fingerprint per file (the same hash the artifact cache
    /// keys parses by).
    content: Vec<Option<tydi_lang::Fingerprint>>,
}

impl WatchStamps {
    fn capture(files: &[String]) -> WatchStamps {
        WatchStamps {
            meta: Self::metadata(files),
            content: Self::fingerprints(files),
        }
    }

    /// Re-stamps the files; returns true when anything changed. The
    /// metadata pass is a stat per file; contents are only read (and
    /// fingerprinted) when the metadata claims nothing moved.
    fn refresh(&mut self, files: &[String]) -> bool {
        let meta = Self::metadata(files);
        if meta != self.meta {
            self.meta = meta;
            self.content = Self::fingerprints(files);
            return true;
        }
        let content = Self::fingerprints(files);
        if content != self.content {
            self.content = content;
            return true;
        }
        false
    }

    fn metadata(files: &[String]) -> Vec<Option<(u64, std::time::SystemTime)>> {
        files
            .iter()
            .map(|file| {
                fs::metadata(file)
                    .ok()
                    .and_then(|m| m.modified().ok().map(|t| (m.len(), t)))
            })
            .collect()
    }

    fn fingerprints(files: &[String]) -> Vec<Option<tydi_lang::Fingerprint>> {
        files
            .iter()
            .map(|file| {
                fs::read_to_string(file)
                    .ok()
                    .map(|text| tydi_lang::fingerprint::source_fingerprint(file, &text))
            })
            .collect()
    }
}

/// `tydic serve`: stay resident as the warm compiler daemon (or, with
/// `--lsp`, as a Language Server on stdio).
#[cfg(unix)]
fn run_serve(options: &Options) -> Result<(), CliError> {
    let dir = absolute_path(&cache_dir(options));
    if options.lsp {
        let cache_dir = (!options.no_cache).then_some(dir.as_path());
        return tydi_serve::lsp::run_stdio(cache_dir)
            .map_err(|e| CliError::failure(format!("lsp server failed: {e}")));
    }
    match options.request.files.first().map(String::as_str) {
        Some("status") => return run_serve_status(options, &dir),
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown serve subcommand `{other}` (expected `status`, or no subcommand \
                 to run the daemon)"
            )))
        }
        None => {}
    }
    let mut serve_options = tydi_serve::server::ServeOptions::new(dir);
    serve_options.socket = options.socket.clone().map(|p| absolute_path(&p));
    serve_options.max_requests = options.max_requests;
    serve_options.job_timeout = options.job_timeout_ms.map(std::time::Duration::from_millis);
    serve_options.max_jobs = options.max_jobs;
    serve_options.idle_timeout = options
        .idle_timeout_ms
        .map(std::time::Duration::from_millis);
    tydi_serve::server::serve(&serve_options)
        .map_err(|e| CliError::failure(format!("serve failed: {e}")))
}

/// `tydic serve status`: query the running daemon's health over its
/// socket (never spawning one) and render it for humans. The field
/// values come off the daemon's tydi-obs registry via the `status`
/// job.
#[cfg(unix)]
fn run_serve_status(options: &Options, dir: &std::path::Path) -> Result<(), CliError> {
    let socket = options
        .socket
        .clone()
        .map(|p| absolute_path(&p))
        .unwrap_or_else(|| tydi_serve::socket_path(dir));
    let mut client = tydi_serve::client::Client::connect(&socket)
        .map_err(|e| CliError::failure(format!("no daemon on {}: {e}", socket.display())))?;
    let mut request = tydi_serve::protocol::JobRequest::new(tydi_serve::protocol::JobKind::Status);
    request.id = std::process::id() as u64;
    let response = client
        .request(&request)
        .map_err(|e| CliError::failure(format!("status request failed: {e}")))?;
    let status = response
        .status
        .ok_or_else(|| CliError::failure("daemon answered without a status payload"))?;
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "daemon pid {} up {:.1}s on {}",
        status.pid,
        status.uptime_ms / 1e3,
        socket.display()
    );
    let _ = writeln!(
        stdout,
        "jobs: {} served, {} active, {} timed out, {} panicked",
        status.requests, status.jobs_active, status.jobs_timed_out, status.jobs_panicked
    );
    let _ = writeln!(
        stdout,
        "cache: {} parse + {} elab entries",
        status.parse_entries, status.elab_entries
    );
    match status.idle_deadline_ms {
        Some(ms) => {
            let _ = writeln!(stdout, "idle shutdown in {:.1}s", ms / 1e3);
        }
        None => {
            let _ = writeln!(stdout, "idle shutdown: disabled");
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn run_serve(options: &Options) -> Result<(), CliError> {
    if options.lsp {
        return tydi_serve::lsp::run_stdio(None)
            .map_err(|e| CliError::failure(format!("lsp server failed: {e}")));
    }
    Err(CliError::failure(
        "tydic serve needs unix domain sockets (only --lsp is available on this platform)",
    ))
}

/// `--daemon`: sends the job to the daemon owning the cache directory
/// (spawning it on demand) and returns its response. Any I/O error
/// here makes the caller fall back to an in-process run.
#[cfg(unix)]
fn run_daemon_job(options: &Options) -> Result<JobResponse, std::io::Error> {
    let mut request = options.request.clone();
    request.id = std::process::id() as u64;
    // The daemon's working directory is wherever it was first
    // spawned; every path in the job must be absolute.
    let absolute = |path: &str| {
        absolute_path(std::path::Path::new(path))
            .display()
            .to_string()
    };
    request.files = request.files.iter().map(|f| absolute(f)).collect();
    request.out_dir = request.out_dir.as_deref().map(absolute);
    let dir = absolute_path(&cache_dir(options));
    let exe = std::env::current_exe()?;
    let mut client = tydi_serve::client::connect_or_spawn(&dir, options.socket.as_deref(), &exe)?;
    // A saturated daemon answers `busy`; retry with capped backoff
    // before surfacing the failure.
    client.request_with_retry(&request)
}

#[cfg(not(unix))]
fn run_daemon_job(_options: &Options) -> Result<JobResponse, std::io::Error> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the daemon needs unix domain sockets",
    ))
}

/// Absolutizes a path against the current directory (without
/// resolving symlinks — the path may not exist yet).
fn absolute_path(path: &std::path::Path) -> PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::env::current_dir()
            .map(|cwd| cwd.join(path))
            .unwrap_or_else(|_| path.to_path_buf())
    }
}

fn run(options: &Options) -> Result<u8, CliError> {
    if options.command == "serve" {
        return run_serve(options).map(|()| 0);
    }
    if options.watch {
        run_watch(options);
        return Ok(0);
    }
    Ok(run_once(options, &mut None))
}

fn report(e: &CliError) -> ExitCode {
    // Rendered messages may already be newline-terminated.
    eprintln!("{}", e.message.trim_end_matches('\n'));
    ExitCode::from(e.code)
}

/// Writes the `--trace` file. Runs after [`run`] regardless of its
/// outcome, so a failing compile still leaves a trace of how far it
/// got. A write failure is a warning: the run's own exit status has
/// already been decided.
fn write_trace(path: &std::path::Path) {
    tydi_obs::trace::set_level(tydi_obs::trace::Level::Off);
    let json = tydi_obs::trace::export_chrome_trace();
    if let Err(e) = fs::write(path, json) {
        eprintln!("warning: cannot write trace to `{}`: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(options)) => {
            if options.trace.is_some() {
                tydi_obs::trace::set_level(if options.trace_fine {
                    tydi_obs::trace::Level::Fine
                } else {
                    tydi_obs::trace::Level::Coarse
                });
            }
            let result = run(&options);
            if let Some(path) = &options.trace {
                write_trace(path);
            }
            match result {
                Ok(code) => ExitCode::from(code),
                Err(e) => report(&e),
            }
        }
        Err(e) => report(&e),
    }
}
