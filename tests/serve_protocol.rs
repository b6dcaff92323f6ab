//! End-to-end tests of the `tydic serve` daemon over its unix-socket
//! job protocol, against the real binary.
//!
//! Unix-only: the daemon's transport is a unix domain socket.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tydi_serve::client::Client;
use tydi_serve::protocol::{JobKind, JobRequest};

const GOOD: &str = "package demo;\ntype Byte = Stream(Bit(8));\n\
                    streamlet wire_s { i : Byte in, o : Byte out, }\n\
                    impl wire_i of wire_s { i => o, }\n";
const BROKEN: &str = "package demo;\nconst x = ;\n";

fn tydic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tydic"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

/// A daemon child plus the paths to talk to it; shut down on drop so
/// a failing test never leaks a resident process.
struct Daemon {
    child: Child,
    cache_dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(cache_dir: &Path) -> Daemon {
        Daemon::spawn_with(cache_dir, &[])
    }

    fn spawn_with(cache_dir: &Path, extra_args: &[&str]) -> Daemon {
        let child = tydic()
            .arg("serve")
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let socket = cache_dir.join("serve.sock");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(&socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon {
            child,
            cache_dir: cache_dir.to_path_buf(),
            socket,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("connect")
    }

    /// Graceful shutdown; asserts the daemon exits and cleans its
    /// socket up.
    fn shutdown(mut self) {
        let mut client = self.client();
        let response = client
            .request(&JobRequest::new(JobKind::Shutdown))
            .expect("shutdown response");
        assert!(response.ok);
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exit status: {status:?}");
        assert!(
            !self.socket.exists(),
            "socket removed on shutdown: {:?}",
            self.socket
        );
        assert!(
            !self.cache_dir.join("serve.pid").exists(),
            "pid file removed on shutdown"
        );
        // Disarm the drop killer.
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn check_request(file: &Path) -> JobRequest {
    let mut request = JobRequest::new(JobKind::Check);
    request.files = vec![file.display().to_string()];
    request
}

#[test]
fn daemon_serves_warm_checks_and_survives_failing_compiles() {
    let dir = workdir("warm");
    let good = dir.join("good.td");
    let broken = dir.join("broken.td");
    std::fs::write(&good, GOOD).unwrap();
    std::fs::write(&broken, BROKEN).unwrap();
    let daemon = Daemon::spawn(&dir.join("cache"));

    let mut client = daemon.client();
    let cold = client.request(&check_request(&good)).expect("cold check");
    assert!(cold.ok, "cold check: {}", cold.stderr);
    assert!(cold.stderr.contains("ok: "), "summary: {}", cold.stderr);

    // Second compile of the same design is served from the resident
    // cache: the elaborate stage reports reuse.
    let warm = client.request(&check_request(&good)).expect("warm check");
    assert!(warm.ok && warm.warm, "warm flag set: {}", warm.stderr);

    // A failing compile answers with diagnostics and a nonzero exit
    // code — and the daemon keeps serving afterwards.
    let failed = client
        .request(&check_request(&broken))
        .expect("broken check");
    assert!(!failed.ok);
    assert_eq!(failed.exit_code, 1);
    assert!(
        failed.stderr.contains("error:"),
        "stderr: {}",
        failed.stderr
    );
    let error = failed
        .diagnostics
        .iter()
        .find(|d| d.severity == "error")
        .expect("structured error diagnostic");
    assert!(error.line > 0 && error.col > 0, "span mapped: {error:?}");

    let after = client
        .request(&check_request(&good))
        .expect("check after failure");
    assert!(after.ok && after.warm);

    // Per-request metrics: the warm response embeds this job's own
    // timings namespace.
    let metrics = tydi_obs::json::parse(&after.metrics_json).expect("metrics parse");
    assert!(
        metrics.get("timings.wall_ms").is_some(),
        "metrics: {}",
        after.metrics_json
    );

    // Status reflects the served jobs.
    let status = client
        .request(&JobRequest::new(JobKind::Status))
        .expect("status")
        .status
        .expect("status payload");
    assert!(status.requests >= 4, "requests served: {status:?}");
    assert!(status.elab_entries >= 1, "resident artifacts: {status:?}");
    assert!(status.pid > 0 && status.uptime_ms >= 0.0);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_handles_concurrent_clients() {
    let dir = workdir("concurrent");
    let daemon = Daemon::spawn(&dir.join("cache"));
    let files: Vec<PathBuf> = (0..4)
        .map(|index| {
            let path = dir.join(format!("d{index}.td"));
            std::fs::write(
                &path,
                format!(
                    "package p{index};\ntype B = Stream(Bit(8));\n\
                     streamlet s {{ i : B in, o : B out, }}\nimpl x of s {{ i => o, }}\n"
                ),
            )
            .unwrap();
            path
        })
        .collect();

    let socket = daemon.socket.clone();
    let handles: Vec<_> = files
        .iter()
        .cloned()
        .map(|file| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                for _ in 0..3 {
                    let response = client.request(&check_request(&file)).expect("request");
                    assert!(response.ok, "concurrent check: {}", response.stderr);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let status = daemon
        .client()
        .request(&JobRequest::new(JobKind::Status))
        .expect("status")
        .status
        .expect("status payload");
    assert_eq!(status.requests, 12, "all jobs accounted: {status:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stderr lines with every duration (`1.2ms`, `340µs`, `0ns`, ...)
/// masked: the one thing a daemon run may print differently.
fn without_timings(stderr: &[u8]) -> Vec<String> {
    let is_duration = |word: &str| {
        let word = word.trim_end_matches([',', ')']);
        ["ns", "µs", "ms", "s"].iter().any(|unit| {
            word.strip_suffix(unit)
                .is_some_and(|n| !n.is_empty() && n.parse::<f64>().is_ok())
        })
    };
    String::from_utf8_lossy(stderr)
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|word| if is_duration(word) { "<t>" } else { word })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// Runs one `tydic` invocation in-process and once through the
/// daemon owning `cache`; asserts the two agree on the exit code,
/// stdout and (timings masked) stderr, and that the daemon really
/// served the job. Returns the in-process output.
fn assert_daemon_matches(args: &[&str], cache: &Path) -> std::process::Output {
    let plain = tydic()
        .args(args)
        .arg("--no-cache")
        .output()
        .expect("in-process run");
    let delegated = tydic()
        .args(args)
        .arg("--daemon")
        .arg("--cache-dir")
        .arg(cache)
        .env("TYDIC_NO_SPAWN", "1")
        .output()
        .expect("daemon run");
    let stderr = String::from_utf8_lossy(&delegated.stderr);
    assert!(
        !stderr.contains("daemon unavailable"),
        "{args:?} must run on the daemon: {stderr}"
    );
    assert_eq!(plain.status.code(), delegated.status.code(), "{args:?}");
    assert!(plain.stdout == delegated.stdout, "{args:?}: stdout differs");
    assert_eq!(
        without_timings(&plain.stderr),
        without_timings(&delegated.stderr),
        "{args:?}: stderr differs apart from timings"
    );
    plain
}

fn cookbook(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("cookbook")
        .join(name)
        .display()
        .to_string()
}

/// `tydic --daemon` vs plain `tydic`: every job kind runs through the
/// one executor, so exit code, stdout and stderr are byte-identical
/// apart from the timing values.
#[test]
fn daemon_delegation_is_byte_identical_to_in_process() {
    let dir = workdir("identical");
    let good = dir.join("good.td");
    let broken = dir.join("broken.td");
    std::fs::write(&good, GOOD).unwrap();
    std::fs::write(&broken, BROKEN).unwrap();
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&cache);
    let batch = cookbook("11_batch_sim.td");
    let analyze = cookbook("13_analyze.td");
    // First, while the daemon's cache is as cold as the in-process
    // one: the `--timings` report includes the cache reuse counts.
    let sim = assert_daemon_matches(&["sim", &batch, "--top", "pipeline_i", "--timings"], &cache);
    assert!(sim.status.success() && !sim.stdout.is_empty());
    let failed = assert_daemon_matches(&["check", &broken.display().to_string()], &cache);
    assert_eq!(failed.status.code(), Some(1));
    let not_utf8 = dir.join("not_utf8.td");
    std::fs::write(&not_utf8, b"package demo;\nconst x = \"\xff\";\n").unwrap();
    let undecodable = assert_daemon_matches(&["check", &not_utf8.display().to_string()], &cache);
    assert_eq!(undecodable.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&undecodable.stderr).contains("not_utf8.td:2:12"));
    let ir = assert_daemon_matches(
        &["build", &good.display().to_string(), "--emit", "ir"],
        &cache,
    );
    assert!(ir.status.success() && !ir.stdout.is_empty());
    let sweep = assert_daemon_matches(
        &[
            "sim",
            &analyze,
            "--top",
            "starved_i",
            "--inject",
            "jitter(top.drag.o => add.in1,7,3)",
            "--inject-sweep",
            "1,2",
        ],
        &cache,
    );
    assert!(String::from_utf8_lossy(&sweep.stdout).contains("seed-2"));
    let json = assert_daemon_matches(&["analyze", &analyze, "--format", "json"], &cache);
    assert!(json.status.success() && json.stdout.starts_with(b"{"));
    let denied = assert_daemon_matches(
        &["analyze", &analyze, "--top", "wedged_i", "--deny", "error"],
        &cache,
    );
    assert_eq!(denied.status.code(), Some(1));
    let verilog = assert_daemon_matches(&["build", &batch, "--emit", "verilog"], &cache);
    assert!(String::from_utf8_lossy(&verilog.stdout).contains("module "));
    // Usage errors share one parser, so they read the same either way.
    let bad = assert_daemon_matches(
        &["sim", &batch, "--top", "pipeline_i", "--inject", "x"],
        &cache,
    );
    assert_eq!(bad.status.code(), Some(2));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon jobs get the CLI's stack: nesting the in-process compile
/// survives must not kill the daemon (a stack overflow aborts the
/// whole process, taking every client's warm cache with it).
#[test]
fn deeply_nested_designs_compile_on_the_daemon_like_in_process() {
    let dir = workdir("deep");
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&cache);
    // Deep enough to overflow a default 2 MiB thread stack in a debug
    // build, shallow enough for the 8 MiB main thread.
    let deep = dir.join("deep.td");
    let parens = ("(".repeat(300), ")".repeat(300));
    std::fs::write(
        &deep,
        format!("package deep;\nconst x = {}1{};\n", parens.0, parens.1),
    )
    .unwrap();
    let chain = dir.join("chain.td");
    std::fs::write(
        &chain,
        format!("package chain;\nconst x = 1{};\n", " + 1".repeat(3000)),
    )
    .unwrap();
    for file in [&deep, &chain] {
        let out = assert_daemon_matches(&["check", &file.display().to_string()], &cache);
        assert!(out.status.success(), "{file:?} compiles in-process");
    }
    let status = daemon
        .client()
        .request(&JobRequest::new(JobKind::Status))
        .expect("the daemon still answers")
        .status
        .expect("status payload");
    assert_eq!(status.requests, 2, "{status:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--daemon` honours the observability flags: `--timings-json`
/// writes the job's own metrics, and `--trace` (which would record the
/// client process, not the job) is a usage error. `--timings` is
/// pinned in `tests/timing_report.rs`.
#[test]
fn daemon_honours_the_observability_flags() {
    let dir = workdir("obs");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&cache);
    let run = |daemon: bool, flag: &str, file: &Path| {
        let mut command = tydic();
        command.arg("check").arg(&good);
        if daemon {
            command.arg("--daemon");
        }
        command
            .arg(flag)
            .arg(file)
            .arg("--cache-dir")
            .arg(&cache)
            .output()
            .expect("run tydic")
    };

    // In-process and through the daemon, the metrics file is exactly
    // what the one JSON writer prints for its own parse: both sides
    // format every number the same way.
    for (daemon, mode) in [(true, "daemon"), (false, "in-process")] {
        let json_path = dir.join(format!("metrics-{mode}.json"));
        let out = run(daemon, "--timings-json", &json_path);
        assert!(out.status.success(), "{mode}: {out:?}");
        let text = std::fs::read_to_string(&json_path).expect("timings json written");
        let metrics = tydi_obs::json::parse(&text).expect("valid JSON");
        for key in [
            "timings.wall_ms",
            "types.distinct",
            "cache.stage.parse.reused",
        ] {
            assert!(
                metrics.get(key).is_some(),
                "{mode}: `{key}` missing: {text}"
            );
        }
        assert_eq!(
            text,
            format!("{metrics}\n"),
            "{mode}: not a print fixed point"
        );
    }

    let trace = dir.join("trace.json");
    assert_eq!(run(true, "--trace", &trace).status.code(), Some(2));
    assert!(!trace.exists(), "no empty trace written");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon job's metrics are its own: two builds of one design on
/// one daemon report exactly the metrics an in-process build reports,
/// apart from the timings and the artifact-cache reuse counts.
#[test]
fn daemon_jobs_do_not_leak_metrics_into_each_other() {
    let dir = workdir("metrics");
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&cache);
    let design = cookbook("10_full_flow.td");
    let build = |daemon: bool, tag: &str| {
        let json_path = dir.join(format!("{tag}.json"));
        let mut command = tydic();
        command
            .args(["build", &design, "--emit", "vhdl", "--timings-json"])
            .arg(&json_path)
            .arg("--cache-dir")
            .arg(&cache);
        if daemon {
            command.arg("--daemon").env("TYDIC_NO_SPAWN", "1");
        }
        let out = command.output().expect("run tydic");
        assert!(out.status.success(), "{tag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("daemon unavailable"), "{tag}: {stderr}");
        let text = std::fs::read_to_string(&json_path).expect("timings json written");
        let metrics = tydi_obs::json::parse(&text).expect("valid JSON");
        metrics
            .as_object()
            .expect("flat snapshot object")
            .iter()
            .filter(|(key, _)| !key.starts_with("timings.") && !key.starts_with("cache."))
            .map(|(key, value)| format!("{key} = {value}"))
            .collect::<Vec<_>>()
    };
    let first = build(true, "daemon-1");
    assert!(
        first.iter().any(|line| line.starts_with("types.distinct")),
        "{first:?}"
    );
    assert_eq!(build(true, "daemon-2"), first, "second daemon job");
    assert_eq!(build(false, "in-process"), first, "in-process run");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_falls_back_in_process_when_unreachable() {
    let dir = workdir("fallback");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();

    // TYDIC_NO_SPAWN forbids starting a daemon, and none is running:
    // the compile must still succeed, in-process, with a warning.
    let out = tydic()
        .arg("check")
        .arg(&good)
        .arg("--daemon")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .env("TYDIC_NO_SPAWN", "1")
        .output()
        .expect("fallback check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fallback: {stderr}");
    assert!(
        stderr.contains("warning: daemon unavailable"),
        "fallback warned: {stderr}"
    );
    assert!(stderr.contains("ok: "), "compile ran in-process: {stderr}");
    assert!(
        !dir.join("cache").join("serve.sock").exists(),
        "no daemon was spawned"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timed_out_job_answers_structured_timeout_and_daemon_keeps_serving() {
    let dir = workdir("timeout");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let daemon = Daemon::spawn_with(&dir.join("cache"), &["--job-timeout", "200"]);

    let mut client = daemon.client();
    let mut slow = check_request(&good);
    slow.test_sleep_ms = Some(1200);
    let response = client.request(&slow).expect("timeout response");
    assert!(!response.ok);
    assert_eq!(response.error_kind.as_deref(), Some("timeout"));
    assert_eq!(response.exit_code, 124);
    assert!(
        response.stderr.contains("wall-clock limit"),
        "stderr: {}",
        response.stderr
    );

    // The daemon keeps serving: once the abandoned job finishes its
    // sleep and releases the cache, the next (fast) job succeeds. Wait
    // out the remainder so the follow-up doesn't spend its own
    // wall-clock budget queueing on the cache lock.
    std::thread::sleep(Duration::from_millis(1200));
    let after = client.request(&check_request(&good)).expect("after");
    assert!(after.ok, "served after timeout: {}", after.stderr);

    // The timeout is visible in status, rendered from the daemon's
    // metrics registry.
    let status = client
        .request(&JobRequest::new(JobKind::Status))
        .expect("status")
        .status
        .expect("status payload");
    assert_eq!(status.jobs_timed_out, 1, "{status:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_daemon_answers_busy_and_backoff_recovers() {
    let dir = workdir("busy");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let daemon = Daemon::spawn_with(&dir.join("cache"), &["--max-jobs", "1"]);

    // Occupy the single slot with a sleeping job on its own connection.
    let mut slow = check_request(&good);
    slow.test_sleep_ms = Some(1500);
    let socket = daemon.socket.clone();
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(&socket).expect("connect holder");
        client.request(&slow).expect("slow job response")
    });
    std::thread::sleep(Duration::from_millis(250)); // let the slot fill

    // A plain request is refused with a structured `busy`.
    let mut client = daemon.client();
    let refused = client.request(&check_request(&good)).expect("busy answer");
    assert!(!refused.ok);
    assert_eq!(refused.error_kind.as_deref(), Some("busy"));
    assert_eq!(refused.exit_code, 75);

    // The retrying client backs off until the slot frees, then wins.
    let retried = client
        .request_with_retry(&check_request(&good))
        .expect("retried answer");
    assert!(
        retried.ok,
        "backoff recovered: {} / {:?}",
        retried.stderr, retried.error_kind
    );

    let held = holder.join().expect("holder thread");
    assert!(held.ok, "the slow job itself succeeded: {}", held.stderr);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_is_isolated_and_counted() {
    let dir = workdir("panic");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let daemon = Daemon::spawn(&dir.join("cache"));

    let mut client = daemon.client();
    let mut crashing = check_request(&good);
    crashing.test_panic = true;
    let response = client.request(&crashing).expect("panic response");
    assert!(!response.ok);
    assert_eq!(response.error_kind.as_deref(), Some("internal_error"));
    assert_eq!(response.exit_code, 70);

    // The daemon survived and serves byte-identical work afterwards.
    let first = client.request(&check_request(&good)).expect("first");
    let second = client.request(&check_request(&good)).expect("second");
    assert!(first.ok && second.ok);
    assert_eq!(first.stdout, second.stdout);

    let status = client
        .request(&JobRequest::new(JobKind::Status))
        .expect("status")
        .status
        .expect("status payload");
    assert_eq!(status.jobs_panicked, 1, "{status:?}");
    assert_eq!(status.jobs_active, 0, "panicked job released its slot");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon persists after it replies, but takes the cache lock
/// before: a cold `tydic` started the moment a `build` reply arrives
/// waits for that persist and reuses its elaboration — including the
/// very first persist, into a directory with no manifest yet.
#[test]
fn cold_cli_right_after_a_daemon_reply_sees_its_persist() {
    let dir = workdir("reply-persist");
    let cache = dir.join("cache");
    let daemon = Daemon::spawn(&cache);
    assert!(!cache.join("manifest.txt").exists(), "starts empty");
    let mut client = daemon.client();
    for round in 0..4 {
        let file = dir.join(format!("design{round}.td"));
        std::fs::write(
            &file,
            GOOD.replace("Bit(8)", &format!("Bit({})", 8 + round)),
        )
        .unwrap();
        let mut build = JobRequest::new(JobKind::Build);
        build.files = vec![file.display().to_string()];
        build.emit = "ir".to_string();
        let reply = client.request(&build).expect("build reply");
        assert!(reply.ok, "round {round}: {}", reply.stderr);
        let check = tydic()
            .arg("check")
            .arg(&file)
            .arg("--timings")
            .arg("--cache-dir")
            .arg(&cache)
            .output()
            .expect("cold check");
        let stderr = String::from_utf8_lossy(&check.stderr);
        assert!(check.status.success(), "round {round}: {stderr}");
        assert!(
            stderr.contains("elaborate 1/0"),
            "round {round}: the cold check must reuse the daemon's build: {stderr}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_shutdown_exits_cleanly_and_persists_the_cache() {
    let dir = workdir("idle");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let cache = dir.join("cache");
    let mut daemon = Daemon::spawn_with(&cache, &["--idle-timeout", "400"]);

    // One compile dirties the resident cache.
    let response = daemon
        .client()
        .request(&check_request(&good))
        .expect("check");
    assert!(response.ok, "stderr: {}", response.stderr);

    // The status response advertises the pending idle deadline.
    let status = daemon
        .client()
        .request(&JobRequest::new(JobKind::Status))
        .expect("status")
        .status
        .expect("status payload");
    let deadline = status.idle_deadline_ms.expect("idle deadline advertised");
    assert!(deadline <= 400.0, "deadline within the limit: {status:?}");

    // Left alone, the daemon exits on its own, cleanly.
    let exit_deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < exit_deadline,
            "daemon never idle-shut-down"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "idle shutdown exit: {status:?}");
    assert!(!daemon.socket.exists(), "socket removed");
    assert!(!cache.join("serve.pid").exists(), "pid file removed");
    assert!(
        cache.join("manifest.txt").exists(),
        "warm cache persisted on the way out"
    );
    std::mem::forget(daemon); // already exited; nothing to kill
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_status_subcommand_renders_daemon_health() {
    let dir = workdir("status-cli");
    let good = dir.join("good.td");
    std::fs::write(&good, GOOD).unwrap();
    let cache = dir.join("cache");

    // Without a daemon: a failure, not a spawn.
    let out = tydic()
        .args(["serve", "status", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("status without daemon");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no daemon"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let daemon = Daemon::spawn_with(&cache, &["--idle-timeout", "60000"]);
    let response = daemon
        .client()
        .request(&check_request(&good))
        .expect("check");
    assert!(response.ok);

    let out = tydic()
        .args(["serve", "status", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("status with daemon");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "status ok: {stdout}");
    assert!(stdout.contains("daemon pid "), "pid line: {stdout}");
    assert!(
        stdout.contains("jobs: 1 served, 0 active, 0 timed out, 0 panicked"),
        "jobs line: {stdout}"
    );
    assert!(stdout.contains("cache: "), "cache line: {stdout}");
    assert!(stdout.contains("idle shutdown in "), "deadline: {stdout}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_protocol_errors_not_hangs() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = workdir("malformed");
    let daemon = Daemon::spawn(&dir.join("cache"));

    let mut stream = UnixStream::connect(&daemon.socket).expect("connect raw");
    stream.write_all(b"this is not json\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let response = tydi_serve::protocol::JobResponse::parse(&line).expect("parseable");
    assert!(!response.ok);
    assert_eq!(response.exit_code, 2);

    // The connection (and the daemon) still work afterwards.
    stream
        .write_all(br#"{"kind":"status","id":5}"#)
        .and_then(|()| stream.write_all(b"\n"))
        .unwrap();
    line.clear();
    reader.read_line(&mut line).expect("status response");
    let response = tydi_serve::protocol::JobResponse::parse(&line).expect("parseable");
    assert!(response.ok);
    assert_eq!(response.id, 5);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
