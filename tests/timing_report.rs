//! Regression tests on the shape of `tydic --timings` output.
//!
//! The historic bug: the headline duration summed per-stage times and
//! presented the sum as elapsed time. The fixed report separates the
//! two: per-stage **self times** on one line, then `totals: self
//! <sum>, wall <elapsed>` as distinct numbers, then per-stage cache
//! reuse counts. These tests pin that shape (and the reuse counters)
//! by running the real binary.

use std::path::PathBuf;
use std::process::Command;
use tydi_obs::json::{parse, Json};

/// A fresh scratch directory per test: tests run on parallel threads
/// of one process, so a shared directory would race.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-timing-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn tydic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tydic"))
}

const DESIGN: &str = "package timing;\ntype B = Stream(Bit(8));\n\
                      streamlet s { i : B in, o : B out, }\nimpl x of s { i => o, }\n";

/// Runs `tydic check --timings` and returns stderr.
fn check_with_timings(dir: &std::path::Path, extra: &[&str]) -> String {
    let design = dir.join("t.td");
    std::fs::write(&design, DESIGN).expect("write design");
    let mut cmd = tydic();
    cmd.arg("check")
        .arg(&design)
        .arg("--timings")
        .arg("--cache-dir")
        .arg(dir.join("cache"));
    cmd.args(extra);
    let out = cmd.output().expect("run tydic");
    assert!(
        out.status.success(),
        "tydic failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// Extracts `name <duration>` pairs from `stages:` lines; durations
/// print via `Duration`'s Debug form (`1.2ms`, `340µs`, `0ns`, ...).
fn stage_line<'a>(stderr: &'a str, prefix: &str) -> &'a str {
    stderr
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("missing `{prefix}` line in:\n{stderr}"))
}

#[test]
fn report_separates_self_times_from_the_wall_total() {
    let dir = workdir("self-wall");
    let stderr = check_with_timings(&dir, &["--no-cache"]);

    // Per-stage line names every stage and labels them as self times.
    let stages = stage_line(&stderr, "stages: ");
    for stage in ["parse", "elaborate", "sugar", "drc"] {
        assert!(stages.contains(stage), "`{stage}` missing in: {stages}");
    }
    assert!(
        stages.ends_with("(self times)"),
        "self-time label missing: {stages}"
    );

    // Totals line reports self and wall separately — two numbers, not
    // one sum presented as elapsed time.
    let totals = stage_line(&stderr, "totals: ");
    assert!(
        totals.contains("self ") && totals.contains(", wall "),
        "totals must carry self and wall separately: {totals}"
    );

    // The headline `ok:` line reports the wall figure, not the sum.
    let ok = stage_line(&stderr, "ok: ");
    let wall = totals.split(", wall ").nth(1).unwrap().trim();
    assert!(
        ok.ends_with(&format!("in {wall}")),
        "headline should report the wall time `{wall}`: {ok}"
    );

    // Cache accounting is part of the report shape.
    let cache = stage_line(&stderr, "cache: ");
    assert!(
        cache.contains("parse") && cache.contains("reused") && cache.contains("recomputed"),
        "cache line shape: {cache}"
    );

    // Type-store statistics follow: distinct interned nodes and the
    // dedup hit rate.
    let types = stage_line(&stderr, "types: ");
    assert!(
        types.contains("distinct node(s) interned") && types.contains("hit rate"),
        "type-store line shape: {types}"
    );
    // The design (plus stdlib) interns a nonzero number of types.
    assert!(
        !types.starts_with("types: 0 distinct"),
        "a cold compile must intern types: {types}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_ends_with_the_type_store_line() {
    let dir = workdir("no-par-line");
    let stderr = check_with_timings(&dir, &["--no-cache"]);
    // The compiler runs on one thread: the report has no fan-out
    // line, and the type-store line closes it.
    assert!(
        !stderr.lines().any(|l| l.starts_with("par: ")),
        "no parallelism line expected: {stderr}"
    );
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("types: "), "last report line: {last}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `tydic <args> --timings --timings-json` on the design,
/// asserting success; returns stderr and the JSON snapshot.
fn run_with_json(dir: &std::path::Path, args: &[&str]) -> (String, Json) {
    let design = dir.join("t.td");
    std::fs::write(&design, DESIGN).expect("write design");
    let json_path = dir.join("timings.json");
    let out = tydic()
        .args(&args[..1])
        .arg(&design)
        .args(&args[1..])
        .args(["--no-cache", "--timings", "--timings-json"])
        .arg(&json_path)
        .output()
        .expect("run tydic");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "tydic failed: {stderr}");
    let text = std::fs::read_to_string(&json_path).expect("timings json");
    (stderr, parse(&text).expect("timings json parses"))
}

fn row_ms(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("snapshot lacks `{key}`"))
}

#[test]
fn build_reports_codegen_rows_inside_the_wall() {
    let dir = workdir("codegen");
    let out_dir = dir.join("out");
    let (stderr, doc) = run_with_json(&dir, &["build", "-o", out_dir.to_str().unwrap()]);
    let codegen = stage_line(&stderr, "codegen: ");
    assert!(
        codegen.contains("lower ")
            && codegen.contains(", emit ")
            && codegen.contains(", write ")
            && codegen.ends_with("(self times)"),
        "codegen line shape: {codegen}"
    );
    // The rows render after the last write, between the stage line and
    // the totals they add to.
    let position = |prefix: &str| stderr.find(prefix).expect(prefix);
    assert!(position("wrote ") < position("stages: "), "{stderr}");
    assert!(position("stages: ") < position("codegen: "), "{stderr}");
    assert!(position("codegen: ") < position("totals: "), "{stderr}");
    let (lower, emit, write) = (
        row_ms(&doc, "timings.lower_ms"),
        row_ms(&doc, "timings.emit_ms"),
        row_ms(&doc, "timings.write_ms"),
    );
    assert!(lower > 0.0 && emit > 0.0 && write > 0.0, "{doc}");
    let stages = ["parse", "elaborate", "sugar", "drc", "analyze"]
        .iter()
        .map(|stage| row_ms(&doc, &format!("timings.{stage}_ms")))
        .sum::<f64>();
    let total_self = row_ms(&doc, "timings.total_self_ms");
    assert!(
        (total_self - (stages + lower + emit + write)).abs() < 1e-6,
        "self total sums every row: {doc}"
    );
    assert!(
        row_ms(&doc, "timings.wall_ms") >= total_self,
        "wall spans the job through the last write: {doc}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--timings` reports the process's peak RSS and the job's minor page
/// faults, read from procfs, on the line before the type-store line;
/// `--timings-json` carries both under `timings.memory.`.
#[test]
fn report_carries_memory_readings() {
    if !std::path::Path::new("/proc/self/stat").exists() {
        return;
    }
    let dir = workdir("memory");
    let out_dir = dir.join("out");
    let (stderr, doc) = run_with_json(&dir, &["build", "-o", out_dir.to_str().unwrap()]);
    let line = stage_line(&stderr, "memory: ");
    let shape = line
        .strip_prefix("memory: peak RSS ")
        .and_then(|rest| rest.strip_suffix(" minor faults"))
        .and_then(|rest| rest.split_once(" MiB, "));
    let Some((mib, faults)) = shape else {
        panic!("memory line shape: {line}")
    };
    assert!(mib.parse::<f64>().is_ok_and(|mib| mib > 0.0), "{line}");
    assert!(
        faults.parse::<u64>().is_ok_and(|faults| faults > 0),
        "{line}"
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(lines[lines.len() - 2].starts_with("memory: "), "{stderr}");
    for key in ["timings.memory.peak_rss_kb", "timings.memory.minor_faults"] {
        assert!(row_ms(&doc, key) > 0.0, "`{key}` in {doc}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_row_carries_its_fingerprint_part() {
    let dir = workdir("fingerprint");
    let (stderr, doc) = run_with_json(&dir, &["check"]);
    // `stages: parse X (fingerprint Y), elaborate ...`: the source-text
    // and AST hashes are a part of parse, printed inside its row.
    let stages = stage_line(&stderr, "stages: ");
    let parse_row = stages
        .strip_prefix("stages: parse ")
        .and_then(|rest| rest.split(", elaborate ").next())
        .unwrap_or_else(|| panic!("parse row shape: {stages}"));
    assert!(
        parse_row.contains(" (fingerprint ") && parse_row.ends_with(')'),
        "parse row must carry its fingerprint part: {stages}"
    );
    let (parse_ms, fingerprint_ms) = (
        row_ms(&doc, "timings.parse_ms"),
        row_ms(&doc, "timings.fingerprint_ms"),
    );
    assert!(
        fingerprint_ms > 0.0 && fingerprint_ms <= parse_ms,
        "fingerprint time is a nonzero part of parse: {doc}"
    );
    // The self total keeps its meaning: it does not add the part twice.
    let rows = ["parse", "elaborate", "sugar", "drc", "analyze"]
        .iter()
        .map(|stage| row_ms(&doc, &format!("timings.{stage}_ms")))
        .sum::<f64>();
    assert!(
        (row_ms(&doc, "timings.total_self_ms") - rows).abs() < 1e-6,
        "self total sums the stage rows only: {doc}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_reports_no_codegen() {
    let dir = workdir("no-codegen");
    let (stderr, doc) = run_with_json(&dir, &["check"]);
    assert!(
        !stderr.lines().any(|l| l.starts_with("codegen: ")),
        "check generates no code: {stderr}"
    );
    for key in ["timings.lower_ms", "timings.emit_ms", "timings.write_ms"] {
        assert_eq!(
            doc.get(key).and_then(Json::as_f64).unwrap_or(0.0),
            0.0,
            "{key}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_run_reports_stage_reuse() {
    let dir = workdir("warm");
    let cold = check_with_timings(&dir, &[]);
    assert!(
        stage_line(&cold, "cache: ").contains("elaborate 0/1"),
        "cold run should recompute elaboration: {cold}"
    );
    let warm = check_with_timings(&dir, &[]);
    let cache = stage_line(&warm, "cache: ");
    assert!(
        cache.contains("elaborate 1/0") && cache.contains("sugar 1/0") && cache.contains("drc 1/0"),
        "warm run should reuse the later stages: {cache}"
    );
    assert!(
        cache.contains("parse 2 reused / 0 recomputed"),
        "warm run should reuse both parses (stdlib + design): {cache}"
    );
    // The warm run replays the type-store counts persisted with the
    // elaboration artifact instead of reporting zeros.
    let types = stage_line(&warm, "types: ");
    assert!(
        !types.starts_with("types: 0 distinct"),
        "cache-served compile must restore type-store stats: {types}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_mode_recompiles_on_edit_and_reports_reuse() {
    let dir = workdir("watch");
    let design = dir.join("w.td");
    std::fs::write(&design, DESIGN).expect("write design");
    // Spawn the watcher limited to two compiles, append a comment
    // after it starts, and collect its output.
    let child = tydic()
        .arg("check")
        .arg(&design)
        .arg("--watch")
        .arg("--watch-runs")
        .arg("2")
        .arg("--poll-ms")
        .arg("25")
        .arg("--timings")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tydic --watch");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let mut text = std::fs::read_to_string(&design).unwrap();
    text.push_str("\n// watch edit\n");
    std::fs::write(&design, text).expect("touch design");
    let out = child.wait_with_output().expect("watcher exits");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("change detected, recompiling..."),
        "watcher must react to the edit:\n{stderr}"
    );
    // The recompile after a comment-only edit reuses elaboration.
    let last_cache = stderr
        .lines()
        .rfind(|l| l.starts_with("cache: "))
        .expect("cache lines");
    assert!(
        last_cache.contains("elaborate 1/0"),
        "comment edit must reuse elaboration: {last_cache}"
    );
    assert_eq!(
        stderr.matches("ok: ").count(),
        2,
        "exactly two compiles:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--daemon` prints the same report: the daemon renders it from the
/// job's own scoped metrics, so the cache and type-store lines match an
/// in-process run over an equally warm cache. (`--timings-json` and
/// `--trace` through the daemon are pinned in `tests/serve_protocol.rs`.)
#[test]
#[cfg(unix)]
fn daemon_run_prints_the_same_report() {
    let dir = workdir("daemon");
    let design = dir.join("t.td");
    std::fs::write(&design, DESIGN).expect("write design");
    let daemon_cache = dir.join("daemon-cache");
    // The idle timeout retires the daemon even if an assertion below
    // fails before the kill.
    let mut daemon = tydic()
        .arg("serve")
        .arg("--cache-dir")
        .arg(&daemon_cache)
        .args(["--idle-timeout", "30000"])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let run = |cache_args: &[&std::ffi::OsStr]| {
        let out = tydic()
            .arg("check")
            .arg(&design)
            .arg("--timings")
            .args(cache_args)
            .env("TYDIC_NO_SPAWN", "1")
            .output()
            .expect("run tydic");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let local_cache = dir.join("local-cache");
    let local_args = ["--cache-dir".as_ref(), local_cache.as_os_str()];
    let daemon_args = [
        "--daemon".as_ref(),
        "--cache-dir".as_ref(),
        daemon_cache.as_os_str(),
    ];
    for _ in 0..500 {
        if daemon_cache.join("serve.sock").exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Cold, then warm from each side's cache.
    for _ in 0..2 {
        let local = run(&local_args);
        let remote = run(&daemon_args);
        assert!(!remote.contains("daemon unavailable"), "{remote}");
        for prefix in ["stages: ", "totals: "] {
            stage_line(&remote, prefix);
        }
        for prefix in ["cache: ", "types: "] {
            assert_eq!(stage_line(&local, prefix), stage_line(&remote, prefix));
        }
    }
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
