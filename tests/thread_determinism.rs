//! Thread-count determinism of the whole pipeline, end to end.
//!
//! The compiler runs on one thread; `TYDI_THREADS` only sizes the
//! batch simulator's worker pool. Everything the compiler emits — IR
//! text, VHDL, SystemVerilog, diagnostics, cached artifacts — must
//! therefore be byte-identical under `TYDI_THREADS=1` and eight. These
//! tests drive the real `tydic` binary over a 17-package import DAG,
//! so a thread-count dependence anywhere in the pipeline fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory per test: tests run on parallel threads
/// of one process, so a shared directory would race.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-threads-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

/// Writes the synthetic package DAG to `dir`, returning the file
/// paths in a stable order.
fn write_dag(dir: &Path) -> Vec<PathBuf> {
    tydi_bench::package_dag_sources(10)
        .into_iter()
        .map(|(name, text)| {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write design");
            path
        })
        .collect()
}

/// Runs `tydic compile --emit <format>` over `files` with the given
/// `TYDI_THREADS` and returns the raw stdout bytes.
fn compile_stdout(files: &[PathBuf], emit: &str, threads: &str) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tydic"));
    cmd.arg("compile")
        .args(files)
        .arg("--emit")
        .arg(emit)
        .arg("--no-cache")
        .env("TYDI_THREADS", threads);
    let out = cmd.output().expect("run tydic");
    assert!(
        out.status.success(),
        "tydic --emit {emit} (TYDI_THREADS={threads}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "--emit {emit} produced no output");
    out.stdout
}

#[test]
fn emitted_artifacts_are_byte_identical_across_thread_counts() {
    let dir = workdir("artifacts");
    let files = write_dag(&dir);
    for emit in ["ir", "vhdl", "verilog"] {
        let sequential = compile_stdout(&files, emit, "1");
        for threads in ["2", "8"] {
            let parallel = compile_stdout(&files, emit, threads);
            assert!(
                sequential == parallel,
                "--emit {emit} differs between TYDI_THREADS=1 and {threads} \
                 ({} vs {} bytes)",
                sequential.len(),
                parallel.len()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diagnostics_are_stable_across_thread_counts() {
    let dir = workdir("diagnostics");
    let mut files = write_dag(&dir);
    // A design with a deliberate DRC error: the dangling port must be
    // reported identically (same text, same order) on every thread
    // count, even though the erroring package elaborates concurrently
    // with nine siblings.
    let broken = dir.join("zz_broken.td");
    std::fs::write(
        &broken,
        "package zz_broken;\nuse base;\nimpl broken_i of pass_s<8> { i => o, instance a(pass_i<8>), }\n",
    )
    .expect("write broken design");
    files.push(broken);
    let stderr_of = |threads: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tydic"));
        cmd.arg("check")
            .args(&files)
            .arg("--no-cache")
            .env("TYDI_THREADS", threads);
        let out = cmd.output().expect("run tydic");
        assert!(
            !out.status.success(),
            "the broken design must fail the DRC (TYDI_THREADS={threads})"
        );
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let sequential = stderr_of("1");
    let parallel = stderr_of("8");
    assert_eq!(
        sequential, parallel,
        "diagnostics differ between TYDI_THREADS=1 and 8"
    );
    assert!(
        sequential.contains("broken_i"),
        "the report should name the broken implementation:\n{sequential}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_cache_replays_identically_after_parallel_populate() {
    // Populate the on-disk cache with an 8-thread compile, then
    // replay it on one thread: the binary `.tirb` artifact must
    // restore the exact project the 8-thread compile produced.
    let dir = workdir("replay");
    let files = write_dag(&dir);
    let cache_dir = dir.join("cache");
    let run = |threads: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tydic"));
        cmd.arg("compile")
            .args(&files)
            .arg("--emit")
            .arg("ir")
            .arg("--cache-dir")
            .arg(&cache_dir)
            .env("TYDI_THREADS", threads);
        let out = cmd.output().expect("run tydic");
        assert!(
            out.status.success(),
            "tydic failed (TYDI_THREADS={threads}):\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let cold_parallel = run("8");
    let warm_sequential = run("1");
    assert!(
        cold_parallel == warm_sequential,
        "cache replay drifted from the parallel compile that populated it"
    );
    let wrote_binary = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .any(|e| {
            e.expect("entry")
                .file_name()
                .to_string_lossy()
                .ends_with(".tirb")
        });
    assert!(
        wrote_binary,
        "the cache should persist binary .tirb artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
