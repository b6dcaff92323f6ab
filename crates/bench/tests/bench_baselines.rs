//! The committed `BENCH_*.json` baselines are what CI's `bench_guard`
//! steps compare fresh runs against: every one must parse, and the
//! guard itself must read each metric CI guards.

use std::process::Command;
use tydi_bench::repo_root;
use tydi_obs::json::{self, Json};

#[test]
fn committed_baselines_parse_and_bench_guard_reads_their_guarded_metrics() {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let file = entry.unwrap().file_name().to_string_lossy().into_owned();
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(repo_root().join(&file)).unwrap();
        let report = json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(report.get("bench").and_then(Json::as_str), Some(name));
        names.push(name.to_string());
    }
    // `(baseline, metric)` for every `bench_guard` step in CI.
    let guarded = [
        ("sim_parallelize", "batch_speedup"),
        ("elab_scaling", "repeat_refs_per_ms"),
        ("analyze", "analyze_speedup_16ch"),
        ("serve", "warm_speedup"),
        ("obs_overhead", "overhead_ratio"),
    ];
    for (name, metric) in guarded {
        assert!(names.iter().any(|n| n == name), "no BENCH_{name}.json");
        let baseline = repo_root().join(format!("BENCH_{name}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_bench_guard"))
            .args([&baseline, &baseline])
            .args(["--metric", metric])
            .output()
            .expect("run bench_guard");
        assert!(
            out.status.success(),
            "bench_guard on BENCH_{name}.json `{metric}`: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
