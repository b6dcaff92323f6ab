//! Differential validation of the static analyzer (`tydi-analyze`)
//! against the event-driven simulator, over every cookbook design.
//!
//! The analyzer promises *sound upper bounds*: for every output port
//! the predicted elements-per-cycle must dominate whatever the
//! simulator actually measures, and when every service model is exact
//! the bound must also be *tight* (the simulator reaches at least half
//! of it on a free-running stimulus). Deadlocks found dynamically must
//! be covered statically: the blocked channels the simulator names
//! must fall inside the analyzer's stall cones, and the report must
//! carry at least one warning-or-worse hazard.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use tydi::analyze::{analyze, AnalyzeOptions, Confidence, Severity};
use tydi::lang::{compile, CompileOptions};
use tydi::sim::{BehaviorRegistry, Packet, Simulator, StopReason};
use tydi::stdlib::{stdlib_source, STDLIB_FILE_NAME};

const FEED_PACKETS: u64 = 128;
const MAX_CYCLES: u64 = 200_000;
/// Slack for measured-vs-predicted comparisons (start-up transients,
/// drain cycles, fixpoint epsilon).
const DOMINANCE_SLACK: f64 = 0.02;

fn cookbook_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cookbook")
}

fn cookbook_files() -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(cookbook_dir())
        .expect("cookbook directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .to_string()
        })
        .filter(|n| n.ends_with(".td"))
        .collect();
    files.sort();
    files
}

fn compile_cookbook(file: &str) -> tydi::lang::CompileOutput {
    let path = cookbook_dir().join(file);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let sources = [
        (STDLIB_FILE_NAME.to_string(), stdlib_source().to_string()),
        (file.to_string(), text),
    ];
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    compile(&refs, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("cookbook {file} failed to compile:\n{e}"))
}

/// Every simulatable `(file, top)` pair in the cookbook, with its
/// compiled project. Non-simulatable candidates (abstract tops,
/// behaviour-less externals) are analyzed but skipped for the sim leg.
fn run_pair<F>(mut check: F) -> (usize, usize)
where
    F: FnMut(&str, &str, &tydi::analyze::AnalysisReport, &mut Simulator, &tydi::sim::RunResult),
{
    let registry = BehaviorRegistry::with_std();
    let mut analyzed = 0usize;
    let mut simulated = 0usize;
    for file in cookbook_files() {
        let output = compile_cookbook(&file);
        for top in output.project.top_level_candidates() {
            // Behaviour-less externals cannot be flattened — neither
            // the simulator nor the analyzer can say anything about
            // them, so they are out of scope for the differential.
            let Ok(report) = analyze(
                &output.project,
                &output.index,
                top,
                &AnalyzeOptions::default(),
            ) else {
                continue;
            };
            analyzed += 1;
            let Ok(mut sim) = Simulator::new(&output.project, top, &registry) else {
                continue;
            };
            for port in sim.input_ports() {
                sim.feed(&port, (0..FEED_PACKETS).map(|i| Packet::data(i as i64)))
                    .unwrap_or_else(|e| panic!("{file}: feed `{top}.{port}`: {e}"));
            }
            let result = sim.run(MAX_CYCLES);
            simulated += 1;
            check(&file, top, &report, &mut sim, &result);
        }
    }
    (analyzed, simulated)
}

/// Soundness: the static bound dominates the measured throughput of
/// every output port, on every cookbook design. Tightness: when the
/// analyzer claims exact confidence and the run completed, the
/// simulator gets within 2x of the bound.
#[test]
fn predicted_bounds_dominate_measured_throughput() {
    let mut dominated = 0usize;
    let mut tightness_checked = 0usize;
    let (analyzed, simulated) = run_pair(|file, top, report, sim, result| {
        if matches!(result.reason, StopReason::Deadlocked { .. }) {
            return; // covered by `sim_deadlocks_are_flagged_statically`
        }
        let window = sim.active_cycles().max(1) as f64;
        for port in sim.output_ports() {
            let delivered = sim.outputs(&port).expect("output port").len() as f64;
            if delivered == 0.0 {
                continue;
            }
            let measured = delivered / window;
            let bound = report
                .output(&port)
                .unwrap_or_else(|| panic!("{file}: `{top}` has no bound for output `{port}`"));
            let predicted = bound.elements_per_cycle;
            assert!(
                measured <= predicted + DOMINANCE_SLACK,
                "{file}: `{top}.{port}` measured {measured:.4} elements/cycle \
                 exceeds the static bound {predicted:.4}"
            );
            dominated += 1;
            if report.confidence == Confidence::Exact && result.finished && delivered >= 16.0 {
                assert!(
                    measured >= predicted * 0.5,
                    "{file}: `{top}.{port}` bound {predicted:.4} is not tight: \
                     simulator only reached {measured:.4} elements/cycle"
                );
                tightness_checked += 1;
            }
        }
    });
    assert!(analyzed >= 10, "only {analyzed} (file, top) pairs analyzed");
    assert!(simulated >= 8, "only {simulated} pairs simulated");
    assert!(dominated >= 8, "only {dominated} output bounds compared");
    assert!(
        tightness_checked >= 3,
        "only {tightness_checked} exact bounds tightness-checked"
    );
}

/// Completeness: every deadlock the simulator observes must be visible
/// statically — a warning-or-worse hazard in the report, and every
/// blocked channel inside some stall cone.
#[test]
fn sim_deadlocks_are_flagged_statically() {
    let mut deadlocks = 0usize;
    run_pair(|file, top, report, _sim, result| {
        let StopReason::Deadlocked {
            blocked_channels, ..
        } = &result.reason
        else {
            return;
        };
        deadlocks += 1;
        assert!(
            report.hazards_at_least(Severity::Warning).count() > 0,
            "{file}: `{top}` deadlocked in simulation but the analyzer \
             reported no hazards at warning or above"
        );
        let cones: BTreeSet<&str> = report
            .stall_cones
            .iter()
            .flat_map(|c| c.channels.iter().map(String::as_str))
            .collect();
        for channel in blocked_channels {
            assert!(
                cones.contains(channel.as_str()),
                "{file}: `{top}` blocked channel `{channel}` is outside \
                 every static stall cone"
            );
        }
    });
    // cookbook/13_analyze.td guarantees at least one real deadlock.
    assert!(
        deadlocks >= 1,
        "no cookbook design deadlocked; the suite lost its completeness witness"
    );
}

/// Name parity: the analyzer reports exactly the channels the
/// simulator instruments, under exactly the same names (both reuse
/// `tydi_sim::graph::flatten`). Without this, the stall-cone subset
/// check above would be vacuous.
#[test]
fn channel_names_agree_between_analyzer_and_simulator() {
    let (analyzed, simulated) = run_pair(|file, top, report, sim, _result| {
        let static_names: BTreeSet<&str> =
            report.channels.iter().map(|c| c.name.as_str()).collect();
        let sim_stats = sim.channel_stats();
        let dynamic_names: BTreeSet<&str> = sim_stats.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            static_names, dynamic_names,
            "{file}: `{top}` channel names diverge between analyzer and simulator"
        );
        for ch in &report.channels {
            let stat = sim_stats.iter().find(|s| s.name == ch.name).unwrap();
            assert_eq!(
                ch.capacity, stat.capacity,
                "{file}: `{top}` channel `{}` capacity diverges",
                ch.name
            );
        }
    });
    assert!(analyzed >= 10 && simulated >= 8);
}

/// The CLI JSON report is byte-identical whatever `TYDI_THREADS` says:
/// the analysis and the compiler are sequential, so the worker count
/// must not perturb channel ordering or rate values.
#[test]
fn analyze_json_is_stable_across_thread_counts() {
    for file in cookbook_files() {
        // Skip files whose default top cannot be flattened (see
        // `run_pair`) — the CLI exits non-zero on those.
        let output = compile_cookbook(&file);
        let Some(top) = output.project.top_level_candidates().first().cloned() else {
            continue;
        };
        if analyze(
            &output.project,
            &output.index,
            top,
            &AnalyzeOptions::default(),
        )
        .is_err()
        {
            continue;
        }
        let path = cookbook_dir().join(&file);
        let mut legs = Vec::new();
        for threads in ["1", "8"] {
            let out = Command::new(env!("CARGO_BIN_EXE_tydic"))
                .arg("analyze")
                .arg(&path)
                .args(["--format", "json", "--no-cache"])
                .env("TYDI_THREADS", threads)
                .output()
                .expect("run tydic analyze");
            assert!(
                out.status.success(),
                "tydic analyze {file} (TYDI_THREADS={threads}) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            legs.push(out.stdout);
        }
        assert_eq!(
            legs[0], legs[1],
            "{file}: analyze JSON differs between TYDI_THREADS=1 and 8"
        );
        let text = String::from_utf8(legs[0].clone()).expect("utf-8 json");
        let report = tydi_obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("{file}: analyze JSON does not parse: {e}"));
        let outputs = report.get("outputs").and_then(|o| o.as_array());
        assert!(
            outputs.is_some_and(|o| !o.is_empty()),
            "{file}: JSON report has no outputs"
        );
    }
}
