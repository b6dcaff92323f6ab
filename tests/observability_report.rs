//! The `--timings` report and `--timings-json` must tell one story.
//!
//! The `types:` line and the sim channel table used to format their
//! own private structs (`TypeStoreStats`, `ChannelStats`); they now
//! read the metrics registry, and these
//! tests pin two things across that migration:
//!
//! * **format**: this file re-renders the report from the
//!   `--timings-json` snapshot through the *pre-migration* format
//!   templates, then requires the rebuilt text byte-for-byte in
//!   stderr — a drifted template or a renamed metric fails here;
//! * **coverage**: every namespace the report draws from
//!   (`timings.`, `cache.`, `types.`, `sim.`) is present in
//!   the JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use tydi_obs::json::{parse, Json};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-obs-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn tydic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tydic"))
}

fn cookbook(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("cookbook")
        .join(name)
}

/// Runs the binary, asserting success; returns (stderr, parsed
/// `--timings-json` document).
fn run_with_snapshot(mut cmd: Command, json_path: &Path) -> (String, Json) {
    cmd.arg("--timings").arg("--timings-json").arg(json_path);
    let out = cmd.output().expect("run tydic");
    assert!(
        out.status.success(),
        "tydic failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let text = std::fs::read_to_string(json_path).expect("read timings json");
    let doc = parse(&text).unwrap_or_else(|e| panic!("timings json invalid: {e}"));
    (stderr, doc)
}

fn counter(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing counter `{key}`")) as u64
}

fn gauge(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing gauge `{key}`"))
}

#[test]
fn compile_report_lines_render_from_the_snapshot() {
    let dir = workdir("check");
    let design = dir.join("t.td");
    std::fs::write(
        &design,
        "package timing;\ntype B = Stream(Bit(8));\n\
         streamlet s { i : B in, o : B out, }\nimpl x of s { i => o, }\n",
    )
    .expect("write design");
    let json_path = dir.join("m.json");
    let mut cmd = tydic();
    cmd.arg("check")
        .arg(&design)
        .arg("--no-cache")
        .arg("--cache-dir")
        .arg(dir.join("cache"));
    let (stderr, doc) = run_with_snapshot(cmd, &json_path);

    // Rebuild the `types:` line through the pre-migration template
    // (less the expansion-memo clause, which went with the memo).
    let expected_types = format!(
        "types: {} distinct node(s) interned, {} dedup hit(s) ({:.0}% hit rate)",
        counter(&doc, "types.distinct"),
        counter(&doc, "types.intern_hits"),
        gauge(&doc, "types.intern_hit_rate_pct"),
    );
    assert!(
        stderr.lines().any(|l| l == expected_types),
        "stderr must carry the registry-rendered line\n  {expected_types}\nin:\n{stderr}"
    );

    // Every compile-side namespace lands in the JSON file.
    for key in [
        "timings.parse_ms",
        "timings.elaborate_ms",
        "timings.sugar_ms",
        "timings.drc_ms",
        "timings.total_self_ms",
        "timings.wall_ms",
        "cache.stage.parse.recomputed",
        "cache.stage.drc.reused",
    ] {
        assert!(
            doc.get(key).and_then(Json::as_f64).is_some(),
            "snapshot lacks `{key}`"
        );
    }
    assert!(gauge(&doc, "timings.wall_ms") > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One channel row, read back from the snapshot like the binary does.
struct Row {
    name: String,
    transferred: u64,
    max_occupancy: u64,
    capacity: u64,
    refused: u64,
}

impl Row {
    fn saturated(&self) -> bool {
        self.max_occupancy >= self.capacity
    }
}

#[test]
fn sim_channel_table_renders_from_the_snapshot() {
    let dir = workdir("sim");
    let json_path = dir.join("m.json");
    let mut cmd = tydic();
    cmd.arg("sim")
        .arg(cookbook("09_parallelize.td"))
        .arg("--top")
        .arg("one_per_cycle_i")
        .arg("--no-cache")
        .arg("--cache-dir")
        .arg(dir.join("cache"));
    let (stderr, doc) = run_with_snapshot(cmd, &json_path);

    // Group the `sim.channel.<scenario>.<name>.<field>` keys back into
    // per-scenario channel rows. Scenario names carry no dots; channel
    // names may, so only the first segment splits.
    let mut scenarios: BTreeMap<String, BTreeMap<String, Row>> = BTreeMap::new();
    for (key, value) in doc.as_object().expect("flat snapshot object") {
        let Some(rest) = key.strip_prefix("sim.channel.") else {
            continue;
        };
        let (scenario, rest) = rest.split_once('.').expect("scenario segment");
        let (name, field) = rest.rsplit_once('.').expect("field suffix");
        let row = scenarios
            .entry(scenario.to_string())
            .or_default()
            .entry(name.to_string())
            .or_insert_with(|| Row {
                name: name.to_string(),
                transferred: 0,
                max_occupancy: 0,
                capacity: 0,
                refused: 0,
            });
        let value = value.as_f64().expect("numeric channel counter") as u64;
        match field {
            "transferred" => row.transferred = value,
            "max_occupancy" => row.max_occupancy = value,
            "capacity" => row.capacity = value,
            "refused" => row.refused = value,
            other => panic!("unexpected channel field `{other}`"),
        }
    }
    assert_eq!(
        scenarios.len() as u64,
        counter(&doc, "sim.scenarios"),
        "every scenario publishes channel counters"
    );
    assert!(
        gauge(&doc, "sim.elapsed_ms") >= 0.0,
        "sim wall time missing from snapshot"
    );

    // Re-render each scenario's table through the pre-migration
    // templates and require it verbatim (as a contiguous block) in
    // stderr.
    for (scenario, rows) in &scenarios {
        let mut stats: Vec<&Row> = rows
            .values()
            .filter(|c| c.transferred > 0 || c.refused > 0)
            .collect();
        stats.sort_by(|a, b| {
            (b.refused, b.max_occupancy, &a.name).cmp(&(a.refused, a.max_occupancy, &b.name))
        });
        let mut block = String::new();
        writeln!(
            block,
            "channels [{}]: {} active of {} ({} saturated)",
            scenario,
            stats.len(),
            rows.len(),
            rows.values().filter(|c| c.saturated()).count(),
        )
        .unwrap();
        block.push_str("  xfer   max/cap  refused  name\n");
        for c in stats.iter().take(12) {
            writeln!(
                block,
                "  {:<6} {:>3}/{:<4} {:>7}  {}{}",
                c.transferred,
                c.max_occupancy,
                c.capacity,
                c.refused,
                c.name,
                if c.saturated() { "  [saturated]" } else { "" },
            )
            .unwrap();
        }
        if stats.len() > 12 {
            writeln!(block, "  ... {} more", stats.len() - 12).unwrap();
        }
        assert!(
            stderr.contains(&block),
            "stderr must carry the registry-rendered channel table for \
             `{scenario}`:\n{block}\nin:\n{stderr}"
        );
        assert!(!stats.is_empty(), "the parallelize sim moves data");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_deny_renders_hazards_as_source_diagnostics() {
    let dir = workdir("deny");
    let out = tydic()
        .arg("analyze")
        .arg(cookbook("13_analyze.td"))
        .arg("--deny")
        .arg("warning")
        .arg("--no-cache")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .output()
        .expect("run tydic analyze");
    assert!(
        !out.status.success(),
        "--deny warning must fail on the starved join"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The hazard renders through the compiler's diagnostic pipeline,
    // pointing at the declaring implementation in source — not just
    // naming a channel.
    let diag = stderr
        .lines()
        .find(|l| l.starts_with("error: credit-starvation:"))
        .unwrap_or_else(|| panic!("no rendered hazard diagnostic in:\n{stderr}"));
    assert!(
        diag.contains("[analyze] at ") && diag.contains(".td:"),
        "hazard must carry a source location: {diag}"
    );
    assert!(
        stderr
            .lines()
            .any(|l| l.trim_start().starts_with("| ^") || (l.contains('|') && l.contains('^'))),
        "hazard must render the source line with a caret:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
