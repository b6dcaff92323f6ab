//! Schema tests on `tydic --trace` Chrome trace-event files, run
//! against the real binary.
//!
//! Pinned properties:
//!
//! * the file is one valid JSON document shaped like
//!   `{"traceEvents": [...]}` with `ph`/`cat`/`name`/`ts`/`pid`/`tid`
//!   on every event;
//! * `B`/`E` events nest with stack discipline per thread track;
//! * a compile records all four pipeline stages and spans from at
//!   least four crates, and a build checks each implementation's
//!   design rules once;
//! * the coarse span multiset is identical at `TYDI_THREADS=1` and
//!   `8` — only thread ids and timestamps may differ;
//! * emitted artifacts are byte-identical with tracing off, coarse,
//!   and fine;
//! * a cached build traces its persist layer (`cache:load` and
//!   `cache:save`, named with the number of artifacts decoded);
//! * every parsed file has a `fingerprint:<file>` span and a cache
//!   miss hands packages to elaboration under `materialize`; a build
//!   served from the parse cache has neither;
//! * a cold build indexes its project once (one `index` span), and a
//!   compile served from the elaboration cache reuses the artifact's
//!   index instead of building another.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use tydi_obs::json::{parse, Json};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-trace-{tag}-{}", std::process::id()));
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

/// Writes the 14-package import DAG the parallel-elaboration bench
/// generates (8 of the packages share no import edge, so they
/// elaborate concurrently) and returns the source paths.
fn write_dag(dir: &Path) -> Vec<PathBuf> {
    tydi_bench::package_dag_sources(8)
        .into_iter()
        .map(|(name, text)| {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write dag source");
            path
        })
        .collect()
}

/// One trace event, decoded from the Chrome document.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    ph: String,
    cat: String,
    name: String,
    tid: u64,
}

/// Loads a trace file, checking the document shape and the required
/// fields of every event.
fn load_events(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let doc = parse(&text).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level `traceEvents` array");
    assert!(!events.is_empty(), "trace must not be empty");
    events
        .iter()
        .map(|event| {
            let field = |key: &str| {
                event
                    .get(key)
                    .unwrap_or_else(|| panic!("event lacks `{key}`: {event:?}"))
            };
            assert!(field("ts").as_f64().is_some(), "ts must be numeric");
            assert_eq!(field("pid").as_f64(), Some(1.0), "single-process trace");
            Event {
                ph: field("ph").as_str().expect("ph string").to_string(),
                cat: field("cat").as_str().expect("cat string").to_string(),
                name: field("name").as_str().expect("name string").to_string(),
                tid: field("tid").as_f64().expect("tid numeric") as u64,
            }
        })
        .collect()
}

/// Every `B` must be closed by an `E` of the same name on the same
/// thread track, in LIFO order.
fn assert_balanced(events: &[Event]) {
    let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for event in events {
        match event.ph.as_str() {
            "B" => stacks.entry(event.tid).or_default().push(&event.name),
            "E" => {
                let open = stacks
                    .get_mut(&event.tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without B on tid {}: {event:?}", event.tid));
                assert_eq!(
                    open, event.name,
                    "mismatched span close on tid {}",
                    event.tid
                );
            }
            "i" => {}
            other => panic!("unexpected phase `{other}`: {event:?}"),
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
}

/// The thread-independent fingerprint of a trace: the sorted multiset
/// of (phase, category, name) triples.
fn span_multiset(events: &[Event]) -> Vec<(String, String, String)> {
    let mut set: Vec<_> = events
        .iter()
        .map(|e| (e.ph.clone(), e.cat.clone(), e.name.clone()))
        .collect();
    set.sort();
    set
}

/// Runs a traced `tydic build` of the package DAG at the given thread
/// count and returns the decoded events.
fn traced_dag_build(dir: &Path, threads: &str) -> Vec<Event> {
    let sources = write_dag(dir);
    let trace = dir.join(format!("trace-{threads}.json"));
    let out = tydic()
        .arg("build")
        .args(&sources)
        .arg("--no-cache")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("-o")
        .arg(dir.join(format!("out-{threads}")))
        .arg("--trace")
        .arg(&trace)
        .env("TYDI_THREADS", threads)
        .output()
        .expect("run tydic");
    assert!(
        out.status.success(),
        "tydic build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = load_events(&trace);
    assert_balanced(&events);
    events
}

#[test]
fn build_trace_covers_stages_and_crates_at_any_thread_count() {
    let dir = workdir("build");
    let single = traced_dag_build(&dir, "1");
    let parallel = traced_dag_build(&dir, "8");

    for events in [&single, &parallel] {
        let names: BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for stage in ["stage:parse", "stage:elaborate", "stage:sugar", "stage:drc"] {
            assert!(names.contains(stage), "missing `{stage}` in {names:?}");
        }
        let cats: BTreeSet<&str> = events.iter().map(|e| e.cat.as_str()).collect();
        assert!(
            cats.len() >= 4,
            "a build trace must span >= 4 crates: {cats:?}"
        );
        assert!(cats.contains("core"), "core spans missing: {cats:?}");
        assert!(
            names.iter().any(|n| n.starts_with("elab:")),
            "per-package elaboration spans missing"
        );
        assert!(
            names.iter().any(|n| n.starts_with("emit:")),
            "per-module emission spans missing"
        );
        // The compile runs the design-rule checks; emitting RTL must
        // not run them a second time.
        let mut drc: BTreeMap<&str, usize> = BTreeMap::new();
        for event in events.iter().filter(|e| e.ph == "B") {
            if event.name.starts_with("drc:") {
                *drc.entry(&event.name).or_default() += 1;
            }
        }
        assert!(
            !drc.is_empty() && drc.values().all(|&n| n == 1),
            "one drc span per implementation: {drc:?}"
        );
        // Sugar, DRC and lowering share the index built after
        // elaboration.
        let indexed = events
            .iter()
            .filter(|e| e.ph == "B" && e.name == "index")
            .count();
        assert_eq!(indexed, 1, "one index span per cold build");
    }

    // Coarse span content is deterministic: thread count may only move
    // spans between tracks, never add, drop, or rename them.
    assert_eq!(
        span_multiset(&single),
        span_multiset(&parallel),
        "coarse trace content must not depend on TYDI_THREADS"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_trace_records_scenario_lanes_and_fine_firings() {
    let dir = workdir("sim");
    let trace = dir.join("sim.json");
    let run = |fine: bool| {
        let mut cmd = tydic();
        cmd.arg("sim")
            .arg(cookbook("09_parallelize.td"))
            .arg("--top")
            .arg("one_per_cycle_i")
            .arg("--no-cache")
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--trace")
            .arg(&trace);
        if fine {
            cmd.arg("--trace-fine");
        }
        let out = cmd.output().expect("run tydic sim");
        assert!(
            out.status.success(),
            "tydic sim failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = load_events(&trace);
        assert_balanced(&events);
        events
    };

    let coarse = run(false);
    let names: BTreeSet<&str> = coarse.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("flatten:")),
        "hierarchy flattening span missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("sim:")),
        "per-scenario lanes missing: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("fire:")),
        "per-firing spans are fine-level and must stay out of coarse traces"
    );

    let fine = run(true);
    assert!(
        fine.iter().any(|e| e.name.starts_with("fire:")),
        "--trace-fine must record per-component firings"
    );
    assert!(
        fine.len() > coarse.len(),
        "fine traces must strictly extend coarse ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_trace_records_analysis_spans() {
    let dir = workdir("analyze");
    let trace = dir.join("analyze.json");
    let out = tydic()
        .arg("analyze")
        .arg(cookbook("13_analyze.td"))
        .arg("--no-cache")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("run tydic analyze");
    assert!(
        out.status.success(),
        "tydic analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = load_events(&trace);
    assert_balanced(&events);
    let cats: BTreeSet<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    assert!(
        cats.contains("tydi-analyze"),
        "analyzer spans missing: {cats:?}"
    );
    assert!(
        events.iter().any(|e| e.name.starts_with("analyze:")),
        "per-top analysis span missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a cache directory, the persist layer shows up in the trace:
/// `cache:load` and `cache:save` spans named with how many artifacts
/// each decoded. A save whose cache already holds every entry on disk
/// decodes none.
#[test]
fn cached_build_trace_shows_the_persist_layer() {
    let dir = workdir("persist");
    let cache = dir.join("cache");
    let traced_build = |design: &str, tag: &str| {
        let trace = dir.join(format!("{tag}.json"));
        let out = tydic()
            .arg("build")
            .arg(cookbook(design))
            .arg("--cache-dir")
            .arg(&cache)
            .arg("-o")
            .arg(dir.join(tag))
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run tydic build");
        assert!(
            out.status.success(),
            "tydic build failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = load_events(&trace);
        assert_balanced(&events);
        events
            .into_iter()
            .filter(|e| e.ph == "B" && e.name.starts_with("cache:"))
            .map(|e| e.name)
            .collect::<Vec<_>>()
    };
    // First build: nothing on disk to load, one entry to persist.
    assert_eq!(
        traced_build("01_variables.td", "first"),
        ["cache:save decoded=0"]
    );
    // Second build of another design: the load decodes the first
    // build's artifact, and the save, already holding it, decodes
    // nothing.
    assert_eq!(
        traced_build("04_generative.td", "second"),
        ["cache:load decoded=1", "cache:save decoded=0"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The AST fingerprint and the package hand-off to elaboration are
/// layers of their own: a cold build hashes every file it parsed under
/// a `fingerprint:<file>` span and hands the packages over under
/// `materialize`; a build whose files all hit the parse cache (and
/// whose elaboration hits too) has neither.
#[test]
fn fingerprint_spans_follow_parse_cache_misses() {
    let dir = workdir("fingerprint");
    let traced_check = |tag: &str| {
        let trace = dir.join(format!("{tag}.json"));
        let out = tydic()
            .arg("check")
            .arg(cookbook("04_generative.td"))
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run tydic check");
        assert!(
            out.status.success(),
            "tydic check failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = load_events(&trace);
        assert_balanced(&events);
        let opened = |prefix: &str| -> Vec<String> {
            let mut names: Vec<String> = events
                .iter()
                .filter(|e| e.ph == "B" && e.name.starts_with(prefix))
                .map(|e| e.name[prefix.len()..].to_string())
                .collect();
            names.sort();
            names
        };
        (
            opened("parse:"),
            opened("fingerprint:"),
            opened("materialize"),
        )
    };
    let (parsed, fingerprinted, materialized) = traced_check("cold");
    assert!(parsed.len() >= 2, "stdlib and design parse: {parsed:?}");
    assert_eq!(
        fingerprinted, parsed,
        "one fingerprint span per parsed file"
    );
    assert_eq!(materialized.len(), 1, "one package hand-off");
    let (parsed, fingerprinted, materialized) = traced_check("warm");
    assert!(
        parsed.is_empty(),
        "every file hits the parse cache: {parsed:?}"
    );
    assert!(fingerprinted.is_empty(), "{fingerprinted:?}");
    assert!(materialized.is_empty(), "{materialized:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The source-text fingerprint (the parse-cache key) is hashed for
/// every input file on every run, cold or warm, each under its own
/// `source-fingerprint:<file>` span.
#[test]
fn source_fingerprint_spans_cover_every_file() {
    let dir = workdir("source-fingerprint");
    for tag in ["cold", "warm"] {
        let trace = dir.join(format!("{tag}.json"));
        let out = tydic()
            .arg("check")
            .arg(cookbook("04_generative.td"))
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run tydic check");
        assert!(out.status.success(), "tydic check failed ({tag})");
        let events = load_events(&trace);
        assert_balanced(&events);
        let hashed: Vec<&str> = events
            .iter()
            .filter(|e| e.ph == "B")
            .filter_map(|e| e.name.strip_prefix("source-fingerprint:"))
            .collect();
        assert_eq!(hashed.len(), 2, "stdlib and design ({tag}): {hashed:?}");
        assert!(
            hashed.iter().any(|name| name.ends_with("04_generative.td")),
            "{tag}: {hashed:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_never_changes_emitted_artifacts() {
    let dir = workdir("artifacts");
    let sources = write_dag(&dir);
    let emit = |tag: &str, trace_args: &[&str]| -> BTreeMap<String, Vec<u8>> {
        let out_dir = dir.join(tag);
        let out = tydic()
            .arg("build")
            .args(&sources)
            .arg("--no-cache")
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("-o")
            .arg(&out_dir)
            .args(trace_args)
            .output()
            .expect("run tydic");
        assert!(
            out.status.success(),
            "tydic build failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(&out_dir).expect("read out dir") {
            let path = entry.expect("dir entry").path();
            files.insert(
                path.file_name().unwrap().to_string_lossy().to_string(),
                std::fs::read(&path).expect("read artifact"),
            );
        }
        assert!(!files.is_empty(), "build must emit files");
        files
    };

    let plain = emit("plain", &[]);
    let coarse_trace = dir.join("coarse.json");
    let coarse = emit("coarse", &["--trace", coarse_trace.to_str().unwrap()]);
    let fine_trace = dir.join("fine.json");
    let fine = emit(
        "fine",
        &["--trace", fine_trace.to_str().unwrap(), "--trace-fine"],
    );
    assert_eq!(plain, coarse, "coarse tracing changed emitted artifacts");
    assert_eq!(plain, fine, "fine tracing changed emitted artifacts");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An elaboration-cache hit hands out the index the missing compile
/// built: the second compile of the same sources opens no `index`
/// span. Runs in-process, as a warm daemon would.
#[test]
fn elaboration_cache_hits_reuse_the_index() {
    use tydi::lang::cache::ArtifactCache;
    use tydi::lang::pipeline::{compile_with_cache, CompileOptions};
    use tydi_obs::trace::{self, Level, Phase};

    let text = "package demo;\ntype B = Stream(Bit(8));\n\
                streamlet s { i : B in, o : B out, }\n\
                impl leaf of s { i => o, }\n\
                impl top of s { instance a(leaf), instance b(leaf), \
                i => a.i, a.o => b.i, b.o => o, }\n";
    let sources = [("demo.td", text)];
    let mut cache = ArtifactCache::new();
    trace::set_level(Level::Coarse);
    let mut indexed = || {
        let out =
            compile_with_cache(&sources, &CompileOptions::default(), &mut cache).expect("compiles");
        assert!(out.index.covers(&out.project));
        trace::take_events()
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == "index")
            .count()
    };
    let cold = indexed();
    let hit = indexed();
    trace::set_level(Level::Off);
    assert_eq!((cold, hit), (1, 0), "index spans on a miss, then a hit");
}
