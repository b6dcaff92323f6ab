//! Allocation budget of a cold build.
//!
//! This test binary installs a counting global allocator and runs
//! in-process `build --emit vhdl -o <dir>` jobs through
//! `tydi_serve::execute::run_job`, each with a fresh artifact cache,
//! on generated designs shaped like the benchmark's `chain` and
//! `templates` families. It pins:
//!
//! * allocations per instance of a 4000-instance chain, so a layer
//!   that starts allocating per name or per signal again fails here,
//!   and separately those of parsing it, where each identifier costs
//!   an allocation only the first time it appears in the file;
//! * the 4000/1000 chain ratio, so allocation stays linear in size;
//! * live heap bytes across repeated jobs, so a daemon that runs the
//!   same job again and again frees everything each job allocated.
//!
//! The binary holds a single test, so no other test allocates while a
//! job is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use tydi_lang::parser::parse_package;
use tydi_lang::ArtifactCache;
use tydi_serve::execute::run_job;
use tydi_serve::protocol::{JobKind, JobRequest};

/// Counts fresh allocations (not reallocations) and live bytes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per instance of a cold `chain4000` build, with 25%
/// headroom over the measured 5.26 (11.3 before the parser interned
/// names, 36 before IR names were shared and nets lowered as bundles).
const CHAIN_ALLOCATIONS_PER_INSTANCE: f64 = 6.6;

/// `parse_package` allocations per instance of `chain4000`, with 25%
/// headroom over the measured 1.008: one interned name per instance
/// (the parser that allocated a `String` per identifier made 6.01).
const PARSE_ALLOCATIONS_PER_INSTANCE: f64 = 1.26;

/// Allocations per instantiation of a cold `tmpl400` build, with 25%
/// headroom over the measured 64.8 (80.4 before the parser interned
/// names and builtin lookups stopped allocating; 139 before that).
const TEMPLATE_ALLOCATIONS_PER_INSTANCE: f64 = 81.0;

/// Upper bound of the `chain4000` / `chain1000` allocation ratio.
const CHAIN_SCALING: f64 = 4.4;

/// What 10 repeated jobs may leave live on the heap beyond the first
/// (measured: 0 bytes): one page of slack for a process-wide table
/// that grows late.
const REPEAT_GROWTH_BYTES: i64 = 4096;

/// A chain of `n` passthrough instances between the top's ports (the
/// benchmark's `chain` family).
fn chain(n: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "package chain_417;");
    let _ = writeln!(s, "type W = Stream(Bit(32));");
    let _ = writeln!(s, "streamlet pass_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl pass_417_i of pass_s {{ i => o, }}");
    let _ = writeln!(s, "streamlet top_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl top_i of top_s {{");
    for k in 0..n {
        let _ = writeln!(s, "    instance p{k}(pass_417_i),");
    }
    let _ = writeln!(s, "    i => p0.i,");
    for k in 1..n {
        let _ = writeln!(s, "    p{}.o => p{k}.i,", k - 1);
    }
    let _ = writeln!(s, "    p{}.o => o,", n - 1);
    let _ = writeln!(s, "}}");
    s
}

/// `n` instances of distinct `const_vec_i` instantiations (the
/// benchmark's `templates` family).
fn templates(n: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "package tmpl_417;");
    let _ = writeln!(s, "use std;");
    let _ = writeln!(s, "type W = Stream(Bit(32));");
    let _ = writeln!(s, "streamlet top_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl top_i of top_s {{");
    let _ = writeln!(s, "    i => o,");
    for k in 0..n {
        let _ = writeln!(
            s,
            "    instance c{k}(const_vec_i<type W, {}, {}>),",
            2000 + k,
            2 + k % 8
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Writes `text` as `<name>.td` under `dir` and returns the request
/// that builds it into `<dir>/<name>`.
fn build_request(dir: &Path, name: &str, text: &str) -> JobRequest {
    let design = dir.join(format!("{name}.td"));
    std::fs::write(&design, text).expect("write design");
    let mut request = JobRequest::new(JobKind::Build);
    request.files = vec![design.display().to_string()];
    request.emit = "vhdl".to_string();
    request.out_dir = Some(dir.join(name).display().to_string());
    request
}

/// Runs one job with a fresh artifact cache and returns the
/// allocations it made, the cache's teardown included.
fn allocations(request: &JobRequest) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    let mut cache = ArtifactCache::new();
    let response = run_job(request, &mut cache, "");
    assert!(response.ok, "build failed: {}", response.stderr);
    drop((response, cache));
    ALLOCATIONS.load(Relaxed) - before
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

#[test]
fn cold_builds_stay_within_their_allocation_budget() {
    let dir = workdir();
    let small = build_request(&dir, "chain1000", &chain(1000));
    let large = build_request(&dir, "chain4000", &chain(4000));
    let tmpl = build_request(&dir, "tmpl400", &templates(400));
    // One build of each first: process-wide tables (metrics, the
    // builtin registry) reach their steady size before counting.
    for request in [&small, &large, &tmpl] {
        allocations(request);
    }

    let (chain1000, chain4000) = (allocations(&small), allocations(&large));
    let per_instance = chain4000 as f64 / 4000.0;
    assert!(
        per_instance <= CHAIN_ALLOCATIONS_PER_INSTANCE,
        "chain4000 made {chain4000} allocations, {per_instance:.1} per instance \
         (budget {CHAIN_ALLOCATIONS_PER_INSTANCE})"
    );
    let scaling = chain4000 as f64 / chain1000 as f64;
    assert!(
        scaling <= CHAIN_SCALING,
        "chain4000/chain1000 allocations {chain4000}/{chain1000} = {scaling:.2} \
         (bound {CHAIN_SCALING})"
    );
    let text = chain(4000);
    let before = ALLOCATIONS.load(Relaxed);
    let parsed = parse_package(0, &text);
    let parse = ALLOCATIONS.load(Relaxed) - before;
    assert!(
        parsed.0.is_some() && parsed.1.is_empty(),
        "chain4000 parses"
    );
    drop(parsed);
    let per_instance = parse as f64 / 4000.0;
    assert!(
        per_instance <= PARSE_ALLOCATIONS_PER_INSTANCE,
        "parsing chain4000 made {parse} allocations, {per_instance:.2} per instance \
         (budget {PARSE_ALLOCATIONS_PER_INSTANCE})"
    );

    let tmpl400 = allocations(&tmpl);
    let per_template = tmpl400 as f64 / 400.0;
    assert!(
        per_template <= TEMPLATE_ALLOCATIONS_PER_INSTANCE,
        "tmpl400 made {tmpl400} allocations, {per_template:.1} per instance \
         (budget {TEMPLATE_ALLOCATIONS_PER_INSTANCE})"
    );

    // Repeated jobs, as a daemon runs them: live bytes stay flat.
    allocations(&small);
    let baseline = LIVE_BYTES.load(Relaxed);
    for _ in 0..10 {
        allocations(&small);
    }
    let growth = LIVE_BYTES.load(Relaxed) - baseline;
    assert!(
        growth <= REPEAT_GROWTH_BYTES,
        "10 repeated jobs left {growth} more live heap bytes (bound {REPEAT_GROWTH_BYTES})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
