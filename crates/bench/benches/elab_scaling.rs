//! Elaboration scaling of the hash-consed type store.
//!
//! The fixture is the worst case the `TypeStore` was built for: a
//! **deep** nested `Group`/`Union` tree (~2^(depth+1) nodes behind one
//! alias) flowing through a **wide** template sweep — `refs` template
//! references spread over `distinct` distinct argument lists. The
//! elaborator pays O(tree) once per *distinct type* and O(1) per
//! reference.
//!
//! The bench **asserts** (so bench-smoke CI fails on regression, not
//! just prints slower numbers):
//!
//! * template memoisation counts match the closed form
//!   (`hits = refs - distinct`) and every elaborated project
//!   validates;
//! * the per-reference cost of *repeated* instantiation stays flat as
//!   the reference count grows 8x.
//!
//! Results are written to `BENCH_elab_scaling.json` at the repo root.
//! Its headline, `repeat_refs_per_ms`, is the repeated-instantiation
//! throughput at the large size (higher is better); the committed
//! copy is what the CI perf-regression guard (`bench_guard`) compares
//! fresh runs against.

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tydi_bench::BenchReport;
use tydi_lang::ast::Package;
use tydi_lang::diagnostics::has_errors;
use tydi_lang::instantiate::{elaborate, ElabInfo};

/// Nesting depth of the type tree: the alias `T` wraps a
/// `Group`/`Union` chain of `2^(DEPTH+1) - 1` nodes in a stream.
const DEPTH: usize = 8;

/// `(refs, distinct)` sweep sizes.
const SIZES: &[(usize, usize)] = &[(64, 4), (256, 16), (1024, 64)];

/// A program with `refs` template references over `distinct` distinct
/// instantiations, each argument list carrying the deep type.
fn elab_scaling_source(depth: usize, refs: usize, distinct: usize) -> String {
    let mut s = String::from("package scale;\n\ntype L0 = Bit(8);\n");
    for level in 1..=depth {
        // Alternate product and sum nodes; each level doubles the tree.
        let prev = level - 1;
        if level % 2 == 0 {
            let _ = writeln!(s, "Union L{level} {{ u: L{prev}, v: L{prev}, }}");
        } else {
            let _ = writeln!(s, "Group L{level} {{ a: L{prev}, b: L{prev}, }}");
        }
    }
    let _ = writeln!(s, "type T = Stream(L{depth});\n");
    s.push_str("streamlet pass_s<T: type, k: int> { i : T in, o : T out, }\n");
    s.push_str("impl pass_i<T: type, k: int> of pass_s<type T, k> external;\n\n");
    let _ = writeln!(
        s,
        "streamlet top_s {{ i : T in [{refs}], o : T out [{refs}], }}"
    );
    s.push_str("impl top_i of top_s {\n");
    let _ = writeln!(s, "    for r in (0..{refs}) {{");
    let _ = writeln!(s, "        instance u(pass_i<type T, r % {distinct}>),");
    s.push_str("        i[r] => u.i,\n        u.o => o[r],\n    }\n}\n");
    s
}

fn parse_scaling(refs: usize, distinct: usize) -> Vec<Package> {
    let source = elab_scaling_source(DEPTH, refs, distinct);
    let (package, diags) = tydi_lang::parser::parse_package(0, &source);
    assert!(!has_errors(&diags), "parse errors: {diags:?}");
    vec![package.expect("package")]
}

/// Best-of-N wall time of one elaboration; package clones are
/// prepared outside the timed region.
fn time_elab<R>(
    packages: &[Package],
    iters: usize,
    mut run: impl FnMut(Vec<Package>) -> R,
) -> Duration {
    let mut pool: Vec<Vec<Package>> = (0..iters).map(|_| packages.to_vec()).collect();
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let input = pool.pop().expect("pool sized to iters");
        let t0 = Instant::now();
        black_box(run(input));
        best = best.min(t0.elapsed());
    }
    best
}

fn run_elab(packages: Vec<Package>) -> (tydi_ir::Project, ElabInfo) {
    let (project, info, diags) = elaborate(packages, "bench");
    assert!(!has_errors(&diags), "elaboration errors: {diags:?}");
    (project, info)
}

fn bench(c: &mut Criterion) {
    let mut report = BenchReport::new("elab_scaling")
        .text("units", "ms (best-of-N wall time, elaborate stage only)")
        .metric("depth", DEPTH as f64);

    println!("\n===== elaboration scaling: hash-consed type store =====");
    println!("{:>6} {:>9} {:>14}", "refs", "distinct", "elab(ms)");
    for &(refs, distinct) in SIZES {
        let packages = parse_scaling(refs, distinct);

        // Closed form: one miss per distinct list (impl + streamlet),
        // one hit for every repeated reference, plus `top_i` hitting
        // the already-elaborated concrete `top_s`.
        let (project, info) = run_elab(packages.clone());
        assert_eq!(info.template_instantiations, 2 * distinct);
        assert_eq!(info.template_cache_hits, refs - distinct + 1);
        assert_eq!(project.validate(), Ok(()));

        let iters = if refs >= 1024 { 3 } else { 5 };
        let elab = time_elab(&packages, iters, run_elab);
        println!("{refs:>6} {distinct:>9} {:>14.2}", elab.as_secs_f64() * 1e3);
        report = report.metric(format!("hashcons_ms_{refs}"), elab.as_secs_f64() * 1e3);
    }

    // Flat per-reference cost: all references hit ONE memoised
    // instantiation; growing the reference count 8x must not grow the
    // per-reference cost (generous 3x bound for wall-clock noise —
    // amortised instantiation cost makes the small size *more*
    // expensive per reference, not less).
    let small_refs = 128;
    let large_refs = 1024;
    let small = time_elab(&parse_scaling(small_refs, 1), 5, run_elab);
    let large = time_elab(&parse_scaling(large_refs, 1), 3, run_elab);
    let per_ref_small = small.as_secs_f64() / small_refs as f64;
    let per_ref_large = large.as_secs_f64() / large_refs as f64;
    println!(
        "repeated instantiation: {:.2}us/ref at {small_refs} refs, {:.2}us/ref at {large_refs} refs",
        per_ref_small * 1e6,
        per_ref_large * 1e6
    );
    report = report
        .metric("repeat_per_ref_us_small", per_ref_small * 1e6)
        .metric("repeat_per_ref_us_large", per_ref_large * 1e6)
        .metric("repeat_refs_per_ms", 1e-3 / per_ref_large);
    println!("=========================================================\n");

    assert!(
        per_ref_large <= per_ref_small * 3.0,
        "per-reference cost must stay flat for repeated instantiations \
         ({:.2}us -> {:.2}us per ref)",
        per_ref_small * 1e6,
        per_ref_large * 1e6
    );

    report.write().expect("write BENCH_elab_scaling.json");

    let mut group = c.benchmark_group("elab_scaling");
    group.sample_size(10);
    for &(refs, distinct) in &[(64usize, 4usize), (1024, 64)] {
        let packages = parse_scaling(refs, distinct);
        group.bench_function(format!("hashcons/{refs}"), |b| {
            b.iter(|| run_elab(black_box(packages.clone())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
