//! Codegen throughput: Tydi-IR → netlist lowering and netlist →
//! text emission, VHDL vs SystemVerilog.
//!
//! The fixture is the template-scaling design (N distinct constant
//! sources), which produces one behavioral module per instantiation
//! plus the structural top. Besides timing, the bench asserts cross-backend
//! parity (same file count, structurally clean output from one shared
//! lowering), so a backend regression fails the bench-smoke CI job
//! rather than just printing slower numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tydi_bench::compile_scaling;
use tydi_rtl::check::check_verilog;
use tydi_rtl::{emitter_for, Backend};
use tydi_vhdl::check::check_vhdl;
use tydi_vhdl::{lower_project, BuiltinRegistry, VhdlOptions};

const MODULES: usize = 256;

fn registry() -> BuiltinRegistry {
    tydi_stdlib::full_registry()
}

fn assert_parity(project: &tydi_ir::Project, registry: &BuiltinRegistry) {
    let netlist = lower_project(project, registry, &VhdlOptions::default()).expect("lowering");
    let vhdl = emitter_for(Backend::Vhdl)
        .emit_netlist(&netlist)
        .expect("vhdl emission");
    let sv = emitter_for(Backend::SystemVerilog)
        .emit_netlist(&netlist)
        .expect("verilog emission");
    assert_eq!(vhdl.len(), sv.len(), "backends diverged on file count");
    assert_eq!(vhdl.len(), netlist.modules.len());
    for f in &vhdl {
        let issues = check_vhdl(&f.contents);
        assert!(issues.is_empty(), "{}: {issues:?}", f.name);
    }
    for f in &sv {
        let issues = check_verilog(&f.contents);
        assert!(issues.is_empty(), "{}: {issues:?}", f.name);
    }
}

fn print_throughput_summary(project: &tydi_ir::Project, registry: &BuiltinRegistry) {
    let netlist = lower_project(project, registry, &VhdlOptions::default()).expect("lowering");
    println!("\n====== codegen fixture ({MODULES} const sources) ======");
    println!("modules: {}", netlist.modules.len());
    for backend in Backend::ALL {
        let files = emitter_for(backend).emit_netlist(&netlist).expect("emit");
        let loc: usize = files
            .iter()
            .map(|f| tydi_vhdl::count_loc(&f.contents))
            .sum();
        println!("{backend}: {} file(s), {loc} LoC", files.len());
    }
    println!("=======================================================\n");
}

fn bench(c: &mut Criterion) {
    let compiled = compile_scaling(MODULES);
    let registry = registry();
    assert_parity(&compiled.project, &registry);
    print_throughput_summary(&compiled.project, &registry);
    let netlist =
        lower_project(&compiled.project, &registry, &VhdlOptions::default()).expect("lowering");

    // Machine-readable snapshot: lowering + per-backend emission wall
    // times (best-of-3) for the PR-over-PR perf trajectory.
    let best_of = |n: usize, f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t0 = std::time::Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best * 1e3
    };
    let mut report = tydi_bench::BenchReport::new("codegen")
        .text("units", "ms (best-of-3)")
        .metric("modules", netlist.modules.len() as f64);
    report.add_metric(
        "lower_ms",
        best_of(3, &mut || {
            black_box(
                lower_project(&compiled.project, &registry, &VhdlOptions::default())
                    .expect("lowering")
                    .modules
                    .len(),
            );
        }),
    );
    for backend in Backend::ALL {
        let emitter = emitter_for(backend);
        let key = format!("emit_ms_{backend}").to_lowercase();
        report.add_metric(
            key,
            best_of(3, &mut || {
                black_box(emitter.emit_netlist(&netlist).expect("emit").len());
            }),
        );
    }
    report.write().expect("write BENCH_codegen.json");

    let mut group = c.benchmark_group("codegen");
    group.sample_size(20);
    group.bench_function("lower", |b| {
        b.iter(|| {
            let n = lower_project(
                black_box(&compiled.project),
                &registry,
                &VhdlOptions::default(),
            )
            .expect("lowering");
            black_box(n.modules.len())
        });
    });
    for backend in Backend::ALL {
        let emitter = emitter_for(backend);
        group.bench_function(format!("emit/{backend}"), |b| {
            b.iter(|| {
                let files = emitter.emit_netlist(black_box(&netlist)).expect("emit");
                black_box(files.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
