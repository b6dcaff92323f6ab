//! Shared fixtures for the benchmark harness.
//!
//! Each bench target regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the experiment index); the builders here are
//! shared between benches, examples and integration tests.

use tydi_lang::{compile, CompileOptions, CompileOutput};
use tydi_sim::{BehaviorRegistry, Packet, Scenario, SchedulerKind, SimBatch, Simulator};
use tydi_stdlib::with_stdlib;

pub mod report;
pub use report::{read_metric, repo_root, BenchReport};

/// The paper's §IV-B running example: a processing unit with an
/// 8-cycle delay, parallelized over `channel` units with a demux/mux
/// pair to reach one packet per cycle. Returns the Tydi-lang source.
pub fn parallelize_source(channel: usize, delay: u64) -> String {
    format!(
        r#"package par;
use std;

type W32 = Stream(Bit(32));

// The abstract processing-unit interface (paper section IV-B).
streamlet process_unit_s {{
    i : W32 in,
    o : W32 out,
}}

// A 32-bit adder with a delay of {delay} clock cycles, described by
// event-driven simulation code (paper section V-A).
impl adder_delay_i of process_unit_s external {{
    simulation {{
        state st = "idle";
        on (i.recv && st == "idle") {{
            set_state(st, "busy");
            delay({delay});
            send(o, i.data + 1);
            ack(i);
            set_state(st, "idle");
        }}
    }}
}}

streamlet parallelize_s {{
    i : W32 in,
    o : W32 out,
}}

// The parallelize template: a demux distributes packets over the
// processing units, a mux collects the results in order.
impl parallelize_i<pu: impl of process_unit_s, channel: int> of parallelize_s {{
    instance dm(demux_i<type W32, channel>),
    instance mx(mux_i<type W32, channel>),
    instance pu_inst(pu) [channel],
    i => dm.i,
    for k in (0..channel) {{
        dm.o[k] => pu_inst[k].i,
        pu_inst[k].o => mx.i[k],
    }}
    mx.o => o,
}}

impl top_i of parallelize_s {{
    instance p(parallelize_i<impl adder_delay_i, {channel}>),
    i => p.i,
    p.o => o,
}}
"#
    )
}

/// Compiles the parallelize design for a channel count.
pub fn compile_parallelize(channel: usize, delay: u64) -> CompileOutput {
    let source = parallelize_source(channel, delay);
    let sources = with_stdlib(&[("par.td", source.as_str())]);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    compile(&refs, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("parallelize failed:\n{e}"))
}

/// Simulates the parallelize design with `packets` stimuli; returns
/// `(cycles, packets_delivered)`.
pub fn simulate_parallelize(channel: usize, delay: u64, packets: u64) -> (u64, u64) {
    let compiled = compile_parallelize(channel, delay);
    let registry = BehaviorRegistry::with_std();
    let mut sim = Simulator::new(&compiled.project, "top_i", &registry).expect("simulator");
    sim.feed("i", (0..packets as i64).map(Packet::data))
        .unwrap();
    let budget = packets * (delay + 4) * 4 + 1000;
    sim.run(budget);
    let delivered = sim.outputs("o").expect("probe").len() as u64;
    let last_arrival = sim
        .outputs("o")
        .expect("probe")
        .last()
        .map(|(c, _)| *c)
        .unwrap_or(0);
    (last_arrival.max(1), delivered)
}

/// Runs one stimulus schedule over a prebuilt parallelize project
/// under the given scheduler; returns `(cycles to last delivery,
/// packets delivered)`. `stall` throttles the output probe to accept
/// only every `stall`-th cycle — large values make the stimulus
/// sparse/bursty, which is where the event-driven scheduler's
/// skip-ahead pays off.
pub fn run_parallelize_sim(
    project: &tydi_ir::Project,
    registry: &BehaviorRegistry,
    kind: SchedulerKind,
    stall: u64,
    delay: u64,
    packets: u64,
) -> (u64, u64) {
    let mut sim = Simulator::new(project, "top_i", registry).expect("simulator");
    sim.set_scheduler(kind);
    sim.set_probe_backpressure("o", stall).unwrap();
    sim.feed("i", (0..packets as i64).map(Packet::data))
        .unwrap();
    let budget = packets * (delay + 4) * 4 * stall.max(1) + 1000;
    sim.run(budget);
    let outputs = sim.outputs("o").expect("probe");
    let last_arrival = outputs.last().map(|(c, _)| *c).unwrap_or(0);
    (last_arrival.max(1), outputs.len() as u64)
}

/// Deterministic stimulus scenarios for a parallelize batch: scenario
/// `k` feeds values offset by `1000 k` under a `1 + k % 4` stall.
pub fn parallelize_batch_scenarios(packets: u64, count: usize) -> Vec<Scenario> {
    (0..count)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_feed(
                    "i",
                    (0..packets as i64).map(|v| Packet::data(v + 1000 * k as i64)),
                )
                .with_backpressure("o", 1 + k as u64 % 4)
        })
        .collect()
}

/// Runs a scenario batch over a prebuilt parallelize project; returns
/// total packets delivered across scenarios.
pub fn run_parallelize_batch(
    project: &tydi_ir::Project,
    registry: &BehaviorRegistry,
    scenarios: &[Scenario],
) -> u64 {
    SimBatch::new(project, "top_i", registry)
        .run(scenarios)
        .expect("batch")
        .total_delivered() as u64
}

/// A synthetic program with `n` *distinct* template instantiations
/// (scaling the expansion stage) wired into sinks.
pub fn template_scaling_source(n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "package scale;\nuse std;\n\ntype W16 = Stream(Bit(16));\nstreamlet top_s {\n",
    );
    for k in 0..n {
        let _ = writeln!(s, "    o_{k} : Stream(Bit(16)) out,");
    }
    s.push_str("}\n@NoStrictType\nimpl top_i of top_s {\n");
    for k in 0..n {
        // Each constant is distinct, forcing a fresh instantiation.
        let _ = writeln!(
            s,
            "    instance c_{k}(const_vec_i<type W16, {k}, 4>),\n    c_{k}.o => o_{k},"
        );
    }
    s.push_str("}\n");
    s
}

/// A synthetic multi-package project shaped as a 4-level import DAG,
/// the workload of the thread-count determinism, trace and
/// observability tests:
///
/// ```text
/// level 0   base                 (pass_s<n> / pass_i<n> templates)
/// level 1   p0 .. p{width-1}     (each `use base`, distinct widths)
/// level 2   q0 .. q{width/2-1}   (each imports two level-1 packages)
/// level 3   zmain                (imports every level-2 package)
/// ```
///
/// With `width = 10` that is 17 packages, 10 of which share no import
/// edge. Every package instantiates the
/// base templates at a distinct bit width, so each elaborates real
/// work (template expansion, type interning, connections) instead of
/// an empty namespace.
pub fn package_dag_sources(width: usize) -> Vec<(String, String)> {
    assert!(
        width >= 2 && width.is_multiple_of(2),
        "width must be even and >= 2"
    );
    let mut sources = Vec::with_capacity(2 + width + width / 2);
    sources.push((
        "base.td".to_string(),
        "package base;\n\
         streamlet pass_s<n: int> { i : Stream(Bit(n)) in, o : Stream(Bit(n)) out, }\n\
         @builtin(\"std.passthrough\")\n\
         impl pass_i<n: int> of pass_s<n> external;\n"
            .to_string(),
    ));
    for k in 0..width {
        let w = 8 + k;
        sources.push((
            format!("p{k}.td"),
            format!(
                "package p{k};\n\
                 use base;\n\
                 const c{k} : int = {w};\n\
                 impl i{k} of pass_s<{w}> {{\n\
                     instance a(pass_i<{w}>),\n\
                     instance b(pass_i<{w}>),\n\
                     i => a.i,\n\
                     a.o => b.i,\n\
                     b.o => o,\n\
                 }}\n"
            ),
        ));
    }
    for j in 0..width / 2 {
        let (a, b) = (2 * j, 2 * j + 1);
        let w = 8 + a;
        sources.push((
            format!("q{j}.td"),
            format!(
                "package q{j};\n\
                 use base;\n\
                 use p{a};\n\
                 use p{b};\n\
                 impl j{j} of pass_s<{w}> {{\n\
                     instance head(i{a}),\n\
                     instance tail(pass_i<c{a}>) [c{b}],\n\
                     i => head.i,\n\
                     head.o => tail[0].i,\n\
                     for k in (1..c{b}) {{\n\
                         tail[k - 1].o => tail[k].i,\n\
                     }}\n\
                     tail[c{b} - 1].o => o,\n\
                 }}\n"
            ),
        ));
    }
    let mut main_src = String::from("package zmain;\nuse base;\n");
    for j in 0..width / 2 {
        main_src.push_str(&format!("use q{j};\n"));
    }
    for j in 0..width / 2 {
        let w = 8 + 2 * j;
        main_src.push_str(&format!(
            "impl m{j} of pass_s<{w}> {{\n\
                 instance inner(j{j}),\n\
                 i => inner.i,\n\
                 inner.o => o,\n\
             }}\n"
        ));
    }
    sources.push(("zmain.td".to_string(), main_src));
    sources
}

/// Compiles the [`package_dag_sources`] project and returns the
/// output alongside its canonical IR text (the byte-identity probe).
pub fn compile_package_dag(width: usize) -> (CompileOutput, String) {
    let sources = package_dag_sources(width);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let output = compile(&refs, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("package DAG failed to compile:\n{e}"));
    let text = tydi_ir::text::emit_project(&output.project);
    (output, text)
}

/// Compiles the template-scaling program.
pub fn compile_scaling(n: usize) -> CompileOutput {
    let source = template_scaling_source(n);
    let sources = with_stdlib(&[("scale.td", source.as_str())]);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    compile(&refs, &CompileOptions::default()).unwrap_or_else(|e| panic!("scaling failed:\n{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_dag_compiles_and_is_thread_invariant() {
        let sources = package_dag_sources(10);
        assert!(
            sources.len() >= 16,
            "need a >=16-package project, got {}",
            sources.len()
        );
        std::env::set_var("TYDI_THREADS", "1");
        let (out_seq, text_seq) = compile_package_dag(10);
        std::env::set_var("TYDI_THREADS", "8");
        let (_, text_par) = compile_package_dag(10);
        std::env::remove_var("TYDI_THREADS");
        assert_eq!(text_seq, text_par, "IR must not depend on thread count");
        assert!(out_seq.project.implementation("m0").is_some());
    }

    #[test]
    fn parallelize_compiles_for_various_channels() {
        for channel in [1, 2, 8] {
            let out = compile_parallelize(channel, 8);
            let top = out.project.implementation("top_i").unwrap();
            assert_eq!(top.instances().len(), 1);
        }
    }

    #[test]
    fn parallelize_throughput_scales_with_channels() {
        // Paper §IV-B: with an 8-cycle processing unit, 8 channels
        // sustain ~1 packet/cycle while 1 channel gives ~1/8.
        let (cycles_1, n1) = simulate_parallelize(1, 8, 40);
        let (cycles_8, n8) = simulate_parallelize(8, 8, 40);
        assert_eq!(n1, 40);
        assert_eq!(n8, 40);
        let t1 = n1 as f64 / cycles_1 as f64;
        let t8 = n8 as f64 / cycles_8 as f64;
        assert!(
            t8 > 3.0 * t1,
            "8 channels should be much faster: t1={t1:.3}, t8={t8:.3}"
        );
    }

    #[test]
    fn schedulers_agree_on_parallelize() {
        // Differential check backing the bench: the event-driven
        // scheduler must deliver the same packets at the same cycles
        // as the polling loop, dense and sparse alike.
        for (channel, stall) in [(1usize, 1u64), (4, 1), (2, 16)] {
            let compiled = compile_parallelize(channel, 8);
            let registry = BehaviorRegistry::with_std();
            let polling = run_parallelize_sim(
                &compiled.project,
                &registry,
                SchedulerKind::Polling,
                stall,
                8,
                32,
            );
            let event = run_parallelize_sim(
                &compiled.project,
                &registry,
                SchedulerKind::EventDriven,
                stall,
                8,
                32,
            );
            assert_eq!(polling, event, "channel {channel}, stall {stall}");
            assert_eq!(event.1, 32);
        }
    }

    #[test]
    fn batch_delivers_all_scenarios() {
        let compiled = compile_parallelize(4, 8);
        let registry = BehaviorRegistry::with_std();
        let scenarios = parallelize_batch_scenarios(16, 4);
        let delivered = run_parallelize_batch(&compiled.project, &registry, &scenarios);
        assert_eq!(delivered, 4 * 16);
    }

    #[test]
    fn scaling_source_grows() {
        let out = compile_scaling(16);
        // 16 distinct const instantiations.
        assert!(out.elab_info.template_instantiations >= 16);
    }
}
