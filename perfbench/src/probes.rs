//! The traced run's layer probes. Every traced run reports every layer:
//! a workload measures the layers on its own path with its own
//! operations, and the layers off its path with these probes over its
//! own design set. The simulator probe simulates the 6 TPC-H queries
//! and one `SimBatch` run of the parallelize design.

use crate::common::{
    cache_probe, compile_queries, job, layer_sweep, parallelize_project, process_start_ms,
    run_batch, simulate, Ctx, Daemon, Outcome, Query, SweepResult, BUILD_LAYERS,
};
use crate::gen::{self, Design};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use tydi_ir::fingerprint::Fingerprinter;
use tydi_ir::Project;
use tydi_lang::ArtifactCache;
use tydi_serve::protocol::JobKind;
use tydi_sim::{BehaviorRegistry, Scenario};

/// Rows of the simulator probe's TPC-H data set. From 2000 rows on,
/// Q19's simulated revenue disagrees with the software reference for
/// about half the seeds; the probe keeps that divergence visible (it is
/// counted in `failed` and `q19.mismatches`).
const PROBE_ROWS: usize = 2000;

/// Per-layer samples, one value per sweep; reported as medians.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Records one sample.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    /// The latest sample of `name` (0 when none).
    pub fn last(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(0.0)
    }

    /// The median of every recorded metric.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), median(v))).collect()
    }
}

/// Simulated queries plus the parallelize batch.
pub struct SimSet {
    /// Compiled queries.
    pub queries: Vec<Query>,
    /// Their behaviour registry (also used by the batch design).
    pub registry: BehaviorRegistry,
    /// `cookbook/09_parallelize.td`, compiled.
    pub batch: Project,
    /// The batch's scenarios.
    pub scenarios: Vec<Scenario>,
}

impl SimSet {
    /// Generates the TPC-H data from the run's seed and compiles the
    /// queries and the batch design.
    pub fn new(ctx: &Ctx) -> Result<SimSet, String> {
        let (data, cases) = gen::tpch(ctx.seed, PROBE_ROWS);
        SimSet::compile(ctx, &data, &cases)
    }

    /// Compiles the given queries and the batch design.
    pub fn compile(
        ctx: &Ctx,
        data: &tydi_tpch::TpchData,
        cases: &[tydi_tpch::QueryCase],
    ) -> Result<SimSet, String> {
        let (queries, registry) = compile_queries(data, cases)?;
        Ok(SimSet {
            queries,
            registry,
            batch: parallelize_project(&ctx.root)?,
            scenarios: crate::common::batch_scenarios(),
        })
    }

    /// One pass: every query, then the batch. Adds per-pass layer
    /// samples (and, with `speedup`, the batch's speed-up over a
    /// one-thread run). Oracle results are counted in `outcome`.
    pub fn pass(
        &self,
        tracer: &mut Tracer,
        samples: &mut Samples,
        speedup: bool,
        outcome: &mut Outcome,
    ) -> Result<u64, String> {
        let mark = tracer.mark();
        let mut digest = Fingerprinter::new();
        let (mut cycles, mut transfers, mut refused, mut run_ms) = (0u64, 0u64, 0u64, 0f64);
        let sim_probe = |e: String| format!("sim probe: {e}");
        for query in &self.queries {
            tracer.next_op();
            let (ms, stats, result) = simulate(query, &self.registry, tracer, &mut digest)?;
            outcome.check_query(query.id, result.map_err(sim_probe));
            run_ms += ms;
            cycles += stats.cycles;
            transfers += stats.transfers;
            refused += stats.refused;
        }
        tracer.next_op();
        let (_, result) = run_batch(&self.batch, &self.registry, &self.scenarios, tracer)?;
        outcome.check_query("batch", result.map_err(sim_probe));
        let times = tracer.self_ms(mark);
        for layer in ["sim.new", "sim.run", "sim.batch"] {
            samples.add(
                format!("{layer}_ms"),
                times.get(layer).copied().unwrap_or(0.0),
            );
        }
        samples.add("sim.cycles", cycles as f64);
        samples.add("sim.transfers", transfers as f64);
        samples.add("sim.refused_pushes", refused as f64);
        samples.add(
            "sim.ns_per_transfer",
            run_ms * 1e6 / transfers.max(1) as f64,
        );
        samples.add("sim.cycles_per_s", cycles as f64 / (run_ms / 1e3));
        let digest = digest.finish().0;
        samples.add("sim.digest", (digest & 0xFFFF_FFFF) as f64);
        if speedup {
            // One thread, then the pool as configured for this run.
            let configured = std::env::var_os("TYDI_THREADS");
            std::env::set_var("TYDI_THREADS", "1");
            let sequential = run_batch(
                &self.batch,
                &self.registry,
                &self.scenarios,
                &mut Tracer::new(false),
            );
            match configured {
                Some(value) => std::env::set_var("TYDI_THREADS", value),
                None => std::env::remove_var("TYDI_THREADS"),
            }
            let pool = run_batch(
                &self.batch,
                &self.registry,
                &self.scenarios,
                &mut Tracer::new(false),
            );
            if let (Ok((one, _)), Ok((many, _))) = (sequential, pool) {
                samples.add("sim.batch_speedup", one / many);
            }
        }
        Ok(digest)
    }
}

/// The warm-daemon probe: a daemon plus an in-process cache that both
/// serve `check` jobs over the cookbook designs. (The daemon runs jobs
/// on worker threads with smaller stacks than a CLI process, and deep
/// generated designs can overflow them, so the probe keeps to the
/// cookbook.)
pub struct ServeProbe {
    daemon: Daemon,
    cache: ArtifactCache,
    designs: Vec<Design>,
}

impl ServeProbe {
    /// Starts a daemon and warms it and the in-process cache (the
    /// warm-up's comparisons are counted in `outcome` too).
    pub fn new(ctx: &Ctx, outcome: &mut Outcome) -> Result<ServeProbe, String> {
        let dir = ctx.work.join("probe-serve");
        let designs = gen::cookbook(&ctx.root, &dir).map_err(|e| format!("cookbook: {e}"))?;
        for design in &designs {
            design
                .write()
                .map_err(|e| format!("{}: {e}", design.name))?;
        }
        let mut probe = ServeProbe {
            daemon: Daemon::start(ctx, &ctx.work.join("probe-daemon"))?,
            cache: ArtifactCache::new(),
            designs,
        };
        probe.pass(&mut Samples::default(), outcome)?;
        Ok(probe)
    }

    /// One warm `check` job per design, through the daemon and through
    /// in-process `run_job`; adds per-job medians and counts each
    /// comparison in `outcome`.
    pub fn pass(&mut self, samples: &mut Samples, outcome: &mut Outcome) -> Result<(), String> {
        let (mut roundtrip, mut exec, mut transport) = (Vec::new(), Vec::new(), Vec::new());
        for (id, design) in self.designs.iter().enumerate() {
            let request = job(JobKind::Check, design, id as u64);
            let t0 = Instant::now();
            let response = self.daemon.request(&request)?;
            let rt = crate::common::ms_since(t0);
            let t0 = Instant::now();
            let local = tydi_serve::execute::run_job(&request, &mut self.cache, "");
            exec.push(crate::common::ms_since(t0));
            let agree = response.exit_code == local.exit_code && response.stdout == local.stdout;
            outcome.check(if agree {
                Ok(())
            } else {
                Err(format!(
                    "serve probe: {}: daemon and in-process check disagree",
                    design.name
                ))
            });
            roundtrip.push(rt);
            transport.push(rt - response.elapsed_ms);
        }
        samples.add("serve.roundtrip_ms", median(&roundtrip));
        samples.add("serve.exec_ms", median(&exec));
        samples.add("serve.transport_ms", median(&transport));
        Ok(())
    }
}

/// The compile layers over `designs`: an untraced and a traced layer
/// sweep (the ratio of their wall times is the tracing overhead), then
/// each layer's self time and the sizes. Returns the traced sweep.
pub fn compile_layers(
    designs: &[Design],
    registry: &tydi_vhdl::BuiltinRegistry,
    tracer: &mut Tracer,
    samples: &mut Samples,
    out: &std::path::Path,
) -> Result<SweepResult, String> {
    tracer.set_enabled(false);
    let untraced = layer_sweep(designs, registry, tracer, out)?.wall_ms;
    tracer.set_enabled(true);
    let sweep = layer_sweep(designs, registry, tracer, out)?;
    samples.add(
        "trace.overhead_pct",
        (sweep.wall_ms / untraced - 1.0) * 100.0,
    );
    for layer in BUILD_LAYERS {
        samples.add(format!("{layer}_ms"), sweep.layer(layer));
    }
    samples.add("analyze.ms", sweep.layer("analyze"));
    samples.add("core.parse_bytes", sweep.parse_bytes as f64);
    samples.add("ir.connections", sweep.connections as f64);
    samples.add("vhdl.modules", sweep.modules as f64);
    samples.add("vhdl.kb", sweep.vhdl_bytes as f64 / 1024.0);
    Ok(sweep)
}

/// Process start plus the cache layers over `designs`.
pub fn common_probes(
    ctx: &Ctx,
    designs: &[Design],
    tracer: &mut Tracer,
    samples: &mut Samples,
    cache_ratios: bool,
) -> Result<(), String> {
    samples.add("proc.start_ms", process_start_ms(ctx, 10)?);
    let (save, load, parse_reuse, elab_hit) =
        cache_probe(designs, tracer, &ctx.work.join("probe-cache"))?;
    samples.add("cache.save_ms", save);
    samples.add("cache.load_ms", load);
    if cache_ratios {
        samples.add("cache.parse_reuse_ratio", parse_reuse);
        samples.add("cache.elab_hit_ratio", elab_hit);
    }
    Ok(())
}
