//! `cold_small` and `cold_large`: one cold `tydic build --no-cache
//! --emit vhdl -o <dir>` process per design, spawn to exit.

use crate::common::{
    fresh_dir, tydic_build, tydic_build_peak_rss_mb, Ctx, Outcome, Setups, BUILD_LAYERS,
};
use crate::gen::{self, Design};
use crate::layers;
use crate::oracle::{self, Expected};
use crate::probes::{common_probes, compile_layers, Samples, ServeProbe, SimSet};
use crate::stats::{exponent, median, quantile, Classes};
use crate::trace::Tracer;
use std::time::Instant;

/// TPC-H rows of the queries in `cold_small` (the rows only change
/// constants in the sources).
const SMALL_ROWS: usize = 1024;

struct State {
    designs: Vec<Design>,
    expected: Vec<Expected>,
}

fn setup(ctx: &Ctx, large: bool) -> Result<State, String> {
    let dir = ctx.work.join("inputs");
    fresh_dir(&dir)?;
    let designs = if large {
        gen::large_designs(ctx.seed, &dir)
    } else {
        let mut designs = gen::cookbook(&ctx.root, &dir).map_err(|e| format!("cookbook: {e}"))?;
        let (_, cases) = gen::tpch(ctx.seed, SMALL_ROWS);
        designs.extend(gen::tpch_designs(&cases, SMALL_ROWS, &dir));
        designs
    };
    let registry = layers::registry();
    let mut expected = Vec::new();
    for design in &designs {
        design
            .write()
            .map_err(|e| format!("{}: {e}", design.name))?;
        expected.push(match &design.golden {
            Some(stem) => {
                let path = ctx
                    .root
                    .join("tests/golden/vhdl")
                    .join(format!("{stem}.vhd"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                oracle::golden_files(&text).map_err(|e| format!("{stem}: {e}"))?
            }
            None => layers::build(design, &registry, &mut Tracer::new(false), None)?
                .files
                .into_iter()
                .map(|f| (f.name, f.contents))
                .collect(),
        });
    }
    // Warm-up: one build of each design into its own, fresh output
    // directory (later builds overwrite the same files in place, which
    // keeps file-system churn out of the measurement).
    for index in 0..designs.len() {
        fresh_dir(&out_dir(ctx, index))?;
    }
    let state = State { designs, expected };
    pass(
        ctx,
        &state,
        &mut Outcome::default(),
        &mut Classes::default(),
    )?;
    Ok(state)
}

fn out_dir(ctx: &Ctx, index: usize) -> std::path::PathBuf {
    ctx.work.join("out").join(index.to_string())
}

/// Builds every design once with `tydic`, checking each output;
/// returns the pass's total build time.
fn pass(
    ctx: &Ctx,
    state: &State,
    outcome: &mut Outcome,
    classes: &mut Classes,
) -> Result<f64, String> {
    let mut total = 0.0;
    for (index, (design, expected)) in state.designs.iter().zip(&state.expected).enumerate() {
        let out = out_dir(ctx, index);
        let result = tydic_build(ctx, design, &out);
        let checked = result.and_then(|(ms, written)| {
            if written != expected.len() {
                return Err(format!(
                    "{}: wrote {written} file(s), expected {}",
                    design.name,
                    expected.len()
                ));
            }
            oracle::check_dir(&out, expected)
                .map(|_| ms)
                .map_err(|e| format!("{}: {e}", design.name))
        });
        if let Ok(ms) = checked {
            classes.add(&design.name, ms);
            total += ms;
        }
        outcome.check(checked.map(|_| ()));
    }
    Ok(total)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, large: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Setups::new(ctx);
    let mut state = setups.run(|| setup(ctx, large))?;
    for design in &state.designs {
        outcome.note(format!("input.{}", design.name), design.size_json());
    }
    if !ctx.trace {
        let mut classes = Classes::default();
        let mut passes = Vec::new();
        let deadline = ctx.deadline();
        setups.start();
        while passes.is_empty() || Instant::now() < deadline {
            if setups.due() {
                state = setups.run(|| setup(ctx, large))?;
            }
            passes.push(pass(ctx, &state, &mut outcome, &mut classes)?);
        }
        outcome.note("class_median_ms", classes.medians_json());
        outcome.set("setup_s", setups.mean_s(), "s");
        outcome.set("op_ms_min", classes.geomean_quantile(0.0), "ms");
        outcome.set("op_ms_p90", classes.geomean_quantile(0.9), "ms");
        outcome.set("pass_ms", quantile(&passes, 0.0), "ms");
        // Untimed: one more build of each design, for its peak memory.
        let peak = (state.designs.iter().enumerate())
            .filter_map(|(index, design)| {
                tydic_build_peak_rss_mb(ctx, design, &out_dir(ctx, index)).ok()
            })
            .fold(0.0, f64::max);
        outcome.set("peak_rss_mb", peak, "MiB");
        outcome.note("passes", passes.len());
        outcome.note("samples_per_design", classes.min_class_count());
        return Ok(outcome);
    }
    traced(ctx, &state, outcome)
}

/// The traced run: real builds for the wall time, then the same designs
/// layer by layer in-process (once traced, once not), plus the probes.
fn traced(ctx: &Ctx, state: &State, mut outcome: Outcome) -> Result<Outcome, String> {
    let registry = layers::registry();
    let sim = SimSet::new(ctx)?;
    let mut serve = ServeProbe::new(ctx, &mut outcome)?;
    let mut tracer = Tracer::new(true);
    let mut samples = Samples::default();
    let mut per_design: Vec<(String, f64, std::collections::BTreeMap<&'static str, f64>)> =
        Vec::new();
    let out = ctx.work.join("layers");
    let deadline = ctx.deadline();
    let mut sweeps = 0;
    while sweeps == 0 || Instant::now() < deadline {
        sweeps += 1;
        let mut classes = Classes::default();
        let wall = pass(ctx, state, &mut outcome, &mut classes)?;
        let sweep = compile_layers(&state.designs, &registry, &mut tracer, &mut samples, &out)?;
        common_probes(ctx, &state.designs, &mut tracer, &mut samples, true)?;
        // Build wall = process start per build + every layer's self time
        // + whatever no layer accounts for.
        let start = samples.last("proc.start_ms") * state.designs.len() as f64;
        let layers: f64 = BUILD_LAYERS.iter().map(|l| sweep.layer(l)).sum();
        samples.add("pass.wall_ms", wall);
        samples.add("unaccounted_ms", wall - start - layers);
        sim.pass(&mut tracer, &mut samples, sweeps == 1, &mut outcome)?;
        serve.pass(&mut samples, &mut outcome)?;
        for design in &state.designs {
            if let (Some(ms), Some(layers)) = (
                classes.class_median(&design.name),
                sweep.per_design.get(&design.name),
            ) {
                per_design.push((design.name.clone(), ms, layers.clone()));
            }
        }
    }
    // `gen::large_designs` lists each family's small design, then its
    // large one; other design sets have no families.
    for pair in state.designs.chunks_exact(2) {
        let (Some((family, small)), Some((_, large))) = (pair[0].family, pair[1].family) else {
            continue;
        };
        // Median over sweeps of the build wall (no layer) or a layer.
        let pick = |design: &Design, layer: Option<&str>| -> f64 {
            let values: Vec<f64> = per_design
                .iter()
                .filter(|(name, _, _)| *name == design.name)
                .map(|(_, wall, layers)| match layer {
                    None => *wall,
                    Some(layer) => layers.get(layer).copied().unwrap_or(0.0),
                })
                .collect();
            median(&values)
        };
        let layers = BUILD_LAYERS.iter().skip(1).map(|l| (*l, Some(*l)));
        for (name, layer) in layers.chain([("build", None)]) {
            let k = exponent(
                (small as f64, pick(&pair[0], layer)),
                (large as f64, pick(&pair[1], layer)),
            );
            samples.add(format!("{family}.{name}.exp"), k);
        }
    }
    outcome.note("sweeps", sweeps);
    for (name, value) in samples.medians() {
        outcome.metrics.insert(name, (value, ""));
    }
    outcome.tracer = Some(tracer);
    Ok(outcome)
}
