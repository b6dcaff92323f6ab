//! Self-tests run before every measurement: each oracle must count a
//! planted fault as a failure, and the generators must be
//! deterministic per seed.

use crate::common::{compile_queries, fresh_dir, simulate, tydic_build, Ctx, Outcome};
use crate::gen;
use crate::oracle;
use crate::probes::{Samples, SimSet};
use crate::trace::Tracer;
use tydi_ir::fingerprint::Fingerprinter;

/// Runs every self-test; returns the first problem found.
pub fn run(ctx: &Ctx) -> Result<(), String> {
    golden_oracle(ctx)?;
    reference_oracle(ctx)?;
    q19_divergence(ctx)?;
    generators(ctx)
}

/// Counts failures of `check` run on a clean and on a corrupted input:
/// the clean one must pass and the corrupted one must raise the count.
fn expect_one_failure(
    what: &str,
    check: impl Fn(bool) -> Result<(), String>,
) -> Result<(), String> {
    let mut outcome = Outcome::default();
    outcome.check(check(false));
    if outcome.failed != 0 {
        return Err(format!(
            "{what}: the oracle rejects a correct output: {:?}",
            outcome.problems
        ));
    }
    eprintln!("perfbench: self-test {what}: the next failure is planted");
    outcome.check(check(true));
    if outcome.failed != 1 {
        return Err(format!("{what}: the oracle accepts a planted fault"));
    }
    Ok(())
}

/// A corrupted golden copy must fail the byte-equality oracle.
fn golden_oracle(ctx: &Ctx) -> Result<(), String> {
    let dir = ctx.work.join("selftest");
    fresh_dir(&dir)?;
    let design = gen::cookbook(&ctx.root, &dir)
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("no cookbook design")?;
    design.write().map_err(|e| e.to_string())?;
    let stem = design
        .golden
        .clone()
        .ok_or("cookbook design without snapshot")?;
    let text = std::fs::read_to_string(ctx.root.join(format!("tests/golden/vhdl/{stem}.vhd")))
        .map_err(|e| e.to_string())?;
    let out = dir.join("out");
    tydic_build(ctx, &design, &out)?;
    expect_one_failure("golden", |corrupt| {
        let mut expected = oracle::golden_files(&text)?;
        if corrupt {
            let body = expected.values_mut().next().ok_or("empty snapshot")?;
            let flipped = if body.ends_with('\n') { "\r\n" } else { "\n" };
            body.truncate(body.len().saturating_sub(1));
            body.push_str(flipped);
        }
        oracle::check_dir(&out, &expected)
    })
}

/// A wrong expected query result must fail the reference oracle.
fn reference_oracle(ctx: &Ctx) -> Result<(), String> {
    let (data, cases) = gen::tpch(ctx.seed, 64);
    let cases: Vec<_> = cases.into_iter().filter(|c| c.id == "q6").collect();
    let (mut queries, registry) = compile_queries(&data, &cases)?;
    let mut query = queries.pop().ok_or("q6 missing")?;
    let mut digest = Fingerprinter::new();
    let mut run = |query: &crate::common::Query| {
        simulate(query, &registry, &mut Tracer::new(false), &mut digest).and_then(|(_, _, v)| v)
    };
    let clean = run(&query);
    let value = query
        .expected
        .first_mut()
        .and_then(|(_, v)| v.first_mut())
        .ok_or("q6 has no expected value")?;
    *value += 1;
    let wrong = run(&query);
    expect_one_failure("reference", |plant| {
        if plant {
            wrong.clone()
        } else {
            clean.clone()
        }
    })
}

/// A Q19 mismatch found by the simulator probe must count as failed and
/// as the known Q19 divergence and leave the run correct; any other
/// failure must make it incorrect.
fn q19_divergence(ctx: &Ctx) -> Result<(), String> {
    let (data, mut cases) = gen::tpch(ctx.seed, 64);
    cases.retain(|c| c.id == "q19");
    let values = cases
        .first_mut()
        .and_then(|c| c.expected.first_mut())
        .map(|(_, values)| values)
        .ok_or("q19 has no expected output")?;
    match values.first_mut() {
        Some(value) => *value += 1,
        None => values.push(1),
    }
    let sim = SimSet::compile(ctx, &data, &cases)?;
    let mut outcome = Outcome::default();
    eprintln!("perfbench: self-test q19: the next failure is planted");
    sim.pass(
        &mut Tracer::new(false),
        &mut Samples::default(),
        false,
        &mut outcome,
    )?;
    if (outcome.failed, outcome.q19, outcome.correct()) != (1, 1, true) {
        return Err(format!(
            "q19: a planted mismatch gave {} failure(s), {} counted as Q19, correct = {}",
            outcome.failed,
            outcome.q19,
            outcome.correct()
        ));
    }
    eprintln!("perfbench: self-test q19: the next failure is planted");
    outcome.check(Err("planted failure other than Q19".to_string()));
    if outcome.correct() {
        return Err("q19: a failure other than Q19 leaves the run correct".to_string());
    }
    Ok(())
}

/// The same seed gives byte-identical inputs; another seed does not.
fn generators(ctx: &Ctx) -> Result<(), String> {
    let texts = |seed: u64| -> Vec<String> {
        let dir = ctx.work.join("selftest-gen");
        let mut texts: Vec<String> = gen::large_designs(seed, &dir)
            .into_iter()
            .flat_map(|d| d.texts)
            .collect();
        let (_, cases) = gen::tpch(seed, 64);
        for design in gen::tpch_designs(&cases, 64, &dir) {
            texts.extend(design.texts);
        }
        texts
    };
    let a = texts(ctx.seed);
    if a != texts(ctx.seed) {
        return Err("generators are not deterministic for one seed".to_string());
    }
    if a == texts(ctx.seed.wrapping_add(1)) {
        return Err("generators ignore the seed".to_string());
    }
    Ok(())
}
