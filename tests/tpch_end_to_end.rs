//! F-2 / T-IV: the full big-data workflow of paper Fig. 2 on every
//! evaluated TPC-H query — compile, lower to VHDL (structurally
//! checked), simulate, and match the software reference.

use tydi::fletcher::register_fletcher_rtl;
use tydi::stdlib::full_registry;
use tydi::tpch::{all_queries, table4, verify_query, GenOptions, TpchData};
use tydi::vhdl::{check::check_vhdl, generate_project, VhdlOptions};

fn data() -> TpchData {
    TpchData::generate(GenOptions {
        rows: 160,
        seed: 90,
    })
}

#[test]
fn every_query_simulates_to_the_reference_result() {
    let data = data();
    for case in all_queries(&data) {
        verify_query(&case, &data).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Every query against the software reference over ten seeds: one
/// seed leaves most filters untested on 160 rows.
#[test]
fn every_query_matches_the_reference_over_seeds_1_to_10() {
    for seed in 1..=10 {
        let data = TpchData::generate(GenOptions { rows: 160, seed });
        for case in all_queries(&data) {
            verify_query(&case, &data).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

/// A larger table, where rows pass every Q19 predicate except the
/// ship mode.
#[test]
fn every_query_matches_the_reference_at_2000_rows() {
    let data = TpchData::generate(GenOptions {
        rows: 2000,
        seed: 3,
    });
    for case in all_queries(&data) {
        verify_query(&case, &data).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn every_query_lowers_to_structurally_valid_vhdl() {
    let data = data();
    let registry = full_registry();
    register_fletcher_rtl(&registry);
    for case in all_queries(&data) {
        let compiled = case
            .compile()
            .unwrap_or_else(|e| panic!("{}:\n{e}", case.id));
        let files = generate_project(&compiled.project, &registry, &VhdlOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        for file in &files {
            let issues = check_vhdl(&file.contents);
            assert!(issues.is_empty(), "{} {}: {issues:?}", case.id, file.name);
        }
    }
}

#[test]
fn table4_ratios_reproduce_the_paper_shape() {
    let data = data();
    let rows = table4(&data).expect("table4");
    // Who wins: Tydi-lang is always far terser than VHDL.
    for row in &rows {
        assert!(row.rq > 5.0, "{}: Rq = {:.1}", row.query, row.rq);
        assert!(row.ra > 1.5, "{}: Ra = {:.1}", row.query, row.ra);
    }
    // By roughly what factor: queries with repeated sub-structure
    // (Q19's three similar clauses, Q1's four combos) have the highest
    // Rq, exactly as the paper argues.
    let rq_of = |name: &str| rows.iter().find(|r| r.query == name).unwrap().rq;
    assert!(rq_of("TPC-H 19") > rq_of("TPC-H 3"));
    assert!(rq_of("TPC-H 1") > rq_of("TPC-H 3"));
    // Where the crossover falls: sugaring shrinks the query logic.
    let sugared = rows.iter().find(|r| r.query == "TPC-H 1").unwrap();
    let desugared = rows
        .iter()
        .find(|r| r.query.contains("without sugaring"))
        .unwrap();
    assert!(desugared.loc_q > sugared.loc_q);
    assert!(desugared.loc_a > sugared.loc_a);
}

#[test]
fn q6_simulation_produces_a_vhdl_testbench() {
    // §V-C on a real query: record the boundary traffic of a Q6 run
    // and lower it to a self-checking VHDL testbench.
    let data = data();
    let case = all_queries(&data)
        .into_iter()
        .find(|c| c.id == "q6")
        .unwrap();
    let compiled = case.compile().unwrap();
    let mut registry = tydi::sim::BehaviorRegistry::with_std();
    tydi::fletcher::register_fletcher_behaviors(&mut registry, data.tables.clone());
    let mut sim = tydi::sim::Simulator::new(&compiled.project, &case.top_impl, &registry).unwrap();
    sim.run((data.rows as u64 + 64) * 64);
    let tb = tydi::sim::testbench_gen::record_testbench(
        &sim,
        &compiled.project,
        &case.top_impl,
        "q6_tb",
    )
    .expect("record");
    // Q6 has no boundary inputs (the reader is internal) and one
    // output expectation stream.
    assert!(!tb.expectations().is_empty());
    let vhdl = tydi::vhdl::generate_testbench(&compiled.project, &tb, &VhdlOptions::default())
        .expect("vhdl testbench");
    assert!(vhdl.contains("entity q6_tb is"));
    assert!(check_vhdl(&vhdl).is_empty());
}

#[test]
fn results_are_independent_of_simulation_backpressure() {
    // Queries must compute the same answers under output stalls: the
    // handshake protocol guarantees functional determinism.
    let data = data();
    let case = all_queries(&data)
        .into_iter()
        .find(|c| c.id == "q6")
        .unwrap();
    let compiled = case.compile().unwrap();
    let mut registry = tydi::sim::BehaviorRegistry::with_std();
    tydi::fletcher::register_fletcher_behaviors(&mut registry, data.tables.clone());
    for stall in [1u64, 3, 7] {
        let mut sim =
            tydi::sim::Simulator::new(&compiled.project, &case.top_impl, &registry).unwrap();
        sim.set_probe_backpressure("revenue", stall).unwrap();
        sim.run((data.rows as u64 + 64) * 64 * stall);
        let out: Vec<i64> = sim
            .outputs("revenue")
            .unwrap()
            .iter()
            .filter(|(_, p)| !p.empty)
            .map(|(_, p)| p.data)
            .collect();
        assert_eq!(out, case.expected[0].1, "stall={stall}");
    }
}
