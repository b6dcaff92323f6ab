//! TPC-H Query 19: discounted revenue, the paper's worked example.
//!
//! Three structurally similar `or` clauses (which the paper credits
//! for Q19's high VHDL/Tydi ratio), each with an `in (...)` list that
//! expands generatively over an array of dictionary codes — the
//! `p_container in ('MED BAG', ...)` example of paper §IV-A.

use super::{revenue_tail, row_revenue, QueryCase};
use crate::data::TpchData;
use tydi_fletcher::generate_reader_package;

const SQL: &str = "\
select
    sum(l_extendedprice * (1 - l_discount)) as revenue
from
    lineitem,
    part
where
    (
        p_partkey = l_partkey
        and p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity >= 1 and l_quantity <= 11
        and p_size between 1 and 5
        and l_shipmode in ('AIR', 'AIR REG')
        and l_shipinstruct = 'DELIVER IN PERSON'
    )
    or
    (
        p_partkey = l_partkey
        and p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity >= 10 and l_quantity <= 20
        and p_size between 1 and 10
        and l_shipmode in ('AIR', 'AIR REG')
        and l_shipinstruct = 'DELIVER IN PERSON'
    )
    or
    (
        p_partkey = l_partkey
        and p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity >= 20 and l_quantity <= 30
        and p_size between 1 and 15
        and l_shipmode in ('AIR', 'AIR REG')
        and l_shipinstruct = 'DELIVER IN PERSON'
    );";

/// The per-clause parameters, dictionary-encoded.
pub struct Params {
    /// Brand code per clause.
    pub brands: [i64; 3],
    /// Container codes per clause (the `in` lists).
    pub containers: [[i64; 4]; 3],
    /// Quantity lower bounds (inclusive).
    pub qty_lo: [i64; 3],
    /// Quantity upper bounds (inclusive).
    pub qty_hi: [i64; 3],
    /// Size upper bounds (inclusive; lower bound is 1).
    pub size_hi: [i64; 3],
    /// Accepted ship modes.
    pub shipmodes: [i64; 2],
    /// Required ship instruction.
    pub shipinstruct: i64,
}

impl Params {
    /// Standard validation parameters, encoded against `data`'s
    /// dictionaries.
    pub fn standard(data: &TpchData) -> Params {
        let c = |v: &str| data.code("p_container", v);
        Params {
            brands: [
                data.code("p_brand", "Brand#12"),
                data.code("p_brand", "Brand#23"),
                data.code("p_brand", "Brand#34"),
            ],
            containers: [
                [c("SM CASE"), c("SM BOX"), c("SM PACK"), c("SM PKG")],
                [c("MED BAG"), c("MED BOX"), c("MED PKG"), c("MED PACK")],
                [c("LG CASE"), c("LG BOX"), c("LG PACK"), c("LG PKG")],
            ],
            qty_lo: [1, 10, 20],
            qty_hi: [11, 20, 30],
            size_hi: [5, 10, 15],
            shipmodes: [
                data.code("l_shipmode", "AIR"),
                data.code("l_shipmode", "AIR REG"),
            ],
            shipinstruct: data.code("l_shipinstruct", "DELIVER IN PERSON"),
        }
    }
}

fn fmt_array(values: &[i64]) -> String {
    let inner: Vec<String> = values.iter().map(i64::to_string).collect();
    format!("[{}]", inner.join(", "))
}

fn source(p: &Params, rows: usize) -> String {
    let containers: Vec<String> = p.containers.iter().map(|c| fmt_array(c)).collect();
    format!(
        r#"package q19;
use std;
use fletcher_lineitem_part;

// TPC-H 19: three or-clauses with shared structure, expanded
// generatively over per-clause constant arrays.
{types}
const brands : [int] = {brands};
const containers : [[int]] = [{containers}];
const qty_lo : [int] = {qty_lo};
const qty_hi : [int] = {qty_hi};
const size_hi : [int] = {size_hi};
const shipmodes : [int] = {shipmodes};

streamlet q19_s {{
    revenue : Agg out,
}}
@NoStrictType
impl q19_i of q19_s {{
    instance rd(lineitem_part_reader_i),
    instance clauses(or_n_i<3>),
    for c in (0..3) {{
        // p_brand = :brand[c]
        instance brand_eq(eq_const_i<type lineitem_part_p_brand_t, brands[c]>),
        rd.p_brand => brand_eq.i,
        // p_container in (four options)
        instance cont_or(or_n_i<4>),
        for k in (0..4) {{
            instance cont_eq(eq_const_i<type lineitem_part_p_container_t, containers[c][k]>),
            rd.p_container => cont_eq.i,
            cont_eq.o => cont_or.i[k],
        }}
        // l_quantity between :lo[c] and :hi[c]
        instance q_lo(ge_const_i<type lineitem_part_l_quantity_t, qty_lo[c]>),
        instance q_hi(le_const_i<type lineitem_part_l_quantity_t, qty_hi[c]>),
        rd.l_quantity => q_lo.i,
        rd.l_quantity => q_hi.i,
        // p_size between 1 and :size[c]
        instance s_lo(ge_const_i<type lineitem_part_p_size_t, 1>),
        instance s_hi(le_const_i<type lineitem_part_p_size_t, size_hi[c]>),
        rd.p_size => s_lo.i,
        rd.p_size => s_hi.i,
        // l_shipmode in ('AIR', 'AIR REG')
        instance mode_or(or_n_i<2>),
        for k in (0..2) {{
            instance mode_eq(eq_const_i<type lineitem_part_l_shipmode_t, shipmodes[k]>),
            rd.l_shipmode => mode_eq.i,
            mode_eq.o => mode_or.i[k],
        }}
        // l_shipinstruct = 'DELIVER IN PERSON'
        instance instr_eq(eq_const_i<type lineitem_part_l_shipinstruct_t, {instr}>),
        rd.l_shipinstruct => instr_eq.i,
        instance clause_and(and_n_i<8>),
        brand_eq.o => clause_and.i[0],
        cont_or.o => clause_and.i[1],
        q_lo.o => clause_and.i[2],
        q_hi.o => clause_and.i[3],
        s_lo.o => clause_and.i[4],
        s_hi.o => clause_and.i[5],
        instr_eq.o => clause_and.i[6],
        mode_or.o => clause_and.i[7],
        clause_and.o => clauses.i[c],
    }}
{tail}}}
"#,
        types = super::money_types(),
        brands = fmt_array(&p.brands),
        containers = containers.join(", "),
        qty_lo = fmt_array(&p.qty_lo),
        qty_hi = fmt_array(&p.qty_hi),
        size_hi = fmt_array(&p.size_hi),
        shipmodes = fmt_array(&p.shipmodes),
        instr = p.shipinstruct,
        tail = revenue_tail(
            "lineitem_part",
            "l_extendedprice",
            "l_discount",
            "clauses.o",
            rows
        ),
    )
}

/// Reference executor.
pub fn reference(data: &TpchData, p: &Params) -> i64 {
    let qty = data.column("lineitem_part", "l_quantity");
    let price = data.column("lineitem_part", "l_extendedprice");
    let disc = data.column("lineitem_part", "l_discount");
    let instr = data.column("lineitem_part", "l_shipinstruct");
    let mode = data.column("lineitem_part", "l_shipmode");
    let brand = data.column("lineitem_part", "p_brand");
    let container = data.column("lineitem_part", "p_container");
    let size = data.column("lineitem_part", "p_size");
    let mut revenue = 0;
    for i in 0..qty.len() {
        let shared = p.shipmodes.contains(&mode[i]) && instr[i] == p.shipinstruct;
        let matched = (0..3).any(|c| {
            brand[i] == p.brands[c]
                && p.containers[c].contains(&container[i])
                && qty[i] >= p.qty_lo[c]
                && qty[i] <= p.qty_hi[c]
                && size[i] >= 1
                && size[i] <= p.size_hi[c]
                && shared
        });
        if matched {
            revenue += row_revenue(price[i], disc[i]);
        }
    }
    revenue
}

/// Builds the Q19 case.
pub fn build(data: &TpchData) -> QueryCase {
    let params = Params::standard(data);
    QueryCase {
        id: "q19",
        title: "TPC-H 19",
        sql: SQL,
        fletcher_sources: vec![(
            "fletcher_lineitem_part.td".to_string(),
            generate_reader_package(&crate::data::lineitem_part_schema()),
        )],
        query_source: ("q19.td".to_string(), source(&params, data.rows)),
        top_impl: "q19_i".to_string(),
        sugaring: true,
        expected: vec![("revenue".to_string(), vec![reference(data, &params)])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::GenOptions;

    #[test]
    fn reference_matches_some_rows() {
        // Q19 is highly selective; use a large row count.
        let data = TpchData::generate(GenOptions {
            rows: 60_000,
            seed: 19,
        });
        let p = Params::standard(&data);
        let revenue = reference(&data, &p);
        assert!(revenue > 0, "no row matched Q19 at 60k rows");
    }

    #[test]
    fn source_expands_clause_arrays() {
        let data = TpchData::generate(GenOptions { rows: 16, seed: 1 });
        let p = Params::standard(&data);
        let s = source(&p, 16);
        assert!(s.contains("const containers : [[int]]"));
        assert!(s.contains("containers[c][k]"));
        assert!(s.contains("and_n_i<8>"));
        assert!(s.contains("mode_or.o => clause_and.i[7]"));
    }
}
