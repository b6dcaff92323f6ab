//! Simulation behaviour of Fletcher readers.
//!
//! The physical Fletcher stack moves Arrow record batches from host
//! memory over PCIe/OpenCAPI; in simulation the reader component is a
//! stream source fed from an in-memory [`Table`]. Each column port
//! streams its values in row order and closes the dimension-1 sequence
//! with the final row — exactly the traffic the generated VHDL
//! interface would carry.

use crate::encode::EncodedValue;
use std::collections::HashMap;
use std::sync::Arc;
use tydi_sim::behavior::{Behavior, BehaviorRegistry, IoCtx, Wake};
use tydi_sim::channel::Packet;

/// An in-memory, column-major table of encoded values.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: HashMap<String, Arc<Vec<EncodedValue>>>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Adds a column.
    ///
    /// # Panics
    /// Panics when the column length disagrees with existing columns.
    pub fn with_column(mut self, name: impl Into<String>, values: Vec<EncodedValue>) -> Self {
        if !self.columns.is_empty() {
            assert_eq!(values.len(), self.rows, "column length mismatch");
        } else {
            self.rows = values.len();
        }
        self.columns.insert(name.into(), Arc::new(values));
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Option<&[EncodedValue]> {
        self.columns.get(name).map(|c| c.as_slice())
    }

    /// Column names, sorted.
    pub fn column_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.columns.keys().map(String::as_str).collect();
        v.sort();
        v
    }
}

/// The `fletcher.source` behaviour: one independent cursor per output
/// port, streaming the column of the same name.
struct FletcherSource {
    columns: Vec<(String, Arc<Vec<EncodedValue>>)>,
    cursors: Vec<usize>,
}

impl Behavior for FletcherSource {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        for (slot, (port, column)) in self.columns.iter().enumerate() {
            let cursor = self.cursors[slot];
            if cursor >= column.len() {
                continue;
            }
            let is_last = cursor + 1 == column.len();
            let packet = if is_last {
                Packet::last(column[cursor], 1)
            } else {
                Packet::data(column[cursor])
            };
            if io.send(port, packet) {
                self.cursors[slot] = cursor + 1;
            }
        }
    }

    fn state_label(&self) -> Option<String> {
        let done = self
            .cursors
            .iter()
            .zip(&self.columns)
            .all(|(&c, (_, col))| c >= col.len());
        Some(if done { "drained" } else { "streaming" }.to_string())
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        // A spontaneous source drives itself; once every column is
        // drained nothing can revive it, letting the scheduler prove
        // quiescence instead of polling out the idle threshold.
        let done = self
            .cursors
            .iter()
            .zip(&self.columns)
            .all(|(&c, (_, col))| c >= col.len());
        if done {
            Wake::OnEvent
        } else {
            Wake::NextCycle
        }
    }
}

/// Registers the `fletcher.source` behaviour backed by `tables`
/// (keyed by table name, matched against the `@table` attribute of
/// the generated reader impl).
pub fn register_fletcher_behaviors(
    registry: &mut BehaviorRegistry,
    tables: HashMap<String, Table>,
) {
    let _span = tydi_obs::trace::span("tydi-fletcher", "register_fletcher_behaviors");
    let tables = Arc::new(tables);
    registry.register("fletcher.source", move |implementation, streamlet| {
        let table_name = implementation
            .attributes
            .get("table")
            .cloned()
            .ok_or_else(|| {
                format!(
                    "reader `{}` lacks the @table attribute",
                    implementation.name
                )
            })?;
        let table = tables
            .get(&table_name)
            .ok_or_else(|| format!("no simulation data registered for table `{table_name}`"))?;
        let mut columns = Vec::new();
        for port in &streamlet.ports {
            if port.direction == tydi_ir::PortDirection::Out {
                let column = table
                    .columns
                    .get(&*port.name)
                    .ok_or_else(|| format!("table `{table_name}` has no column `{}`", port.name))?
                    .clone();
                columns.push((port.name.to_string(), column));
            }
        }
        let cursors = vec![0; columns.len()];
        Ok(Box::new(FletcherSource { columns, cursors }))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_reader_package;
    use crate::schema::{ArrowField, ArrowSchema, ArrowType};
    use tydi_lang::{compile, CompileOptions};
    use tydi_sim::Simulator;
    use tydi_stdlib::with_stdlib;

    fn schema() -> ArrowSchema {
        ArrowSchema::new(
            "nums",
            vec![
                ArrowField::new("a", ArrowType::Int(32)),
                ArrowField::new("b", ArrowType::Int(32)),
            ],
        )
    }

    #[test]
    fn table_construction() {
        let t = Table::new()
            .with_column("a", vec![1, 2, 3])
            .with_column("b", vec![4, 5, 6]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column("a"), Some(&[1, 2, 3][..]));
        assert_eq!(t.column_names(), vec!["a", "b"]);
        assert!(t.column("z").is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_column_length_panics() {
        let _ = Table::new()
            .with_column("a", vec![1, 2, 3])
            .with_column("b", vec![4]);
    }

    #[test]
    fn reader_streams_columns_end_to_end() {
        // Fletcher package + a query that sums column a + b per row.
        let fletcher_src = generate_reader_package(&schema());
        let app = r#"
package app;
use std;
use fletcher_nums;
streamlet top_s {
    total : Stream(Bit(32), d=1, c=2) out,
}
// Columns a and b have distinct named types; mixing them in one adder
// needs the strict-equality opt-out (paper section IV-B).
@NoStrictType
impl top_i of top_s {
    instance rd(nums_reader_i),
    instance add(adder_i<type nums_a_t, type nums_b_t, type nums_a_t>),
    rd.a => add.in0,
    rd.b => add.in1,
    add.o => total,
}
"#;
        let sources = with_stdlib(&[("fletcher.td", fletcher_src.as_str()), ("app.td", app)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let compiled = compile(&refs, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("compile failed:\n{e}"));
        let mut tables = HashMap::new();
        tables.insert(
            "nums".to_string(),
            Table::new()
                .with_column("a", vec![1, 2, 3])
                .with_column("b", vec![10, 20, 30]),
        );
        let mut registry = tydi_sim::BehaviorRegistry::with_std();
        register_fletcher_behaviors(&mut registry, tables);
        let mut sim = Simulator::new(&compiled.project, "top_i", &registry).unwrap();
        let result = sim.run(10_000);
        assert!(result.finished, "{result:?}");
        let out: Vec<i64> = sim
            .outputs("total")
            .unwrap()
            .iter()
            .map(|(_, p)| p.data)
            .collect();
        assert_eq!(out, vec![11, 22, 33]);
        // Final packet closes the row sequence.
        let last = sim.outputs("total").unwrap().last().unwrap().1;
        assert_eq!(last.last, 1);
    }

    #[test]
    fn missing_table_is_reported() {
        let fletcher_src = generate_reader_package(&schema());
        let app = r#"
package app;
use std;
use fletcher_nums;
streamlet top_s { a : nums_a_t out, b : nums_b_t out, }
impl top_i of top_s {
    instance rd(nums_reader_i),
    rd.a => a,
    rd.b => b,
}
"#;
        let sources = with_stdlib(&[("fletcher.td", fletcher_src.as_str()), ("app.td", app)]);
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let compiled = compile(&refs, &CompileOptions::default()).unwrap();
        let mut registry = tydi_sim::BehaviorRegistry::with_std();
        register_fletcher_behaviors(&mut registry, HashMap::new());
        let err = Simulator::new(&compiled.project, "top_i", &registry);
        assert!(err.is_err());
    }
}
