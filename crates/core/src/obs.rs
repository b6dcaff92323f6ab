//! Publication of a finished compile's statistics into the
//! [`tydi_obs::metrics`] registry.
//!
//! Historically every statistic had its own struct and its own
//! printer (`StageTimings`, `TypeStoreStats`, the per-stage cache
//! counts); this module folds them all into one named
//! snapshot so `tydic --timings`, `--timings-json` and the bench
//! harness read identical values from identical names.
//!
//! Names are dotted and stable:
//!
//! | prefix      | contents                                           |
//! |-------------|----------------------------------------------------|
//! | `timings.`  | per-stage and codegen self times, the wall, in ms  |
//! | `cache.`    | artifact-cache reuse (per stage and elab lookups)  |
//! | `types.`    | type-store hash-consing counts                     |
//!
//! Publication uses *set* semantics and clears its prefixes first, so
//! a long-lived process (e.g. `tydic check --watch`) always reports
//! the latest run, not an accumulation — except `cache.elab.lookup_*`,
//! which [`crate::compile_with_cache`] counts incrementally as
//! lookups actually happen.

use crate::pipeline::CompileOutput;
use crate::session::Stage;
use std::time::Duration;
use tydi_obs::metrics;

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Publishes one compile's timings, cache reuse and type-store
/// statistics, replacing any previous run's values.
pub fn publish_compile_metrics(output: &CompileOutput) {
    metrics::clear_prefix("timings.");
    metrics::clear_prefix("cache.stage.");
    metrics::clear_prefix("types.");

    let t = output.timings;
    metrics::gauge_set("timings.parse_ms", ms(t.parse));
    // A part of `timings.parse_ms`, not a sibling row.
    metrics::gauge_set("timings.fingerprint_ms", ms(t.fingerprint));
    metrics::gauge_set("timings.elaborate_ms", ms(t.elaborate));
    metrics::gauge_set("timings.sugar_ms", ms(t.sugar));
    metrics::gauge_set("timings.drc_ms", ms(t.drc));
    metrics::gauge_set("timings.analyze_ms", ms(t.analyze));
    metrics::gauge_set("timings.lower_ms", ms(t.lower));
    metrics::gauge_set("timings.emit_ms", ms(t.emit));
    metrics::gauge_set("timings.write_ms", ms(t.write));
    metrics::gauge_set("timings.total_self_ms", ms(t.total()));
    metrics::gauge_set("timings.wall_ms", ms(t.wall));

    for stage in [Stage::Parse, Stage::Elaborate, Stage::Sugar, Stage::Drc] {
        let (mut reused, mut recomputed) = (0u64, 0u64);
        for record in &output.stage_records {
            if record.stage == stage {
                reused += record.reused as u64;
                recomputed += record.recomputed as u64;
            }
        }
        metrics::counter_set(&format!("cache.stage.{}.reused", stage.name()), reused);
        metrics::counter_set(
            &format!("cache.stage.{}.recomputed", stage.name()),
            recomputed,
        );
    }

    let ts = output.elab_info.type_store;
    metrics::counter_set("types.distinct", ts.distinct_types as u64);
    metrics::counter_set("types.intern_hits", ts.intern_hits as u64);
    metrics::gauge_set("types.intern_hit_rate_pct", ts.hit_rate());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    const WIRE: &str = r#"
package demo;
type Byte = Stream(Bit(8));
streamlet wire_s { i : Byte in, o : Byte out, }
impl wire_i of wire_s { i => o, }
"#;

    #[test]
    fn publish_fills_every_namespace_and_replaces_prior_runs() {
        let output = compile(&[("wire.td", WIRE)], &CompileOptions::default()).unwrap();
        metrics::counter_set("types.distinct", 999_999);
        publish_compile_metrics(&output);
        let snap = metrics::snapshot();
        assert!(snap.gauge("timings.wall_ms").unwrap() > 0.0);
        assert!(snap.gauge("timings.parse_ms").is_some());
        assert_eq!(snap.counter("cache.stage.parse.recomputed"), Some(1));
        assert_eq!(snap.counter("cache.stage.parse.reused"), Some(0));
        // The stale value was cleared, not merely overwritten by name.
        assert_ne!(snap.counter("types.distinct"), Some(999_999));
    }
}
