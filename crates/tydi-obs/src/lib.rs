//! Observability substrate for the Tydi-lang toolchain: hierarchical
//! tracing spans with Chrome-trace export, and a process-wide metrics
//! registry, with no dependencies outside `std` (consistent with the
//! workspace's offline-shim policy).
//!
//! The crate has two halves:
//!
//! * [`trace`] — begin/end spans and instant markers, buffered
//!   per-thread without locks and drained into a Chrome trace-event
//!   JSON file (loadable in Perfetto or `about:tracing`). Recording is
//!   gated by one process-wide atomic: when tracing is disabled (the
//!   default), a span is a relaxed atomic load and nothing else — no
//!   allocation, no clock read, no buffer push. The `tydic --trace`
//!   flag flips the atomic for the whole process.
//! * [`metrics`] — named counters and gauges in one global registry,
//!   so the pipeline's scattered statistics (stage timings, type-store
//!   hit rates, cache reuse, simulation channel counters) land in a
//!   single typed snapshot.
//!
//! [`json`] is the workspace's one JSON representation, reader and
//! writer: the trace exporter, the metrics snapshot and every other
//! JSON document the toolchain writes print through it. [`memory`]
//! reads the process's peak RSS and minor page faults from procfs.
//!
//! # Span taxonomy
//!
//! Spans carry a `cat` (category) naming the crate that emitted them
//! (`core`, `tydi-spec`, `tydi-ir`, `tydi-vhdl`, `tydi-rtl`,
//! `tydi-sim`, `tydi-analyze`, `tydi-stdlib`, `tydi-fletcher`) and a
//! name identifying the unit of work: `stage:<stage>` for whole
//! pipeline stages, `parse:<file>`, `elab:<package>`, `drc:<impl>`,
//! `lower:<impl>`, `emit:<module>`, `sim:<scenario>`,
//! `analyze:<top>`, `fixpoint-iter:<n>`. Fine-grained spans
//! (per-component simulator firings, analyzer fixpoint iterations)
//! only record at [`trace::Level::Fine`], enabled by
//! `tydic --trace-fine`.

pub mod json;
pub mod memory;
pub mod metrics;
pub mod trace;

pub use trace::{
    fine_span_named, instant, instant_named, span, span_named, Event, Phase, SpanGuard,
};

/// Builds a span with a `format!`-style name, evaluated only when
/// tracing is enabled: `span!("core", "elab:{name}")`.
#[macro_export]
macro_rules! span {
    ($cat:expr, $($fmt:tt)+) => {
        $crate::trace::span_named($cat, || format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_formats_lazily() {
        // Disabled: the format must not run (a panicking closure would
        // fire if it did — span_named guarantees laziness; here we just
        // check the macro compiles against both literal and formatted
        // names and records nothing while disabled).
        let _serial = crate::trace::test_serial();
        crate::trace::set_level(crate::trace::Level::Off);
        let before = crate::trace::events_recorded();
        {
            let _a = span!("core", "literal");
            let _b = span!("core", "formatted:{}", 42);
        }
        assert_eq!(crate::trace::events_recorded(), before);
    }
}
