//! Hierarchical spans with per-thread event buffers and Chrome
//! trace-event export.
//!
//! # Design
//!
//! Recording is controlled by one process-wide [`AtomicU8`] level. On
//! the disabled path every entry point reduces to a single relaxed
//! load and an immediate return: no allocation, no `Instant::now()`,
//! no thread-local access. Span names are passed as closures
//! (`span_named`) precisely so the `format!` only runs once the level
//! check has passed.
//!
//! When enabled, each thread appends events to its own buffer, found
//! through a thread-local handle and registered once in a global
//! list. The buffer is behind a mutex, but only its owning thread
//! takes it on the hot path, so pushes never contend (one
//! uncontended lock ≈ one CAS); [`take_events`] walks the registry
//! and drains every buffer, including those of worker threads that
//! have already exited. (Draining through a registry rather than
//! thread-exit `Drop` flushes matters: `std::thread::scope` joins
//! report a worker as finished when its closure returns, which can be
//! *before* its thread-local destructors run, so a `Drop`-based flush
//! can race a drain that follows the scope.)
//!
//! Threads are numbered sequentially in first-record order, so trace
//! files use small stable track ids instead of opaque OS thread ids.
//! Timestamps are nanoseconds from a process-wide epoch fixed at the
//! first enabled record.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// Recording level, stored in a process-wide atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
#[repr(u8)]
pub enum Level {
    /// Nothing records (the default).
    Off = 0,
    /// Pipeline-structure spans record (stages, per-file, per-package,
    /// per-impl, per-scenario).
    Coarse = 1,
    /// Everything records, including per-component simulator firings
    /// and analyzer fixpoint iterations.
    Fine = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);
/// Total events ever recorded — the counter behind the allocation-free
/// guarantee's regression test: a disabled-trace compile must leave it
/// untouched.
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every live (or undrained) per-thread buffer, in registration order.
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Event>>>>> = Mutex::new(Vec::new());

/// One trace event. `phase` follows the Chrome trace-event phases:
/// `B` (span begin), `E` (span end), `i` (instant marker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Begin, end or instant.
    pub phase: Phase,
    /// Category: the emitting crate (`core`, `tydi-sim`, ...).
    pub cat: &'static str,
    /// Span or marker name (`stage:parse`, `elab:pkg3`, ...).
    pub name: String,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Sequential small thread id (first-record order).
    pub tid: u32,
}

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant marker (`"i"`).
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

struct ThreadBuf {
    tid: u32,
    events: Arc<Mutex<Vec<Event>>>,
}

thread_local! {
    static BUF: ThreadBuf = {
        let events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
        if let Ok(mut registry) = REGISTRY.lock() {
            registry.push(Arc::clone(&events));
        }
        ThreadBuf {
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            events,
        }
    };
}

/// Sets the recording level for the whole process.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current recording level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Coarse,
        _ => Level::Fine,
    }
}

/// True when coarse spans record.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Coarse as u8
}

/// True when fine-grained spans record too.
#[inline]
pub fn fine_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Fine as u8
}

/// Total events recorded so far (monotonic; never reset). A
/// disabled-trace workload must not move this.
pub fn events_recorded() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

fn record(phase: Phase, cat: &'static str, name: String) {
    EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
    let ts_ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64;
    BUF.with(|buf| {
        // Only the owning thread pushes, so this lock never contends
        // except against a concurrent drain.
        if let Ok(mut events) = buf.events.lock() {
            events.push(Event {
                phase,
                cat,
                name,
                ts_ns,
                tid: buf.tid,
            });
        }
    });
}

/// Closes its span (emitting the matching end event) on drop. Inert
/// when tracing was disabled at creation.
#[must_use = "dropping the guard immediately makes a zero-length span"]
pub struct SpanGuard(Option<(&'static str, String)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cat, name)) = self.0.take() {
            record(Phase::End, cat, name);
        }
    }
}

fn begin(cat: &'static str, name: String) -> SpanGuard {
    record(Phase::Begin, cat, name.clone());
    SpanGuard(Some((cat, name)))
}

/// Opens a span with a static name. A relaxed load and nothing else
/// when tracing is disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    begin(cat, name.to_string())
}

/// Opens a span with a lazily computed name; `name` only runs when
/// tracing is enabled.
#[inline]
pub fn span_named<F: FnOnce() -> String>(cat: &'static str, name: F) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    begin(cat, name())
}

/// Opens a fine-grained span (per-component firings, fixpoint
/// iterations); records only at [`Level::Fine`].
#[inline]
pub fn fine_span_named<F: FnOnce() -> String>(cat: &'static str, name: F) -> SpanGuard {
    if !fine_enabled() {
        return SpanGuard(None);
    }
    begin(cat, name())
}

/// Records an instant marker with a static name.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if enabled() {
        record(Phase::Instant, cat, name.to_string());
    }
}

/// Records an instant marker with a lazily computed name.
#[inline]
pub fn instant_named<F: FnOnce() -> String>(cat: &'static str, name: F) {
    if enabled() {
        record(Phase::Instant, cat, name());
    }
}

/// Drains every recorded event from every thread's buffer, sorted by
/// timestamp (stable, so per-thread event order is preserved). Buffers
/// of exited threads drain too; once drained and dead, their registry
/// slots are pruned.
pub fn take_events() -> Vec<Event> {
    let mut registry = match REGISTRY.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut events = Vec::new();
    for buffer in registry.iter() {
        if let Ok(mut buffered) = buffer.lock() {
            events.append(&mut buffered);
        }
    }
    // A strong count of 1 means the owning thread exited (only the
    // registry still holds the buffer); it can never refill.
    registry.retain(|buffer| Arc::strong_count(buffer) > 1);
    drop(registry);
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Serializes events as Chrome trace-event JSON (the `traceEvents`
/// object form Perfetto and `about:tracing` load directly), one line
/// plus a newline. Timestamps are microseconds with nanosecond
/// precision; all events share `pid` 1.
pub fn chrome_trace(events: &[Event]) -> String {
    let events = events
        .iter()
        .map(|event| {
            let mut fields = json::object([
                ("ph", event.phase.code().into()),
                ("cat", event.cat.into()),
                ("name", event.name.as_str().into()),
                ("ts", (event.ts_ns as f64 / 1e3).into()),
                ("pid", 1u32.into()),
                ("tid", event.tid.into()),
            ]);
            if event.phase == Phase::Instant {
                // Thread-scoped instants render as thin markers on the
                // emitting thread's track.
                fields.push("s", "t");
            }
            fields
        })
        .collect();
    format!("{}\n", json::object([("traceEvents", events)]))
}

/// Serializes a full take: flushes, drains and formats in one call.
pub fn export_chrome_trace() -> String {
    chrome_trace(&take_events())
}

#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_never_allocates_events() {
        let _serial = test_serial();
        set_level(Level::Off);
        let _ = take_events();
        let before = events_recorded();
        {
            let _a = span("core", "quiet");
            let _b = span_named("core", || panic!("name closure must not run"));
            let _c = fine_span_named("core", || panic!("fine name closure must not run"));
            instant("core", "nope");
            instant_named("core", || panic!("instant closure must not run"));
        }
        assert_eq!(events_recorded(), before);
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_balance_and_nest() {
        let _serial = test_serial();
        set_level(Level::Coarse);
        let _ = take_events();
        {
            let _outer = span("core", "outer");
            {
                let _inner = span_named("core", || "inner".to_string());
            }
            instant("core", "mark");
        }
        set_level(Level::Off);
        let events = take_events();
        let names: Vec<(&str, Phase)> = events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("mark", Phase::Instant),
                ("outer", Phase::End),
            ]
        );
        // All on the same (stable, small) thread id.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
    }

    #[test]
    fn fine_spans_only_record_at_fine() {
        let _serial = test_serial();
        set_level(Level::Coarse);
        let _ = take_events();
        {
            let _skipped = fine_span_named("tydi-sim", || "fire:x".to_string());
        }
        assert!(take_events().is_empty());
        set_level(Level::Fine);
        {
            let _kept = fine_span_named("tydi-sim", || "fire:x".to_string());
        }
        set_level(Level::Off);
        assert_eq!(take_events().len(), 2);
    }

    #[test]
    fn worker_threads_flush_on_exit_with_distinct_tids() {
        let _serial = test_serial();
        set_level(Level::Coarse);
        let _ = take_events();
        std::thread::scope(|scope| {
            for k in 0..2 {
                scope.spawn(move || {
                    let _s = span_named("core", || format!("task:{k}"));
                });
            }
        });
        set_level(Level::Off);
        let events = take_events();
        assert_eq!(events.len(), 4);
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "each worker gets its own track");
        // Per tid, begin strictly precedes end.
        for tid in tids {
            let phases: Vec<Phase> = events
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.phase)
                .collect();
            assert_eq!(phases, vec![Phase::Begin, Phase::End]);
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            Event {
                phase: Phase::Begin,
                cat: "core",
                name: "stage:parse".to_string(),
                ts_ns: 1_500,
                tid: 0,
            },
            Event {
                phase: Phase::End,
                cat: "core",
                name: "stage:parse".to_string(),
                ts_ns: 2_750,
                tid: 0,
            },
            Event {
                phase: Phase::Instant,
                cat: "core",
                name: "cache \"hit\"".to_string(),
                ts_ns: 3_000,
                tid: 1,
            },
        ];
        let text = chrome_trace(&events);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ts\":1.5,"));
        assert!(text.contains("\"ts\":2.75,"));
        assert!(text.contains("\"ts\":3,"));
        assert!(text.contains("\"s\":\"t\""));
        assert!(text.contains("cache \\\"hit\\\""));
        // Parses back with the crate's own reader.
        let parsed = crate::json::parse(&text).expect("valid JSON");
        let list = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(list.len(), 3);
        assert_eq!(
            list[0].get("name").and_then(|v| v.as_str()),
            Some("stage:parse")
        );
    }
}
