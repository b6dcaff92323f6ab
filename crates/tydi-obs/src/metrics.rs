//! The process-wide metrics registry: named counters and gauges behind
//! one mutex, snapshotted into one sorted, typed view that prints
//! through [`crate::json`].
//!
//! The registry absorbs the pipeline's previously scattered statistics
//! (stage timings, artifact-cache reuse counts, type-store hit rates,
//! simulation channel counters) so every
//! consumer — `tydic --timings`, `--timings-json`, the bench harness —
//! reads the same names from the same place.
//!
//! Publication sites use *set* semantics (`counter_set`, `gauge_set`)
//! when they report the final value of a finished unit of work (one
//! compile, one simulation batch), so long-lived processes like
//! `tydic check --watch` report per-run values rather than process
//! accumulations; incremental sites use `counter_add`.
//!
//! # Per-request scoping
//!
//! A long-lived server (the `tydic serve` daemon) publishes many
//! runs' metrics concurrently; raw names would clobber each other.
//! [`scoped`] pushes a thread-local name prefix (e.g. `req.17.`) that
//! every mutation on that thread applies transparently — publication
//! sites like `publish_compile_metrics` need no changes — and
//! [`Snapshot::prefixed`] reads one request's namespace back out.
//! Scoping is per-thread: work a scoped thread fans out to a pool
//! lands unscoped, so scope the thread that publishes the totals.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{self, Json};

thread_local! {
    /// The active name prefix for this thread's metric mutations.
    static SCOPE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII guard for a thread-local metric name scope; see [`scoped`].
#[derive(Debug)]
pub struct Scope {
    previous: Option<String>,
}

/// Prefixes every metric name this thread writes (or clears) with
/// `prefix` until the returned guard drops, restoring the previous
/// scope (scopes nest). Reads ([`snapshot`]) are unaffected: the
/// registry stays global, scoped names are just distinct entries.
pub fn scoped(prefix: impl Into<String>) -> Scope {
    let prefix = prefix.into();
    let previous = SCOPE.with(|scope| scope.replace(Some(prefix)));
    Scope { previous }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPE.with(|scope| *scope.borrow_mut() = previous);
    }
}

/// The thread's scope prefix applied to `name`.
fn scoped_name(name: &str) -> String {
    SCOPE.with(|scope| match scope.borrow().as_deref() {
        Some(prefix) => format!("{prefix}{name}"),
        None => name.to_string(),
    })
}

/// A typed metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic (or per-run) unsigned count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn with_registry<T>(f: impl FnOnce(&mut BTreeMap<String, Metric>) -> T) -> T {
    let mut registry = match REGISTRY.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut registry)
}

/// Adds `delta` to a counter, creating it at zero first.
pub fn counter_add(name: &str, delta: u64) {
    let name = scoped_name(name);
    with_registry(|registry| {
        let entry = registry.entry(name).or_insert(Metric::Counter(0));
        match entry {
            Metric::Counter(value) => *value += delta,
            other => *other = Metric::Counter(delta),
        }
    });
}

/// Sets a counter to an absolute value (per-run publication sites).
pub fn counter_set(name: &str, value: u64) {
    let name = scoped_name(name);
    with_registry(|registry| {
        registry.insert(name, Metric::Counter(value));
    });
}

/// Sets a gauge.
pub fn gauge_set(name: &str, value: f64) {
    let name = scoped_name(name);
    with_registry(|registry| {
        registry.insert(name, Metric::Gauge(value));
    });
}

/// Removes every metric whose name starts with `prefix` (per-run
/// publication sites clear their namespace before re-publishing, so a
/// second run never inherits stale entries from a first).
pub fn clear_prefix(prefix: &str) {
    let prefix = scoped_name(prefix);
    with_registry(|registry| {
        registry.retain(|name, _| !name.starts_with(&prefix));
    });
}

/// Removes every metric (test isolation).
pub fn reset() {
    with_registry(|registry| registry.clear());
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Name → value, in sorted name order.
    pub entries: BTreeMap<String, Metric>,
}

/// Copies the registry.
pub fn snapshot() -> Snapshot {
    Snapshot {
        entries: with_registry(|registry| registry.clone()),
    }
}

impl Snapshot {
    /// The counter's value, when `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Metric::Counter(value)) => Some(*value),
            _ => None,
        }
    }

    /// The gauge's value, when `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(Metric::Gauge(value)) => Some(*value),
            _ => None,
        }
    }

    /// Entries under a dotted prefix, e.g. `prefixed("sim.channel.")`.
    pub fn prefixed<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, &'a Metric)> {
        self.entries
            .iter()
            .filter(move |(name, _)| name.starts_with(prefix))
            .map(|(name, metric)| (name.as_str(), metric))
    }

    /// The entries under `prefix`, with the prefix stripped from their
    /// names: one scope's metrics under the names they were published
    /// with (see [`scoped`]).
    pub fn within(&self, prefix: &str) -> Snapshot {
        let entries = self
            .prefixed(prefix)
            .map(|(name, metric)| (name[prefix.len()..].to_string(), metric.clone()))
            .collect();
        Snapshot { entries }
    }

    /// Serializes the snapshot as one flat, single-line JSON object,
    /// names sorted, every value a number.
    pub fn to_json(&self) -> String {
        let members = self.entries.iter().map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(value) => Json::from(*value),
                Metric::Gauge(value) => Json::from(*value),
            };
            (name.as_str(), value)
        });
        json::object(members).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::trace::test_serial()
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let _serial = serial();
        reset();
        counter_add("cache.parse.reused", 3);
        counter_add("cache.parse.reused", 2);
        counter_set("cache.parse.recomputed", 8);
        gauge_set("timings.wall_ms", 12.5);
        let snap = snapshot();
        assert_eq!(snap.counter("cache.parse.reused"), Some(5));
        assert_eq!(snap.counter("cache.parse.recomputed"), Some(8));
        assert_eq!(snap.gauge("timings.wall_ms"), Some(12.5));
        reset();
        assert!(snapshot().entries.is_empty());
    }

    #[test]
    fn thread_scope_prefixes_writes_and_clears() {
        let _serial = serial();
        reset();
        counter_set("timings.wall", 1);
        {
            let _scope = scoped("req.7.");
            counter_set("timings.wall", 2);
            gauge_set("timings.parse_ms", 1.5);
            counter_set("types.distinct", 5);
            counter_add("cache.hits", 4);
            {
                let _inner = scoped("req.8.");
                counter_set("timings.wall", 3);
            }
            // Nested scope restored to req.7.
            counter_set("nested.restored", 1);
            // A scoped clear only touches the scoped namespace.
            clear_prefix("types.");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("timings.wall"), Some(1), "unscoped untouched");
        assert_eq!(snap.counter("req.7.timings.wall"), Some(2));
        assert_eq!(snap.counter("req.8.timings.wall"), Some(3));
        assert_eq!(snap.gauge("req.7.timings.parse_ms"), Some(1.5));
        assert_eq!(snap.counter("req.7.cache.hits"), Some(4));
        assert_eq!(snap.counter("req.7.nested.restored"), Some(1));
        assert_eq!(
            snap.counter("req.7.types.distinct"),
            None,
            "scoped clear applied"
        );
        let request = snap.within("req.7.");
        assert_eq!(request.counter("timings.wall"), Some(2), "prefix stripped");
        assert!(request.to_json().starts_with(r#"{"cache.hits":4,"#));
        // Guard dropped: writes land unscoped again.
        counter_set("after.scope", 9);
        assert_eq!(snapshot().counter("after.scope"), Some(9));
        reset();
    }

    #[test]
    fn clear_prefix_scopes_per_run_namespaces() {
        let _serial = serial();
        reset();
        counter_set("sim.channel.a", 1);
        counter_set("sim.channel.b", 2);
        counter_set("types.distinct", 7);
        clear_prefix("sim.");
        let snap = snapshot();
        assert_eq!(snap.counter("sim.channel.a"), None);
        assert_eq!(snap.counter("types.distinct"), Some(7));
        reset();
    }

    #[test]
    fn snapshot_json_is_sorted_and_parses_back() {
        let _serial = serial();
        reset();
        gauge_set("b.gauge", 2.0);
        counter_set("a.counter", 1);
        counter_set("c.escaped\"name", 3);
        let snap = snapshot();
        let text = snap.to_json();
        reset();
        let a = text.find("a.counter").unwrap();
        let b = text.find("b.gauge").unwrap();
        let c = text.find("c.escaped").unwrap();
        assert!(a < b && b < c, "sorted: {text}");
        let parsed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("a.counter").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(parsed.get("b.gauge").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            parsed.get("c.escaped\"name").and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }
}
