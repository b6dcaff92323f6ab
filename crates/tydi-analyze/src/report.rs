//! The analysis result: structured diagnostics, per-channel and
//! per-output bounds, a human-readable rendering, and a
//! machine-readable JSON document.
//!
//! The JSON document is a [`tydi_obs::json`] value printed in its
//! indented form, with numbers at full precision; the text rendering
//! rounds rates to 4 decimals.

use std::fmt;
use tydi_obs::json::{self, Json};

/// Diagnostic severity, ordered so `Error > Warning > Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a bound or an observation, not a defect.
    Info,
    /// Likely performance problem; the design still makes progress.
    Warning,
    /// Structural condition that can wedge the design entirely.
    Error,
}

impl Severity {
    /// The lowercase name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a severity name (for CLI `--deny` values).
    pub fn parse(text: &str) -> Option<Severity> {
        match text {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The hazard families the analysis can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// A dependency cycle that bounded FIFOs can wedge.
    DeadlockableCycle,
    /// A merge point offered more than it can serve.
    FanInContention,
    /// A declared stream throughput the structure cannot deliver.
    RateMismatch,
    /// A join whose arrival skew exceeds the early arm's FIFO depth.
    CreditStarvation,
}

impl HazardKind {
    /// The kebab-case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            HazardKind::DeadlockableCycle => "deadlockable-cycle",
            HazardKind::FanInContention => "fan-in-contention",
            HazardKind::RateMismatch => "rate-mismatch",
            HazardKind::CreditStarvation => "credit-starvation",
        }
    }
}

/// One structural hazard.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// The hazard family.
    pub kind: HazardKind,
    /// How bad it is.
    pub severity: Severity,
    /// The component path (or `path.port`) at the hazard site.
    pub component: Option<String>,
    /// The implementation declaring the hazard-site component, when
    /// the site maps to real (non-synthetic) user code. Lets callers
    /// point a source-span diagnostic at the declaration.
    pub impl_name: Option<String>,
    /// The channels involved, in simulator naming.
    pub channels: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

/// The predicted bound for one channel.
#[derive(Debug, Clone)]
pub struct ChannelBound {
    /// Channel name (identical to the simulator's).
    pub name: String,
    /// FIFO capacity in packets.
    pub capacity: usize,
    /// Sustained-throughput upper bound in elements per cycle.
    pub elements_per_cycle: f64,
    /// Earliest-arrival lower bound in cycles; `None` if unreachable.
    pub min_latency: Option<u64>,
}

/// The predicted bound for one boundary output port.
#[derive(Debug, Clone)]
pub struct PortBound {
    /// Top-level port name.
    pub port: String,
    /// The boundary channel carrying it.
    pub channel: String,
    /// Sustained-throughput upper bound in elements per cycle.
    pub elements_per_cycle: f64,
    /// The bound scaled by the clock, when one was given.
    pub throughput_hz: Option<f64>,
    /// Pipeline-depth lower bound in cycles; `None` if unreachable.
    pub min_latency_cycles: Option<u64>,
    /// Declared peak rate from the port's stream type (lanes).
    pub declared_peak: Option<f64>,
    /// Declared minimum rate from the port's stream type (throughput).
    pub declared_min: Option<f64>,
}

/// How tight the bounds are believed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// Every component had an exact service model: the bound should be
    /// close to the measured rate on a backpressure-free run.
    Exact,
    /// At least one component was modelled conservatively: the bound
    /// is sound but may be loose.
    UpperBound,
}

impl Confidence {
    /// The name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Confidence::Exact => "exact",
            Confidence::UpperBound => "upper-bound",
        }
    }
}

/// The channels that can transitively block one boundary output.
#[derive(Debug, Clone)]
pub struct StallCone {
    /// Top-level output port.
    pub port: String,
    /// Every channel whose congestion can reach the port, sorted.
    pub channels: Vec<String>,
}

/// The full result of a static analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Analyzed top-level implementation.
    pub top: String,
    /// Number of leaf components after flattening.
    pub components: usize,
    /// Per-channel bounds, in flattening order.
    pub channels: Vec<ChannelBound>,
    /// Per-output bounds.
    pub outputs: Vec<PortBound>,
    /// Detected hazards, most severe first.
    pub hazards: Vec<Hazard>,
    /// Per-output stall cones.
    pub stall_cones: Vec<StallCone>,
    /// Bound tightness.
    pub confidence: Confidence,
    /// Whether the rate fixpoint converged before its iteration cap.
    pub converged: bool,
}

impl AnalysisReport {
    /// The most severe hazard present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.hazards.iter().map(|h| h.severity).max()
    }

    /// The hazards at or above a severity.
    pub fn hazards_at_least(&self, severity: Severity) -> impl Iterator<Item = &Hazard> {
        self.hazards.iter().filter(move |h| h.severity >= severity)
    }

    /// The predicted bound for a named output port.
    pub fn output(&self, port: &str) -> Option<&PortBound> {
        self.outputs.iter().find(|o| o.port == port)
    }

    /// The stall cone of a named output port.
    pub fn stall_cone(&self, port: &str) -> Option<&StallCone> {
        self.stall_cones.iter().find(|c| c.port == port)
    }

    /// Renders the machine-readable JSON document (indented, with a
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let outputs = self.outputs.iter().map(|o| {
            let mut fields = json::object([
                ("port", o.port.as_str().into()),
                ("channel", o.channel.as_str().into()),
                ("elements_per_cycle", o.elements_per_cycle.into()),
            ]);
            fields.push_some("throughput_hz", o.throughput_hz);
            fields.push_some("min_latency_cycles", o.min_latency_cycles);
            fields.push_some("declared_peak", o.declared_peak);
            fields.push_some("declared_min", o.declared_min);
            fields
        });
        let channels = self.channels.iter().map(|c| {
            let mut fields = json::object([
                ("name", c.name.as_str().into()),
                ("capacity", c.capacity.into()),
                ("elements_per_cycle", c.elements_per_cycle.into()),
            ]);
            fields.push_some("min_latency", c.min_latency);
            fields
        });
        let hazards = self.hazards.iter().map(|h| {
            let mut fields = json::object([
                ("kind", h.kind.name().into()),
                ("severity", h.severity.name().into()),
            ]);
            fields.push_some("at", h.component.as_ref());
            fields.push_some("impl", h.impl_name.as_ref());
            fields.push("channels", h.channels.iter().collect::<Json>());
            fields.push("message", &h.message);
            fields
        });
        let stall_cones = self.stall_cones.iter().map(|cone| {
            json::object([
                ("port", cone.port.as_str().into()),
                ("channels", cone.channels.iter().collect()),
            ])
        });
        let report = json::object([
            ("top", self.top.as_str().into()),
            ("confidence", self.confidence.name().into()),
            ("converged", self.converged.into()),
            ("components", self.components.into()),
            ("outputs", outputs.collect()),
            ("channels", channels.collect()),
            ("hazards", hazards.collect()),
            ("stall_cones", stall_cones.collect()),
        ]);
        format!("{report:#}\n")
    }
}

/// A rate rounded to 4 decimals, as the text rendering shows it.
fn round4(value: f64) -> f64 {
    (value * 1e4).round() / 1e4
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Static analysis of `{}`: {} components, {} channels, confidence {}",
            self.top,
            self.components,
            self.channels.len(),
            self.confidence.name()
        )?;
        writeln!(f, "  outputs:")?;
        for o in &self.outputs {
            write!(
                f,
                "    {:<12} <= {} elements/cycle",
                o.port,
                round4(o.elements_per_cycle)
            )?;
            if let Some(hz) = o.throughput_hz {
                write!(f, " ({} Hz)", round4(hz))?;
            }
            match o.min_latency_cycles {
                Some(lat) => writeln!(f, ", first element after >= {lat} cycles")?,
                None => writeln!(f, ", unreachable")?,
            }
        }
        if self.hazards.is_empty() {
            writeln!(f, "  no structural hazards")?;
        } else {
            writeln!(f, "  hazards:")?;
            for h in &self.hazards {
                writeln!(
                    f,
                    "    [{}] {}: {}",
                    h.severity.name(),
                    h.kind.name(),
                    h.message
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            top: "top_i".into(),
            components: 2,
            channels: vec![ChannelBound {
                name: "boundary.o".into(),
                capacity: 2,
                elements_per_cycle: 0.25,
                min_latency: Some(5),
            }],
            outputs: vec![PortBound {
                port: "o".into(),
                channel: "boundary.o".into(),
                elements_per_cycle: 0.25,
                throughput_hz: Some(25_000_000.0),
                min_latency_cycles: Some(5),
                declared_peak: Some(1.0),
                declared_min: None,
            }],
            hazards: vec![Hazard {
                kind: HazardKind::FanInContention,
                severity: Severity::Warning,
                component: Some("top.mux".into()),
                impl_name: Some("mux_i".into()),
                channels: vec!["boundary.a".into(), "boundary.b".into()],
                message: "offered 2.000 but serves 1.000".into(),
            }],
            stall_cones: vec![StallCone {
                port: "o".into(),
                channels: vec!["boundary.o".into()],
            }],
            confidence: Confidence::Exact,
            converged: true,
        }
    }

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("bogus"), None);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn report_queries() {
        let r = sample();
        assert_eq!(r.max_severity(), Some(Severity::Warning));
        assert_eq!(r.hazards_at_least(Severity::Error).count(), 0);
        assert_eq!(r.hazards_at_least(Severity::Info).count(), 1);
        assert!(r.output("o").is_some());
        assert!(r.output("ghost").is_none());
        assert_eq!(r.stall_cone("o").unwrap().channels.len(), 1);
    }

    #[test]
    fn json_is_well_formed_enough_to_grep() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        let report = json::parse(&json).expect("valid JSON");
        let field = |value: &Json, key: &str| value.get(key).cloned();
        assert_eq!(field(&report, "top"), Some("top_i".into()));
        assert_eq!(field(&report, "confidence"), Some("exact".into()));
        let hazard = &report.get("hazards").and_then(Json::as_array).unwrap()[0];
        assert_eq!(field(hazard, "kind"), Some("fan-in-contention".into()));
        let output = &report.get("outputs").and_then(Json::as_array).unwrap()[0];
        assert_eq!(field(output, "elements_per_cycle"), Some(0.25.into()));
        assert_eq!(field(output, "throughput_hz"), Some(25_000_000.0.into()));
        assert!(json.contains("\"throughput_hz\": 25000000"));
    }

    #[test]
    fn display_mentions_bounds_and_hazards() {
        let text = sample().to_string();
        assert!(text.contains("0.25 elements/cycle"));
        assert!(text.contains("[warning] fan-in-contention"));
        assert!(text.contains("first element after >= 5 cycles"));
    }
}
