//! Expansion of typed Tydi ports into VHDL signals.
//!
//! A Tydi port lowers to one or more physical streams; each physical
//! stream contributes a `valid`/`ready` handshake pair plus its payload
//! signals. `ready` always travels against the data direction.
//!
//! The physical streams come from [`tydi_spec::lower`], a pure
//! function of the port type that nothing here caches: [`expand_port`]
//! calls it on every use, and the lowering pass keeps a run-local map
//! so each distinct port type is lowered once per run.

use crate::error::VhdlError;
use std::sync::Arc;
use tydi_ir::{Port, PortDirection, Streamlet};
use tydi_rtl::netlist::signal_name;
use tydi_spec::{lower, ClockDomain, Direction, PhysicalStream};

/// Mode of a VHDL entity port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortMode {
    /// `in` from the entity's perspective.
    In,
    /// `out` from the entity's perspective.
    Out,
}

impl PortMode {
    fn flip(self) -> PortMode {
        match self {
            PortMode::In => PortMode::Out,
            PortMode::Out => PortMode::In,
        }
    }

    /// The VHDL keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            PortMode::In => "in",
            PortMode::Out => "out",
        }
    }
}

/// One scalar or vector VHDL signal derived from a Tydi port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VhdlSignal {
    /// Full signal name, e.g. `in0_chars_data`.
    pub name: String,
    /// Width in bits; width 1 renders as `std_logic`.
    pub width: u32,
    /// Entity port mode.
    pub mode: PortMode,
}

impl VhdlSignal {
    /// The VHDL type of this signal.
    pub fn vhdl_type(&self) -> String {
        vhdl_type(self.width)
    }
}

pub use tydi_rtl::vhdl::vhdl_type;

/// The signals of one port, named relative to the port and computed
/// once from its type and direction.
///
/// Every module that declares, wires or instantiates the port names
/// its signals by prefixing these suffixes (see
/// [`tydi_rtl::netlist::signal_name`]): the port name on the entity,
/// a net name on a connection bundle. Lowering builds one per port of
/// each implementation and shares the suffix and width lists with
/// every instance's port map and every net that carries the port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSignals {
    /// Each signal's name below the port, e.g. `valid` or
    /// `chars_data`.
    pub suffixes: Arc<[String]>,
    /// Width of each signal, parallel to `suffixes`.
    pub widths: Arc<[u32]>,
    /// Entity mode of each signal, parallel to `suffixes`.
    pub modes: Vec<PortMode>,
}

impl PortSignals {
    /// The signal suffixes of a port in `direction` whose type lowers
    /// to `physical`.
    pub fn new(direction: PortDirection, physical: &[PhysicalStream]) -> PortSignals {
        let mut suffixes = Vec::new();
        let mut widths = Vec::new();
        let mut modes = Vec::new();
        for stream in physical {
            let path = stream.name_suffix();
            // The data direction of this physical stream from the
            // entity's perspective: the port direction, flipped for
            // reverse streams.
            let data_mode = match (direction, stream.direction) {
                (PortDirection::In, Direction::Forward)
                | (PortDirection::Out, Direction::Reverse) => PortMode::In,
                _ => PortMode::Out,
            };
            let payload = stream
                .signals()
                .named_signals()
                .map(|(name, width)| (name, width, data_mode));
            let handshake = [("valid", 1, data_mode), ("ready", 1, data_mode.flip())];
            for (name, width, mode) in handshake.into_iter().chain(payload) {
                suffixes.push(signal_name(&path, name));
                widths.push(width);
                modes.push(mode);
            }
        }
        PortSignals {
            suffixes: suffixes.into(),
            widths: widths.into(),
            modes,
        }
    }

    /// The signals with their full names under `prefix`.
    pub fn named<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = VhdlSignal> + 'a {
        self.suffixes
            .iter()
            .zip(self.widths.iter().zip(&self.modes))
            .map(move |(suffix, (&width, &mode))| VhdlSignal {
                name: signal_name(prefix, suffix),
                width,
                mode,
            })
    }
}

/// Expands a port into its VHDL signals, named under the port name.
pub fn expand_port(port: &Port) -> Result<Vec<VhdlSignal>, VhdlError> {
    let signals = PortSignals::new(port.direction, &lower(&port.ty)?);
    Ok(signals.named(&port.name).collect())
}

/// The distinct clock domains of a streamlet, in first-use order, with
/// their VHDL clock/reset signal names.
pub fn clock_signals(streamlet: &Streamlet) -> Vec<(ClockDomain, String, String)> {
    let mut out: Vec<(ClockDomain, String, String)> = Vec::new();
    for port in &streamlet.ports {
        if out.iter().any(|(d, _, _)| *d == port.clock) {
            continue;
        }
        let (clk, rst) = if port.clock.is_default() {
            ("clk".to_string(), "rst".to_string())
        } else {
            (
                format!("clk_{}", port.clock.name()),
                format!("rst_{}", port.clock.name()),
            )
        };
        out.push((port.clock.clone(), clk, rst));
    }
    if out.is_empty() {
        out.push((ClockDomain::default(), "clk".to_string(), "rst".to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_spec::{LogicalType, StreamParams};

    fn stream(width: u32, dim: u32) -> LogicalType {
        LogicalType::stream(
            LogicalType::Bit(width),
            StreamParams::new().with_dimension(dim),
        )
    }

    #[test]
    fn vhdl_types() {
        assert_eq!(vhdl_type(1), "std_logic");
        assert_eq!(vhdl_type(8), "std_logic_vector(7 downto 0)");
    }

    #[test]
    fn simple_in_port_expansion() {
        let p = Port::new("in0", PortDirection::In, stream(8, 0));
        let sigs = expand_port(&p).unwrap();
        let names: Vec<&str> = sigs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["in0_valid", "in0_ready", "in0_data"]);
        assert_eq!(sigs[0].mode, PortMode::In);
        assert_eq!(sigs[1].mode, PortMode::Out); // ready flows back
        assert_eq!(sigs[2].width, 8);
    }

    #[test]
    fn out_port_flips_modes() {
        let p = Port::new("o", PortDirection::Out, stream(8, 1));
        let sigs = expand_port(&p).unwrap();
        let valid = sigs.iter().find(|s| s.name == "o_valid").unwrap();
        let ready = sigs.iter().find(|s| s.name == "o_ready").unwrap();
        let last = sigs.iter().find(|s| s.name == "o_last").unwrap();
        assert_eq!(valid.mode, PortMode::Out);
        assert_eq!(ready.mode, PortMode::In);
        assert_eq!(last.mode, PortMode::Out);
        assert_eq!(last.width, 1);
    }

    #[test]
    fn nested_stream_gets_path_prefix() {
        let record =
            LogicalType::group(vec![("len", LogicalType::Bit(16)), ("chars", stream(8, 1))]);
        let p = Port::new(
            "rec",
            PortDirection::In,
            LogicalType::stream(record, StreamParams::new()),
        );
        let sigs = expand_port(&p).unwrap();
        let names: Vec<&str> = sigs.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"rec_valid"));
        assert!(names.contains(&"rec_chars_valid"));
        assert!(names.contains(&"rec_chars_data"));
    }

    #[test]
    fn port_signals_rename_under_any_prefix() {
        let p = Port::new("in0", PortDirection::In, stream(8, 1));
        let signals = PortSignals::new(p.direction, &lower(&p.ty).unwrap());
        assert_eq!(
            &*signals.suffixes,
            ["valid", "ready", "data", "last", "strb"]
        );
        let names: Vec<String> = signals.named("c0_net").map(|s| s.name).collect();
        assert_eq!(names[0], "c0_net_valid");
        assert_eq!(names[2], "c0_net_data");
    }

    #[test]
    fn reverse_stream_flips_data_mode() {
        let resp = LogicalType::stream(
            LogicalType::Bit(8),
            StreamParams::new().with_direction(Direction::Reverse),
        );
        let req = LogicalType::group(vec![("q", LogicalType::Bit(4)), ("resp", resp)]);
        let p = Port::new(
            "ch",
            PortDirection::In,
            LogicalType::stream(req, StreamParams::new()),
        );
        let sigs = expand_port(&p).unwrap();
        let fwd_valid = sigs.iter().find(|s| s.name == "ch_valid").unwrap();
        let rev_valid = sigs.iter().find(|s| s.name == "ch_resp_valid").unwrap();
        assert_eq!(fwd_valid.mode, PortMode::In);
        assert_eq!(rev_valid.mode, PortMode::Out);
    }

    #[test]
    fn clock_signal_collection() {
        let s = Streamlet::new("s")
            .with_port(Port::new("a", PortDirection::In, stream(8, 0)))
            .with_port(
                Port::new("b", PortDirection::In, stream(8, 0)).with_clock(ClockDomain::new("mem")),
            )
            .with_port(Port::new("c", PortDirection::Out, stream(8, 0)));
        let clocks = clock_signals(&s);
        assert_eq!(clocks.len(), 2);
        assert_eq!(clocks[0].1, "clk");
        assert_eq!(clocks[1].1, "clk_mem");
        assert_eq!(clocks[1].2, "rst_mem");
    }

    #[test]
    fn portless_streamlet_still_has_clock() {
        let s = Streamlet::new("s");
        assert_eq!(clock_signals(&s).len(), 1);
    }
}
