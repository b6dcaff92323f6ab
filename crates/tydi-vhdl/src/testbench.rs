//! VHDL testbench generation from Tydi-IR testbenches.
//!
//! The Tydi simulator records handshaked transfers at the boundary of a
//! top-level implementation; this module lowers that recording to a
//! self-checking VHDL testbench (paper §V-C): one driver process per
//! stimulated input port, one checker process per observed output port,
//! and a free-running clock.
//!
//! Transfers address the *root* physical stream of each port; designs
//! whose top-level ports carry nested streams need one transfer entry
//! per physical stream, which the simulator emits with suffixed port
//! names.

use crate::error::VhdlError;
use crate::names::sanitize;
use crate::signals::{expand_port, vhdl_type};
use crate::VhdlOptions;
use std::fmt::Write as _;
use tydi_ir::{PortDirection, Project, Testbench, Transfer};

/// Generates a self-checking VHDL testbench for `testbench.top_impl`.
pub fn generate_testbench(
    project: &Project,
    testbench: &Testbench,
    options: &VhdlOptions,
) -> Result<String, VhdlError> {
    let implementation = project.implementation(&testbench.top_impl).ok_or_else(|| {
        VhdlError::Inconsistent(format!(
            "testbench references missing implementation `{}`",
            testbench.top_impl
        ))
    })?;
    let streamlet = project
        .streamlet(&implementation.streamlet)
        .ok_or_else(|| {
            VhdlError::Inconsistent(format!(
                "implementation `{}` references missing streamlet `{}`",
                implementation.name, implementation.streamlet
            ))
        })?;
    let entity = sanitize(&testbench.name);
    let uut_entity = sanitize(&implementation.name);

    let mut out = String::new();
    if options.emit_comments {
        let _ = writeln!(out, "-- Generated testbench for `{}`.", implementation.name);
        for line in testbench.comment.lines() {
            let _ = writeln!(out, "-- {line}");
        }
    }
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;");
    let _ = writeln!(out);
    let _ = writeln!(out, "entity {entity} is");
    let _ = writeln!(out, "end entity {entity};");
    let _ = writeln!(out);
    let _ = writeln!(out, "architecture sim of {entity} is");
    let _ = writeln!(out, "  signal clk : std_logic := '0';");
    let _ = writeln!(out, "  signal rst : std_logic := '1';");

    let mut all_signals = Vec::new();
    for port in &streamlet.ports {
        for sig in expand_port(port)? {
            let _ = writeln!(out, "  signal {} : {};", sig.name, vhdl_type(sig.width));
            all_signals.push(sig);
        }
    }
    let _ = writeln!(out, "begin");
    let _ = writeln!(out, "  clk <= not clk after 5 ns;");
    let _ = writeln!(out, "  rst <= '0' after 20 ns;");
    let _ = writeln!(out);
    let _ = writeln!(out, "  uut : entity work.{uut_entity}");
    let _ = writeln!(out, "    port map (");
    let mut maps = vec![
        "      clk => clk".to_string(),
        "      rst => rst".to_string(),
    ];
    for sig in &all_signals {
        maps.push(format!("      {} => {}", sig.name, sig.name));
    }
    let _ = writeln!(out, "{}", maps.join(",\n"));
    let _ = writeln!(out, "    );");
    let _ = writeln!(out);

    // One driver process per stimulated input port.
    for port in &streamlet.ports {
        if port.direction != PortDirection::In {
            continue;
        }
        let transfers: Vec<&Transfer> = testbench
            .stimuli()
            .into_iter()
            .filter(|t| *t.port == *port.name)
            .collect();
        if transfers.is_empty() {
            continue;
        }
        let label = sanitize(&format!("drive_{}", port.name));
        let _ = writeln!(out, "  {label} : process");
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    {}_valid <= '0';", port.name);
        let _ = writeln!(out, "    wait until rst = '0';");
        for (i, transfer) in transfers.iter().enumerate() {
            if options.emit_comments {
                let _ = writeln!(
                    out,
                    "    -- transfer {i} (simulated cycle {})",
                    transfer.cycle
                );
            }
            let _ = writeln!(out, "    wait until rising_edge(clk);");
            let _ = writeln!(
                out,
                "    {}_data <= {};",
                port.name,
                literal(&transfer.data.to_bin_string())
            );
            if !transfer.last.is_empty() {
                let bits: String = transfer
                    .last
                    .iter()
                    .rev()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                let _ = writeln!(out, "    {}_last <= {};", port.name, literal(&bits));
            }
            let _ = writeln!(out, "    {}_valid <= '1';", port.name);
            let _ = writeln!(
                out,
                "    wait until rising_edge(clk) and {}_ready = '1';",
                port.name
            );
            let _ = writeln!(out, "    {}_valid <= '0';", port.name);
        }
        let _ = writeln!(out, "    wait;");
        let _ = writeln!(out, "  end process;");
        let _ = writeln!(out);
    }

    // One checker process per observed output port.
    for port in &streamlet.ports {
        if port.direction != PortDirection::Out {
            continue;
        }
        let transfers: Vec<&Transfer> = testbench
            .expectations()
            .into_iter()
            .filter(|t| *t.port == *port.name)
            .collect();
        if transfers.is_empty() {
            continue;
        }
        let label = sanitize(&format!("check_{}", port.name));
        let _ = writeln!(out, "  {label} : process");
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    {}_ready <= '1';", port.name);
        let _ = writeln!(out, "    wait until rst = '0';");
        for (i, transfer) in transfers.iter().enumerate() {
            let _ = writeln!(
                out,
                "    wait until rising_edge(clk) and {}_valid = '1';",
                port.name
            );
            let _ = writeln!(
                out,
                "    assert {}_data = {} report \"{}: transfer {} data mismatch\" severity error;",
                port.name,
                literal(&transfer.data.to_bin_string()),
                port.name,
                i
            );
            if !transfer.last.is_empty() {
                let bits: String = transfer
                    .last
                    .iter()
                    .rev()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                let _ = writeln!(
                    out,
                    "    assert {}_last = {} report \"{}: transfer {} last mismatch\" severity error;",
                    port.name,
                    literal(&bits),
                    port.name,
                    i
                );
            }
        }
        if options.emit_comments {
            let _ = writeln!(out, "    report \"{}: all expectations met\";", port.name);
        }
        let _ = writeln!(out, "    wait;");
        let _ = writeln!(out, "  end process;");
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "end architecture sim;");
    Ok(out)
}

/// Renders a bit pattern as a VHDL literal: `'x'` for one bit,
/// `"xxxx"` for vectors.
fn literal(bits: &str) -> String {
    if bits.len() == 1 {
        format!("'{bits}'")
    } else {
        format!("\"{bits}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_vhdl;
    use tydi_ir::{BitsValue, Implementation, Port, Streamlet};
    use tydi_spec::{LogicalType, StreamParams};

    fn project() -> Project {
        let stream =
            LogicalType::stream(LogicalType::Bit(8), StreamParams::new().with_dimension(1));
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream.clone()))
                .with_port(Port::new("o", PortDirection::Out, stream)),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("pass_i", "pass_s").with_builtin("std.passthrough"),
        )
        .unwrap();
        p
    }

    fn tb() -> Testbench {
        let mut tb = Testbench::new("pass_tb", "pass_i");
        tb.push(
            tydi_ir::Transfer::stimulus(0, "i", BitsValue::from_u64(0xAB, 8))
                .with_last(vec![false]),
        );
        tb.push(
            tydi_ir::Transfer::stimulus(1, "i", BitsValue::from_u64(0xCD, 8)).with_last(vec![true]),
        );
        tb.push(
            tydi_ir::Transfer::expectation(2, "o", BitsValue::from_u64(0xAB, 8))
                .with_last(vec![false]),
        );
        tb
    }

    #[test]
    fn testbench_structure() {
        let p = project();
        let text = generate_testbench(&p, &tb(), &VhdlOptions::default()).unwrap();
        assert!(text.contains("entity pass_tb is"));
        assert!(text.contains("uut : entity work.pass_i"));
        assert!(text.contains("drive_i : process"));
        assert!(text.contains("check_o : process"));
        assert!(text.contains("i_data <= \"10101011\";"));
        assert!(text.contains("i_last <= '0';"));
        assert!(text.contains("assert o_data = \"10101011\""));
        assert!(text.contains("wait until rising_edge(clk) and i_ready = '1';"));
    }

    #[test]
    fn testbench_passes_structural_check() {
        let p = project();
        let text = generate_testbench(&p, &tb(), &VhdlOptions::default()).unwrap();
        let issues = check_vhdl(&text);
        assert!(issues.is_empty(), "issues: {issues:?}");
    }

    #[test]
    fn missing_top_impl_errors() {
        let p = project();
        let bad = Testbench::new("x", "ghost_i");
        assert!(matches!(
            generate_testbench(&p, &bad, &VhdlOptions::default()),
            Err(VhdlError::Inconsistent(_))
        ));
    }

    #[test]
    fn literal_forms() {
        assert_eq!(literal("1"), "'1'");
        assert_eq!(literal("10"), "\"10\"");
    }
}
