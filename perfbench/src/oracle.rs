//! Output oracles. Each check returns `Err(description)` on a mismatch;
//! callers count it as a failed operation and keep going.

use std::collections::BTreeMap;
use std::path::Path;
use tydi_ir::fingerprint::Fingerprinter;
use tydi_sim::ChannelStats;

/// Expected output files by name.
pub type Expected = BTreeMap<String, String>;

/// Project name the snapshots were generated with, and the one `tydic`
/// uses: the only place either appears is the generated-file header.
const GOLDEN_HEADER: &str = "-- Generated by tydi-vhdl from project `tydi_design`.";
const TYDIC_HEADER: &str = "-- Generated by tydi-vhdl from project `tydic_out`.";

/// Splits a snapshot assembled as in `tests/golden_vhdl.rs` (each file
/// behind a `-- file: <name>` banner, in definition order) into files,
/// mapping the header's project name to the one `tydic` writes.
pub fn golden_files(snapshot: &str) -> Result<Expected, String> {
    let mut files = Expected::new();
    let mut current: Option<(String, String)> = None;
    for line in snapshot.split_inclusive('\n') {
        if let Some(name) = line.strip_prefix("-- file: ") {
            if let Some((name, body)) = current.take() {
                files.insert(name, body);
            }
            current = Some((name.trim_end().to_string(), String::new()));
        } else if let Some((_, body)) = current.as_mut() {
            if line.trim_end() == GOLDEN_HEADER {
                body.push_str(TYDIC_HEADER);
                body.push_str(&line[GOLDEN_HEADER.len()..]);
            } else {
                body.push_str(line);
            }
        } else if !line.trim().is_empty() {
            return Err("snapshot text before the first `-- file:` banner".to_string());
        }
    }
    if let Some((name, body)) = current {
        files.insert(name, body);
    }
    if files.is_empty() {
        return Err("snapshot has no `-- file:` banner".to_string());
    }
    Ok(files)
}

/// Checks that `dir` holds exactly the expected files, byte for byte.
pub fn check_dir(dir: &Path, expected: &Expected) -> Result<(), String> {
    let mut seen = 0usize;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().to_string();
        let want = expected
            .get(&name)
            .ok_or_else(|| format!("unexpected output file `{name}`"))?;
        let got = std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        if &got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(a, b)| a != b)
                .map_or(got.lines().count().min(want.lines().count()), |i| i);
            return Err(format!(
                "`{name}` differs from the expected output at line {}",
                line + 1
            ));
        }
        seen += 1;
    }
    if seen != expected.len() {
        return Err(format!(
            "{seen} output file(s), expected {}",
            expected.len()
        ));
    }
    Ok(())
}

/// Checks simulated query outputs against the software reference.
pub fn check_query(
    id: &str,
    expected: &[(String, Vec<i64>)],
    outputs: &BTreeMap<String, Vec<i64>>,
) -> Result<(), String> {
    for (port, want) in expected {
        match outputs.get(port) {
            Some(got) if got == want => {}
            Some(got) => {
                return Err(format!(
                    "{id}: port `{port}` expected {want:?}, simulated {got:?}"
                ))
            }
            None => return Err(format!("{id}: no output port `{port}`")),
        }
    }
    Ok(())
}

/// A digest of the simulated statistics: cycles plus every channel's
/// `(transferred, refused_pushes)`. A simulator change that keeps the
/// simulated behaviour keeps this value.
pub fn sim_digest(digest: &mut Fingerprinter, cycles: u64, channels: &[ChannelStats]) {
    digest.write_u64(cycles);
    for channel in channels {
        digest.write_str(&channel.name);
        digest.write_u64(channel.transferred);
        digest.write_u64(channel.refused_pushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_split_into_files() {
        let files = golden_files(&format!(
            "-- file: a.vhd\n{GOLDEN_HEADER}\nx\n-- file: b.vhd\ny\n"
        ))
        .unwrap();
        assert_eq!(files["a.vhd"], format!("{TYDIC_HEADER}\nx\n"));
        assert_eq!(files["b.vhd"], "y\n");
    }
}
