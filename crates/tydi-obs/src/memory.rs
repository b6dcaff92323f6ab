//! Process memory readings from procfs: the peak resident set size
//! and the minor page faults taken so far. Both are read from
//! `/proc/self/status` and `/proc/self/stat` (no `unsafe`, no
//! dependency) and are `None` where those files do not exist.

/// The process's peak resident set size (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The minor page faults the process has taken so far (`minflt`, the
/// tenth field of `/proc/self/stat`).
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The second field, the command name, is parenthesized and may
    // hold spaces: count from its closing parenthesis (the third field,
    // the state, is the first after it).
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_exist_where_procfs_does() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            assert_eq!((peak_rss_kb(), minor_faults()), (None, None));
            return;
        }
        let before = minor_faults().expect("minor faults");
        // Touching fresh pages takes minor faults.
        let pages = vec![1u8; 1 << 20];
        assert!(peak_rss_kb().expect("peak RSS") >= 1024);
        assert!(minor_faults().expect("minor faults") > before);
        drop(pages);
    }
}
