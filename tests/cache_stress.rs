//! Multi-process stress tests on the shared `.tydic-cache`.
//!
//! The historic bugs these pin down: `ArtifactCache::save` wrote the
//! manifest non-atomically (a concurrent reader could load a
//! truncated manifest and silently drop the whole warm cache), the
//! garbage-collection sweep deleted artifacts a *concurrent* process
//! had just written (its manifest then referenced missing files), and
//! concurrent saves clobbered each other's entries instead of
//! merging. With the cross-process cache lock, atomic rename, and
//! merge-on-save, any number of `tydic` processes can share one cache
//! directory: every manifest-referenced artifact exists, and the
//! compiled output is byte-identical to a serial run. That includes a
//! `tydic serve` daemon, which persists after it replies (holding the
//! cache lock from before the reply) while CLI processes load and save
//! the same directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tydic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tydic"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tydic-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

/// A distinct design per child so every process inserts its own
/// entries into the shared cache.
fn design(index: usize) -> String {
    format!(
        "package stress{index};\n\
         type B{index} = Stream(Bit({}));\n\
         streamlet s{index} {{ i : B{index} in, o : B{index} out, }}\n\
         impl x{index} of s{index} {{ i => o, }}\n",
        8 + index
    )
}

fn write_designs(dir: &Path, count: usize) -> Vec<PathBuf> {
    (0..count)
        .map(|index| {
            let path = dir.join(format!("d{index}.td"));
            std::fs::write(&path, design(index)).expect("write design");
            path
        })
        .collect()
}

/// `tydic build --emit ir` into `out`, against `cache` (or
/// `--no-cache` when `None`); returns the child for the caller to
/// wait on.
fn spawn_build(design: &Path, out: &Path, cache: Option<&Path>) -> std::process::Child {
    let mut cmd = tydic();
    cmd.arg("build")
        .arg(design)
        .arg("--emit")
        .arg("ir")
        .arg("-o")
        .arg(out);
    match cache {
        Some(dir) => cmd.arg("--cache-dir").arg(dir),
        None => cmd.arg("--no-cache"),
    };
    cmd.stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tydic")
}

/// Every `elab <fingerprint> ...` line in the manifest must have its
/// artifact file on disk — a dangling reference is exactly the lost
/// update the cache lock exists to prevent.
fn assert_manifest_closed(cache: &Path) {
    let manifest =
        std::fs::read_to_string(cache.join("manifest.txt")).expect("manifest.txt parses as UTF-8");
    assert!(
        manifest.starts_with("tydic-cache "),
        "manifest header: {manifest}"
    );
    let mut elab_lines = 0usize;
    for line in manifest.lines() {
        if let Some(rest) = line.strip_prefix("elab ") {
            let fingerprint = rest.split_whitespace().next().expect("elab line has a key");
            let artifact = cache.join(format!("{fingerprint}.tirb"));
            assert!(
                artifact.exists(),
                "manifest references missing artifact {}:\n{manifest}",
                artifact.display()
            );
            elab_lines += 1;
        }
    }
    assert!(elab_lines > 0, "stress run produced elab entries");
    // Atomic-rename hygiene: no temp manifests left behind.
    for entry in std::fs::read_dir(cache).expect("read cache dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !name.starts_with("manifest.txt.tmp"),
            "leftover temp manifest {name}"
        );
    }
}

#[test]
fn concurrent_builds_share_one_cache_without_losing_artifacts() {
    let dir = workdir("concurrent");
    let cache = dir.join("cache");
    let designs = write_designs(&dir, 6);

    // Serial reference, no cache involved.
    for (index, design) in designs.iter().enumerate() {
        let child = spawn_build(design, &dir.join(format!("serial{index}")), None);
        let out = child.wait_with_output().expect("wait serial");
        assert!(
            out.status.success(),
            "serial build {index}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Two concurrent waves on the shared cache: the first populates
    // it (six processes racing load-merge-save), the second re-reads
    // and re-persists warm entries concurrently.
    for wave in 0..2 {
        let children: Vec<_> = designs
            .iter()
            .enumerate()
            .map(|(index, design)| {
                spawn_build(
                    design,
                    &dir.join(format!("wave{wave}_{index}")),
                    Some(&cache),
                )
            })
            .collect();
        for (index, child) in children.into_iter().enumerate() {
            let out = child.wait_with_output().expect("wait concurrent");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "wave {wave} build {index}: {stderr}");
            assert!(
                !stderr.contains("cannot persist cache"),
                "persist warning in wave {wave} build {index}: {stderr}"
            );
        }
    }

    assert_manifest_closed(&cache);

    // The cached concurrent output is byte-identical to the serial,
    // cache-free output.
    for (index, _) in designs.iter().enumerate() {
        let serial =
            std::fs::read(dir.join(format!("serial{index}/project.tir"))).expect("serial IR");
        for wave in 0..2 {
            let concurrent = std::fs::read(dir.join(format!("wave{wave}_{index}/project.tir")))
                .expect("concurrent IR");
            assert_eq!(
                serial, concurrent,
                "design {index} wave {wave} diverged from the serial build"
            );
        }
    }

    // And the cache is actually usable afterwards: a warm check of
    // every design succeeds.
    for design in &designs {
        let out = tydic()
            .arg("check")
            .arg(design)
            .arg("--cache-dir")
            .arg(&cache)
            .output()
            .expect("warm check");
        assert!(
            out.status.success(),
            "warm check: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_design_hammered_from_many_processes_converges() {
    let dir = workdir("hammer");
    let cache = dir.join("cache");
    let design = write_designs(&dir, 1).remove(0);

    // Eight processes compiling the *same* design race to insert the
    // same keys; merge-on-save must neither duplicate nor lose them.
    let children: Vec<_> = (0..8)
        .map(|index| spawn_build(&design, &dir.join(format!("out{index}")), Some(&cache)))
        .collect();
    for (index, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait hammer");
        assert!(
            out.status.success(),
            "hammer build {index}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_manifest_closed(&cache);

    let reference = std::fs::read(dir.join("out0/project.tir")).expect("reference IR");
    for index in 1..8 {
        let other = std::fs::read(dir.join(format!("out{index}/project.tir"))).expect("IR");
        assert_eq!(reference, other, "process {index} produced different IR");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// One daemon serving `--daemon` builds while plain CLI processes
/// build the same designs on the same cache directory: the daemon's
/// reply-then-persist interleaves with the CLI loads and saves, and
/// still loses no artifact and changes no output byte.
#[cfg(unix)]
#[test]
fn daemon_and_cli_builds_share_one_cache() {
    use tydi_serve::client::Client;
    use tydi_serve::protocol::{JobKind, JobRequest};

    let dir = workdir("daemon");
    let cache = dir.join("cache");
    let designs = write_designs(&dir, 4);
    for (index, design) in designs.iter().enumerate() {
        let out = spawn_build(design, &dir.join(format!("serial{index}")), None)
            .wait_with_output()
            .expect("wait serial");
        assert!(out.status.success(), "serial build {index}");
    }

    /// Kills the daemon if an assertion fails before its shutdown.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut daemon = KillOnDrop(
        tydic()
            .arg("serve")
            .arg("--cache-dir")
            .arg(&cache)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn daemon"),
    );
    let socket = cache.join("serve.sock");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while Client::connect(&socket).is_err() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    for wave in 0..2 {
        let mut children = Vec::new();
        for (index, design) in designs.iter().enumerate() {
            let mut via_daemon = tydic();
            via_daemon
                .arg("build")
                .arg(design)
                .arg("--emit")
                .arg("ir")
                .arg("-o")
                .arg(dir.join(format!("daemon{wave}_{index}")))
                .arg("--daemon")
                .arg("--cache-dir")
                .arg(&cache)
                .env("TYDIC_NO_SPAWN", "1")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped());
            children.push(("daemon", via_daemon.spawn().expect("spawn daemon build")));
            let out = dir.join(format!("cli{wave}_{index}"));
            children.push(("cli", spawn_build(design, &out, Some(&cache))));
        }
        for (index, (kind, child)) in children.into_iter().enumerate() {
            let out = child.wait_with_output().expect("wait build");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "wave {wave} {kind} build {index}: {stderr}"
            );
            assert!(
                !stderr.contains("cannot persist cache") && !stderr.contains("daemon unavailable"),
                "wave {wave} {kind} build {index}: {stderr}"
            );
        }
    }

    let response = Client::connect(&socket)
        .expect("connect")
        .request(&JobRequest::new(JobKind::Shutdown))
        .expect("shutdown response");
    assert!(response.ok);
    assert!(daemon.0.wait().expect("daemon exit").success());

    assert_manifest_closed(&cache);
    for index in 0..designs.len() {
        let serial =
            std::fs::read(dir.join(format!("serial{index}/project.tir"))).expect("serial IR");
        for wave in 0..2 {
            for kind in ["daemon", "cli"] {
                let shared = std::fs::read(dir.join(format!("{kind}{wave}_{index}/project.tir")))
                    .expect("shared-cache IR");
                assert_eq!(
                    serial, shared,
                    "design {index} {kind} wave {wave} diverged from the serial build"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
