//! F-1: the complete toolchain workflow of paper Fig. 1.
//!
//! Tydi-lang source → frontend → Tydi-IR (text round trip) → VHDL;
//! simulator → Tydi-IR testbench → VHDL testbench.

use tydi::ir::text::{emit_project, parse_project};
use tydi::lang::{compile, CompileOptions};
use tydi::sim::{BehaviorRegistry, Packet, Simulator};
use tydi::stdlib::{full_registry, with_stdlib};
use tydi::vhdl::check::check_vhdl;
use tydi::vhdl::{generate_project, generate_testbench, VhdlOptions};

const DESIGN: &str = r#"
package flow;
use std;

type Row = Stream(Bit(16), d=1);

streamlet double_s {
    i : Row in,
    o : Row out,
}
@NoStrictType
impl double_i of double_s {
    instance two(const_vec_i<type Row, 2, 6>),
    instance mul(multiplier_i<type Row, type Row, type Row>),
    i => mul.in0,
    two.o => mul.in1,
    mul.o => o,
}
"#;

fn compiled() -> tydi::lang::CompileOutput {
    let sources = with_stdlib(&[("flow.td", DESIGN)]);
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    compile(&refs, &CompileOptions::default()).expect("compile")
}

#[test]
fn frontend_to_ir_text_round_trip() {
    let output = compiled();
    let text = emit_project(&output.project);
    let reparsed = parse_project(&text).expect("IR text parses back");
    assert_eq!(
        reparsed.implementations().len(),
        output.project.implementations().len()
    );
    assert_eq!(
        reparsed.streamlets().len(),
        output.project.streamlets().len()
    );
    // Round trip is a fixed point.
    assert_eq!(emit_project(&reparsed), text);
    // The reparsed project still satisfies every design rule.
    assert_eq!(reparsed.validate(), Ok(()));
}

#[test]
fn backend_generates_checkable_vhdl() {
    let output = compiled();
    let registry = full_registry();
    let files = generate_project(&output.project, &registry, &VhdlOptions::default())
        .expect("VHDL generation");
    assert!(!files.is_empty());
    for file in &files {
        let issues = check_vhdl(&file.contents);
        assert!(issues.is_empty(), "{}: {issues:?}", file.name);
    }
}

#[test]
fn simulator_records_testbench_and_lowers_to_vhdl() {
    let output = compiled();
    let registry = BehaviorRegistry::with_std();
    let mut sim = Simulator::new(&output.project, "double_i", &registry).expect("simulator");
    sim.feed("i", [Packet::data(3), Packet::data(5), Packet::last(7, 1)])
        .unwrap();
    let result = sim.run(10_000);
    // The const source is sized to the stimulus; everything drains.
    let outputs: Vec<i64> = sim
        .outputs("o")
        .unwrap()
        .iter()
        .map(|(_, p)| p.data)
        .collect();
    assert_eq!(outputs, vec![6, 10, 14], "run: {result:?}");

    // Record the boundary traffic as a Tydi-IR testbench, then lower
    // it to a VHDL testbench (paper section V-C).
    let tb =
        tydi::sim::testbench_gen::record_testbench(&sim, &output.project, "double_i", "double_tb")
            .expect("testbench recording");
    assert_eq!(tb.stimuli().len(), 3);
    assert_eq!(tb.expectations().len(), 3);
    let vhdl =
        generate_testbench(&output.project, &tb, &VhdlOptions::default()).expect("testbench VHDL");
    assert!(vhdl.contains("entity double_tb is"));
    assert!(check_vhdl(&vhdl).is_empty());
}

#[test]
fn state_transitions_are_observable() {
    // Simulation code drives a state machine; the engine records the
    // transition table (paper section V-B).
    let source = r#"
package fsm;
type W8 = Stream(Bit(8));
streamlet echo_s { i : W8 in, o : W8 out, }
impl echo_i of echo_s external {
    simulation {
        state mode = "waiting";
        on (i.recv && mode == "waiting") {
            set_state(mode, "replying");
            send(o, i.data);
            ack(i);
        }
        on (o.ack && mode == "replying") {
            set_state(mode, "waiting");
        }
    }
}
"#;
    let out = compile(&[("fsm.td", source)], &CompileOptions::default()).expect("compile");
    let registry = BehaviorRegistry::with_std();
    let mut sim = Simulator::new(&out.project, "echo_i", &registry).expect("simulator");
    sim.feed("i", [Packet::data(1), Packet::data(2)]).unwrap();
    let result = sim.run(10_000);
    assert!(result.finished);
    let transitions = sim.state_transitions();
    assert!(
        transitions
            .iter()
            .any(|(_, _, from, to)| from.contains("waiting") && to.contains("replying")),
        "transitions: {transitions:?}"
    );
    assert!(transitions
        .iter()
        .any(|(_, _, from, to)| from.contains("replying") && to.contains("waiting")));
}

#[test]
fn multi_clock_design_lowers_with_per_domain_clocks() {
    // Cookbook 07's CDC design: the generated entities expose one
    // clk/rst pair per clock domain.
    let source = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cookbook/07_clockdomains.td"),
    )
    .expect("cookbook file");
    let out = compile(&[("cdc.td", &source)], &CompileOptions::default()).expect("compile");
    let registry = full_registry();
    let files = generate_project(&out.project, &registry, &VhdlOptions::default())
        .expect("VHDL generation");
    let app = files
        .iter()
        .find(|f| f.name == "app_i.vhd")
        .expect("app_i.vhd");
    assert!(app.contents.contains("clk_mem : in std_logic"));
    assert!(app.contents.contains("rst_mem : in std_logic"));
    assert!(app.contents.contains("clk_core : in std_logic"));
    for file in &files {
        assert!(check_vhdl(&file.contents).is_empty(), "{}", file.name);
    }
}

/// `build -o` rewrites only the outputs whose bytes changed: an
/// untouched file keeps its mtime, a tampered file (same length,
/// different bytes) is restored, a deleted one is re-created, and the
/// job still reports and lists every file. The daemon runs the same
/// executor, so it reports the same files and skips the same writes.
#[test]
#[cfg(unix)]
fn rebuild_rewrites_only_changed_files() {
    use std::fs::{self, File};
    use std::time::{Duration, Instant, SystemTime};
    use tydi::lang::ArtifactCache;
    use tydi_serve::client::Client;
    use tydi_serve::execute::run_job;
    use tydi_serve::protocol::{JobKind, JobRequest};

    let dir = std::env::temp_dir().join(format!("tydic-write-skip-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("workdir");
    let design = dir.join("flow.td");
    fs::write(&design, DESIGN).expect("write design");
    let mut request = JobRequest::new(JobKind::Build);
    request.files = vec![design.display().to_string()];
    request.out_dir = Some(dir.join("out").display().to_string());
    let wrote_line = |stderr: &str| {
        stderr
            .lines()
            .find(|l| l.starts_with("wrote "))
            .unwrap_or_else(|| panic!("no `wrote` line in:\n{stderr}"))
            .to_string()
    };

    let first = run_job(&request, &mut ArtifactCache::new(), "");
    assert!(first.ok, "{}", first.stderr);
    let files = first.artifacts.clone();
    assert!(files.len() >= 3, "artifacts: {files:?}");
    let count = format!("wrote {} file(s) to ", files.len());
    assert!(wrote_line(&first.stderr).starts_with(&count));

    // Age every output, then tamper with one and delete another.
    let past = SystemTime::now() - Duration::from_secs(3600);
    let age = |path: &str| {
        let file = File::options().write(true).open(path).expect("open output");
        file.set_modified(past).expect("set mtime");
    };
    let mtime = |path: &str| {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .expect("mtime")
    };
    for path in &files {
        age(path);
    }
    let (tampered, deleted) = (&files[0], &files[1]);
    let original = fs::read(tampered).unwrap();
    let mut bytes = original.clone();
    let last = bytes.len() - 2;
    bytes[last] = if bytes[last] == b'x' { b'y' } else { b'x' };
    fs::write(tampered, &bytes).unwrap();
    age(tampered);
    let deleted_text = fs::read(deleted).unwrap();
    fs::remove_file(deleted).unwrap();
    let aged = mtime(&files[2]);

    let second = run_job(&request, &mut ArtifactCache::new(), "");
    assert!(second.ok, "{}", second.stderr);
    assert_eq!(second.artifacts, files, "every file is still listed");
    assert_eq!(wrote_line(&second.stderr), wrote_line(&first.stderr));
    assert!(
        fs::read(tampered).unwrap() == original,
        "tampered file restored"
    );
    assert_ne!(mtime(tampered), aged, "tampered file rewritten");
    assert!(
        fs::read(deleted).unwrap() == deleted_text,
        "deleted file re-created"
    );
    for path in &files[2..] {
        assert_eq!(mtime(path), aged, "{path} was rewritten unchanged");
    }

    // The daemon reports the same files and rewrites none of them.
    let cache = dir.join("cache");
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_tydic"))
        .arg("serve")
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--idle-timeout", "30000"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let socket = cache.join("serve.sock");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("daemon never bound {socket:?}: {e}"),
        }
    };
    let remote = client.request(&request);
    let _ = daemon.kill();
    let _ = daemon.wait();
    let remote = remote.expect("daemon response");
    assert!(remote.ok, "{}", remote.stderr);
    assert_eq!(remote.artifacts, files);
    assert_eq!(wrote_line(&remote.stderr), wrote_line(&first.stderr));
    for path in &files[2..] {
        assert_eq!(mtime(path), aged, "{path} was rewritten by the daemon");
    }
    let _ = fs::remove_dir_all(&dir);
}
