//! The daemon's wire protocol: newline-delimited JSON jobs.
//!
//! One connection carries any number of requests; each request is a
//! single line holding one JSON object, answered by a single response
//! line. The codec builds and reads [`tydi_obs::json`] values, the
//! workspace's one JSON writer and reader, and every field is optional
//! on the wire with a defined default, so old clients keep working
//! against newer daemons.

use tydi_obs::json::{self, Json};

/// Protocol revision; bumped on incompatible changes. The daemon
/// refuses requests from a different major revision.
pub const PROTOCOL_VERSION: u64 = 1;

/// What a job asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Parse + elaborate + DRC; diagnostics only.
    Check,
    /// Check, then emit IR/VHDL/SystemVerilog.
    Build,
    /// Check, then run the static throughput/latency analysis.
    Analyze,
    /// Check, then batch-simulate stimulus scenarios.
    Sim,
    /// Report daemon health: pid, uptime, request count, cache size.
    Status,
    /// Persist the cache and exit the daemon.
    Shutdown,
}

impl JobKind {
    /// The wire spelling.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Check => "check",
            JobKind::Build => "build",
            JobKind::Analyze => "analyze",
            JobKind::Sim => "sim",
            JobKind::Status => "status",
            JobKind::Shutdown => "shutdown",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(text: &str) -> Option<JobKind> {
        match text {
            "check" => Some(JobKind::Check),
            "build" => Some(JobKind::Build),
            "analyze" => Some(JobKind::Analyze),
            "sim" => Some(JobKind::Sim),
            "status" => Some(JobKind::Status),
            "shutdown" => Some(JobKind::Shutdown),
            _ => None,
        }
    }
}

/// One job request line.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub kind: JobKind,
    /// Input file paths, resolved relative to the daemon's working
    /// directory (clients send absolute paths).
    pub files: Vec<String>,
    /// Implicitly include the standard library (`--no-std` off).
    pub include_std: bool,
    /// Run the sugaring pass (`--no-sugar` off).
    pub sugaring: bool,
    /// `build`: output format (`ir`, `vhdl`, `verilog`).
    pub emit: String,
    /// `build`: write files into this directory instead of returning
    /// the concatenated text on stdout.
    pub out_dir: Option<String>,
    /// `analyze`: top-level implementation override; `sim`: the
    /// implementation to simulate (required).
    pub top: Option<String>,
    /// `analyze`: deny severity (`info`/`warning`/`error`).
    pub deny: Option<String>,
    /// `analyze`: emit the JSON report instead of text.
    pub json: bool,
    /// `analyze`: clock frequency in MHz.
    pub clock_mhz: Option<f64>,
    /// Append the `--timings` report to stderr.
    pub timings: bool,
    /// The client keeps the job's metrics document (`--timings-json`).
    /// With this or `timings`, the job also reads the process's memory
    /// use into them (`timings.memory.*`); other jobs skip those procfs
    /// reads.
    pub timings_json: bool,
    /// `sim`: number of stimulus scenarios.
    pub scenarios: usize,
    /// `sim`: packets per boundary input.
    pub packets: u64,
    /// `sim`: per-scenario cycle budget.
    pub max_cycles: u64,
    /// `sim`: quiescence threshold override, in idle cycles.
    pub idle: Option<u64>,
    /// `sim`: fault-injection spec (the `--inject` text).
    pub inject: Option<String>,
    /// `sim`: rerun every scenario once per seed, reseeding the faults.
    pub inject_sweep: Option<Vec<u64>>,
    /// Testing hook: sleep this long inside the job before compiling,
    /// to pin down timeout and saturation behaviour determinstically.
    pub test_sleep_ms: Option<u64>,
    /// Testing hook: panic inside the job, to pin down the daemon's
    /// panic isolation.
    pub test_panic: bool,
}

impl JobRequest {
    /// A request of the given kind with CLI-default settings.
    pub fn new(kind: JobKind) -> JobRequest {
        JobRequest {
            id: 0,
            kind,
            files: Vec::new(),
            include_std: true,
            sugaring: true,
            emit: if kind == JobKind::Build {
                "vhdl".to_string()
            } else {
                "ir".to_string()
            },
            out_dir: None,
            top: None,
            deny: None,
            json: false,
            clock_mhz: None,
            timings: false,
            timings_json: false,
            scenarios: 4,
            packets: 64,
            max_cycles: 100_000,
            idle: None,
            inject: None,
            inject_sweep: None,
            test_sleep_ms: None,
            test_panic: false,
        }
    }

    /// Serializes the request as one JSON line (no trailing newline).
    /// Fields at their defaults are omitted, so a request that uses no
    /// newer option reads the same to an older daemon.
    pub fn to_json(&self) -> String {
        let mut out = json::object([
            ("v", PROTOCOL_VERSION.into()),
            ("id", self.id.into()),
            ("kind", self.kind.name().into()),
            ("files", self.files.iter().collect()),
            ("include_std", self.include_std.into()),
            ("sugaring", self.sugaring.into()),
            ("emit", self.emit.as_str().into()),
            ("json", self.json.into()),
        ]);
        out.push_some("out_dir", self.out_dir.as_ref());
        out.push_some("top", self.top.as_ref());
        out.push_some("deny", self.deny.as_ref());
        out.push_some("clock_mhz", self.clock_mhz);
        let defaults = JobRequest::new(self.kind);
        let differs = |value: u64, default: u64| (value != default).then_some(value);
        let scenarios = differs(self.scenarios as u64, defaults.scenarios as u64);
        out.push_some("scenarios", scenarios);
        out.push_some("packets", differs(self.packets, defaults.packets));
        out.push_some("max_cycles", differs(self.max_cycles, defaults.max_cycles));
        out.push_some("idle", self.idle);
        out.push_some("test_sleep_ms", self.test_sleep_ms);
        out.push_some("timings", self.timings.then_some(true));
        out.push_some("timings_json", self.timings_json.then_some(true));
        out.push_some("test_panic", self.test_panic.then_some(true));
        out.push_some("inject", self.inject.as_ref());
        out.push_some("inject_sweep", self.inject_sweep.as_deref());
        out.to_string()
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<JobRequest, String> {
        let value = json::parse(line.trim())?;
        let version = get_u64(&value, "v").unwrap_or(PROTOCOL_VERSION);
        if version != PROTOCOL_VERSION {
            return Err(format!(
                "protocol version mismatch: daemon speaks {PROTOCOL_VERSION}, request is {version}"
            ));
        }
        let kind_name = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("request has no `kind`")?;
        let kind =
            JobKind::parse(kind_name).ok_or_else(|| format!("unknown job kind `{kind_name}`"))?;
        let mut request = JobRequest::new(kind);
        request.id = get_u64(&value, "id").unwrap_or(0);
        request.files = get_strings(&value, "files");
        if let Some(flag) = get_bool(&value, "include_std") {
            request.include_std = flag;
        }
        if let Some(flag) = get_bool(&value, "sugaring") {
            request.sugaring = flag;
        }
        if let Some(emit) = get_str(&value, "emit") {
            request.emit = emit;
        }
        if let Some(flag) = get_bool(&value, "json") {
            request.json = flag;
        }
        request.out_dir = get_str(&value, "out_dir");
        request.top = get_str(&value, "top");
        request.deny = get_str(&value, "deny");
        request.clock_mhz = value.get("clock_mhz").and_then(Json::as_f64);
        request.timings = get_bool(&value, "timings").unwrap_or(false);
        request.timings_json = get_bool(&value, "timings_json").unwrap_or(false);
        request.scenarios = get_u64(&value, "scenarios").map_or(request.scenarios, |n| n as usize);
        request.packets = get_u64(&value, "packets").unwrap_or(request.packets);
        request.max_cycles = get_u64(&value, "max_cycles").unwrap_or(request.max_cycles);
        request.idle = get_u64(&value, "idle");
        request.inject = get_str(&value, "inject");
        request.inject_sweep = value
            .get("inject_sweep")
            .and_then(Json::as_array)
            .map(|seeds| {
                seeds
                    .iter()
                    .filter_map(Json::as_f64)
                    .map(|n| n as u64)
                    .collect()
            });
        request.test_sleep_ms = get_u64(&value, "test_sleep_ms");
        request.test_panic = get_bool(&value, "test_panic").unwrap_or(false);
        Ok(request)
    }
}

/// One structured diagnostic in a response, alongside the rendered
/// text (LSP clients and tools consume these; terminals print the
/// pre-rendered `stderr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticInfo {
    /// `error`, `warning` or `note`.
    pub severity: String,
    /// Producing pipeline stage (`parse`, `drc`, ...).
    pub stage: String,
    /// The message, without location decoration.
    pub message: String,
    /// Source file name, empty when the diagnostic has no span.
    pub file: String,
    /// 1-based line, 0 when there is no span.
    pub line: u64,
    /// 1-based column, 0 when there is no span.
    pub col: u64,
}

/// Daemon health, attached to `status` responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusInfo {
    /// Daemon process id.
    pub pid: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: f64,
    /// Compile jobs served so far.
    pub requests: u64,
    /// Resident parse artifacts.
    pub parse_entries: u64,
    /// Resident elaboration artifacts.
    pub elab_entries: u64,
    /// Compile jobs currently executing.
    pub jobs_active: u64,
    /// Jobs that exceeded the per-request wall-clock timeout.
    pub jobs_timed_out: u64,
    /// Jobs whose compile panicked (isolated; the daemon survived).
    pub jobs_panicked: u64,
    /// Milliseconds until the idle auto-shutdown fires, if configured.
    /// Measured from the last served request.
    pub idle_deadline_ms: Option<f64>,
}

/// One job response line.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Whether the job succeeded (mirrors a zero exit code).
    pub ok: bool,
    /// The exit code an in-process `tydic` run would have returned.
    pub exit_code: i32,
    /// Exactly what the in-process run would have written to stdout.
    pub stdout: String,
    /// Exactly what the in-process run would have written to stderr.
    pub stderr: String,
    /// Paths of files written by the job (`--out-dir` modes).
    pub artifacts: Vec<String>,
    /// Structured diagnostics (see [`DiagnosticInfo`]).
    pub diagnostics: Vec<DiagnosticInfo>,
    /// True when the elaborate stage was served from the warm cache.
    pub warm: bool,
    /// Wall-clock time the daemon spent on the job, in milliseconds.
    pub elapsed_ms: f64,
    /// This request's metrics namespace as one flat JSON object text
    /// (scope prefix already stripped); `{}` when nothing was
    /// published.
    pub metrics_json: String,
    /// Machine-readable failure class for resilience errors: `busy`,
    /// `timeout` or `internal_error`. `None` for ordinary compile
    /// failures (diagnostics carry those).
    pub error_kind: Option<String>,
    /// Health payload, on `status` responses.
    pub status: Option<StatusInfo>,
}

impl JobResponse {
    /// An empty success response for the given request id.
    pub fn new(id: u64) -> JobResponse {
        JobResponse {
            id,
            ok: true,
            exit_code: 0,
            stdout: String::new(),
            stderr: String::new(),
            artifacts: Vec::new(),
            diagnostics: Vec::new(),
            warm: false,
            elapsed_ms: 0.0,
            metrics_json: "{}".to_string(),
            error_kind: None,
            status: None,
        }
    }

    /// A failure response: `message` lands on stderr (newline
    /// terminated, matching `tydic`'s error reporting).
    pub fn failure(id: u64, exit_code: i32, message: impl Into<String>) -> JobResponse {
        let mut message = message.into();
        if !message.ends_with('\n') {
            message.push('\n');
        }
        JobResponse {
            ok: false,
            exit_code,
            stderr: message,
            ..JobResponse::new(id)
        }
    }

    /// A resilience failure with a machine-readable class. The exit
    /// codes follow sysexits where one fits: `busy` is 75 (EX_TEMPFAIL
    /// — the client should retry), `internal_error` is 70
    /// (EX_SOFTWARE), and `timeout` borrows 124 from timeout(1).
    pub fn resilience_failure(id: u64, kind: &str, message: impl Into<String>) -> JobResponse {
        let exit_code = match kind {
            "busy" => 75,
            "timeout" => 124,
            _ => 70,
        };
        JobResponse {
            error_kind: Some(kind.to_string()),
            ..JobResponse::failure(id, exit_code, message)
        }
    }

    /// Serializes the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            json::object([
                ("severity", d.severity.as_str().into()),
                ("stage", d.stage.as_str().into()),
                ("message", d.message.as_str().into()),
                ("file", d.file.as_str().into()),
                ("line", d.line.into()),
                ("col", d.col.into()),
            ])
        });
        // The metrics text comes from this crate's own writer; anything
        // that does not parse travels as an empty object.
        let metrics = json::parse(&self.metrics_json).unwrap_or(Json::Object(Vec::new()));
        let mut out = json::object([
            ("v", PROTOCOL_VERSION.into()),
            ("id", self.id.into()),
            ("ok", self.ok.into()),
            ("exit_code", self.exit_code.into()),
            ("stdout", self.stdout.as_str().into()),
            ("stderr", self.stderr.as_str().into()),
            ("artifacts", self.artifacts.iter().collect()),
            ("diagnostics", diagnostics.collect()),
            ("warm", self.warm.into()),
            ("elapsed_ms", self.elapsed_ms.into()),
            ("metrics", metrics),
        ]);
        out.push_some("error", self.error_kind.as_ref());
        if let Some(status) = &self.status {
            let mut fields = json::object([
                ("pid", status.pid.into()),
                ("uptime_ms", status.uptime_ms.into()),
                ("requests", status.requests.into()),
                ("parse_entries", status.parse_entries.into()),
                ("elab_entries", status.elab_entries.into()),
                ("jobs_active", status.jobs_active.into()),
                ("jobs_timed_out", status.jobs_timed_out.into()),
                ("jobs_panicked", status.jobs_panicked.into()),
            ]);
            fields.push_some("idle_deadline_ms", status.idle_deadline_ms);
            out.push("status", fields);
        }
        out.to_string()
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<JobResponse, String> {
        let value = json::parse(line.trim())?;
        let mut response = JobResponse::new(get_u64(&value, "id").unwrap_or(0));
        response.ok = get_bool(&value, "ok").unwrap_or(false);
        response.exit_code = get_u64(&value, "exit_code").unwrap_or(1) as i32;
        response.stdout = get_str(&value, "stdout").unwrap_or_default();
        response.stderr = get_str(&value, "stderr").unwrap_or_default();
        response.artifacts = get_strings(&value, "artifacts");
        if let Some(diagnostics) = value.get("diagnostics").and_then(Json::as_array) {
            response.diagnostics = diagnostics
                .iter()
                .map(|d| DiagnosticInfo {
                    severity: get_str(d, "severity").unwrap_or_default(),
                    stage: get_str(d, "stage").unwrap_or_default(),
                    message: get_str(d, "message").unwrap_or_default(),
                    file: get_str(d, "file").unwrap_or_default(),
                    line: get_u64(d, "line").unwrap_or(0),
                    col: get_u64(d, "col").unwrap_or(0),
                })
                .collect();
        }
        response.warm = get_bool(&value, "warm").unwrap_or(false);
        response.elapsed_ms = value
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if let Some(metrics) = value.get("metrics") {
            response.metrics_json = metrics.to_string();
        }
        response.error_kind = get_str(&value, "error");
        response.status = value.get("status").map(|s| StatusInfo {
            pid: get_u64(s, "pid").unwrap_or(0),
            uptime_ms: s.get("uptime_ms").and_then(Json::as_f64).unwrap_or(0.0),
            requests: get_u64(s, "requests").unwrap_or(0),
            parse_entries: get_u64(s, "parse_entries").unwrap_or(0),
            elab_entries: get_u64(s, "elab_entries").unwrap_or(0),
            jobs_active: get_u64(s, "jobs_active").unwrap_or(0),
            jobs_timed_out: get_u64(s, "jobs_timed_out").unwrap_or(0),
            jobs_panicked: get_u64(s, "jobs_panicked").unwrap_or(0),
            idle_deadline_ms: s.get("idle_deadline_ms").and_then(Json::as_f64),
        });
        Ok(response)
    }
}

fn get_u64(value: &Json, key: &str) -> Option<u64> {
    value.get(key).and_then(Json::as_f64).map(|n| n as u64)
}

fn get_bool(value: &Json, key: &str) -> Option<bool> {
    match value.get(key) {
        Some(Json::Bool(flag)) => Some(*flag),
        _ => None,
    }
}

fn get_str(value: &Json, key: &str) -> Option<String> {
    value.get(key).and_then(Json::as_str).map(String::from)
}

/// The string elements of an array member; empty when it is missing.
fn get_strings(value: &Json, key: &str) -> Vec<String> {
    let items = value.get(key).and_then(Json::as_array).unwrap_or_default();
    items
        .iter()
        .filter_map(Json::as_str)
        .map(String::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut request = JobRequest::new(JobKind::Analyze);
        request.id = 17;
        request.files = vec!["a.td".to_string(), "dir/b \"q\".td".to_string()];
        request.include_std = false;
        request.sugaring = false;
        request.emit = "verilog".to_string();
        request.out_dir = Some("out".to_string());
        request.top = Some("top_i".to_string());
        request.deny = Some("warning".to_string());
        request.json = true;
        request.clock_mhz = Some(250.5);
        request.timings = true;
        (request.scenarios, request.packets, request.max_cycles) = (2, 8, 500);
        request.idle = Some(16);
        request.inject = Some("stall(a,0,*)".to_string());
        request.inject_sweep = Some(vec![1, 2, 3]);
        let line = request.to_json();
        assert!(!line.contains('\n'), "one line: {line}");
        let back = JobRequest::parse(&line).unwrap();
        assert_eq!(back.id, 17);
        assert_eq!(back.kind, JobKind::Analyze);
        assert_eq!(back.files, request.files);
        assert!(!back.include_std);
        assert!(!back.sugaring);
        assert_eq!(back.emit, "verilog");
        assert_eq!(back.out_dir.as_deref(), Some("out"));
        assert_eq!(back.top.as_deref(), Some("top_i"));
        assert_eq!(back.deny.as_deref(), Some("warning"));
        assert!(back.json);
        assert_eq!(back.clock_mhz, Some(250.5));
        assert!(back.timings);
        assert_eq!((back.scenarios, back.packets, back.max_cycles), (2, 8, 500));
        assert_eq!(back.idle, Some(16));
        assert_eq!(back.inject, request.inject);
        assert_eq!(back.inject_sweep, request.inject_sweep);
    }

    #[test]
    fn request_defaults_match_the_cli() {
        let check = JobRequest::parse(r#"{"kind":"check"}"#).unwrap();
        assert_eq!(check.kind, JobKind::Check);
        assert!(check.include_std && check.sugaring);
        assert_eq!(check.emit, "ir");
        let build = JobRequest::new(JobKind::Build);
        assert_eq!(build.emit, "vhdl", "`build` defaults to VHDL like the CLI");
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(JobRequest::parse("not json").is_err());
        assert!(JobRequest::parse(r#"{"id":1}"#).is_err(), "kind required");
        assert!(JobRequest::parse(r#"{"kind":"dance"}"#).is_err());
        assert!(
            JobRequest::parse(r#"{"v":99,"kind":"check"}"#).is_err(),
            "future protocol refused"
        );
    }

    #[test]
    fn response_round_trips() {
        let mut response = JobResponse::new(3);
        response.ok = false;
        response.exit_code = 1;
        response.stdout = "line1\nline2\n".to_string();
        response.stderr = "error: \"x\" [parse]\n".to_string();
        response.artifacts = vec!["out/top.vhd".to_string()];
        response.diagnostics = vec![DiagnosticInfo {
            severity: "error".to_string(),
            stage: "parse".to_string(),
            message: "expected expression".to_string(),
            file: "a.td".to_string(),
            line: 3,
            col: 11,
        }];
        response.warm = true;
        response.elapsed_ms = 1.25;
        response.metrics_json = r#"{"timings.wall_ms": 1.2}"#.to_string();
        response.status = Some(StatusInfo {
            pid: 42,
            uptime_ms: 1000.0,
            requests: 7,
            parse_entries: 2,
            elab_entries: 1,
            jobs_active: 1,
            jobs_timed_out: 3,
            jobs_panicked: 2,
            idle_deadline_ms: Some(250.5),
        });
        let line = response.to_json();
        assert!(!line.contains('\n'), "one line: {line}");
        let back = JobResponse::parse(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.exit_code, 1);
        assert_eq!(back.stdout, response.stdout);
        assert_eq!(back.stderr, response.stderr);
        assert_eq!(back.artifacts, response.artifacts);
        assert_eq!(back.diagnostics, response.diagnostics);
        assert!(back.warm);
        assert_eq!(back.elapsed_ms, 1.25);
        let metrics = json::parse(&back.metrics_json).unwrap();
        assert_eq!(
            metrics.get("timings.wall_ms").and_then(Json::as_f64),
            Some(1.2)
        );
        let status = back.status.unwrap();
        assert_eq!(status.requests, 7);
        assert_eq!(status.jobs_active, 1);
        assert_eq!(status.jobs_timed_out, 3);
        assert_eq!(status.jobs_panicked, 2);
        assert_eq!(status.idle_deadline_ms, Some(250.5));
    }

    #[test]
    fn test_hooks_round_trip_and_default_off() {
        let mut request = JobRequest::new(JobKind::Check);
        request.test_sleep_ms = Some(1500);
        request.test_panic = true;
        let back = JobRequest::parse(&request.to_json()).unwrap();
        assert_eq!(back.test_sleep_ms, Some(1500));
        assert!(back.test_panic);
        // Old clients never send the hooks; parsing defaults them off.
        let plain = JobRequest::parse(r#"{"kind":"check"}"#).unwrap();
        assert_eq!(plain.test_sleep_ms, None);
        assert!(!plain.test_panic);
        assert!(!plain.to_json().contains("test_"), "hooks elided when off");
        // Options at their defaults stay off the wire, so a request that
        // uses no newer option reads the same to an older daemon.
        let line = JobRequest::new(JobKind::Sim).to_json();
        for key in [
            "timings",
            "timings_json",
            "scenarios",
            "packets",
            "max_cycles",
            "idle",
            "inject",
        ] {
            assert!(
                !line.contains(&format!("\"{key}\"")),
                "{key} elided: {line}"
            );
        }
    }

    #[test]
    fn resilience_failures_carry_a_machine_readable_kind() {
        for (kind, exit_code) in [("busy", 75), ("timeout", 124), ("internal_error", 70)] {
            let response = JobResponse::resilience_failure(5, kind, "try later");
            assert_eq!(response.exit_code, exit_code, "{kind}");
            assert!(!response.ok);
            let back = JobResponse::parse(&response.to_json()).unwrap();
            assert_eq!(back.error_kind.as_deref(), Some(kind));
            assert_eq!(back.exit_code, exit_code);
            assert_eq!(back.stderr, "try later\n");
        }
        // Ordinary failures have no kind, and elide the wire key.
        let plain = JobResponse::failure(5, 2, "no input files");
        assert!(!plain.to_json().contains("\"error\""));
        let back = JobResponse::parse(&plain.to_json()).unwrap();
        assert_eq!(back.error_kind, None);
    }

    #[test]
    fn status_fields_default_for_old_daemons() {
        // A pre-resilience daemon sends no jobs_* fields.
        let line = r#"{"id":1,"ok":true,"exit_code":0,"status":{"pid":9,"uptime_ms":5,"requests":2,"parse_entries":0,"elab_entries":0}}"#;
        let status = JobResponse::parse(line).unwrap().status.unwrap();
        assert_eq!(status.jobs_active, 0);
        assert_eq!(status.jobs_timed_out, 0);
        assert_eq!(status.jobs_panicked, 0);
        assert_eq!(status.idle_deadline_ms, None);
    }

    #[test]
    fn failure_helper_terminates_stderr() {
        let response = JobResponse::failure(9, 2, "no input files");
        assert_eq!(response.stderr, "no input files\n");
        assert_eq!(response.exit_code, 2);
        assert!(!response.ok);
    }

    /// Full request and response lines, as literals: old clients and
    /// daemons read these bytes, so a change to the JSON writer must
    /// not move them.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut request = JobRequest::new(JobKind::Sim);
        request.id = 17;
        request.files = vec!["a.td".to_string(), "dir/b \"q\".td".to_string()];
        request.include_std = false;
        request.sugaring = false;
        request.emit = "verilog".to_string();
        request.out_dir = Some("out".to_string());
        request.top = Some("top_i".to_string());
        request.deny = Some("warning".to_string());
        request.json = true;
        request.clock_mhz = Some(250.5);
        request.timings = true;
        (request.scenarios, request.packets, request.max_cycles) = (2, 8, 500);
        request.idle = Some(16);
        request.inject = Some("stall(a,0,*)".to_string());
        request.inject_sweep = Some(vec![1, 2, 3]);
        request.test_sleep_ms = Some(1500);
        request.test_panic = true;
        assert_eq!(
            request.to_json(),
            r#"{"v":1,"id":17,"kind":"sim","files":["a.td","dir/b \"q\".td"],"include_std":false,"sugaring":false,"emit":"verilog","json":true,"out_dir":"out","top":"top_i","deny":"warning","clock_mhz":250.5,"scenarios":2,"packets":8,"max_cycles":500,"idle":16,"test_sleep_ms":1500,"timings":true,"test_panic":true,"inject":"stall(a,0,*)","inject_sweep":[1,2,3]}"#
        );
        assert_eq!(
            JobRequest::new(JobKind::Check).to_json(),
            r#"{"v":1,"id":0,"kind":"check","files":[],"include_std":true,"sugaring":true,"emit":"ir","json":false}"#
        );

        let mut response =
            JobResponse::resilience_failure(3, "timeout", "error: \"x\"\t[parse]\u{1}");
        response.stdout = "line1\nline2\\\r\n".to_string();
        response.artifacts = vec!["out/top.vhd".to_string()];
        response.diagnostics = vec![DiagnosticInfo {
            severity: "error".to_string(),
            stage: "parse".to_string(),
            message: "expected expression".to_string(),
            file: "a.td".to_string(),
            line: 3,
            col: 11,
        }];
        response.warm = true;
        response.elapsed_ms = 1.25;
        response.metrics_json =
            r#"{"cache.stage.parse.reused":2,"timings.wall_ms":1.5}"#.to_string();
        response.status = Some(StatusInfo {
            pid: 42,
            uptime_ms: 1000.0,
            requests: 7,
            parse_entries: 2,
            elab_entries: 1,
            jobs_active: 1,
            jobs_timed_out: 3,
            jobs_panicked: 2,
            idle_deadline_ms: Some(250.5),
        });
        assert_eq!(
            response.to_json(),
            r#"{"v":1,"id":3,"ok":false,"exit_code":124,"stdout":"line1\nline2\\\r\n","stderr":"error: \"x\"\t[parse]\u0001\n","artifacts":["out/top.vhd"],"diagnostics":[{"severity":"error","stage":"parse","message":"expected expression","file":"a.td","line":3,"col":11}],"warm":true,"elapsed_ms":1.25,"metrics":{"cache.stage.parse.reused":2,"timings.wall_ms":1.5},"error":"timeout","status":{"pid":42,"uptime_ms":1000,"requests":7,"parse_entries":2,"elab_entries":1,"jobs_active":1,"jobs_timed_out":3,"jobs_panicked":2,"idle_deadline_ms":250.5}}"#
        );
        assert_eq!(
            JobResponse::new(0).to_json(),
            r#"{"v":1,"id":0,"ok":true,"exit_code":0,"stdout":"","stderr":"","artifacts":[],"diagnostics":[],"warm":false,"elapsed_ms":0,"metrics":{}}"#
        );
    }
}
