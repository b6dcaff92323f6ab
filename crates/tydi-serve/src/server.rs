//! The warm compiler daemon: a unix-socket server holding one
//! resident [`ArtifactCache`] and serving newline-delimited JSON jobs
//! to concurrent clients.
//!
//! Each accepted connection gets its own worker thread; a connection
//! carries any number of requests, answered in order. Compile jobs
//! serialize on the cache mutex (the cache is the shared warm state —
//! letting two compiles interleave on it would make what each one
//! reuses depend on timing), while `status` requests only touch cheap
//! atomics plus a short cache lock for the entry counts.
//!
//! Resilience: every compile job runs on its own thread under
//! [`std::panic::catch_unwind`], so a crashing compile answers
//! `internal_error` and the daemon keeps serving. A per-request
//! wall-clock timeout ([`ServeOptions::job_timeout`]) answers
//! `timeout` and abandons the job thread (it still releases the cache
//! and scrubs its metric scope when it eventually finishes). An
//! admission gate ([`ServeOptions::max_jobs`]) answers `busy` instead
//! of queueing unboundedly; clients retry with capped exponential
//! backoff. All of it is observable: the daemon counts active,
//! timed-out and panicked jobs in atomics, and the `status` job
//! renders them back to clients.
//!
//! Persistence: a job that changed the cache persists it (merge-on-save
//! through the cross-process [`CacheLock`]) *after* its reply is sent,
//! still holding the cache mutex, so the daemon's next job waits for
//! it. The job thread takes the directory lock before it replies, so a
//! cold `tydic` started after the reply waits for that persist instead
//! of reading the older disk state.
//!
//! Lifecycle: the socket lives under the cache directory
//! ([`crate::socket_path`]), so one daemon serves one cache. On
//! `shutdown` the daemon answers the request, persists the cache,
//! removes its socket and pid files, and exits;
//! [`ServeOptions::idle_timeout`] does the same unprompted once the
//! daemon has sat idle long enough.
//! A daemon killed without `shutdown` leaves a stale socket behind;
//! the next `serve` detects it by failing to connect and rebinds.

use crate::execute;
use crate::protocol::{JobKind, JobRequest, JobResponse, StatusInfo};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tydi_lang::cache::{holder_is_live, self_comm};
use tydi_lang::{ArtifactCache, CacheLock};
use tydi_obs::metrics;

/// Stack size of a job thread: the 8 MiB a CLI's main thread gets, so
/// a deeply nested design that compiles in-process also compiles on
/// the daemon (a stack overflow aborts the whole process; no
/// `catch_unwind` can isolate it).
const JOB_STACK_SIZE: usize = 8 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The artifact cache directory the daemon owns (and the default
    /// home of its socket).
    pub cache_dir: PathBuf,
    /// Socket path override (tests bind in scratch directories).
    pub socket: Option<PathBuf>,
    /// Exit after serving this many compile jobs (testing hook).
    pub max_requests: Option<u64>,
    /// Per-request wall-clock limit; a job over it answers `timeout`.
    pub job_timeout: Option<Duration>,
    /// Admission gate: with this many compile jobs in flight, new ones
    /// answer `busy` instead of queueing.
    pub max_jobs: Option<u64>,
    /// Exit (persisting the cache) after this long without a request.
    pub idle_timeout: Option<Duration>,
}

impl ServeOptions {
    /// Options for a daemon owning `cache_dir`.
    pub fn new(cache_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            cache_dir: cache_dir.into(),
            socket: None,
            max_requests: None,
            job_timeout: None,
            max_jobs: None,
            idle_timeout: None,
        }
    }
}

/// Shared daemon state.
struct ServerState {
    cache: Mutex<ArtifactCache>,
    cache_dir: PathBuf,
    socket: PathBuf,
    started: Instant,
    /// Compile jobs served (status/shutdown excluded).
    requests: AtomicU64,
    /// Monotonic per-request metric-scope sequence (client-chosen ids
    /// may collide across connections; this cannot).
    sequence: AtomicU64,
    /// Compile jobs currently in flight (admission-gate slot count).
    active: AtomicU64,
    /// Jobs answered `timeout`.
    timed_out: AtomicU64,
    /// Jobs answered `internal_error` (a panic, or a vanished job).
    panicked: AtomicU64,
    /// When the daemon last heard from a client (idle-shutdown clock).
    last_activity: Mutex<Instant>,
    job_timeout: Option<Duration>,
    max_jobs: Option<u64>,
    idle_timeout: Option<Duration>,
}

impl ServerState {
    /// Milliseconds until the idle shutdown fires, if configured.
    fn idle_deadline_ms(&self) -> Option<f64> {
        let limit = self.idle_timeout?;
        let idle = self
            .last_activity
            .lock()
            .map(|t| t.elapsed())
            .unwrap_or_default();
        Some(limit.saturating_sub(idle).as_secs_f64() * 1e3)
    }

    fn touch(&self) {
        if let Ok(mut last) = self.last_activity.lock() {
            *last = Instant::now();
        }
    }
}

/// Runs the daemon until a `shutdown` job arrives (this call does not
/// return then: the handler persists the cache and exits the
/// process), the idle timeout fires, the `max_requests` testing hook
/// trips, or accepting fails.
pub fn serve(options: &ServeOptions) -> io::Result<()> {
    std::fs::create_dir_all(&options.cache_dir)?;
    let socket = options
        .socket
        .clone()
        .unwrap_or_else(|| crate::socket_path(&options.cache_dir));
    let listener = bind_socket(&socket)?;
    // The pid file records `<pid> <comm>` so stale-holder checks can
    // tell a recycled pid from a live daemon (see `pid_file_is_live`).
    let _ = std::fs::write(
        options.cache_dir.join(crate::PID_FILE_NAME),
        format!("{} {}\n", std::process::id(), self_comm()),
    );
    let state = Arc::new(ServerState {
        cache: Mutex::new(ArtifactCache::load(&options.cache_dir)),
        cache_dir: options.cache_dir.clone(),
        socket: socket.clone(),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        sequence: AtomicU64::new(0),
        active: AtomicU64::new(0),
        timed_out: AtomicU64::new(0),
        panicked: AtomicU64::new(0),
        last_activity: Mutex::new(Instant::now()),
        job_timeout: options.job_timeout,
        max_jobs: options.max_jobs,
        idle_timeout: options.idle_timeout,
    });
    eprintln!(
        "tydic serve: listening on {} (pid {})",
        socket.display(),
        std::process::id()
    );
    if let Some(limit) = options.idle_timeout {
        spawn_idle_watchdog(Arc::clone(&state), limit);
    }
    for connection in listener.incoming() {
        let Ok(stream) = connection else { continue };
        let worker_state = Arc::clone(&state);
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &worker_state);
        });
        if let Some(limit) = options.max_requests {
            if state.requests.load(Ordering::SeqCst) >= limit {
                break;
            }
        }
    }
    cleanup(&state);
    Ok(())
}

/// Shuts the daemon down once it has been idle (no requests, no jobs
/// in flight) for `limit`. Goes through [`cleanup`], so the warm cache
/// is persisted on the way out — an idle-evicted daemon loses no work.
fn spawn_idle_watchdog(state: Arc<ServerState>, limit: Duration) {
    std::thread::spawn(move || loop {
        let idle = state
            .last_activity
            .lock()
            .map(|t| t.elapsed())
            .unwrap_or_default();
        if idle >= limit && state.active.load(Ordering::SeqCst) == 0 {
            eprintln!(
                "tydic serve: idle for {:.1}s, shutting down",
                idle.as_secs_f64()
            );
            cleanup(&state);
            std::process::exit(0);
        }
        let nap = limit
            .saturating_sub(idle)
            .clamp(Duration::from_millis(20), Duration::from_millis(200));
        std::thread::sleep(nap);
    });
}

/// Binds the listening socket, taking over a stale socket file left
/// by a daemon that died without `shutdown` (detected by a refused
/// connection, cross-checked against the pid file: a recorded holder
/// that no longer runs `tydic` — dead pid or recycled pid with a
/// different `/proc/<pid>/comm` — never blocks the takeover). A live
/// daemon on the socket is an error: two daemons on one cache would
/// fight over the warm state.
fn bind_socket(socket: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(socket) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            let holder_live = pid_file_is_live(socket);
            if UnixStream::connect(socket).is_ok() && holder_live != Some(false) {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket.display()),
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(e) => Err(e),
    }
}

/// Whether the pid file next to `socket` names a process that is both
/// alive and still a tydic daemon. `None` when there is nothing to
/// verify (no pid file, no procfs) — the caller falls back to the
/// connect probe alone.
fn pid_file_is_live(socket: &Path) -> Option<bool> {
    holder_is_live(&socket.parent()?.join(crate::PID_FILE_NAME))
}

fn handle_connection(stream: UnixStream, state: &Arc<ServerState>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        if line.trim().is_empty() {
            continue;
        }
        state.touch();
        let (response, shutdown) = match JobRequest::parse(&line) {
            Err(message) => (JobResponse::failure(0, 2, message), false),
            Ok(request) => dispatch(&request, state),
        };
        state.touch();
        writeln!(writer, "{}", response.to_json())?;
        writer.flush()?;
        if shutdown {
            cleanup(state);
            // Exit from the worker thread: the acceptor is blocked in
            // `incoming()` and holds no state worth unwinding.
            std::process::exit(0);
        }
    }
}

/// Runs one request; the flag asks the caller to shut the daemon down
/// after the response is flushed.
fn dispatch(request: &JobRequest, state: &Arc<ServerState>) -> (JobResponse, bool) {
    match request.kind {
        JobKind::Status => {
            let (parse_entries, elab_entries) = {
                let cache = lock(&state.cache);
                (cache.parse_entries() as u64, cache.elab_entries() as u64)
            };
            let mut response = JobResponse::new(request.id);
            response.status = Some(StatusInfo {
                pid: std::process::id() as u64,
                uptime_ms: state.started.elapsed().as_secs_f64() * 1e3,
                requests: state.requests.load(Ordering::SeqCst),
                parse_entries,
                elab_entries,
                jobs_active: state.active.load(Ordering::SeqCst),
                jobs_timed_out: state.timed_out.load(Ordering::SeqCst),
                jobs_panicked: state.panicked.load(Ordering::SeqCst),
                idle_deadline_ms: state.idle_deadline_ms(),
            });
            (response, false)
        }
        JobKind::Shutdown => (JobResponse::new(request.id), true),
        JobKind::Check | JobKind::Build | JobKind::Analyze | JobKind::Sim => {
            run_compile_job(request, state)
        }
    }
}

/// Runs one compile job through the admission gate, on its own thread,
/// under panic isolation and the wall-clock timeout.
fn run_compile_job(request: &JobRequest, state: &Arc<ServerState>) -> (JobResponse, bool) {
    // Admission gate: claim an in-flight slot or answer `busy`.
    let admitted = match state.max_jobs {
        Some(max) => state
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok(),
        None => {
            state.active.fetch_add(1, Ordering::SeqCst);
            true
        }
    };
    if !admitted {
        let max = state.max_jobs.unwrap_or(0);
        return (
            JobResponse::resilience_failure(
                request.id,
                "busy",
                format!("daemon is serving its maximum of {max} concurrent job(s); retry"),
            ),
            false,
        );
    }
    let sequence = state.sequence.fetch_add(1, Ordering::SeqCst);
    let scope = format!("req.{sequence}.");
    let (sender, receiver) = mpsc::channel();
    let job_state = Arc::clone(state);
    let job_request = request.clone();
    let job_scope = scope.clone();
    std::thread::Builder::new()
        .stack_size(JOB_STACK_SIZE)
        .spawn(move || {
            // Lock the cache on the job thread, but catch panics
            // *inside* the guard's scope: an unwinding compile then
            // drops the guard normally instead of poisoning the mutex.
            let mut cache = lock(&job_state.cache);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_one_job(&job_request, &mut cache, &job_scope)
            }));
            if outcome.is_err() {
                // The panic unwound past `run_job`'s own scrub; clear the
                // request's metric namespace from here (this thread's
                // scope guard is gone, so the prefix resolves globally).
                metrics::clear_prefix(&job_scope);
            }
            // Persist every job that changed the cache, so cold `tydic`
            // runs and other daemons see this daemon's work (the dirty
            // flag makes fully-warm jobs skip the disk), but off the
            // reply path: take the directory lock, reply, then merge
            // and write. A reader that starts after the reply waits on
            // the lock and sees this persist.
            let persist = cache
                .is_dirty()
                .then(|| CacheLock::acquire(&job_state.cache_dir));
            // The dispatcher may have timed out and gone away; that only
            // drops the result of an already-abandoned job.
            let _ = sender.send(outcome);
            let persisted = match persist {
                Some(held) => held.and_then(|held| cache.save_locked(held)),
                None => Ok(()),
            };
            if let Err(e) = persisted {
                eprintln!(
                    "warning: cannot persist cache to `{}`: {e}",
                    job_state.cache_dir.display()
                );
            }
            drop(cache);
            job_state.active.fetch_sub(1, Ordering::SeqCst);
        })
        .expect("spawn a job thread");

    let outcome = match state.job_timeout {
        None => receiver
            .recv()
            .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        Some(limit) => receiver.recv_timeout(limit),
    };
    let response = match outcome {
        Ok(Ok(response)) => {
            state.requests.fetch_add(1, Ordering::SeqCst);
            response
        }
        Ok(Err(_panic)) => {
            state.panicked.fetch_add(1, Ordering::SeqCst);
            JobResponse::resilience_failure(
                request.id,
                "internal_error",
                "compile job panicked; the daemon isolated it and keeps serving",
            )
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.timed_out.fetch_add(1, Ordering::SeqCst);
            let limit = state.job_timeout.unwrap_or_default();
            JobResponse::resilience_failure(
                request.id,
                "timeout",
                format!(
                    "job exceeded the {:.1}s wall-clock limit",
                    limit.as_secs_f64()
                ),
            )
        }
        // The job thread died without reporting — only possible if the
        // send itself failed; account it like a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            state.panicked.fetch_add(1, Ordering::SeqCst);
            JobResponse::resilience_failure(
                request.id,
                "internal_error",
                "compile job vanished; the daemon keeps serving",
            )
        }
    };
    (response, false)
}

/// The job body run under panic isolation: the protocol's test hooks
/// (deterministic ways to provoke a slow or crashing compile), then
/// the real runner.
fn run_one_job(request: &JobRequest, cache: &mut ArtifactCache, scope: &str) -> JobResponse {
    if let Some(ms) = request.test_sleep_ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if request.test_panic {
        panic!("test hook: job {} requested a panic", request.id);
    }
    execute::run_job(request, cache, scope)
}

/// Persists the cache and removes the daemon's socket and pid files.
fn cleanup(state: &ServerState) {
    let mut cache = lock(&state.cache);
    if cache.is_dirty() {
        let _ = cache.save(&state.cache_dir);
    }
    drop(cache);
    let _ = std::fs::remove_file(&state.socket);
    let _ = std::fs::remove_file(state.cache_dir.join(crate::PID_FILE_NAME));
}

fn lock(cache: &Mutex<ArtifactCache>) -> std::sync::MutexGuard<'_, ArtifactCache> {
    match cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tydi-serve-pidfile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pid_file_liveness_detects_dead_and_recycled_holders() {
        if !Path::new("/proc").is_dir() {
            return; // no procfs to probe on this platform
        }
        let dir = temp_dir("live");
        let socket = dir.join(crate::SOCKET_NAME);
        let pid_file = dir.join(crate::PID_FILE_NAME);
        // No pid file: nothing to verify.
        assert_eq!(pid_file_is_live(&socket), None);
        // Our own pid with our own comm: live.
        std::fs::write(
            &pid_file,
            format!("{} {}\n", std::process::id(), self_comm()),
        )
        .unwrap();
        assert_eq!(pid_file_is_live(&socket), Some(true));
        // Our own pid recorded with a different comm: the pid was
        // recycled by an unrelated process — not a live daemon.
        std::fs::write(&pid_file, format!("{} not-a-tydic\n", std::process::id())).unwrap();
        assert_eq!(pid_file_is_live(&socket), Some(false));
        // A pid beyond pid_max: provably dead.
        std::fs::write(&pid_file, "4194304999 tydic\n").unwrap();
        assert_eq!(pid_file_is_live(&socket), Some(false));
        // Old single-field format with a live pid: alive is all we know.
        std::fs::write(&pid_file, format!("{}\n", std::process::id())).unwrap();
        assert_eq!(pid_file_is_live(&socket), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
