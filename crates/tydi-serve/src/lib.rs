//! Compiler-as-a-service for Tydi-lang: the `tydic serve` daemon.
//!
//! Process startup dominates small incremental compiles — loading the
//! artifact cache, re-interning the standard library's types, and
//! warming the type store are paid on every `tydic` invocation even
//! when the design itself is served entirely from cache. This crate
//! keeps that state resident in one long-lived process:
//!
//! * [`server`] — a unix-socket daemon holding the [`ArtifactCache`]
//!   (and, through it, the warm interners and type store of
//!   cache-restored artifacts) in memory, serving concurrent clients.
//!   Each request is one newline-delimited JSON *job* (`check`,
//!   `build`, `analyze`, `sim`, `status`, `shutdown`) answered with the
//!   compiler's diagnostics, a per-request metrics snapshot (namespaced
//!   via [`tydi_obs::metrics::scoped`]), and the emitted artifact
//!   paths.
//! * [`client`] — the connection used by `tydic --daemon`: connect to
//!   the socket under the cache directory, spawning the daemon on
//!   demand, and fall back to in-process compilation when the socket
//!   cannot be reached.
//! * [`execute`] — the job executor. `tydic` runs every job through
//!   it, in-process or on the daemon, so a daemon-served job is
//!   byte-identical to a cold `tydic` run by construction.
//! * [`lsp`] — a minimal Language Server Protocol subset over stdio
//!   (`tydic serve --lsp`): `didOpen`/`didChange` publish diagnostics
//!   mapped from the compiler's spans, and `hover` resolves the
//!   logical type behind the symbol under the cursor.
//! * [`protocol`] — the job request/response types and their JSON
//!   codec, built on [`tydi_obs::json`], the workspace's one JSON
//!   reader and writer.
//!
//! [`ArtifactCache`]: tydi_lang::ArtifactCache

#![warn(missing_docs)]

pub mod execute;
pub mod lsp;
pub mod protocol;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

use std::path::{Path, PathBuf};

/// File name of the daemon's unix socket, under the cache directory.
pub const SOCKET_NAME: &str = "serve.sock";

/// File name of the daemon's pid file, next to the socket.
pub const PID_FILE_NAME: &str = "serve.pid";

/// The daemon's socket path for a given cache directory. Keeping the
/// socket under the cache directory ties one daemon to one cache: two
/// builds with different `--cache-dir`s get two independent daemons.
pub fn socket_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join(SOCKET_NAME)
}
