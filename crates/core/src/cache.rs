//! The artifact cache behind the incremental compilation pipeline.
//!
//! An [`ArtifactCache`] memoizes per-unit stage outputs keyed by
//! content fingerprints ([`crate::fingerprint`]):
//!
//! * **parse artifacts** — one per registered source file, keyed by
//!   the file's slot in the session file table plus the fingerprint of
//!   its name and raw text. The artifact carries the parsed package,
//!   its AST fingerprint, and the diagnostics the parse emitted.
//! * **elaboration artifacts** — one per *project state*, keyed by
//!   the options fingerprint plus the ordered AST fingerprints of
//!   every input file. The artifact carries the fully elaborated,
//!   sugared, DRC-clean project, so a hit skips the elaborate, sugar
//!   and DRC stages wholesale.
//!
//! The cache persists to a directory (conventionally `.tydic-cache/`)
//! as a line-based manifest plus one `.tirb` file (the versioned
//! Tydi-IR binary format with its interned type table, see
//! [`tydi_ir::binary`]) per elaboration artifact — a warm load
//! decodes each distinct type once instead of re-parsing the whole
//! project text. The manifest header records a schema fingerprint
//! derived from the compiler version; a cache written by a different
//! build fails the header check and loads as empty, so stale caches
//! self-invalidate instead of being misread.
//! Parse artifacts persist only their fingerprints and diagnostics
//! (ASTs are cheap to rebuild and expensive to serialize); a restored
//! entry still lets a warm start prove "this file is unchanged" and
//! skip re-parsing it when the elaboration artifact hits.
//!
//! Parse artifacts memoize the parser's *exact* output for a file —
//! including any diagnostics it emitted, which replay verbatim on a
//! hit — so error-bearing parses are cached too (only a total parse
//! failure, where no tree exists, is never stored). Elaboration
//! artifacts, by contrast, are stored only for compiles that passed
//! the DRC: a failed elaborate/DRC run caches nothing and re-reports
//! faithfully on every attempt.
//!
//! The cache is bounded: at most [`PARSE_CAPACITY`] parse artifacts
//! and [`ELAB_CAPACITY`] elaboration artifacts, both evicted least
//! recently used first (a lookup refreshes its entry, so the stdlib
//! every compile reads is never the one a new text pushes out).
//! On save, artifact files already on disk are not rewritten (their
//! names are content hashes), and artifact files no longer referenced
//! by the manifest are removed, so a long `--watch` session does
//! bounded work per persist instead of rewriting its whole history.
//!
//! # Process safety
//!
//! A cache directory may be shared by many processes at once — the
//! `tydic serve` daemon, CLI one-shots, and watch sessions all point
//! at the same `.tydic-cache/` by default. Three mechanisms keep that
//! safe:
//!
//! * every load and save holds an exclusive [`CacheLock`] (an
//!   `O_CREAT|O_EXCL` lock file carrying the holder's PID, with
//!   stale-lock takeover when the holder died), so a reader never
//!   observes a half-swept directory. A load takes it even before the
//!   first manifest exists, so it waits for a writer that holds the
//!   lock to create one; the daemon takes the lock *before* it replies
//!   and persists after, so a reader that starts after a reply sees
//!   that reply's work;
//! * [`ArtifactCache::save`] *merges* before it writes: still under
//!   the lock it re-reads the manifest and adopts, by manifest key,
//!   every entry it does not already have (as the least recently used,
//!   so this process's own entries win eviction), so two processes
//!   persisting different artifacts union their work instead of the
//!   garbage collector deleting each other's files. Only the `.tirb`
//!   files of adopted entries that survive the capacity trim are
//!   decoded: a save by a process whose cache is full of its own
//!   entries decodes nothing;
//! * the manifest is written to a temporary file in the same
//!   directory and atomically renamed into place, so a crash mid-write
//!   (or a reader that raced past a stale lock) sees either the old
//!   manifest or the new one, never a truncated hybrid.

use crate::ast::Package;
use crate::diagnostics::{Diagnostic, Severity};
use crate::fingerprint::{schema_fingerprint, Fingerprint};
use crate::instantiate::ElabInfo;
use crate::span::Span;
use crate::sugar::SugarReport;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tydi_ir::{Project, ProjectIndex};

/// Default name of the on-disk cache directory.
pub const CACHE_DIR_NAME: &str = ".tydic-cache";

/// Maximum number of memoized elaboration artifacts (LRU eviction).
/// Each artifact is a full elaborated project; a watch session only
/// ever ping-pongs between a handful of recent states.
pub const ELAB_CAPACITY: usize = 16;

/// Maximum number of memoized parse artifacts (LRU eviction). Parse
/// artifacts are per file *and* per text, so a long watch session
/// accumulates one per edit; the cap bounds that history while
/// leaving plenty of room for many files (or many designs sharing
/// one cache directory).
pub const PARSE_CAPACITY: usize = 256;

const MANIFEST_NAME: &str = "manifest.txt";

/// Name of the exclusive lock file serializing cache loads and saves
/// across processes.
const LOCK_NAME: &str = "lock";

/// How long [`CacheLock::acquire`] waits for a live holder before
/// giving up. Critical sections are one load-merge-save, so seconds of
/// patience cover even a cold multi-design persist.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// A lock file older than this whose holder cannot be probed (no
/// `/proc` on this platform) is presumed abandoned and taken over.
const LOCK_STALE_AGE: Duration = Duration::from_secs(30);

/// Extension of persisted elaboration artifacts (binary Tydi-IR).
const ARTIFACT_EXT: &str = "tirb";

/// Cache key of one parsed source file: its slot in the session file
/// table (spans index into that table, so an artifact is only valid
/// at the slot it was parsed at) plus the source fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParseKey {
    /// Index in the session file table.
    pub slot: usize,
    /// Fingerprint of the file name and raw text.
    pub source: Fingerprint,
}

/// Memoized output of parsing one source file.
#[derive(Debug, Clone)]
pub struct ParseArtifact {
    /// The parsed package. `None` for entries restored from disk —
    /// the AST fingerprint is known but the tree must be rebuilt if
    /// elaboration actually needs it.
    pub package: Option<Package>,
    /// Fingerprint of the canonical printed AST.
    pub ast: Fingerprint,
    /// Diagnostics the parse emitted.
    pub diagnostics: Vec<Diagnostic>,
}

/// Memoized output of the elaborate + sugar + DRC stages.
#[derive(Debug, Clone)]
pub struct ElabArtifact {
    /// The elaborated, sugared, validated project.
    pub project: Project,
    /// The name-resolution index over `project`, shared with the
    /// compile that stored the artifact; a hit hands it out as is.
    /// Artifacts restored from disk index their project on decode.
    pub index: Arc<ProjectIndex>,
    /// Elaboration statistics (connection spans are not persisted;
    /// they are only consulted when the DRC fails, and cached
    /// artifacts passed the DRC).
    pub info: ElabInfo,
    /// What sugaring did.
    pub sugar_report: SugarReport,
    /// Diagnostics emitted by the three cached stages.
    pub diagnostics: Vec<Diagnostic>,
}

/// A map of at most `CAP` entries, evicted least recently used first:
/// a lookup or a store makes its key the newest.
#[derive(Debug)]
struct Lru<K, V, const CAP: usize> {
    map: HashMap<K, V>,
    /// The keys of `map`, least recently used first.
    order: Vec<K>,
}

impl<K, V, const CAP: usize> Default for Lru<K, V, CAP> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V, const CAP: usize> Lru<K, V, CAP> {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks `key` up and makes it the most recently used entry.
    fn get(&mut self, key: K) -> Option<&V> {
        if self.map.contains_key(&key) {
            self.refresh(key);
        }
        self.map.get(&key)
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// evicting the least recently used beyond `CAP`.
    fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_some() {
            self.refresh(key);
        } else {
            self.order.push(key);
        }
        self.trim();
    }

    /// Adopts the `entries` (oldest first) whose keys are not held, as
    /// the least recently used, then trims back to `CAP`.
    fn adopt_oldest(&mut self, entries: impl IntoIterator<Item = (K, V)>) {
        let mut order = Vec::new();
        for (key, value) in entries {
            if let Entry::Vacant(slot) = self.map.entry(key) {
                slot.insert(value);
                order.push(key);
            }
        }
        order.append(&mut self.order);
        self.order = order;
        self.trim();
    }

    /// The entries, least recently used first.
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.iter().map(|key| (key, &self.map[key]))
    }

    fn refresh(&mut self, key: K) {
        // Hits cluster on recent keys, so search from the newest end.
        if let Some(at) = self.order.iter().rposition(|k| *k == key) {
            let key = self.order.remove(at);
            self.order.push(key);
        }
    }

    fn trim(&mut self) {
        let excess = self.order.len().saturating_sub(CAP);
        for key in self.order.drain(..excess) {
            self.map.remove(&key);
        }
    }
}

/// The in-memory artifact cache with disk persistence.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    parse: Lru<ParseKey, ParseArtifact, PARSE_CAPACITY>,
    elab: Lru<Fingerprint, ElabArtifact, ELAB_CAPACITY>,
    dirty: bool,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// Number of memoized parse artifacts.
    pub fn parse_entries(&self) -> usize {
        self.parse.len()
    }

    /// Number of memoized elaboration artifacts.
    pub fn elab_entries(&self) -> usize {
        self.elab.len()
    }

    /// True when the cache changed since it was created or loaded.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Looks up the parse artifact for a source file, making it the
    /// most recently used.
    pub fn lookup_parse(&mut self, key: ParseKey) -> Option<&ParseArtifact> {
        self.parse.get(key)
    }

    /// Stores the parse artifact for a source file, evicting the least
    /// recently used entries beyond [`PARSE_CAPACITY`] (re-parsing an
    /// evicted text is cheap).
    pub fn store_parse(&mut self, key: ParseKey, artifact: ParseArtifact) {
        self.dirty = true;
        self.parse.insert(key, artifact);
    }

    /// Re-attaches a materialized AST to a disk-restored parse entry.
    pub fn attach_package(&mut self, key: ParseKey, package: Package) {
        if let Some(entry) = self.parse.map.get_mut(&key) {
            entry.package = Some(package);
        }
    }

    /// Looks up an elaboration artifact, making it the most recently
    /// used.
    pub fn lookup_elab(&mut self, key: Fingerprint) -> Option<&ElabArtifact> {
        self.elab.get(key)
    }

    /// Stores an elaboration artifact, evicting the least recently
    /// used entries beyond [`ELAB_CAPACITY`].
    pub fn store_elab(&mut self, key: Fingerprint, artifact: ElabArtifact) {
        self.dirty = true;
        self.elab.insert(key, artifact);
    }

    // ---- persistence ----------------------------------------------------

    /// Loads the cache persisted under `dir`. A missing directory, an
    /// unreadable manifest, or a schema mismatch all yield an empty
    /// cache — a stale or foreign cache self-invalidates rather than
    /// being misread.
    ///
    /// The read happens under the directory's [`CacheLock`] so it can
    /// never observe another process mid-persist — including the very
    /// first persist, before any manifest exists. If the lock cannot
    /// be acquired (timeout, unwritable directory) the load degrades
    /// to a best-effort unlocked read, which the atomic manifest
    /// rename keeps safe against torn manifests (a mid-sweep artifact
    /// deletion then at worst reads as a cold cache).
    pub fn load(dir: &Path) -> ArtifactCache {
        // Without a directory there is no lock to wait for (and a load
        // must not create one).
        if !dir.is_dir() {
            return ArtifactCache::new();
        }
        let _lock = CacheLock::acquire(dir).ok();
        let Some(manifest) = Manifest::read(dir) else {
            return ArtifactCache::new();
        };
        let _span = tydi_obs::trace::span_named("core", || {
            format!("cache:load decoded={}", manifest.elab.len())
        });
        let decoded: Option<Vec<_>> = manifest
            .elab
            .into_iter()
            .map(|record| record.decode(dir))
            .collect();
        // One unreadable artifact invalidates the whole cache.
        let Some(elab) = decoded else {
            return ArtifactCache::new();
        };
        let mut cache = ArtifactCache::new();
        cache.parse.adopt_oldest(manifest.parse);
        cache.elab.adopt_oldest(elab);
        cache
    }

    /// Persists the cache under `dir` (creating it): acquires the
    /// directory's [`CacheLock`], then [`ArtifactCache::save_locked`].
    pub fn save(&mut self, dir: &Path) -> io::Result<()> {
        let lock = CacheLock::acquire(dir)?;
        self.save_locked(lock)
    }

    /// Persists the cache into the directory `lock` guards, releasing
    /// the lock when done. Split from [`ArtifactCache::save`] so a
    /// caller can take the lock early: the daemon takes it before it
    /// replies and persists after.
    ///
    /// The on-disk manifest is re-read and merged into this cache
    /// first: entries another process persisted since our load are
    /// adopted as the least recently used, so they survive unless
    /// capacity genuinely evicts them; only the artifact files of
    /// adopted entries that survive are decoded. Then artifacts and
    /// the manifest are written (the manifest atomically, via a temp
    /// file rename) and unreferenced artifact files are swept. On
    /// success the dirty flag clears, so an unchanged cache skips the
    /// next persist entirely.
    pub fn save_locked(&mut self, lock: CacheLock) -> io::Result<()> {
        let dir = lock.dir.as_path();
        let disk = Manifest::read(dir).unwrap_or_default();
        self.parse.adopt_oldest(disk.parse);
        // Adopted entries are the least recently used, so only the
        // newest `room` keys this cache lacks survive the trim.
        let room = ELAB_CAPACITY.saturating_sub(self.elab.len());
        let mut adopted: Vec<ElabRecord> = disk
            .elab
            .into_iter()
            .filter(|record| !self.elab.contains(&record.key))
            .collect();
        adopted.drain(..adopted.len().saturating_sub(room));
        let _span =
            tydi_obs::trace::span_named("core", || format!("cache:save decoded={}", adopted.len()));
        // An artifact that no longer decodes is not adopted (and its
        // file is swept below).
        self.elab
            .adopt_oldest(adopted.into_iter().filter_map(|record| record.decode(dir)));
        self.write_locked(dir)?;
        drop(lock);
        self.dirty = false;
        Ok(())
    }

    /// Writes artifacts, the manifest, and runs the sweep. The caller
    /// holds the [`CacheLock`].
    fn write_locked(&self, dir: &Path) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut manifest = String::new();
        let _ = writeln!(manifest, "tydic-cache {}", schema_fingerprint());
        // Both levels persist least recently used first, so eviction
        // order survives a round trip.
        for (key, artifact) in self.parse.iter() {
            let _ = writeln!(
                manifest,
                "parse {} {} {} {}",
                key.slot,
                key.source,
                artifact.ast,
                artifact.diagnostics.len()
            );
            for diag in &artifact.diagnostics {
                let _ = writeln!(manifest, "{}", diag_line(diag));
            }
        }
        for (key, artifact) in self.elab.iter() {
            let _ = writeln!(
                manifest,
                "elab {} {} {} {} {} {} {} {}",
                key,
                artifact.sugar_report.duplicators,
                artifact.sugar_report.voiders,
                artifact.info.template_instantiations,
                artifact.info.template_cache_hits,
                artifact.info.type_store.distinct_types,
                artifact.info.type_store.intern_hits,
                artifact.diagnostics.len()
            );
            for diag in &artifact.diagnostics {
                let _ = writeln!(manifest, "{}", diag_line(diag));
            }
            // Artifact names are content hashes: an existing file is
            // already correct, so a persist only writes new artifacts.
            let path = dir.join(format!("{key}.{ARTIFACT_EXT}"));
            if !path.exists() {
                std::fs::write(path, tydi_ir::binary::encode_project(&artifact.project))?;
            }
        }
        // The manifest lands atomically: write a temp file in the
        // same directory, then rename over the old manifest. A crash
        // (or a lock-bypassing reader) sees the old manifest or the
        // new one, never a truncation.
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, manifest)?;
        std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
        // Garbage-collect artifact files evicted from (or never in)
        // the manifest so the directory stays bounded. The sweep runs
        // *after* the rename: a crash between the two leaves orphan
        // files (cleaned by the next save), never a manifest
        // referencing missing ones.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                let Some((stem, ext)) = name.rsplit_once('.') else {
                    continue;
                };
                if ext != ARTIFACT_EXT {
                    continue;
                }
                let referenced = Fingerprint::parse(stem)
                    .map(|key| self.elab.contains(&key))
                    .unwrap_or(false);
                if !referenced {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }
}

/// An exclusive, cross-process lock on a cache directory.
///
/// The lock is a file created with `O_CREAT|O_EXCL` (so creation is
/// the atomic acquire) holding the owner's PID. [`CacheLock::acquire`]
/// spins with a short sleep until the file can be created, taking over
/// locks whose holder provably died (the PID no longer exists under
/// `/proc`; where `/proc` is unavailable, a lock older than
/// [`LOCK_STALE_AGE`] is presumed abandoned), and gives up with
/// [`io::ErrorKind::TimedOut`] after [`LOCK_TIMEOUT`]. Dropping the
/// guard removes the file.
#[derive(Debug)]
pub struct CacheLock {
    /// The locked cache directory.
    dir: PathBuf,
}

impl CacheLock {
    /// Acquires the lock for `dir`, creating the directory if needed.
    pub fn acquire(dir: &Path) -> io::Result<CacheLock> {
        use std::io::Write as _;
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_NAME);
        let deadline = Instant::now() + LOCK_TIMEOUT;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // `<pid> <comm>`: the comm lets staleness checks
                    // tell a recycled pid from the live holder.
                    let _ = write!(file, "{} {}", std::process::id(), self_comm());
                    return Ok(CacheLock {
                        dir: dir.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        // Best-effort takeover; racing removers are
                        // fine, the create_new above re-arbitrates.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("cache lock `{}` held too long", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.dir.join(LOCK_NAME));
    }
}

/// True when the lock file's holder provably no longer exists (see
/// [`holder_is_live`]) or, when the holder cannot be probed, the file
/// is old enough to presume abandoned. A just-created lock whose PID
/// has not been written yet reads as empty and is *not* stale (its
/// mtime is fresh).
fn lock_is_stale(path: &Path) -> bool {
    if let Some(live) = holder_is_live(path) {
        return !live;
    }
    // No PID to probe (unwritten or foreign lock, or no procfs):
    // fall back to age.
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(modified) => modified
            .elapsed()
            .map(|age| age > LOCK_STALE_AGE)
            .unwrap_or(false),
        // The file vanished between the failed create and this probe:
        // the holder released it; retry immediately.
        Err(_) => true,
    }
}

/// Whether the process named by a `<pid> <comm>` holder record (the
/// cache lock file, the daemon's pid file) still runs. `Some(false)`
/// when the PID is gone from `/proc`, or is back with a different
/// `/proc/<pid>/comm` (the PID was recycled by an unrelated process;
/// without the comm check a recycled PID would hold on forever).
/// `Some(true)` when it is alive and the comm matches, or no comm was
/// recorded or readable. `None` when there is nothing to probe: the
/// file is unreadable, holds no PID, or there is no procfs.
pub fn holder_is_live(path: &Path) -> Option<bool> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = text.split_whitespace();
    let pid: u32 = fields.next()?.parse().ok()?;
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return None;
    }
    let proc_dir = proc_root.join(pid.to_string());
    if !proc_dir.exists() {
        return Some(false);
    }
    match (
        fields.next(),
        std::fs::read_to_string(proc_dir.join("comm")),
    ) {
        (Some(recorded), Ok(current)) => Some(current.trim() == recorded),
        // Single-field record or comm unreadable: alive is all we know.
        _ => Some(true),
    }
}

/// This process's `comm` name (what `/proc/<pid>/comm` reports), for
/// `<pid> <comm>` holder records; empty without procfs.
pub fn self_comm() -> String {
    std::fs::read_to_string("/proc/self/comm")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn diag_line(diag: &Diagnostic) -> String {
    let severity = match diag.severity {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    };
    let span = match diag.span {
        Some(s) => format!("{}:{}:{}", s.file, s.start, s.end),
        None => "-".to_string(),
    };
    format!(
        "diag {severity} {} {span} {}",
        diag.stage,
        diag.message.replace('\\', "\\\\").replace('\n', "\\n")
    )
}

fn parse_diag_line(line: &str) -> Option<Diagnostic> {
    let rest = line.strip_prefix("diag ")?;
    let mut parts = rest.splitn(4, ' ');
    let severity = match parts.next()? {
        "note" => Severity::Note,
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        _ => return None,
    };
    let stage = static_stage(parts.next()?);
    let span = match parts.next()? {
        "-" => None,
        text => {
            let mut nums = text.splitn(3, ':');
            Some(Span {
                file: nums.next()?.parse().ok()?,
                start: nums.next()?.parse().ok()?,
                end: nums.next()?.parse().ok()?,
            })
        }
    };
    let message = parts
        .next()
        .unwrap_or("")
        .replace("\\n", "\n")
        .replace("\\\\", "\\");
    Some(Diagnostic {
        severity,
        message,
        span,
        stage,
    })
}

/// Maps a persisted stage label back to the static names diagnostics
/// carry (unknown labels — from a future schema — fold to "cache").
fn static_stage(label: &str) -> &'static str {
    match label {
        "parse" => "parse",
        "elaborate" => "elaborate",
        "sugar" => "sugar",
        "drc" => "drc",
        _ => "cache",
    }
}

/// A persisted manifest as read from disk, both levels least recently
/// used first. Elaboration records carry everything but their project,
/// which stays in its `.tirb` file until [`ElabRecord::decode`]: a load
/// decodes every record, a save only the ones it adopts.
#[derive(Debug, Default)]
struct Manifest {
    parse: Vec<(ParseKey, ParseArtifact)>,
    elab: Vec<ElabRecord>,
}

/// One `elab` manifest record, its project not yet decoded.
#[derive(Debug)]
struct ElabRecord {
    key: Fingerprint,
    info: ElabInfo,
    sugar_report: SugarReport,
    diagnostics: Vec<Diagnostic>,
}

impl ElabRecord {
    /// Reads and decodes the record's artifact file; `None` when it is
    /// missing or does not decode.
    fn decode(self, dir: &Path) -> Option<(Fingerprint, ElabArtifact)> {
        let bytes = std::fs::read(dir.join(format!("{}.{ARTIFACT_EXT}", self.key))).ok()?;
        let project = tydi_ir::binary::decode_project(&bytes).ok()?;
        Some((
            self.key,
            ElabArtifact {
                index: Arc::new(ProjectIndex::build(&project)),
                project,
                info: self.info,
                sugar_report: self.sugar_report,
                diagnostics: self.diagnostics,
            },
        ))
    }
}

impl Manifest {
    /// Reads `dir`'s manifest; `None` when it is missing, unreadable,
    /// from another schema, or malformed.
    fn read(dir: &Path) -> Option<Manifest> {
        Manifest::parse(&std::fs::read_to_string(dir.join(MANIFEST_NAME)).ok()?)
    }

    fn parse(manifest: &str) -> Option<Manifest> {
        let mut lines = manifest.lines();
        let header = lines.next()?;
        let schema = header.strip_prefix("tydic-cache ")?;
        if Fingerprint::parse(schema)? != schema_fingerprint() {
            return None;
        }
        let mut out = Manifest::default();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("parse ") {
                let mut parts = rest.split(' ');
                let key = ParseKey {
                    slot: parts.next()?.parse().ok()?,
                    source: Fingerprint::parse(parts.next()?)?,
                };
                let ast = Fingerprint::parse(parts.next()?)?;
                let diagnostics = parse_diag_lines(parts.next()?, &mut lines)?;
                out.parse.push((
                    key,
                    ParseArtifact {
                        package: None,
                        ast,
                        diagnostics,
                    },
                ));
            } else if let Some(rest) = line.strip_prefix("elab ") {
                let mut parts = rest.split(' ');
                let key = Fingerprint::parse(parts.next()?)?;
                let sugar_report = SugarReport {
                    duplicators: parts.next()?.parse().ok()?,
                    voiders: parts.next()?.parse().ok()?,
                };
                let mut info = ElabInfo::with_template_counts(
                    parts.next()?.parse().ok()?,
                    parts.next()?.parse().ok()?,
                );
                info.type_store.distinct_types = parts.next()?.parse().ok()?;
                info.type_store.intern_hits = parts.next()?.parse().ok()?;
                let diagnostics = parse_diag_lines(parts.next()?, &mut lines)?;
                out.elab.push(ElabRecord {
                    key,
                    info,
                    sugar_report,
                    diagnostics,
                });
            } else if !line.trim().is_empty() {
                // Unknown record kind: treat the whole cache as foreign.
                return None;
            }
        }
        Some(out)
    }
}

/// Reads the `count` diagnostic lines that follow a record.
fn parse_diag_lines<'a>(
    count: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Option<Vec<Diagnostic>> {
    let count: usize = count.parse().ok()?;
    (0..count).map(|_| parse_diag_line(lines.next()?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};

    const WIRE: &str = "package demo;\ntype B = Stream(Bit(8));\n\
                        streamlet s { i : B in, o : B out, }\nimpl x of s { i => o, }\n";

    fn sample_elab() -> ElabArtifact {
        let out = compile(&[("wire.td", WIRE)], &CompileOptions::default()).unwrap();
        ElabArtifact {
            project: out.project,
            index: out.index,
            info: out.elab_info,
            sugar_report: out.sugar_report,
            diagnostics: vec![Diagnostic::note("sugar", "inserted 0 things", None)],
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("tydic-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ArtifactCache::new();
        let parse_key = ParseKey {
            slot: 1,
            source: Fingerprint::of_str("wire.td"),
        };
        cache.store_parse(
            parse_key,
            ParseArtifact {
                package: None,
                ast: Fingerprint::of_str("ast"),
                diagnostics: vec![Diagnostic::warning(
                    "parse",
                    "multi\nline \\ message",
                    Some(Span::new(1, 3, 9)),
                )],
            },
        );
        let elab_key = Fingerprint::of_str("elab-key");
        cache.store_elab(elab_key, sample_elab());
        assert!(cache.is_dirty());
        cache.save(&dir).unwrap();

        let mut restored = ArtifactCache::load(&dir);
        assert_eq!(restored.parse_entries(), 1);
        assert_eq!(restored.elab_entries(), 1);
        let parse = restored.lookup_parse(parse_key).unwrap();
        assert_eq!(parse.ast, Fingerprint::of_str("ast"));
        assert_eq!(parse.diagnostics.len(), 1);
        assert_eq!(parse.diagnostics[0].message, "multi\nline \\ message");
        assert_eq!(parse.diagnostics[0].span, Some(Span::new(1, 3, 9)));
        let elab = restored.lookup_elab(elab_key).unwrap();
        assert!(elab.project.implementation("x").is_some());
        assert_eq!(elab.project.validate(), Ok(()));
        assert_eq!(elab.diagnostics.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_clears_the_dirty_flag() {
        let dir = std::env::temp_dir().join(format!("tydic-dirty-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ArtifactCache::new();
        cache.store_elab(Fingerprint::of_str("k"), sample_elab());
        assert!(cache.is_dirty());
        cache.save(&dir).unwrap();
        assert!(
            !cache.is_dirty(),
            "a successful save must clear the dirty flag so unchanged \
             caches skip the next persist"
        );
        cache.store_elab(Fingerprint::of_str("k2"), sample_elab());
        assert!(cache.is_dirty(), "new stores re-dirty the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_merge_instead_of_clobbering() {
        // Two processes sharing a cache dir each persist their own
        // artifact; the second save must union with the first, not
        // garbage-collect its files.
        let dir = std::env::temp_dir().join(format!("tydic-merge-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key_a = Fingerprint::of_str("process-a");
        let key_b = Fingerprint::of_str("process-b");
        let mut a = ArtifactCache::new();
        a.store_elab(key_a, sample_elab());
        a.save(&dir).unwrap();
        let mut b = ArtifactCache::new(); // never saw a's entry
        b.store_elab(key_b, sample_elab());
        b.save(&dir).unwrap();
        assert!(
            dir.join(format!("{key_a}.{ARTIFACT_EXT}")).exists(),
            "b's save must not delete a's artifact"
        );
        assert!(dir.join(format!("{key_b}.{ARTIFACT_EXT}")).exists());
        let mut restored = ArtifactCache::load(&dir);
        assert!(restored.lookup_elab(key_a).is_some());
        assert!(restored.lookup_elab(key_b).is_some());
        // The merge also flows back into the saving cache.
        assert!(b.lookup_elab(key_a).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_decodes_only_the_entries_it_adopts() {
        let dir = std::env::temp_dir().join(format!("tydic-adopt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key_a = Fingerprint::of_str("held-by-a");
        let key_b = Fingerprint::of_str("new-in-b");
        let mut a = ArtifactCache::new();
        a.store_elab(key_a, sample_elab());
        a.save(&dir).unwrap();
        let mut b = ArtifactCache::load(&dir);
        // A's in-memory key no longer decodes on disk; a save that
        // re-decoded it would reject the whole disk state.
        std::fs::write(dir.join(format!("{key_a}.{ARTIFACT_EXT}")), b"garbage").unwrap();
        b.store_elab(key_b, sample_elab());
        b.save(&dir).unwrap();
        a.save(&dir).unwrap();
        assert!(
            a.lookup_elab(key_b).is_some(),
            "a adopts b's entry without decoding its own"
        );
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.contains(&format!("elab {key_b} ")), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_waits_for_the_lock_before_the_first_manifest() {
        // A writer holds the lock on a directory with no manifest yet
        // (the daemon between its first reply and its first persist):
        // a load must wait for the persist, not read an empty cache.
        let dir = std::env::temp_dir().join(format!("tydic-first-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lock = CacheLock::acquire(&dir).unwrap();
        let reader = {
            let dir = dir.clone();
            std::thread::spawn(move || ArtifactCache::load(&dir).elab_entries())
        };
        std::thread::sleep(Duration::from_millis(100));
        let mut writer = ArtifactCache::new();
        writer.store_elab(Fingerprint::of_str("first"), sample_elab());
        writer.save_locked(lock).unwrap();
        assert_eq!(reader.join().unwrap(), 1, "the load saw the first persist");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_leaves_no_temp_manifest_behind() {
        let dir = std::env::temp_dir().join(format!("tydic-tmp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ArtifactCache::new();
        cache.store_elab(Fingerprint::of_str("k"), sample_elab());
        cache.save(&dir).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            assert!(
                !name.contains(".tmp."),
                "temp manifest `{name}` must be renamed away"
            );
            assert_ne!(name, LOCK_NAME, "the lock must be released");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_round_trips_and_takes_over_stale_holders() {
        let dir = std::env::temp_dir().join(format!("tydic-lock-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let _lock = CacheLock::acquire(&dir).unwrap();
            let on_disk = std::fs::read_to_string(dir.join(LOCK_NAME)).unwrap();
            let mut fields = on_disk.split_whitespace();
            assert_eq!(fields.next(), Some(std::process::id().to_string().as_str()));
            if Path::new("/proc").is_dir() {
                assert_eq!(
                    fields.next(),
                    Some(self_comm().as_str()),
                    "lock records the holder's comm"
                );
            }
        }
        assert!(
            !dir.join(LOCK_NAME).exists(),
            "dropping the guard releases the lock"
        );
        // A lock left by a dead process (a PID far beyond pid_max) is
        // taken over instead of timing out.
        std::fs::write(dir.join(LOCK_NAME), "999999999").unwrap();
        let _lock = CacheLock::acquire(&dir).expect("stale lock takeover");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_takes_over_recycled_pids_by_comm_mismatch() {
        if !Path::new("/proc").is_dir() {
            return; // no procfs to probe on this platform
        }
        let dir = std::env::temp_dir().join(format!("tydic-lock-comm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Our own (alive) pid, but recorded under a different comm:
        // that is exactly what a recycled pid looks like. Without the
        // comm check this acquire would spin until LOCK_TIMEOUT.
        std::fs::write(
            dir.join(LOCK_NAME),
            format!("{} definitely-not-this-process", std::process::id()),
        )
        .unwrap();
        let started = std::time::Instant::now();
        let _lock = CacheLock::acquire(&dir).expect("recycled-pid takeover");
        assert!(
            started.elapsed() < LOCK_TIMEOUT / 2,
            "takeover is immediate, not a timeout"
        );
        // An alive pid with the matching comm stays locked.
        drop(_lock);
        std::fs::write(
            dir.join(LOCK_NAME),
            format!("{} {}", std::process::id(), self_comm()),
        )
        .unwrap();
        assert!(!lock_is_stale(&dir.join(LOCK_NAME)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn elab_entries_evict_lru_beyond_capacity() {
        let mut cache = ArtifactCache::new();
        let artifact = sample_elab();
        for k in 0..ELAB_CAPACITY {
            cache.store_elab(Fingerprint(k as u64 + 1), artifact.clone());
        }
        // A lookup refreshes the oldest entry, so the next-oldest go.
        assert!(cache.lookup_elab(Fingerprint(1)).is_some());
        for k in ELAB_CAPACITY..(ELAB_CAPACITY + 3) {
            cache.store_elab(Fingerprint(k as u64 + 1), artifact.clone());
        }
        assert_eq!(cache.elab_entries(), ELAB_CAPACITY);
        assert!(cache.lookup_elab(Fingerprint(1)).is_some(), "refreshed");
        for k in 1..4 {
            assert!(cache.lookup_elab(Fingerprint(k as u64 + 1)).is_none());
        }
        assert!(cache
            .lookup_elab(Fingerprint((ELAB_CAPACITY + 3) as u64))
            .is_some());
    }

    #[test]
    fn save_garbage_collects_evicted_artifact_files() {
        let dir = std::env::temp_dir().join(format!("tydic-gc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let artifact = sample_elab();
        let mut cache = ArtifactCache::new();
        let first = Fingerprint(0xf157);
        cache.store_elab(first, artifact.clone());
        cache.save(&dir).unwrap();
        assert!(dir.join(format!("{first}.{ARTIFACT_EXT}")).exists());
        // Evict `first` by filling the cache past capacity, then save.
        for k in 0..ELAB_CAPACITY {
            cache.store_elab(Fingerprint(0x1000 + k as u64), artifact.clone());
        }
        cache.save(&dir).unwrap();
        assert!(
            !dir.join(format!("{first}.{ARTIFACT_EXT}")).exists(),
            "evicted artifact's file must be garbage-collected"
        );
        // Every retained artifact still has its file, and a reload
        // preserves insertion order semantics.
        let restored = ArtifactCache::load(&dir);
        assert_eq!(restored.elab_entries(), ELAB_CAPACITY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_file_loads_empty() {
        let dir = std::env::temp_dir().join(format!(
            "tydic-corrupt-artifact-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ArtifactCache::new();
        let key = Fingerprint::of_str("to-corrupt");
        cache.store_elab(key, sample_elab());
        cache.save(&dir).unwrap();
        // Truncate the artifact file behind the manifest's back.
        let path = dir.join(format!("{key}.{ARTIFACT_EXT}"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let restored = ArtifactCache::load(&dir);
        assert_eq!(
            restored.elab_entries(),
            0,
            "a corrupt artifact must invalidate the cache, not panic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_artifacts_round_trip_projects_byte_identically() {
        let dir = std::env::temp_dir().join(format!("tydic-binary-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let artifact = sample_elab();
        let canonical = tydi_ir::text::emit_project(&artifact.project);
        let mut cache = ArtifactCache::new();
        let key = Fingerprint::of_str("binary");
        cache.store_elab(key, artifact);
        cache.save(&dir).unwrap();
        let mut restored = ArtifactCache::load(&dir);
        let loaded = restored.lookup_elab(key).unwrap();
        assert_eq!(tydi_ir::text::emit_project(&loaded.project), canonical);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_entries_evict_lru_beyond_capacity() {
        let mut cache = ArtifactCache::new();
        let artifact = ParseArtifact {
            package: None,
            ast: Fingerprint(1),
            diagnostics: Vec::new(),
        };
        let key = |k: usize| ParseKey {
            slot: 1,
            source: Fingerprint(k as u64 + 1),
        };
        // Key 0 stands for the stdlib: looked up before every store.
        for k in 0..(PARSE_CAPACITY + 5) {
            cache.lookup_parse(key(0));
            cache.store_parse(key(k), artifact.clone());
        }
        assert_eq!(cache.parse_entries(), PARSE_CAPACITY);
        assert!(cache.lookup_parse(key(0)).is_some(), "refreshed on lookup");
        for k in 1..6 {
            assert!(cache.lookup_parse(key(k)).is_none(), "least recent evicted");
        }
        assert!(cache.lookup_parse(key(6)).is_some());
        assert!(cache.lookup_parse(key(PARSE_CAPACITY + 4)).is_some());
    }

    #[test]
    fn lru_order_survives_a_round_trip() {
        let dir = std::env::temp_dir().join(format!("tydic-lru-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let artifact = sample_elab();
        let mut cache = ArtifactCache::new();
        for k in 0..ELAB_CAPACITY {
            cache.store_elab(Fingerprint(k as u64 + 1), artifact.clone());
        }
        cache.lookup_elab(Fingerprint(1));
        cache.save(&dir).unwrap();
        let mut restored = ArtifactCache::load(&dir);
        restored.store_elab(Fingerprint(0xabc), artifact);
        assert!(restored.lookup_elab(Fingerprint(1)).is_some());
        assert!(restored.lookup_elab(Fingerprint(2)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_loads_empty() {
        let dir = std::env::temp_dir().join(format!("tydic-schema-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_NAME),
            "tydic-cache 0000000000000000\nparse 0 0 0 0\n",
        )
        .unwrap();
        let cache = ArtifactCache::load(&dir);
        assert_eq!(cache.parse_entries(), 0);
        assert_eq!(cache.elab_entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_loads_empty() {
        let cache = ArtifactCache::load(Path::new("/nonexistent/definitely/not/here"));
        assert_eq!(cache.parse_entries(), 0);
        assert!(!cache.is_dirty());
    }

    #[test]
    fn corrupt_manifest_loads_empty() {
        let dir = std::env::temp_dir().join(format!("tydic-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = format!("tydic-cache {}\ngarbage record\n", schema_fingerprint());
        std::fs::write(dir.join(MANIFEST_NAME), manifest).unwrap();
        let cache = ArtifactCache::load(&dir);
        assert_eq!(cache.parse_entries(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
