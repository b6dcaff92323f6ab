//! Fingerprints for the incremental compilation pipeline.
//!
//! The frontend keys memoized artifacts by stable content hashes
//! (see [`tydi_ir::fingerprint`] for the primitive): source files by
//! their registered name and raw text, parsed packages by their
//! canonical pretty-printed form ([`crate::pretty`]), streamed into
//! the hasher without building the string — which makes the
//! fingerprint independent of whitespace, comments and spans — and
//! option sets by every field that can change compilation output.
//!
//! The dependency chain is:
//!
//! ```text
//! source text ──► AST ──► elaborated project (post-sugar, post-DRC)
//!   (text fp)   (ast fp)   (keyed by options fp + ordered ast fps)
//! ```
//!
//! so a comment-only edit re-parses one file but reuses elaboration,
//! sugaring and the DRC wholesale, and an untouched project reuses
//! everything.

use crate::ast::Package;
use crate::pipeline::CompileOptions;
use crate::pretty::write_package;
use std::fmt;
pub use tydi_ir::fingerprint::{Fingerprint, Fingerprinter};

/// Bump when the on-disk artifact-cache layout changes; stale caches
/// then self-invalidate on load.
const CACHE_FORMAT: &str = "tydic-artifact-cache-v3";

/// The fingerprint of one registered source file (name + raw text).
pub fn source_fingerprint(name: &str, text: &str) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("source");
    fp.write_str(name);
    fp.write_str(text);
    fp.finish()
}

/// The fingerprint of a parsed package: hashes the canonical printed
/// form, so formatting and comment edits do not move it. The printer
/// streams straight into the hasher; the byte count follows the
/// printed bytes, so the framing stays unambiguous without a length
/// prefix.
pub fn ast_fingerprint(package: &Package) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("ast");
    let mut sink = Streamed {
        fp: &mut fp,
        bytes: 0,
    };
    write_package(&mut sink, package).expect("hashing cannot fail");
    let bytes = sink.bytes;
    fp.write_u64(bytes);
    fp.finish()
}

/// A [`fmt::Write`] sink that hashes the printed bytes unframed and
/// counts them for the trailing length.
struct Streamed<'a> {
    fp: &'a mut Fingerprinter,
    bytes: u64,
}

impl fmt::Write for Streamed<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.fp.write_bytes(text.as_bytes());
        self.bytes += text.len() as u64;
        Ok(())
    }
}

/// The fingerprint of every compile option that can change output.
pub fn options_fingerprint(options: &CompileOptions) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("options");
    fp.write_str(&options.project_name);
    fp.write_bool(options.enable_sugaring);
    fp.write_bool(options.run_drc);
    fp.finish()
}

/// The elaboration key: options plus the ordered AST fingerprints of
/// every input file.
pub fn elaboration_key(options: &CompileOptions, asts: &[Fingerprint]) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("elaborate");
    fp.write_fingerprint(options_fingerprint(options));
    fp.write_u64(asts.len() as u64);
    for ast in asts {
        fp.write_fingerprint(*ast);
    }
    fp.finish()
}

/// The schema fingerprint versioning the on-disk cache: the layout
/// tag, the compiler version, and a build identity (the running
/// executable's size and mtime). Folding in the build identity means
/// *any* rebuild of the compiler — not just a version bump —
/// invalidates persisted caches, so a developer changing elaboration
/// semantics can never replay artifacts written by the previous
/// build. The cost is benign: a rebuilt compiler's first run is cold.
pub fn schema_fingerprint() -> Fingerprint {
    static SCHEMA: std::sync::OnceLock<Fingerprint> = std::sync::OnceLock::new();
    *SCHEMA.get_or_init(|| {
        let mut fp = Fingerprinter::new();
        fp.write_str(CACHE_FORMAT);
        fp.write_str(env!("CARGO_PKG_VERSION"));
        if let Ok(meta) = std::env::current_exe().and_then(std::fs::metadata) {
            fp.write_u64(meta.len());
            if let Ok(modified) = meta.modified() {
                if let Ok(since_epoch) = modified.duration_since(std::time::UNIX_EPOCH) {
                    fp.write_u64(since_epoch.as_secs());
                    fp.write_u64(u64::from(since_epoch.subsec_nanos()));
                }
            }
        }
        fp.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_package;

    const WIRE: &str = "package demo;\ntype B = Stream(Bit(8));\n\
                        streamlet s { i : B in, o : B out, }\nimpl x of s { i => o, }\n";

    fn ast_of(text: &str) -> Fingerprint {
        let (package, diags) = parse_package(0, text);
        assert!(!crate::diagnostics::has_errors(&diags));
        ast_fingerprint(&package.unwrap())
    }

    #[test]
    fn comment_edits_keep_the_ast_fingerprint() {
        let commented = format!("// note\n{WIRE}// trailing\n");
        assert_ne!(
            source_fingerprint("a.td", WIRE),
            source_fingerprint("a.td", &commented)
        );
        assert_eq!(ast_of(WIRE), ast_of(&commented));
    }

    #[test]
    fn real_edits_move_the_ast_fingerprint() {
        let edited = WIRE.replace("Bit(8)", "Bit(16)");
        assert_ne!(ast_of(WIRE), ast_of(&edited));
    }

    /// The streamed fingerprint equals hashing the printed string by
    /// hand (tag, printed bytes, byte count), so the printer alone
    /// decides what the fingerprint ignores.
    fn assert_streamed_matches_printed(text: &str) {
        let (package, diags) = parse_package(0, text);
        assert!(!crate::diagnostics::has_errors(&diags), "{diags:?}");
        let package = package.expect("package parses");
        let printed = crate::pretty::print_package(&package);
        let mut by_hand = Fingerprinter::new();
        by_hand.write_str("ast");
        by_hand.write_bytes(printed.as_bytes());
        by_hand.write_u64(printed.len() as u64);
        assert_eq!(ast_fingerprint(&package), by_hand.finish());
    }

    #[test]
    fn streamed_fingerprint_hashes_the_printed_form() {
        let cookbook = concat!(env!("CARGO_MANIFEST_DIR"), "/../../cookbook");
        let mut designs: Vec<_> = std::fs::read_dir(cookbook)
            .expect("cookbook directory")
            .map(|entry| entry.expect("cookbook entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "td"))
            .collect();
        designs.sort();
        assert!(designs.len() >= 13, "cookbook designs: {designs:?}");
        for design in designs {
            assert_streamed_matches_printed(&std::fs::read_to_string(design).expect("read design"));
        }
        // A 20 000-term chain is one flat node: parsing, printing and
        // dropping it need no deep stack.
        let chain = vec!["1"; 20_000].join(" + ");
        assert_streamed_matches_printed(&format!("package p;\nconst x = {chain};\n"));
    }

    #[test]
    fn options_feed_the_elaboration_key() {
        let asts = [ast_of(WIRE)];
        let defaults = CompileOptions::default();
        let no_sugar = CompileOptions {
            enable_sugaring: false,
            ..CompileOptions::default()
        };
        assert_ne!(
            elaboration_key(&defaults, &asts),
            elaboration_key(&no_sugar, &asts)
        );
        assert_eq!(
            elaboration_key(&defaults, &asts),
            elaboration_key(&CompileOptions::default(), &asts)
        );
    }
}
