//! Stable content fingerprints over the interned IR.
//!
//! The incremental compilation pipeline keys every memoized artifact
//! by a [`Fingerprint`]: a 64-bit FNV-1a hash that is **stable across
//! processes and runs** (unlike `std::collections::hash_map`'s
//! `RandomState`), so fingerprints can be persisted to the on-disk
//! artifact cache and compared against a later compiler invocation.
//!
//! Structured data is hashed through a [`Fingerprinter`], which
//! length-prefixes strings and tags fields so that adjacent values
//! cannot alias (`("ab", "c")` and `("a", "bc")` hash differently).
//! The frontend fingerprints source text, ASTs and options with it
//! (`tydi_lang::fingerprint`). The IR itself is not fingerprinted:
//! artifacts are keyed by their inputs, not by the IR they produce.

use std::fmt;

/// A stable 64-bit content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The fingerprint of a byte string.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.write_bytes(bytes);
        fp.finish()
    }

    /// The fingerprint of a string.
    pub fn of_str(text: &str) -> Fingerprint {
        Fingerprint::of_bytes(text.as_bytes())
    }

    /// Parses the hex form produced by `Display` (for cache manifests).
    pub fn parse(text: &str) -> Option<Fingerprint> {
        u64::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0193;

/// Incrementally builds a [`Fingerprint`] from tagged fields.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }
}

impl Fingerprinter {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprinter::default()
    }

    /// Hashes raw bytes (no framing; prefer the typed writers).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Hashes an integer as 8 fixed bytes.
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_le_bytes())
    }

    /// Hashes a string, length-prefixed so adjacent strings cannot
    /// alias.
    pub fn write_str(&mut self, text: &str) -> &mut Self {
        self.write_u64(text.len() as u64);
        self.write_bytes(text.as_bytes())
    }

    /// Hashes a boolean.
    pub fn write_bool(&mut self, value: bool) -> &mut Self {
        self.write_u64(u64::from(value))
    }

    /// Folds another fingerprint into this one.
    pub fn write_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.write_u64(fp.0)
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_do_not_alias_across_boundaries() {
        let mut a = Fingerprinter::new();
        a.write_str("ab").write_str("c");
        let mut b = Fingerprinter::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_parses_back() {
        let fp = Fingerprint::of_str("hello");
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("not hex"), None);
    }
}
