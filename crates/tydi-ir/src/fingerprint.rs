//! Stable content fingerprints over the interned IR.
//!
//! The incremental compilation pipeline keys every memoized artifact
//! by a [`Fingerprint`]: a 64-bit hash that is **stable across
//! processes and runs** (unlike `std::collections::hash_map`'s
//! `RandomState`), so fingerprints can be persisted to the on-disk
//! artifact cache and compared against a later compiler invocation.
//!
//! The hash consumes its input eight bytes at a time: each
//! little-endian word is xored into the state, which is then mixed by
//! one folded multiply (the 128-bit product of the state and an odd
//! constant, its high half xored into its low half). Bytes that do not
//! fill a word wait in a buffer, so the byte sequence alone decides
//! the fingerprint, however it is split across writes; the buffered
//! tail and the low byte of the total byte count form one last word,
//! which [`Fingerprinter::finish`] xors into the state and passes
//! through a bijective finalizer. An input of at most seven bytes is
//! that last word alone, so no two of them share a fingerprint.
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

/// The state of a fresh fingerprint.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The odd multiplier of the mixing step.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// One mixing step: the folded 128-bit product of `x` and
/// [`MULTIPLIER`], so every input bit reaches every output bit.
fn mix(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Up to eight bytes as a little-endian word, zero-padded. Short
/// inputs are read as two overlapping loads, not byte by byte.
fn load(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    match n {
        0 => 0,
        1..=3 => {
            u64::from(bytes[0])
                | u64::from(bytes[n / 2]) << (8 * (n / 2))
                | u64::from(bytes[n - 1]) << (8 * (n - 1))
        }
        _ => {
            let low = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
            let high = u32::from_le_bytes(bytes[n - 4..].try_into().expect("4 bytes"));
            u64::from(low) | u64::from(high) << (8 * (n - 4))
        }
    }
}

/// The final avalanche (MurmurHash3's `fmix64`): xorshifts and odd
/// multiplies, each invertible, so distinct last words give distinct
/// fingerprints.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Incrementally builds a [`Fingerprint`] from tagged fields.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    /// The state after every complete word so far.
    state: u64,
    /// Bytes of the incomplete word, little-endian from bit 0.
    tail: u64,
    /// Bytes written so far; its low three bits count the bytes in
    /// `tail`.
    len: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter {
            state: SEED,
            tail: 0,
            len: 0,
        }
    }
}

impl Fingerprinter {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprinter::default()
    }

    /// Hashes raw bytes (no framing; prefer the typed writers). Only
    /// the concatenation of all writes matters, not where they split.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let buffered = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if buffered + bytes.len() < 8 {
            self.tail |= load(bytes) << (8 * buffered);
            return self;
        }
        let (head, rest) = bytes.split_at(8 - buffered);
        self.absorb(self.tail | load(head) << (8 * buffered));
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        self.tail = load(words.remainder());
        self
    }

    /// Mixes one complete word into the state.
    fn absorb(&mut self, word: u64) {
        self.state = mix(self.state ^ word);
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

    /// The accumulated fingerprint. The last word holds the buffered
    /// tail (at most seven bytes) and, in its top byte, the byte count,
    /// so inputs that differ only in trailing zero bytes stay distinct.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(avalanche(self.state ^ self.last_word()))
    }

    fn last_word(&self) -> u64 {
        self.tail | (self.len << 56)
    }
}

/// A [`Hasher`](std::hash::Hasher) for in-memory tables keyed by short
/// strings (the compiler's name tables): each write is mixed in whole
/// words by the fingerprint's folded multiply, with no buffering and no
/// final avalanche, so it is not stable across writes split
/// differently. It starts from its [`NameHasherBuilder`]'s random seed.
#[derive(Debug, Clone, Copy)]
pub struct NameHasher(u64);

impl std::hash::Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            self.0 = mix(self.0 ^ load(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds the [`NameHasher`]s of one table from one seed, drawn from
/// the standard library's per-process randomness: names are input, and
/// a seed that varies keeps a file from being written to collide in
/// every run. Cheaper than SipHash, though not a keyed hash like it.
#[derive(Debug, Clone, Copy)]
pub struct NameHasherBuilder(u64);

impl Default for NameHasherBuilder {
    fn default() -> Self {
        use std::hash::BuildHasher;
        NameHasherBuilder(std::collections::hash_map::RandomState::new().hash_one(SEED))
    }
}

impl std::hash::BuildHasher for NameHasherBuilder {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
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

    /// Framing keeps adjacent strings apart, every input of up to
    /// three bytes hashes differently from every other, and a write
    /// split at any offset equals one bulk write.
    #[test]
    fn framing_short_inputs_and_split_writes() {
        let pair = |a: &str, b: &str| {
            let mut fp = Fingerprinter::new();
            fp.write_str(a).write_str(b);
            fp.finish()
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
        assert_ne!(pair("", "abc"), pair("abc", ""));

        // Every input of up to three bytes: its last word is recovered
        // from its fingerprint, so no two of them share one.
        let mut inputs = 0;
        for len in 0..=3usize {
            for n in 0..1u32 << (8 * len) {
                let bytes = &n.to_le_bytes()[..len];
                let mut fp = Fingerprinter::new();
                fp.write_bytes(bytes);
                assert_eq!(invert_avalanche(fp.finish().0) ^ SEED, fp.last_word());
                assert_eq!(fp.last_word(), u64::from(n) | (len as u64) << 56);
                inputs += 1;
            }
        }
        assert_eq!(inputs, 1 + 256 + 65_536 + 16_777_216);

        let text: Vec<u8> = (0..=255u8).cycle().take(67).collect();
        let bulk = Fingerprint::of_bytes(&text);
        for first in 0..=text.len() {
            for second in first..=text.len() {
                let mut fp = Fingerprinter::new();
                fp.write_bytes(&text[..first])
                    .write_bytes(&text[first..second])
                    .write_bytes(&text[second..]);
                assert_eq!(fp.finish(), bulk, "split at {first} and {second}");
            }
        }
    }

    /// The inverse of [`avalanche`].
    fn invert_avalanche(mut x: u64) -> u64 {
        // The multiplicative inverse of an odd number modulo 2^64, by
        // Newton's iteration (each step doubles the correct bits).
        let inverse = |odd: u64| {
            let mut inv = odd;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
            }
            inv
        };
        x ^= x >> 33;
        x = x.wrapping_mul(inverse(0xc4ce_b9fe_1a85_ec53));
        x ^= x >> 33;
        x = x.wrapping_mul(inverse(0xff51_afd7_ed55_8ccd));
        x ^ (x >> 33)
    }

    #[test]
    fn display_parses_back() {
        let fp = Fingerprint::of_str("hello");
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("not hex"), None);
    }
}
