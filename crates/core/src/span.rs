//! Source positions for diagnostics.
//!
//! A [`Span`] is three `u32`s (file index, start and end byte
//! offsets); sources longer than [`MAX_SOURCE_BYTES`] are refused with
//! one diagnostic before they are lexed, so every offset fits.

use std::fmt;
use std::sync::Arc;

/// A source file registered with the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// File name shown in diagnostics.
    pub name: Arc<str>,
    /// Full text.
    pub text: Arc<str>,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(name: impl AsRef<str>, text: impl AsRef<str>) -> Self {
        SourceFile {
            name: Arc::from(name.as_ref()),
            text: Arc::from(text.as_ref()),
        }
    }

    /// Converts a byte offset to 1-based (line, column).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let clamped = offset.min(self.text.len());
        let mut line = 1;
        let mut col = 1;
        for (i, c) in self.text.char_indices() {
            if i >= clamped {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    /// Returns the text of the 1-based line, without the newline.
    pub fn line_text(&self, line: usize) -> Option<&str> {
        self.text.lines().nth(line.saturating_sub(1))
    }
}

/// The longest source file the compiler accepts: every byte offset
/// of a [`Span`] fits in a `u32`.
pub const MAX_SOURCE_BYTES: usize = u32::MAX as usize;

/// The diagnostic message refusing a source of `len` bytes, or `None`
/// when its offsets fit in a [`Span`].
pub fn oversized_source(len: usize) -> Option<String> {
    (len > MAX_SOURCE_BYTES).then(|| {
        format!("source of {len} bytes is longer than the {MAX_SOURCE_BYTES} bytes the compiler accepts")
    })
}

/// A byte range within one file: three `u32`s, 12 bytes, so the many
/// spans in a large AST stay cheap. Offsets fit because longer sources
/// are refused before parsing (see [`MAX_SOURCE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Index into the compiler's file table.
    pub file: u32,
    /// Start byte offset (inclusive).
    pub start: u32,
    /// End byte offset (exclusive).
    pub end: u32,
}

impl Span {
    /// Creates a span. Offsets beyond [`MAX_SOURCE_BYTES`] never reach
    /// here: such sources are refused before they are lexed.
    pub fn new(file: usize, start: usize, end: usize) -> Self {
        Span {
            file: file as u32,
            start: start as u32,
            end: end as u32,
        }
    }

    /// A span covering both operands (must be in the same file).
    pub fn merge(self, other: Span) -> Span {
        Span {
            file: self.file,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// A zero-width placeholder span for synthesized nodes.
    pub fn synthetic() -> Span {
        Span::default()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_basics() {
        let f = SourceFile::new("x.td", "ab\ncd\nef");
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(1), (1, 2));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(7), (3, 2));
        assert_eq!(f.line_col(999), (3, 3));
    }

    #[test]
    fn line_text_lookup() {
        let f = SourceFile::new("x.td", "ab\ncd\nef");
        assert_eq!(f.line_text(2), Some("cd"));
        assert_eq!(f.line_text(9), None);
    }

    #[test]
    fn spans_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 12);
        assert_eq!(oversized_source(MAX_SOURCE_BYTES), None);
        let refused = oversized_source(MAX_SOURCE_BYTES + 1).expect("refused");
        assert!(refused.contains("the 4294967295 bytes"), "{refused}");
    }

    #[test]
    fn span_merge() {
        let a = Span::new(0, 3, 7);
        let b = Span::new(0, 5, 12);
        assert_eq!(a.merge(b), Span::new(0, 3, 12));
    }
}
