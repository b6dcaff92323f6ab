//! Compiler diagnostics.
//!
//! Every stage of the pipeline reports problems as [`Diagnostic`]s with
//! a severity, a message and (when available) a source span. The DRC
//! report of paper Fig. 3 is a list of these.

use crate::span::{SourceFile, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note (e.g. "sugaring inserted 3 duplicators").
    Note,
    /// Suspicious but compilable.
    Warning,
    /// Compilation cannot produce valid output.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source location, when known.
    pub span: Option<Span>,
    /// The pipeline stage that produced this (e.g. `"parse"`, `"drc"`).
    pub stage: &'static str,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(stage: &'static str, message: impl Into<String>, span: Option<Span>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
            stage,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(stage: &'static str, message: impl Into<String>, span: Option<Span>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
            stage,
        }
    }

    /// Creates a note diagnostic.
    pub fn note(stage: &'static str, message: impl Into<String>, span: Option<Span>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            message: message.into(),
            span,
            stage,
        }
    }

    /// Renders the diagnostic against the file table, with a source
    /// excerpt when a span is available.
    pub fn render(&self, files: &[SourceFile]) -> String {
        let mut out = String::new();
        match self
            .span
            .and_then(|s| files.get(s.file as usize).map(|f| (s, f)))
        {
            Some((span, file)) => {
                let (line, col) = file.line_col(span.start as usize);
                out.push_str(&format!(
                    "{}: {} [{}] at {}:{}:{}\n",
                    self.severity, self.message, self.stage, file.name, line, col
                ));
                if let Some(text) = file.line_text(line) {
                    let (text, caret) = excerpt(text, col.saturating_sub(1));
                    out.push_str(&format!("  | {text}\n"));
                    out.push_str(&format!("  | {}^\n", " ".repeat(caret)));
                }
            }
            None => {
                out.push_str(&format!(
                    "{}: {} [{}]\n",
                    self.severity, self.message, self.stage
                ));
            }
        }
        out
    }
}

/// The most characters of one source line a diagnostic quotes. A
/// longer line is cut to a window of this width around the caret, so
/// a diagnostic on a generated one-line file stays readable and small.
const EXCERPT_CHARS: usize = 100;

/// The part of `line` to quote for a caret before its `caret`-th
/// character (0-based), and the caret's offset in the quoted text. A
/// cut end is marked `...`; cuts fall between characters.
fn excerpt(line: &str, caret: usize) -> (String, usize) {
    let len = line.chars().count();
    if len <= EXCERPT_CHARS {
        return (line.to_string(), caret);
    }
    let first = caret
        .saturating_sub(EXCERPT_CHARS / 2)
        .min(len - EXCERPT_CHARS);
    let last = first + EXCERPT_CHARS;
    let byte = |char_index: usize| {
        line.char_indices()
            .nth(char_index)
            .map_or(line.len(), |(offset, _)| offset)
    };
    let head = if first > 0 { "..." } else { "" };
    let tail = if last < len { "..." } else { "" };
    let quoted = format!("{head}{}{tail}", &line[byte(first)..byte(last)]);
    (quoted, head.len() + caret - first)
}

/// Returns true when any diagnostic is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn render_with_span_points_at_column() {
        let files = vec![SourceFile::new("a.td", "const x = ;\n")];
        let d = Diagnostic::error("parse", "expected expression", Some(Span::new(0, 10, 11)));
        let rendered = d.render(&files);
        assert!(rendered.contains("a.td:1:11"));
        assert!(rendered.contains("const x = ;"));
        assert!(rendered.contains("^"));
    }

    #[test]
    fn long_lines_are_quoted_around_the_caret() {
        // 300 three-byte characters, then `x`; the caret is at the `x`.
        let line = format!("{}x", "日".repeat(300));
        let files = vec![SourceFile::new("long.td", format!("{line}\n"))];
        let d = Diagnostic::error("lex", "unexpected", Some(Span::new(0, 900, 901)));
        let rendered = d.render(&files);
        let excerpt = format!("  | ...{}x\n", "日".repeat(EXCERPT_CHARS - 1));
        let caret = format!("  | {}^\n", " ".repeat(3 + EXCERPT_CHARS - 1));
        assert_eq!(
            rendered,
            format!("error: unexpected [lex] at long.td:1:301\n{excerpt}{caret}")
        );
        // A caret in the middle of the line is centred, both ends cut.
        let d = Diagnostic::error("lex", "unexpected", Some(Span::new(0, 450, 453)));
        let rendered = d.render(&files);
        let excerpt = format!("  | ...{}...\n", "日".repeat(EXCERPT_CHARS));
        let caret = format!("  | {}^\n", " ".repeat(3 + EXCERPT_CHARS / 2));
        assert!(
            rendered.ends_with(&format!("{excerpt}{caret}")),
            "{rendered}"
        );
    }

    #[test]
    fn render_without_span() {
        let d = Diagnostic::note("sugar", "inserted 2 voiders", None);
        assert!(d.render(&[]).contains("inserted 2 voiders"));
    }

    #[test]
    fn has_errors_detects() {
        let mut v = vec![Diagnostic::note("x", "n", None)];
        assert!(!has_errors(&v));
        v.push(Diagnostic::error("x", "e", None));
        assert!(has_errors(&v));
    }
}
