//! Token definitions for the Tydi-lang lexer.

use crate::span::Span;
use std::fmt;

/// Token kinds. Identifiers borrow their text from the source (`'src`).
#[derive(Debug, PartialEq)]
pub enum TokenKind<'src> {
    // Literals
    /// Integer literal (decimal or `0x` hexadecimal).
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// String literal (escapes resolved).
    Str(String),
    /// Identifier or keyword (keywords are classified by the parser so
    /// that context-sensitive words like `type` can appear in template
    /// argument positions).
    Ident(&'src str),

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `=`
    Eq,
    /// `=>`
    FatArrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `@`
    At,
    /// End of file.
    Eof,
}

impl TokenKind<'_> {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Eof => "end of file".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Lt => "<",
            TokenKind::Gt => ">",
            TokenKind::Le => "<=",
            TokenKind::Ge => ">=",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Eq => "=",
            TokenKind::FatArrow => "=>",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Caret => "^",
            TokenKind::Bang => "!",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            TokenKind::DotDot => "..",
            TokenKind::At => "@",
            _ => "?",
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A token with its source span.
#[derive(Debug, PartialEq)]
pub struct Token<'src> {
    /// Kind and payload.
    pub kind: TokenKind<'src>,
    /// Source range.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_forms() {
        assert_eq!(TokenKind::Int(5).describe(), "integer `5`");
        assert_eq!(TokenKind::FatArrow.describe(), "`=>`");
        assert_eq!(TokenKind::Ident("foo").describe(), "`foo`");
        assert_eq!(TokenKind::Eof.describe(), "end of file");
    }
}
