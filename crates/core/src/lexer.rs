//! The Tydi-lang lexer.
//!
//! Hand-written (the reference compiler uses a pest grammar; this
//! implementation avoids the dependency). Supports `//` line comments,
//! `/* */` block comments (nesting allowed), decimal and hexadecimal
//! integers, floats, and escaped string literals.
//!
//! The lexer is a stream: the parser pulls one token at a time with
//! [`Lexer::next_token`], so no token vector is ever built.
//! Identifiers borrow their text from the source; only string literals
//! (whose escapes are resolved) own a copy. An integer's value is
//! accumulated while its digits are scanned; a float literal is copied
//! only when it has `_` separators to strip. Lexical errors
//! collect in the lexer and come out of [`Lexer::finish`], which first
//! lexes whatever the parser left unread, so an error in an unparsed
//! tail is still reported.

use crate::diagnostics::Diagnostic;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::borrow::Cow;

/// A streaming lexer over one source file.
pub struct Lexer<'src> {
    file: usize,
    source: &'src str,
    bytes: &'src [u8],
    pos: usize,
    diagnostics: Vec<Diagnostic>,
}

impl<'src> Lexer<'src> {
    /// A lexer over `source`, registered as file index `file`.
    pub fn new(file: usize, source: &'src str) -> Self {
        Lexer {
            file,
            source,
            bytes: source.as_bytes(),
            pos: 0,
            diagnostics: Vec::new(),
        }
    }

    /// Lexes the next token; at the end of input, returns `Eof` (again
    /// on every further call). A lexical error is recorded as a
    /// diagnostic and lexing continues after the offending input.
    pub fn next_token(&mut self) -> Token<'src> {
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(c) = self.peek() else {
                return self.token(TokenKind::Eof, start);
            };
            let kind = match c {
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b'{' => self.single(TokenKind::LBrace),
                b'}' => self.single(TokenKind::RBrace),
                b'[' => self.single(TokenKind::LBracket),
                b']' => self.single(TokenKind::RBracket),
                b',' => self.single(TokenKind::Comma),
                b';' => self.single(TokenKind::Semi),
                b':' => self.single(TokenKind::Colon),
                b'@' => self.single(TokenKind::At),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'%' => self.single(TokenKind::Percent),
                b'^' => self.single(TokenKind::Caret),
                b'.' => self.pair(b'.', TokenKind::DotDot, TokenKind::Dot),
                b'<' => self.pair(b'=', TokenKind::Le, TokenKind::Lt),
                b'>' => self.pair(b'=', TokenKind::Ge, TokenKind::Gt),
                b'=' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'=') => {
                            self.pos += 1;
                            TokenKind::EqEq
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            TokenKind::FatArrow
                        }
                        _ => TokenKind::Eq,
                    }
                }
                b'!' => self.pair(b'=', TokenKind::NotEq, TokenKind::Bang),
                b'&' => match self.doubled(b'&', TokenKind::AndAnd) {
                    Some(kind) => kind,
                    None => {
                        self.error(start, "expected `&&`");
                        continue;
                    }
                },
                b'|' => match self.doubled(b'|', TokenKind::OrOr) {
                    Some(kind) => kind,
                    None => {
                        self.error(start, "expected `||`");
                        continue;
                    }
                },
                b'"' => self.string(start),
                b'0'..=b'9' => match self.number(start) {
                    Some(kind) => kind,
                    None => continue,
                },
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(start),
                _ => {
                    let other = self.char_at_cursor();
                    self.pos += other.len_utf8();
                    self.error(start, format!("unexpected character `{other}`"));
                    continue;
                }
            };
            return self.token(kind, start);
        }
    }

    /// Lexes the rest of the input and returns every lexical
    /// diagnostic, in source order.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        while self.next_token().kind != TokenKind::Eof {}
        self.diagnostics
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// The whole character at the cursor, which is never at the end of
    /// input here and always on a character boundary: every step over
    /// non-ASCII input advances by whole characters.
    fn char_at_cursor(&self) -> char {
        self.source[self.pos..]
            .chars()
            .next()
            .expect("a character at the cursor")
    }

    fn single(&mut self, kind: TokenKind<'src>) -> TokenKind<'src> {
        self.pos += 1;
        kind
    }

    /// One byte, or two when `second` follows it.
    fn pair(
        &mut self,
        second: u8,
        long: TokenKind<'src>,
        short: TokenKind<'src>,
    ) -> TokenKind<'src> {
        self.pos += 1;
        if self.peek() == Some(second) {
            self.pos += 1;
            long
        } else {
            short
        }
    }

    /// A two-byte operator whose first byte means nothing alone.
    fn doubled(&mut self, byte: u8, kind: TokenKind<'src>) -> Option<TokenKind<'src>> {
        self.pos += 1;
        if self.peek() == Some(byte) {
            self.pos += 1;
            Some(kind)
        } else {
            None
        }
    }

    fn token(&self, kind: TokenKind<'src>, start: usize) -> Token<'src> {
        Token {
            kind,
            span: Span::new(self.file, start, self.pos),
        }
    }

    fn error(&mut self, start: usize, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic::error(
            "lex",
            message,
            Some(Span::new(self.file, start, self.pos)),
        ));
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut depth = 1;
                    while depth > 0 {
                        match (self.peek(), self.peek_at(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                depth -= 1;
                                self.pos += 2;
                            }
                            (Some(b'/'), Some(b'*')) => {
                                depth += 1;
                                self.pos += 2;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                self.error(start, "unterminated block comment");
                                return;
                            }
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn string(&mut self, start: usize) -> TokenKind<'src> {
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    self.error(start, "unterminated string literal");
                    break;
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'n') => value.push('\n'),
                        Some(b't') => value.push('\t'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(_) => {
                            let other = self.char_at_cursor();
                            self.error(self.pos, format!("unknown escape `\\{other}`"));
                            self.pos += other.len_utf8() - 1;
                        }
                        None => {
                            self.error(start, "unterminated string literal");
                            break;
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.char_at_cursor();
                    value.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        TokenKind::Str(value)
    }

    /// The literal text from `from` to the cursor, `_` separators
    /// removed (copied only when there are any).
    fn digits(&self, from: usize) -> Cow<'src, str> {
        let text = &self.source[from..self.pos];
        if text.contains('_') {
            Cow::Owned(text.replace('_', ""))
        } else {
            Cow::Borrowed(text)
        }
    }

    fn number(&mut self, start: usize) -> Option<TokenKind<'src>> {
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let digits_start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_hexdigit() || c == b'_')
            {
                self.pos += 1;
            }
            let parsed = i64::from_str_radix(&self.digits(digits_start), 16);
            return match parsed {
                Ok(v) => Some(TokenKind::Int(v)),
                Err(_) => {
                    self.error(start, "invalid hexadecimal literal");
                    None
                }
            };
        }
        // The integer value accumulates during the scan (`None` once it
        // overflows), so an integer literal is never scanned twice.
        let mut value = Some(0i64);
        while let Some(c) = self.peek().filter(|&c| c.is_ascii_digit() || c == b'_') {
            if c != b'_' {
                value = value.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(c - b'0')));
            }
            self.pos += 1;
        }
        let mut is_float = false;
        // A `.` followed by a digit makes it a float; `..` is a range.
        if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && self
                .peek_at(1)
                .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-')
        {
            is_float = true;
            self.pos += 2;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let kind = if is_float {
            self.digits(start).parse::<f64>().ok().map(TokenKind::Float)
        } else {
            value.map(TokenKind::Int)
        };
        if kind.is_none() {
            let message = if is_float {
                "invalid float literal"
            } else {
                "integer literal out of range"
            };
            self.error(start, message);
        }
        kind
    }

    fn ident(&mut self, start: usize) -> TokenKind<'src> {
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        TokenKind::Ident(&self.source[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token up to and including `Eof`, plus the diagnostics.
    fn lex(src: &str) -> (Vec<Token<'_>>, Vec<Diagnostic>) {
        let mut lexer = Lexer::new(0, src);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token();
            let eof = token.kind == TokenKind::Eof;
            tokens.push(token);
            if eof {
                return (tokens, lexer.finish());
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (tokens, diags) = lex(src);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
        tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            kinds("( ) { } [ ] < > <= >= == != = => + - * / % ^ ! && || , ; : . .. @"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Eq,
                TokenKind::FatArrow,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Caret,
                TokenKind::Bang,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Colon,
                TokenKind::Dot,
                TokenKind::DotDot,
                TokenKind::At,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 0x2A 3.5 1e3 2.5e-2 1_000"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Int(1000),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn integer_range_limits() {
        assert_eq!(
            kinds("9223372036854775807 9_223_372_036_854_775_807 007 1_"),
            vec![
                TokenKind::Int(i64::MAX),
                TokenKind::Int(i64::MAX),
                TokenKind::Int(7),
                TokenKind::Int(1),
                TokenKind::Eof,
            ]
        );
        let (_, diags) = lex("9223372036854775808 99999999999999999999");
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "integer literal out of range",
                "integer literal out of range"
            ]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        assert_eq!(
            kinds("0..8"),
            vec![
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Int(8),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""MED BAG" "a\"b" "x\ny""#),
            vec![
                TokenKind::Str("MED BAG".into()),
                TokenKind::Str("a\"b".into()),
                TokenKind::Str("x\ny".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn identifiers() {
        assert_eq!(
            kinds("foo _bar baz_9 Bit"),
            vec![
                TokenKind::Ident("foo"),
                TokenKind::Ident("_bar"),
                TokenKind::Ident("baz_9"),
                TokenKind::Ident("Bit"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a // line\nb /* block /* nested */ still */ c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn errors_recovered() {
        let (tokens, diags) = lex("a $ b");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains('$'));
        assert_eq!(tokens.len(), 3); // a, b, eof
    }

    #[test]
    fn non_ascii_characters_are_reported_whole() {
        let (tokens, diags) = lex("a é 日 \"\\ü\" b");
        let reported: Vec<_> = diags.iter().map(|d| (d.message.as_str(), d.span)).collect();
        assert_eq!(
            reported,
            [
                ("unexpected character `é`", Some(Span::new(0, 2, 4))),
                ("unexpected character `日`", Some(Span::new(0, 5, 8))),
                ("unknown escape `\\ü`", Some(Span::new(0, 11, 11))),
            ]
        );
        let kinds: Vec<_> = tokens.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            [
                TokenKind::Ident("a"),
                TokenKind::Str(String::new()),
                TokenKind::Ident("b"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_reported() {
        let (_, diags) = lex("\"abc");
        assert!(diags.iter().any(|d| d.message.contains("unterminated")));
    }

    #[test]
    fn identifiers_borrow_the_source() {
        let src = "alpha beta";
        let mut lexer = Lexer::new(0, src);
        let TokenKind::Ident(alpha) = lexer.next_token().kind else {
            panic!("expected an identifier")
        };
        assert_eq!(alpha.as_ptr(), src.as_ptr());
    }

    #[test]
    fn finish_lexes_the_unread_tail() {
        let mut lexer = Lexer::new(0, "a $ b \"open");
        assert_eq!(lexer.next_token().kind, TokenKind::Ident("a"));
        let diags = lexer.finish();
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            ["unexpected character `$`", "unterminated string literal"]
        );
    }

    #[test]
    fn eof_repeats_without_new_diagnostics() {
        let mut lexer = Lexer::new(0, "x /* open");
        assert_eq!(lexer.next_token().kind, TokenKind::Ident("x"));
        for _ in 0..3 {
            assert_eq!(lexer.next_token().kind, TokenKind::Eof);
        }
        assert_eq!(lexer.finish().len(), 1);
    }

    #[test]
    fn spans_track_offsets() {
        let (tokens, _) = lex("ab cd");
        assert_eq!(tokens[0].span.start, 0);
        assert_eq!(tokens[0].span.end, 2);
        assert_eq!(tokens[1].span.start, 3);
        assert_eq!(tokens[1].span.end, 5);
    }
}
