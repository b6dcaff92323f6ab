//! Recursive-descent parser for Tydi-lang.
//!
//! The grammar is reproduced from the paper's examples and the
//! companion compiler manual (arXiv:2212.11154); the reference
//! implementation uses a pest grammar, this one is hand-written.
//! Statement terminators may be `,` or `;` interchangeably (the paper
//! uses commas inside implementation bodies and semicolons at top
//! level), and trailing terminators before `}` are optional.

use crate::ast::*;
use crate::diagnostics::Diagnostic;
use crate::lexer::lex;
use crate::sim_ast::*;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::sync::Arc;

/// Parses one source file into a [`Package`]. On unrecoverable errors
/// the package may be `None`; all problems are reported as
/// diagnostics.
pub fn parse_package(file: usize, source: &str) -> (Option<Package>, Vec<Diagnostic>) {
    let (tokens, mut diagnostics) = lex(file, source);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diagnostics: Vec::new(),
        source,
    };
    let package = parser.package();
    diagnostics.append(&mut parser.diagnostics);
    (package, diagnostics)
}

/// Parses stand-alone simulation code (the content of a
/// `simulation { ... }` block, braces not included).
pub fn parse_simulation_source(source: &str) -> Result<SimBlock, Vec<Diagnostic>> {
    let (tokens, mut diagnostics) = lex(0, source);
    let mut parser = Parser {
        tokens,
        pos: 0,
        diagnostics: Vec::new(),
        source,
    };
    let block = parser.sim_block_items(source.to_string());
    diagnostics.append(&mut parser.diagnostics);
    if diagnostics
        .iter()
        .any(|d| d.severity == crate::Severity::Error)
    {
        Err(diagnostics)
    } else {
        Ok(block)
    }
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    diagnostics: Vec<Diagnostic>,
    source: &'a str,
}

impl Parser<'_> {
    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn error_here(&mut self, message: impl Into<String>) {
        let span = self.peek_span();
        self.diagnostics
            .push(Diagnostic::error("parse", message, Some(span)));
    }

    fn expect(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            self.error_here(format!("expected {}, found {}", kind, self.peek()));
            false
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_keyword(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == word)
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.is_keyword(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, word: &str) -> bool {
        if self.eat_keyword(word) {
            true
        } else {
            self.error_here(format!("expected `{word}`, found {}", self.peek()));
            false
        }
    }

    fn expect_ident(&mut self) -> Option<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.peek_span();
                self.bump();
                Some((name, span))
            }
            other => {
                self.error_here(format!("expected identifier, found {other}"));
                None
            }
        }
    }

    /// Statement terminator: `;` or `,`; tolerated missing before `}`.
    fn terminator(&mut self) {
        if self.eat(TokenKind::Semi) || self.eat(TokenKind::Comma) {
            return;
        }
        if matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            return;
        }
        self.error_here(format!("expected `;` or `,`, found {}", self.peek()));
        // Recovery: skip one token to avoid infinite loops.
        self.bump();
    }

    /// Skips tokens until a likely declaration boundary (error
    /// recovery).
    fn synchronize(&mut self) {
        let mut depth = 0i32;
        while !self.at_eof() {
            match self.peek() {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::Ident(word)
                    if depth == 0
                        && matches!(
                            word.as_str(),
                            "const" | "type" | "Group" | "Union" | "streamlet" | "impl"
                        ) =>
                {
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    // ---- top level ------------------------------------------------------

    fn package(&mut self) -> Option<Package> {
        let header_span = self.peek_span();
        if !self.expect_keyword("package") {
            return None;
        }
        let (name, _) = self.expect_ident()?;
        self.terminator();
        let mut uses = Vec::new();
        let mut decls = Vec::new();
        while !self.at_eof() {
            if self.eat_keyword("use") {
                if let Some((used, _)) = self.expect_ident() {
                    uses.push(used);
                }
                self.terminator();
                continue;
            }
            let before = self.pos;
            match self.decl() {
                Some(decl) => decls.push(Arc::new(decl)),
                None => {
                    if self.pos == before {
                        self.synchronize();
                    }
                }
            }
        }
        Some(Package {
            name,
            uses,
            decls,
            span: header_span,
        })
    }

    fn attributes(&mut self) -> Vec<Attribute> {
        let mut out = Vec::new();
        while self.eat(TokenKind::At) {
            let span = self.peek_span();
            let Some((name, _)) = self.expect_ident() else {
                break;
            };
            let arg = if self.eat(TokenKind::LParen) {
                let e = self.expr();
                self.expect(TokenKind::RParen);
                e
            } else {
                None
            };
            out.push(Attribute { name, arg, span });
        }
        out
    }

    fn decl(&mut self) -> Option<Decl> {
        let attributes = self.attributes();
        let span = self.peek_span();
        if self.eat_keyword("const") {
            return self.const_decl(span).map(Decl::Const);
        }
        if self.eat_keyword("type") {
            let (name, _) = self.expect_ident()?;
            self.expect(TokenKind::Eq);
            let ty = self.type_expr()?;
            self.terminator();
            return Some(Decl::TypeAlias { name, ty, span });
        }
        if self.eat_keyword("Group") {
            let (name, fields) = self.composite_decl()?;
            return Some(Decl::Group { name, fields, span });
        }
        if self.eat_keyword("Union") {
            let (name, fields) = self.composite_decl()?;
            return Some(Decl::Union { name, fields, span });
        }
        if self.eat_keyword("streamlet") {
            return self.streamlet_decl(span, attributes).map(Decl::Streamlet);
        }
        if self.eat_keyword("impl") {
            return self.impl_decl(span, attributes).map(Decl::Impl);
        }
        if self.eat_keyword("assert") {
            let (expr, message) = self.assert_args()?;
            self.terminator();
            return Some(Decl::Assert {
                expr,
                message,
                span,
            });
        }
        self.error_here(format!(
            "expected a declaration (const/type/Group/Union/streamlet/impl/assert), found {}",
            self.peek()
        ));
        None
    }

    fn assert_args(&mut self) -> Option<(Expr, Option<Expr>)> {
        self.expect(TokenKind::LParen);
        let expr = self.expr()?;
        let message = if self.eat(TokenKind::Comma) {
            self.expr()
        } else {
            None
        };
        self.expect(TokenKind::RParen);
        Some((expr, message))
    }

    fn const_decl(&mut self, span: Span) -> Option<ConstDecl> {
        let (name, _) = self.expect_ident()?;
        let kind = if self.eat(TokenKind::Colon) {
            self.var_kind()
        } else {
            None
        };
        self.expect(TokenKind::Eq);
        let value = self.expr()?;
        self.terminator();
        Some(ConstDecl {
            name,
            kind,
            value,
            span,
        })
    }

    fn var_kind(&mut self) -> Option<VarKind> {
        if self.eat(TokenKind::LBracket) {
            let inner = self.var_kind()?;
            self.expect(TokenKind::RBracket);
            return Some(VarKind::Array(Box::new(inner)));
        }
        let (word, span) = self.expect_ident()?;
        match word.as_str() {
            "int" => Some(VarKind::Int),
            "float" => Some(VarKind::Float),
            "string" => Some(VarKind::Str),
            "bool" => Some(VarKind::Bool),
            "clockdomain" => Some(VarKind::Clock),
            other => {
                self.diagnostics.push(Diagnostic::error(
                    "parse",
                    format!("unknown variable kind `{other}`"),
                    Some(span),
                ));
                None
            }
        }
    }

    fn composite_decl(&mut self) -> Option<(String, Vec<(String, TypeExpr)>)> {
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBrace);
        let mut fields = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated composite type body");
                return None;
            }
            let (field_name, _) = self.expect_ident()?;
            self.expect(TokenKind::Colon);
            let ty = self.type_expr()?;
            fields.push((field_name, ty));
            if !self.eat(TokenKind::Comma) && !self.eat(TokenKind::Semi) {
                self.expect(TokenKind::RBrace);
                break;
            }
        }
        Some((name, fields))
    }

    // ---- streamlets and implementations ----------------------------------

    fn template_params(&mut self) -> Vec<TemplateParam> {
        let mut params = Vec::new();
        if !self.eat(TokenKind::Lt) {
            return params;
        }
        loop {
            let span = self.peek_span();
            let Some((name, _)) = self.expect_ident() else {
                break;
            };
            if !self.expect(TokenKind::Colon) {
                break;
            }
            let Some((kind_word, kind_span)) = self.expect_ident() else {
                break;
            };
            let kind = match kind_word.as_str() {
                "int" => TemplateParamKind::Int,
                "float" => TemplateParamKind::Float,
                "string" => TemplateParamKind::Str,
                "bool" => TemplateParamKind::Bool,
                "clockdomain" => TemplateParamKind::Clock,
                "type" => TemplateParamKind::Type,
                "impl" => {
                    self.expect_keyword("of");
                    match self.expect_ident() {
                        Some((streamlet, _)) => TemplateParamKind::ImplOf(streamlet),
                        None => break,
                    }
                }
                other => {
                    self.diagnostics.push(Diagnostic::error(
                        "parse",
                        format!("unknown template parameter kind `{other}`"),
                        Some(kind_span),
                    ));
                    break;
                }
            };
            params.push(TemplateParam { name, kind, span });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Gt);
        params
    }

    fn named_ref(&mut self) -> Option<NamedRef> {
        let span = self.peek_span();
        let (name, _) = self.expect_ident()?;
        let mut args = Vec::new();
        if self.eat(TokenKind::Lt) {
            loop {
                if self.eat_keyword("type") {
                    if let Some(ty) = self.type_expr() {
                        args.push(TemplateArgExpr::Type(ty));
                    }
                } else if self.eat_keyword("impl") {
                    if let Some(r) = self.named_ref() {
                        args.push(TemplateArgExpr::Impl(r));
                    }
                } else if let Some(e) = self.expr_additive() {
                    // Template value arguments parse at additive
                    // precedence so a bare `>` always closes the
                    // argument list (parenthesize comparisons).
                    args.push(TemplateArgExpr::Value(e));
                } else {
                    break;
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Gt);
        }
        Some(NamedRef { name, args, span })
    }

    fn streamlet_decl(&mut self, span: Span, attributes: Vec<Attribute>) -> Option<StreamletDecl> {
        let (name, _) = self.expect_ident()?;
        let params = self.template_params();
        self.expect(TokenKind::LBrace);
        let mut ports = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated streamlet body");
                return None;
            }
            let port_span = self.peek_span();
            let Some((port_name, _)) = self.expect_ident() else {
                self.synchronize();
                return None;
            };
            self.expect(TokenKind::Colon);
            let Some(ty) = self.type_expr() else {
                self.synchronize();
                return None;
            };
            let direction = if self.eat_keyword("in") {
                PortDir::In
            } else if self.eat_keyword("out") {
                PortDir::Out
            } else {
                self.error_here("expected `in` or `out` after port type");
                PortDir::In
            };
            let array = if self.eat(TokenKind::LBracket) {
                let e = self.expr();
                self.expect(TokenKind::RBracket);
                e
            } else {
                None
            };
            let clock = if self.eat(TokenKind::Bang) {
                if self.eat(TokenKind::LParen) {
                    let e = self.expr();
                    self.expect(TokenKind::RParen);
                    e.map(ClockSpec::Expr)
                } else {
                    self.expect_ident().map(|(n, s)| ClockSpec::Named(n, s))
                }
            } else {
                None
            };
            ports.push(PortDecl {
                name: port_name,
                ty,
                direction,
                array,
                clock,
                span: port_span,
            });
            if !self.eat(TokenKind::Comma) && !self.eat(TokenKind::Semi) {
                self.expect(TokenKind::RBrace);
                break;
            }
        }
        Some(StreamletDecl {
            name,
            params,
            ports,
            attributes,
            doc: String::new(),
            span,
        })
    }

    fn impl_decl(&mut self, span: Span, attributes: Vec<Attribute>) -> Option<ImplDecl> {
        let (name, _) = self.expect_ident()?;
        let params = self.template_params();
        self.expect_keyword("of");
        let streamlet = self.named_ref()?;
        let body = if self.eat_keyword("external") {
            if self.eat(TokenKind::LBrace) {
                let mut simulation = None;
                while !self.eat(TokenKind::RBrace) {
                    if self.at_eof() {
                        self.error_here("unterminated external impl body");
                        break;
                    }
                    if self.eat_keyword("simulation") {
                        simulation = self.sim_block();
                    } else {
                        self.error_here(format!(
                            "expected `simulation` in external impl body, found {}",
                            self.peek()
                        ));
                        self.bump();
                    }
                }
                ImplBody::External { simulation }
            } else {
                self.terminator();
                ImplBody::External { simulation: None }
            }
        } else {
            self.expect(TokenKind::LBrace);
            let stmts = self.stmt_list();
            ImplBody::Normal(stmts)
        };
        Some(ImplDecl {
            name,
            params,
            streamlet,
            body,
            attributes,
            doc: String::new(),
            span,
        })
    }

    fn stmt_list(&mut self) -> Vec<Stmt> {
        let mut stmts = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated body (missing `}`)");
                break;
            }
            let before = self.pos;
            if let Some(stmt) = self.stmt() {
                stmts.push(stmt);
            } else if self.pos == before {
                self.bump();
            }
        }
        stmts
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let span = self.peek_span();
        if self.eat_keyword("instance") {
            let (name, _) = self.expect_ident()?;
            self.expect(TokenKind::LParen);
            let impl_ref = self.named_ref()?;
            self.expect(TokenKind::RParen);
            let array = if self.eat(TokenKind::LBracket) {
                let e = self.expr();
                self.expect(TokenKind::RBracket);
                e
            } else {
                None
            };
            self.terminator();
            return Some(Stmt::Instance {
                name,
                impl_ref,
                array,
                span,
            });
        }
        if self.eat_keyword("for") {
            let (var, _) = self.expect_ident()?;
            self.expect_keyword("in");
            let iterable = self.expr()?;
            self.expect(TokenKind::LBrace);
            let body = self.stmt_list();
            return Some(Stmt::For {
                var,
                iterable,
                body,
                span,
            });
        }
        if self.eat_keyword("if") {
            self.expect(TokenKind::LParen);
            let cond = self.expr()?;
            self.expect(TokenKind::RParen);
            self.expect(TokenKind::LBrace);
            let body = self.stmt_list();
            let else_body = if self.eat_keyword("else") {
                if self.is_keyword("if") {
                    // else-if chains nest.
                    match self.stmt() {
                        Some(nested) => vec![nested],
                        None => Vec::new(),
                    }
                } else {
                    self.expect(TokenKind::LBrace);
                    self.stmt_list()
                }
            } else {
                Vec::new()
            };
            return Some(Stmt::If {
                cond,
                body,
                else_body,
                span,
            });
        }
        if self.eat_keyword("assert") {
            let (expr, message) = self.assert_args()?;
            self.terminator();
            return Some(Stmt::Assert {
                expr,
                message,
                span,
            });
        }
        if self.eat_keyword("const") {
            return self.const_decl(span).map(Stmt::Const);
        }
        // Otherwise: a connection `endpoint => endpoint`.
        let src = self.endpoint()?;
        self.expect(TokenKind::FatArrow);
        let dst = self.endpoint()?;
        self.terminator();
        Some(Stmt::Connect { src, dst, span })
    }

    fn endpoint(&mut self) -> Option<EndpointExpr> {
        let span = self.peek_span();
        let (first, _) = self.expect_ident()?;
        let first_index = if self.eat(TokenKind::LBracket) {
            let e = self.expr();
            self.expect(TokenKind::RBracket);
            e
        } else {
            None
        };
        if self.eat(TokenKind::Dot) {
            let (port, _) = self.expect_ident()?;
            let port_index = if self.eat(TokenKind::LBracket) {
                let e = self.expr();
                self.expect(TokenKind::RBracket);
                e
            } else {
                None
            };
            Some(EndpointExpr {
                instance: Some((first, first_index)),
                port,
                port_index,
                span,
            })
        } else {
            Some(EndpointExpr {
                instance: None,
                port: first,
                port_index: first_index,
                span,
            })
        }
    }

    // ---- types ------------------------------------------------------------

    fn type_expr(&mut self) -> Option<TypeExpr> {
        let span = self.peek_span();
        let (head, head_span) = self.expect_ident()?;
        match head.as_str() {
            "Null" => Some(TypeExpr::Null(head_span)),
            "Bit" => {
                self.expect(TokenKind::LParen);
                let width = self.expr()?;
                self.expect(TokenKind::RParen);
                Some(TypeExpr::Bit(Box::new(width), span))
            }
            "Stream" => {
                self.expect(TokenKind::LParen);
                let element = self.type_expr()?;
                let mut args = Vec::new();
                while self.eat(TokenKind::Comma) {
                    let Some((key, key_span)) = self.expect_ident() else {
                        break;
                    };
                    match key.as_str() {
                        "d" | "dimension" => {
                            self.expect(TokenKind::Eq);
                            if let Some(e) = self.expr() {
                                args.push(StreamArg::Dimension(e));
                            }
                        }
                        "t" | "throughput" => {
                            self.expect(TokenKind::Eq);
                            if let Some(e) = self.expr() {
                                args.push(StreamArg::Throughput(e));
                            }
                        }
                        "c" | "complexity" => {
                            self.expect(TokenKind::Eq);
                            if let Some(e) = self.expr() {
                                args.push(StreamArg::Complexity(e));
                            }
                        }
                        "r" | "direction" => {
                            self.expect(TokenKind::Eq);
                            if let Some((value, vspan)) = self.expect_ident() {
                                args.push(StreamArg::Direction(value, vspan));
                            }
                        }
                        "x" | "synchronicity" => {
                            self.expect(TokenKind::Eq);
                            if let Some((value, vspan)) = self.expect_ident() {
                                args.push(StreamArg::Synchronicity(value, vspan));
                            }
                        }
                        "u" | "user" => {
                            self.expect(TokenKind::Eq);
                            if let Some(t) = self.type_expr() {
                                args.push(StreamArg::User(t));
                            }
                        }
                        "keep" => {
                            if self.eat(TokenKind::Eq) {
                                if let Some(e) = self.expr() {
                                    args.push(StreamArg::Keep(e));
                                }
                            } else {
                                args.push(StreamArg::Keep(Expr::Bool(true, key_span)));
                            }
                        }
                        other => {
                            self.diagnostics.push(Diagnostic::error(
                                "parse",
                                format!("unknown stream parameter `{other}`"),
                                Some(key_span),
                            ));
                        }
                    }
                }
                self.expect(TokenKind::RParen);
                Some(TypeExpr::Stream {
                    element: Box::new(element),
                    args,
                    span,
                })
            }
            _ => Some(TypeExpr::Ref(head, head_span)),
        }
    }

    // ---- expressions --------------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.expr_or()
    }

    fn expr_or(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_and()?;
        while self.eat(TokenKind::OrOr) {
            let rhs = self.expr_and()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn expr_and(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_equality()?;
        while self.eat(TokenKind::AndAnd) {
            let rhs = self.expr_equality()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Some(lhs)
    }

    fn expr_equality(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_comparison()?;
        loop {
            let op = if self.eat(TokenKind::EqEq) {
                BinOp::Eq
            } else if self.eat(TokenKind::NotEq) {
                BinOp::Ne
            } else {
                return Some(lhs);
            };
            let rhs = self.expr_comparison()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn expr_comparison(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_additive()?;
        loop {
            let op = if self.eat(TokenKind::Le) {
                BinOp::Le
            } else if self.eat(TokenKind::Ge) {
                BinOp::Ge
            } else if self.eat(TokenKind::Lt) {
                BinOp::Lt
            } else if self.eat(TokenKind::Gt) {
                BinOp::Gt
            } else {
                return Some(lhs);
            };
            let rhs = self.expr_additive()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn expr_additive(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_multiplicative()?;
        loop {
            let op = if self.eat(TokenKind::Plus) {
                BinOp::Add
            } else if self.eat(TokenKind::Minus) {
                BinOp::Sub
            } else {
                return Some(lhs);
            };
            let rhs = self.expr_multiplicative()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn expr_multiplicative(&mut self) -> Option<Expr> {
        let mut lhs = self.expr_power()?;
        loop {
            let op = if self.eat(TokenKind::Star) {
                BinOp::Mul
            } else if self.eat(TokenKind::Slash) {
                BinOp::Div
            } else if self.eat(TokenKind::Percent) {
                BinOp::Rem
            } else {
                return Some(lhs);
            };
            let rhs = self.expr_power()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn expr_power(&mut self) -> Option<Expr> {
        let lhs = self.expr_unary()?;
        if self.eat(TokenKind::Caret) {
            // Right-associative.
            let rhs = self.expr_power()?;
            let span = lhs.span().merge(rhs.span());
            Some(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            })
        } else {
            Some(lhs)
        }
    }

    fn expr_unary(&mut self) -> Option<Expr> {
        let span = self.peek_span();
        if self.eat(TokenKind::Minus) {
            let operand = self.expr_unary()?;
            let span = span.merge(operand.span());
            return Some(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
                span,
            });
        }
        if self.eat(TokenKind::Bang) {
            let operand = self.expr_unary()?;
            let span = span.merge(operand.span());
            return Some(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
                span,
            });
        }
        self.expr_postfix()
    }

    fn expr_postfix(&mut self) -> Option<Expr> {
        let mut base = self.expr_primary()?;
        while self.eat(TokenKind::LBracket) {
            let index = self.expr()?;
            self.expect(TokenKind::RBracket);
            let span = base.span().merge(index.span());
            base = Expr::Index {
                base: Box::new(base),
                index: Box::new(index),
                span,
            };
        }
        Some(base)
    }

    fn expr_primary(&mut self) -> Option<Expr> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Some(Expr::Int(v, span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Some(Expr::Float(v, span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Some(Expr::Str(s, span))
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(TokenKind::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                        if *self.peek() == TokenKind::RBracket {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBracket);
                }
                Some(Expr::Array(items, span))
            }
            TokenKind::LParen => {
                self.bump();
                let first = self.expr()?;
                if self.eat(TokenKind::DotDot) {
                    let end = self.expr()?;
                    let step = if self.eat_keyword("step") {
                        self.expr().map(Box::new)
                    } else {
                        None
                    };
                    self.expect(TokenKind::RParen);
                    let full = span.merge(self.peek_span());
                    Some(Expr::Range {
                        start: Box::new(first),
                        end: Box::new(end),
                        step,
                        span: full,
                    })
                } else {
                    self.expect(TokenKind::RParen);
                    Some(first)
                }
            }
            TokenKind::Ident(word) => {
                match word.as_str() {
                    "true" => {
                        self.bump();
                        return Some(Expr::Bool(true, span));
                    }
                    "false" => {
                        self.bump();
                        return Some(Expr::Bool(false, span));
                    }
                    _ => {}
                }
                self.bump();
                if *self.peek() == TokenKind::LParen {
                    // Builtin function call, or clockdomain("name").
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen);
                    }
                    if word == "clockdomain" {
                        if let [Expr::Str(name, _)] = args.as_slice() {
                            return Some(Expr::Clock(name.clone(), span));
                        }
                        self.diagnostics.push(Diagnostic::error(
                            "parse",
                            "clockdomain(...) takes a single string literal",
                            Some(span),
                        ));
                        return None;
                    }
                    Some(Expr::Call {
                        name: word,
                        args,
                        span,
                    })
                } else {
                    Some(Expr::Ident(word, span))
                }
            }
            other => {
                self.error_here(format!("expected expression, found {other}"));
                None
            }
        }
    }

    // ---- simulation blocks ----------------------------------------------

    /// Parses `{ ... }` after the `simulation` keyword, capturing the
    /// raw source text of the body.
    fn sim_block(&mut self) -> Option<SimBlock> {
        let open_span = self.peek_span();
        if !self.expect(TokenKind::LBrace) {
            return None;
        }
        let body_start = open_span.end;
        // Find the matching close brace by token scanning to capture
        // the raw text; parsing proceeds over the same tokens.
        let mut block = self.sim_items_until_rbrace();
        let close_span = self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span;
        let body_end = close_span.start.max(body_start).min(self.source.len());
        block.source = self.source[body_start..body_end].trim().to_string();
        Some(block)
    }

    /// Parses simulation items until end of input (for stand-alone
    /// simulation sources).
    fn sim_block_items(&mut self, source: String) -> SimBlock {
        let mut block = SimBlock {
            source,
            ..Default::default()
        };
        while !self.at_eof() {
            self.sim_item(&mut block);
        }
        block
    }

    fn sim_items_until_rbrace(&mut self) -> SimBlock {
        let mut block = SimBlock::default();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated simulation block");
                break;
            }
            self.sim_item(&mut block);
        }
        block
    }

    fn sim_item(&mut self, block: &mut SimBlock) {
        let span = self.peek_span();
        if self.eat_keyword("state") {
            let Some((name, _)) = self.expect_ident() else {
                return;
            };
            self.expect(TokenKind::Eq);
            let init = match self.peek().clone() {
                TokenKind::Str(s) => {
                    self.bump();
                    s
                }
                other => {
                    self.error_here(format!("state initializer must be a string, found {other}"));
                    String::new()
                }
            };
            self.terminator();
            block.states.push(SimStateDecl { name, init, span });
        } else if self.eat_keyword("on") {
            self.expect(TokenKind::LParen);
            let Some(event) = self.sim_event() else {
                self.synchronize();
                return;
            };
            self.expect(TokenKind::RParen);
            self.expect(TokenKind::LBrace);
            let actions = self.sim_actions_until_rbrace();
            block.handlers.push(SimHandler {
                event,
                actions,
                span,
            });
        } else {
            self.error_here(format!(
                "expected `state` or `on` in simulation block, found {}",
                self.peek()
            ));
            self.bump();
        }
    }

    fn sim_event(&mut self) -> Option<SimEvent> {
        let mut lhs = self.sim_event_and()?;
        while self.eat(TokenKind::OrOr) {
            let rhs = self.sim_event_and()?;
            lhs = SimEvent::Or(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn sim_event_and(&mut self) -> Option<SimEvent> {
        let mut lhs = self.sim_event_unary()?;
        while self.eat(TokenKind::AndAnd) {
            let rhs = self.sim_event_unary()?;
            lhs = SimEvent::And(Box::new(lhs), Box::new(rhs));
        }
        Some(lhs)
    }

    fn sim_event_unary(&mut self) -> Option<SimEvent> {
        if self.eat(TokenKind::Bang) {
            let inner = self.sim_event_unary()?;
            return Some(SimEvent::Not(Box::new(inner)));
        }
        if self.eat(TokenKind::LParen) {
            let inner = self.sim_event()?;
            self.expect(TokenKind::RParen);
            return Some(inner);
        }
        let (name, _) = self.expect_ident()?;
        if self.eat(TokenKind::Dot) {
            let (what, what_span) = self.expect_ident()?;
            match what.as_str() {
                "recv" => Some(SimEvent::Recv(name)),
                "ack" => Some(SimEvent::Ack(name)),
                other => {
                    self.diagnostics.push(Diagnostic::error(
                        "parse",
                        format!("unknown port event `.{other}` (expected .recv or .ack)"),
                        Some(what_span),
                    ));
                    None
                }
            }
        } else if self.eat(TokenKind::EqEq) {
            let value = self.sim_string()?;
            Some(SimEvent::StateIs(name, value))
        } else if self.eat(TokenKind::NotEq) {
            let value = self.sim_string()?;
            Some(SimEvent::StateIsNot(name, value))
        } else {
            self.error_here("expected `.recv`, `.ack`, `==` or `!=` in event");
            None
        }
    }

    fn sim_string(&mut self) -> Option<String> {
        match self.peek().clone() {
            TokenKind::Str(s) => {
                self.bump();
                Some(s)
            }
            other => {
                self.error_here(format!("expected string literal, found {other}"));
                None
            }
        }
    }

    fn sim_actions_until_rbrace(&mut self) -> Vec<SimAction> {
        let mut actions = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated handler body");
                break;
            }
            let before = self.pos;
            if let Some(a) = self.sim_action() {
                actions.push(a);
            } else if self.pos == before {
                self.bump();
            }
        }
        actions
    }

    fn sim_action(&mut self) -> Option<SimAction> {
        if self.eat_keyword("send") {
            self.expect(TokenKind::LParen);
            let (port, _) = self.expect_ident()?;
            self.expect(TokenKind::Comma);
            let expr = self.sim_expr()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::Send { port, expr });
        }
        if self.eat_keyword("last") {
            self.expect(TokenKind::LParen);
            let (port, _) = self.expect_ident()?;
            let levels = if self.eat(TokenKind::Comma) {
                match self.peek().clone() {
                    TokenKind::Int(v) if v > 0 => {
                        self.bump();
                        v as u32
                    }
                    other => {
                        self.error_here(format!("expected positive level count, found {other}"));
                        1
                    }
                }
            } else {
                1
            };
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::Last { port, levels });
        }
        if self.eat_keyword("ack") {
            self.expect(TokenKind::LParen);
            let (port, _) = self.expect_ident()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::Ack(port));
        }
        if self.eat_keyword("delay") {
            self.expect(TokenKind::LParen);
            let expr = self.sim_expr()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::Delay(expr));
        }
        if self.eat_keyword("set_state") {
            self.expect(TokenKind::LParen);
            let (name, _) = self.expect_ident()?;
            self.expect(TokenKind::Comma);
            let value = self.sim_string()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::SetState(name, value));
        }
        if self.eat_keyword("if") {
            self.expect(TokenKind::LParen);
            let cond = self.sim_expr()?;
            self.expect(TokenKind::RParen);
            self.expect(TokenKind::LBrace);
            let then_actions = self.sim_actions_until_rbrace();
            let else_actions = if self.eat_keyword("else") {
                self.expect(TokenKind::LBrace);
                self.sim_actions_until_rbrace()
            } else {
                Vec::new()
            };
            return Some(SimAction::If {
                cond,
                then_actions,
                else_actions,
            });
        }
        if self.eat_keyword("for") {
            let (var, _) = self.expect_ident()?;
            self.expect_keyword("in");
            self.expect(TokenKind::LParen);
            let start = self.sim_expr()?;
            self.expect(TokenKind::DotDot);
            let end = self.sim_expr()?;
            self.expect(TokenKind::RParen);
            self.expect(TokenKind::LBrace);
            let body = self.sim_actions_until_rbrace();
            return Some(SimAction::For {
                var,
                start,
                end,
                body,
            });
        }
        self.error_here(format!(
            "expected a simulation action (send/last/ack/delay/set_state/if/for), found {}",
            self.peek()
        ));
        None
    }

    fn sim_expr(&mut self) -> Option<SimExpr> {
        self.sim_expr_bin(0)
    }

    fn sim_expr_bin(&mut self, min_level: u8) -> Option<SimExpr> {
        let mut lhs = self.sim_expr_unary()?;
        loop {
            let (op, level) = match self.peek() {
                TokenKind::OrOr => (SimOp::Or, 1),
                TokenKind::AndAnd => (SimOp::And, 2),
                TokenKind::EqEq => (SimOp::Eq, 3),
                TokenKind::NotEq => (SimOp::Ne, 3),
                TokenKind::Lt => (SimOp::Lt, 4),
                TokenKind::Le => (SimOp::Le, 4),
                TokenKind::Gt => (SimOp::Gt, 4),
                TokenKind::Ge => (SimOp::Ge, 4),
                TokenKind::Plus => (SimOp::Add, 5),
                TokenKind::Minus => (SimOp::Sub, 5),
                TokenKind::Star => (SimOp::Mul, 6),
                TokenKind::Slash => (SimOp::Div, 6),
                TokenKind::Percent => (SimOp::Rem, 6),
                _ => return Some(lhs),
            };
            if level < min_level {
                return Some(lhs);
            }
            self.bump();
            let rhs = self.sim_expr_bin(level + 1)?;
            lhs = SimExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn sim_expr_unary(&mut self) -> Option<SimExpr> {
        if self.eat(TokenKind::Minus) {
            return Some(SimExpr::Neg(Box::new(self.sim_expr_unary()?)));
        }
        if self.eat(TokenKind::Bang) {
            return Some(SimExpr::Not(Box::new(self.sim_expr_unary()?)));
        }
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Some(SimExpr::Int(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.sim_expr()?;
                self.expect(TokenKind::RParen);
                Some(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(TokenKind::Dot) {
                    let (what, _) = self.expect_ident()?;
                    if what != "data" {
                        self.diagnostics.push(Diagnostic::error(
                            "parse",
                            format!("expected `.data`, found `.{what}`"),
                            Some(span),
                        ));
                        return None;
                    }
                    if self.eat(TokenKind::Dot) {
                        let (field, _) = self.expect_ident()?;
                        Some(SimExpr::Field(name, field))
                    } else {
                        Some(SimExpr::Data(name))
                    }
                } else {
                    Some(SimExpr::Var(name))
                }
            }
            other => {
                self.error_here(format!("expected simulation expression, found {other}"));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::has_errors;

    fn parse_ok(src: &str) -> Package {
        let (pkg, diags) = parse_package(0, src);
        assert!(
            !has_errors(&diags),
            "unexpected errors: {:?}",
            diags.iter().map(|d| &d.message).collect::<Vec<_>>()
        );
        pkg.expect("package")
    }

    #[test]
    fn minimal_package() {
        let p = parse_ok("package demo;");
        assert_eq!(p.name, "demo");
        assert!(p.decls.is_empty());
    }

    #[test]
    fn uses_and_consts() {
        let p = parse_ok(
            "package q;\nuse std;\nconst width : int = 32;\nconst names : [string] = [\"a\", \"b\"];\nconst inferred = 3.5;",
        );
        assert_eq!(p.uses, vec!["std"]);
        assert_eq!(p.decls.len(), 3);
        match &*p.decls[1] {
            Decl::Const(c) => {
                assert_eq!(c.kind, Some(VarKind::Array(Box::new(VarKind::Str))));
            }
            other => panic!("expected const, got {other:?}"),
        }
    }

    #[test]
    fn type_declarations() {
        let p = parse_ok(
            "package t;\ntype Byte = Stream(Bit(8));\nGroup AdderInput { data0: Bit(32), data1: Bit(32), }\nUnion U { a: Bit(2), b: Bit(3) }",
        );
        assert_eq!(p.decls.len(), 3);
        assert!(matches!(*p.decls[0], Decl::TypeAlias { .. }));
        match &*p.decls[1] {
            Decl::Group { fields, .. } => assert_eq!(fields.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_type_with_args() {
        let p = parse_ok("package t;\ntype T = Stream(Bit(8), d=2, t=2.0, c=7, r=Reverse, x=Flatten, u=Bit(1), keep);");
        match &*p.decls[0] {
            Decl::TypeAlias {
                ty: TypeExpr::Stream { args, .. },
                ..
            } => {
                assert_eq!(args.len(), 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let p = parse_ok("package t;\nconst x = 1 + 2 * 3 ^ 2;");
        // 1 + (2 * (3 ^ 2))
        match &*p.decls[0] {
            Decl::Const(c) => match &c.value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => match rhs.as_ref() {
                    Expr::Binary {
                        op: BinOp::Mul,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Pow, .. }));
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_bit_width_expression() {
        // Bit(ceil(log2(10^15 - 1))) from paper §IV-A.
        let p = parse_ok("package t;\ntype D = Bit(ceil(log2(10 ^ 15 - 1)));");
        assert!(matches!(
            &*p.decls[0],
            Decl::TypeAlias {
                ty: TypeExpr::Bit(..),
                ..
            }
        ));
    }

    #[test]
    fn streamlet_with_templates_and_ports() {
        let p = parse_ok(
            "package t;\nstreamlet parallelize_s<in_t: type, out_t: type, n: int> {\n  input : in_t in,\n  output : out_t out [n],\n  mem : Stream(Bit(8)) in !mem_clock,\n}",
        );
        match &*p.decls[0] {
            Decl::Streamlet(s) => {
                assert_eq!(s.params.len(), 3);
                assert_eq!(s.ports.len(), 3);
                assert!(s.ports[1].array.is_some());
                assert!(
                    matches!(&s.ports[2].clock, Some(ClockSpec::Named(n, _)) if n == "mem_clock")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn impl_with_instances_connections_and_generatives() {
        let src = r#"
package t;
impl parallelize_i<t_in: type, pu: impl of process_unit_s, channel: int> of parallelize_s<type t_in, channel> {
    instance demux_inst(demux_i<type t_in, channel>),
    instance pu_inst(pu) [channel],
    for i in (0..channel) {
        demux_inst.outp[i] => pu_inst[i].inp,
    }
    if (channel > 4) {
        assert(channel <= 16, "too many channels"),
    } else {
        inp => demux_inst.inp,
    }
}
"#;
        let p = parse_ok(src);
        match &*p.decls[0] {
            Decl::Impl(i) => {
                assert_eq!(i.params.len(), 3);
                assert!(
                    matches!(i.params[1].kind, TemplateParamKind::ImplOf(ref s) if s == "process_unit_s")
                );
                let ImplBody::Normal(stmts) = &i.body else {
                    panic!("expected normal body")
                };
                assert_eq!(stmts.len(), 4);
                assert!(matches!(&stmts[2], Stmt::For { .. }));
                assert!(matches!(&stmts[3], Stmt::If { else_body, .. } if else_body.len() == 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn template_instantiation_arguments() {
        let p = parse_ok(
            "package t;\nimpl top of s {\n  instance x(parallelize_i<type Input, type Result, impl adder_32, 8>),\n}",
        );
        match &*p.decls[0] {
            Decl::Impl(i) => {
                let ImplBody::Normal(stmts) = &i.body else {
                    panic!()
                };
                match &stmts[0] {
                    Stmt::Instance { impl_ref, .. } => {
                        assert_eq!(impl_ref.args.len(), 4);
                        assert!(matches!(impl_ref.args[0], TemplateArgExpr::Type(_)));
                        assert!(matches!(impl_ref.args[2], TemplateArgExpr::Impl(_)));
                        assert!(matches!(impl_ref.args[3], TemplateArgExpr::Value(_)));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn external_impl_with_attribute() {
        let p = parse_ok(
            "package t;\n@builtin(\"std.duplicator\")\nimpl dup_i<T: type, n: int> of dup_s<type T, n> external;",
        );
        match &*p.decls[0] {
            Decl::Impl(i) => {
                assert_eq!(i.attributes.len(), 1);
                assert_eq!(i.attributes[0].name, "builtin");
                assert!(matches!(i.body, ImplBody::External { simulation: None }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn external_impl_with_simulation() {
        let src = r#"
package t;
impl adder_ext of adder_s external {
    simulation {
        state st = "idle";
        on (in0.recv && in1.recv) {
            delay(8);
            send(outp, in0.data + in1.data);
            ack(in0);
            ack(in1);
            set_state(st, "busy");
        }
        on (outp.ack || st != "busy") {
            set_state(st, "idle");
        }
    }
}
"#;
        let p = parse_ok(src);
        match &*p.decls[0] {
            Decl::Impl(i) => match &i.body {
                ImplBody::External {
                    simulation: Some(sim),
                } => {
                    assert_eq!(sim.states.len(), 1);
                    assert_eq!(sim.handlers.len(), 2);
                    assert!(sim.source.contains("delay(8)"));
                    match &sim.handlers[0].event {
                        SimEvent::And(a, b) => {
                            assert_eq!(**a, SimEvent::Recv("in0".into()));
                            assert_eq!(**b, SimEvent::Recv("in1".into()));
                        }
                        other => panic!("{other:?}"),
                    }
                    assert_eq!(sim.handlers[0].actions.len(), 5);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sim_actions_if_and_for() {
        let block = parse_simulation_source(
            "on (inp.recv) { if (inp.data > 0) { send(outp, inp.data); } else { ack(inp); } for i in (0..4) { send(outp, i); } }",
        )
        .unwrap();
        assert_eq!(block.handlers.len(), 1);
        assert!(matches!(block.handlers[0].actions[0], SimAction::If { .. }));
        assert!(matches!(
            block.handlers[0].actions[1],
            SimAction::For { .. }
        ));
    }

    #[test]
    fn connection_endpoint_forms() {
        let p = parse_ok(
            "package t;\nimpl x of s {\n  a => b,\n  a[0] => inst.p,\n  inst[1].q[2] => c,\n}",
        );
        match &*p.decls[0] {
            Decl::Impl(i) => {
                let ImplBody::Normal(stmts) = &i.body else {
                    panic!()
                };
                match &stmts[2] {
                    Stmt::Connect { src, .. } => {
                        let (inst, idx) = src.instance.as_ref().unwrap();
                        assert_eq!(inst, "inst");
                        assert!(idx.is_some());
                        assert_eq!(src.port, "q");
                        assert!(src.port_index.is_some());
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clockdomain_expression() {
        let p = parse_ok("package t;\nconst cd : clockdomain = clockdomain(\"mem\");");
        match &*p.decls[0] {
            Decl::Const(c) => assert!(matches!(&c.value, Expr::Clock(n, _) if n == "mem")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_with_step() {
        let p = parse_ok("package t;\nconst r = (0..10 step 2);");
        match &*p.decls[0] {
            Decl::Const(c) => assert!(matches!(&c.value, Expr::Range { step: Some(_), .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let (_, diags) = parse_package(0, "package t;\nconst x = ;\nstreamlet s { }");
        assert!(has_errors(&diags));
        let (_, diags) = parse_package(0, "not_a_package");
        assert!(has_errors(&diags));
        let (_, diags) = parse_package(0, "package t;\nimpl x of s {\n  a => ,\n}");
        assert!(has_errors(&diags));
    }

    #[test]
    fn top_level_assert() {
        let p = parse_ok("package t;\nassert(1 + 1 == 2, \"math is broken\");");
        assert!(matches!(
            &*p.decls[0],
            Decl::Assert {
                message: Some(_),
                ..
            }
        ));
    }
}
