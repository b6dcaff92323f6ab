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
use crate::lexer::Lexer;
use crate::sim_ast::*;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::sync::Arc;

/// How deeply source constructs may nest: parentheses, array literals,
/// index postfixes and call arguments (each is one expression level),
/// unary and `^` operators, type expressions, template arguments,
/// statement bodies, and simulation blocks. One level past it is a
/// spanned diagnostic, and parsing the file stops there.
///
/// Every pass after the parser (evaluation, printing and
/// fingerprinting, elaboration, dropping the tree) recurses at most
/// once per level, so this one bound keeps them all within their
/// stack. An input nested exactly this deep compiles on a 2 MiB thread
/// in an unoptimized build.
pub const MAX_NESTING: usize = 384;

/// Parses one source file into a [`Package`]. On unrecoverable errors
/// the package may be `None`; all problems are reported as
/// diagnostics, lexical ones first.
pub fn parse_package(file: usize, source: &str) -> (Option<Package>, Vec<Diagnostic>) {
    let mut parser = Parser::new(file, source);
    let package = parser.package();
    (package, parser.finish())
}

/// Parses stand-alone simulation code (the content of a
/// `simulation { ... }` block, braces not included).
pub fn parse_simulation_source(source: &str) -> Result<SimBlock, Vec<Diagnostic>> {
    let mut parser = Parser::new(0, source);
    let block = parser.sim_block_items(source.to_string());
    let diagnostics = parser.finish();
    if diagnostics
        .iter()
        .any(|d| d.severity == crate::Severity::Error)
    {
        Err(diagnostics)
    } else {
        Ok(block)
    }
}

/// Binding strength of the binary operators; a higher level binds
/// tighter. Each level's operators form one [`Expr::Chain`].
fn binop(kind: &TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::EqEq => (BinOp::Eq, 3),
        TokenKind::NotEq => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, ADDITIVE),
        TokenKind::Minus => (BinOp::Sub, ADDITIVE),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Rem, 6),
        TokenKind::Caret => (BinOp::Pow, POWER),
        _ => return None,
    })
}

/// The level of `+` and `-`.
const ADDITIVE: u8 = 5;
/// The level of `^`, the only right-associative one.
const POWER: u8 = 7;

/// A chain whose latest operator still waits for its right operand.
struct OpenChain {
    first: Expr,
    rest: Vec<(BinOp, Expr)>,
    /// The operator waiting for its right operand.
    op: BinOp,
    level: u8,
}

impl OpenChain {
    /// Completes the chain with its last operand. The span covers
    /// every operand, as the outermost node of the nested form did.
    fn close(mut self, last: Expr) -> Expr {
        self.rest.push((self.op, last));
        let span = self
            .rest
            .iter()
            .fold(self.first.span(), |span, (_, x)| span.merge(x.span()));
        Expr::Chain {
            first: Box::new(self.first),
            rest: self.rest,
            span,
        }
    }
}

/// Closes every open chain around the last operand.
fn close_all(open: Vec<OpenChain>, last: Expr) -> Expr {
    open.into_iter()
        .rev()
        .fold(last, |operand, chain| chain.close(operand))
}

/// Wraps `operand` in its prefix operators, innermost last.
fn wrap_prefixes(prefixes: Vec<(UnaryOp, Span)>, operand: Expr) -> Expr {
    prefixes
        .into_iter()
        .rev()
        .fold(operand, |operand, (op, span)| Expr::Unary {
            op,
            span: span.merge(operand.span()),
            operand: Box::new(operand),
        })
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The one token of lookahead.
    token: Token<'src>,
    /// The span of the last consumed token (`sim_block` ends its raw
    /// text there).
    prev_span: Span,
    /// Tokens consumed so far; error recovery compares it to tell
    /// whether a production made progress.
    pos: usize,
    /// Open nesting levels (see [`MAX_NESTING`]).
    depth: usize,
    /// Set once [`MAX_NESTING`] is exceeded: the rest of the file is
    /// skipped and no further parse diagnostic is recorded.
    too_deep: bool,
    diagnostics: Vec<Diagnostic>,
    source: &'src str,
}

impl<'src> Parser<'src> {
    fn new(file: usize, source: &'src str) -> Self {
        let mut lexer = Lexer::new(file, source);
        let token = lexer.next_token();
        Parser {
            lexer,
            prev_span: token.span,
            token,
            pos: 0,
            depth: 0,
            too_deep: false,
            diagnostics: Vec::new(),
            source,
        }
    }

    /// Lexes any unread tail and returns the lexical diagnostics
    /// followed by the parse diagnostics.
    fn finish(self) -> Vec<Diagnostic> {
        let mut diagnostics = self.lexer.finish();
        diagnostics.extend(self.diagnostics);
        diagnostics
    }

    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> &TokenKind<'src> {
        &self.token.kind
    }

    fn peek_span(&self) -> Span {
        self.token.span
    }

    /// Consumes the lookahead token (a no-op at end of file).
    fn bump(&mut self) {
        if !self.at_eof() {
            self.prev_span = self.token.span;
            self.token = self.lexer.next_token();
            self.pos += 1;
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn report(&mut self, message: impl Into<String>, span: Span) {
        if !self.too_deep {
            self.diagnostics
                .push(Diagnostic::error("parse", message, Some(span)));
        }
    }

    fn error_here(&mut self, message: impl Into<String>) {
        self.report(message, self.peek_span());
    }

    /// Opens one nesting level, closed by the enclosing
    /// [`Parser::scoped`]. Past [`MAX_NESTING`] it reports the one
    /// nesting diagnostic, skips to end of file and returns false.
    fn enter(&mut self) -> bool {
        if self.depth < MAX_NESTING {
            self.depth += 1;
            return true;
        }
        if !self.too_deep {
            self.error_here(format!(
                "nesting too deep: more than {MAX_NESTING} levels of parentheses, \
                 brackets, operators, types or blocks"
            ));
            self.too_deep = true;
            while !self.at_eof() {
                self.bump();
            }
        }
        false
    }

    /// Runs `parse`, then closes every nesting level it opened.
    fn scoped<T>(&mut self, parse: impl FnOnce(&mut Self) -> T) -> T {
        let outer = self.depth;
        let parsed = parse(self);
        self.depth = outer;
        parsed
    }

    /// Runs `parse` one nesting level deeper; past the budget it parses
    /// nothing and returns `None`.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.scoped(|p| if p.enter() { parse(p) } else { None })
    }

    fn expect(&mut self, kind: TokenKind<'static>) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            self.error_here(format!("expected {}, found {}", kind, self.peek()));
            false
        }
    }

    fn eat(&mut self, kind: TokenKind<'static>) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_keyword(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if *s == word)
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

    fn expect_ident(&mut self) -> Option<(&'src str, Span)> {
        if let TokenKind::Ident(name) = self.token.kind {
            let span = self.peek_span();
            self.bump();
            Some((name, span))
        } else {
            self.error_here(format!("expected identifier, found {}", self.peek()));
            None
        }
    }

    /// An identifier the AST keeps, allocated once.
    fn expect_name(&mut self) -> Option<String> {
        self.expect_ident().map(|(name, _)| name.to_string())
    }

    /// Takes the lookahead string literal, if that is what it is.
    fn eat_str(&mut self) -> Option<String> {
        let TokenKind::Str(value) = &mut self.token.kind else {
            return None;
        };
        let value = std::mem::take(value);
        self.bump();
        Some(value)
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
                            *word,
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
        let name = self.expect_name()?;
        self.terminator();
        let mut uses = Vec::new();
        let mut decls = Vec::new();
        while !self.at_eof() {
            if self.eat_keyword("use") {
                if let Some(used) = self.expect_name() {
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
            let Some(name) = self.expect_name() else {
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
            let name = self.expect_name()?;
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
        let name = self.expect_name()?;
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
            let inner = self.nested(Self::var_kind)?;
            self.expect(TokenKind::RBracket);
            return Some(VarKind::Array(Box::new(inner)));
        }
        let (word, span) = self.expect_ident()?;
        match word {
            "int" => Some(VarKind::Int),
            "float" => Some(VarKind::Float),
            "string" => Some(VarKind::Str),
            "bool" => Some(VarKind::Bool),
            "clockdomain" => Some(VarKind::Clock),
            other => {
                self.report(format!("unknown variable kind `{other}`"), span);
                None
            }
        }
    }

    fn composite_decl(&mut self) -> Option<(String, Vec<(String, TypeExpr)>)> {
        let name = self.expect_name()?;
        self.expect(TokenKind::LBrace);
        let mut fields = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated composite type body");
                return None;
            }
            let field_name = self.expect_name()?;
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
            let Some(name) = self.expect_name() else {
                break;
            };
            if !self.expect(TokenKind::Colon) {
                break;
            }
            let Some((kind_word, kind_span)) = self.expect_ident() else {
                break;
            };
            let kind = match kind_word {
                "int" => TemplateParamKind::Int,
                "float" => TemplateParamKind::Float,
                "string" => TemplateParamKind::Str,
                "bool" => TemplateParamKind::Bool,
                "clockdomain" => TemplateParamKind::Clock,
                "type" => TemplateParamKind::Type,
                "impl" => {
                    self.expect_keyword("of");
                    match self.expect_name() {
                        Some(streamlet) => TemplateParamKind::ImplOf(streamlet),
                        None => break,
                    }
                }
                other => {
                    self.report(
                        format!("unknown template parameter kind `{other}`"),
                        kind_span,
                    );
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
        self.nested(Self::named_ref_inner)
    }

    fn named_ref_inner(&mut self) -> Option<NamedRef> {
        let span = self.peek_span();
        let name = self.expect_name()?;
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
                } else if let Some(e) = self.expr_from(ADDITIVE) {
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
        let name = self.expect_name()?;
        let params = self.template_params();
        self.expect(TokenKind::LBrace);
        let mut ports = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.at_eof() {
                self.error_here("unterminated streamlet body");
                return None;
            }
            let port_span = self.peek_span();
            let Some(port_name) = self.expect_name() else {
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
                    self.expect_ident()
                        .map(|(n, s)| ClockSpec::Named(n.to_string(), s))
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
        let name = self.expect_name()?;
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

    /// A statement body after its `{`, through the closing `}`.
    fn stmt_list(&mut self) -> Vec<Stmt> {
        self.nested(|p| Some(p.stmt_list_inner()))
            .unwrap_or_default()
    }

    fn stmt_list_inner(&mut self) -> Vec<Stmt> {
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

    /// One statement. Each kind has its own function, so nested
    /// bodies stack only small frames.
    fn stmt(&mut self) -> Option<Stmt> {
        let span = self.peek_span();
        if self.eat_keyword("instance") {
            self.instance_stmt(span)
        } else if self.eat_keyword("for") {
            self.for_stmt(span)
        } else if self.eat_keyword("if") {
            self.if_stmt(span)
        } else if self.eat_keyword("assert") {
            self.assert_stmt(span)
        } else if self.eat_keyword("const") {
            self.const_decl(span).map(Stmt::Const)
        } else {
            self.connect_stmt(span)
        }
    }

    fn instance_stmt(&mut self, span: Span) -> Option<Stmt> {
        let name = self.expect_name()?;
        self.expect(TokenKind::LParen);
        let impl_ref = self.named_ref()?;
        self.expect(TokenKind::RParen);
        let array = self.bracketed_index();
        self.terminator();
        Some(Stmt::Instance {
            name,
            impl_ref,
            array,
            span,
        })
    }

    fn for_stmt(&mut self, span: Span) -> Option<Stmt> {
        let var = self.expect_name()?;
        self.expect_keyword("in");
        let iterable = self.expr()?;
        self.expect(TokenKind::LBrace);
        let body = self.stmt_list();
        Some(Stmt::For {
            var,
            iterable,
            body,
            span,
        })
    }

    fn if_stmt(&mut self, span: Span) -> Option<Stmt> {
        self.expect(TokenKind::LParen);
        let cond = self.expr()?;
        self.expect(TokenKind::RParen);
        self.expect(TokenKind::LBrace);
        let body = self.stmt_list();
        let else_body = if !self.eat_keyword("else") {
            Vec::new()
        } else if self.is_keyword("if") {
            // else-if chains nest, one level per `else if`.
            self.nested(Self::stmt).into_iter().collect()
        } else {
            self.expect(TokenKind::LBrace);
            self.stmt_list()
        };
        Some(Stmt::If {
            cond,
            body,
            else_body,
            span,
        })
    }

    fn assert_stmt(&mut self, span: Span) -> Option<Stmt> {
        let (expr, message) = self.assert_args()?;
        self.terminator();
        Some(Stmt::Assert {
            expr,
            message,
            span,
        })
    }

    /// A connection `endpoint => endpoint`.
    fn connect_stmt(&mut self, span: Span) -> Option<Stmt> {
        let src = self.endpoint()?;
        self.expect(TokenKind::FatArrow);
        let dst = self.endpoint()?;
        self.terminator();
        Some(Stmt::Connect { src, dst, span })
    }

    /// An optional `[expr]` (instance array size or endpoint index).
    fn bracketed_index(&mut self) -> Option<Box<Expr>> {
        if !self.eat(TokenKind::LBracket) {
            return None;
        }
        let e = self.expr();
        self.expect(TokenKind::RBracket);
        e.map(Box::new)
    }

    fn endpoint(&mut self) -> Option<EndpointExpr> {
        let span = self.peek_span();
        let first = self.expect_name()?;
        let first_index = self.bracketed_index();
        if self.eat(TokenKind::Dot) {
            let port = self.expect_name()?;
            let port_index = self.bracketed_index();
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
        self.nested(Self::type_expr_inner)
    }

    fn type_expr_inner(&mut self) -> Option<TypeExpr> {
        let span = self.peek_span();
        let (head, head_span) = self.expect_ident()?;
        match head {
            "Null" => Some(TypeExpr::Null(head_span)),
            "Bit" => {
                self.expect(TokenKind::LParen);
                let width = self.expr()?;
                self.expect(TokenKind::RParen);
                Some(TypeExpr::Bit(Box::new(width), span))
            }
            "Stream" => self.stream_type(span),
            _ => Some(TypeExpr::Ref(head.to_string(), head_span)),
        }
    }

    /// `Stream(element, key=value, ...)` after the `Stream` keyword.
    fn stream_type(&mut self, span: Span) -> Option<TypeExpr> {
        self.expect(TokenKind::LParen);
        let element = self.type_expr()?;
        let mut args = Vec::new();
        while self.eat(TokenKind::Comma) {
            let Some((key, key_span)) = self.expect_ident() else {
                break;
            };
            args.extend(self.stream_arg(key, key_span));
        }
        self.expect(TokenKind::RParen);
        Some(TypeExpr::Stream {
            element: Box::new(element),
            args,
            span,
        })
    }

    /// One `key=value` stream parameter after its key.
    fn stream_arg(&mut self, key: &str, key_span: Span) -> Option<StreamArg> {
        match key {
            "d" | "dimension" => {
                self.expect(TokenKind::Eq);
                self.expr().map(StreamArg::Dimension)
            }
            "t" | "throughput" => {
                self.expect(TokenKind::Eq);
                self.expr().map(StreamArg::Throughput)
            }
            "c" | "complexity" => {
                self.expect(TokenKind::Eq);
                self.expr().map(StreamArg::Complexity)
            }
            "r" | "direction" => {
                self.expect(TokenKind::Eq);
                let (value, span) = self.expect_ident()?;
                Some(StreamArg::Direction(value.to_string(), span))
            }
            "x" | "synchronicity" => {
                self.expect(TokenKind::Eq);
                let (value, span) = self.expect_ident()?;
                Some(StreamArg::Synchronicity(value.to_string(), span))
            }
            "u" | "user" => {
                self.expect(TokenKind::Eq);
                self.type_expr().map(StreamArg::User)
            }
            "keep" => {
                if self.eat(TokenKind::Eq) {
                    self.expr().map(StreamArg::Keep)
                } else {
                    Some(StreamArg::Keep(Expr::Bool(true, key_span)))
                }
            }
            other => {
                self.report(format!("unknown stream parameter `{other}`"), key_span);
                None
            }
        }
    }

    // ---- expressions --------------------------------------------------------

    /// One expression; each is one nesting level, so parentheses,
    /// array literals, index brackets and call arguments all count.
    fn expr(&mut self) -> Option<Expr> {
        self.expr_from(0)
    }

    /// An expression built only from operators of `min_level` or
    /// tighter. Template value arguments start at [`ADDITIVE`], so a
    /// bare `>` always closes the argument list (parenthesize
    /// comparisons).
    fn expr_from(&mut self, min_level: u8) -> Option<Expr> {
        self.nested(|p| p.binary(min_level))
    }

    /// Precedence climbing without recursion: operands alternate with
    /// operators, and `open` holds the chains still waiting for an
    /// operand, tighter levels on top. Every run of operators of one
    /// level becomes one [`Expr::Chain`], so `a + b - c + ...` is one
    /// flat node however long it is. `^` is right-associative: each
    /// `^` after another opens a chain nested one level deeper.
    fn binary(&mut self, min_level: u8) -> Option<Expr> {
        let mut open = Vec::new();
        let mut operand = self.operand()?;
        while let Some((op, level)) = binop(self.peek()) {
            if level < min_level {
                break;
            }
            self.bump();
            if !self.shift(&mut open, operand, op, level) {
                return None;
            }
            operand = self.operand()?;
        }
        Some(close_all(open, operand))
    }

    /// Takes `operand` and the operator `op` after it: closes the open
    /// chains that bind tighter, then extends the chain of `op`'s level
    /// or opens one. False when a `^` run nests too deep.
    fn shift(&mut self, open: &mut Vec<OpenChain>, operand: Expr, op: BinOp, level: u8) -> bool {
        let mut operand = operand;
        while open.last().is_some_and(|top| top.level > level) {
            operand = open.pop().expect("checked").close(operand);
        }
        match open.last_mut() {
            Some(top) if top.level == level && level != POWER => {
                top.rest.push((top.op, operand));
                top.op = op;
            }
            top => {
                if top.is_some_and(|top| top.level == POWER) && !self.enter() {
                    return false;
                }
                open.push(OpenChain {
                    first: operand,
                    rest: Vec::new(),
                    op,
                    level,
                });
            }
        }
        true
    }

    /// An operand: prefix `-`/`!` operators, a primary expression, and
    /// its `[index]` postfixes. Each prefix and each postfix wraps the
    /// tree one level deeper, so each holds a nesting level until the
    /// operand is complete.
    fn operand(&mut self) -> Option<Expr> {
        self.scoped(Self::operand_levels)
    }

    fn operand_levels(&mut self) -> Option<Expr> {
        let prefixes = self.prefix_operators()?;
        let primary = self.primary()?;
        let operand = self.index_postfixes(primary)?;
        Some(wrap_prefixes(prefixes, operand))
    }

    /// Consumes a run of prefix `-`/`!`, one nesting level each.
    fn prefix_operators(&mut self) -> Option<Vec<(UnaryOp, Span)>> {
        let mut prefixes = Vec::new();
        loop {
            let op = match self.peek() {
                TokenKind::Minus => UnaryOp::Neg,
                TokenKind::Bang => UnaryOp::Not,
                _ => return Some(prefixes),
            };
            prefixes.push((op, self.peek_span()));
            self.bump();
            if !self.enter() {
                return None;
            }
        }
    }

    /// `base[i][j]...`, one nesting level per index.
    fn index_postfixes(&mut self, base: Expr) -> Option<Expr> {
        let mut base = base;
        while self.eat(TokenKind::LBracket) {
            if !self.enter() {
                return None;
            }
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

    fn primary(&mut self) -> Option<Expr> {
        let span = self.peek_span();
        match self.token.kind {
            TokenKind::Int(v) => {
                self.bump();
                Some(Expr::Int(v, span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Some(Expr::Float(v, span))
            }
            TokenKind::Str(_) => self.eat_str().map(|s| Expr::Str(s, span)),
            TokenKind::LBracket => self.array_literal(span),
            TokenKind::LParen => self.paren_or_range(span),
            TokenKind::Ident(word) => self.name_or_call(word, span),
            _ => {
                self.expected_expression();
                None
            }
        }
    }

    fn expected_expression(&mut self) {
        self.error_here(format!("expected expression, found {}", self.peek()));
    }

    /// `[a, b, ...]`, from its `[` (a trailing comma is allowed).
    fn array_literal(&mut self, span: Span) -> Option<Expr> {
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

    /// `(expr)` or a range `(start..end)` / `(start..end step s)`,
    /// from its `(`.
    fn paren_or_range(&mut self, span: Span) -> Option<Expr> {
        self.bump();
        let first = self.expr()?;
        if !self.eat(TokenKind::DotDot) {
            self.expect(TokenKind::RParen);
            return Some(first);
        }
        self.range_rest(first, span)
    }

    /// The rest of a range after its `..`.
    fn range_rest(&mut self, first: Expr, span: Span) -> Option<Expr> {
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
    }

    /// A boolean literal, a name, a builtin call or
    /// `clockdomain("name")`, from the identifier.
    fn name_or_call(&mut self, word: &str, span: Span) -> Option<Expr> {
        self.bump();
        match word {
            "true" => return Some(Expr::Bool(true, span)),
            "false" => return Some(Expr::Bool(false, span)),
            _ => {}
        }
        if !self.eat(TokenKind::LParen) {
            return Some(Expr::Ident(word.to_string(), span));
        }
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
        self.call(word, args, span)
    }

    fn call(&mut self, word: &str, mut args: Vec<Expr>, span: Span) -> Option<Expr> {
        if word == "clockdomain" {
            if let [Expr::Str(name, _)] = args.as_mut_slice() {
                return Some(Expr::Clock(std::mem::take(name), span));
            }
            self.report("clockdomain(...) takes a single string literal", span);
            return None;
        }
        Some(Expr::Call {
            name: word.to_string(),
            args,
            span,
        })
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
        let body_end = self.prev_span.start.max(body_start).min(self.source.len());
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
            let Some(name) = self.expect_name() else {
                return;
            };
            self.expect(TokenKind::Eq);
            let init = self.eat_str().unwrap_or_else(|| {
                self.error_here(format!(
                    "state initializer must be a string, found {}",
                    self.peek()
                ));
                String::new()
            });
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

    /// The simulation AST has binary nodes, not chains: each left fold
    /// nests the tree one level deeper, so each takes a nesting level.
    fn sim_event(&mut self) -> Option<SimEvent> {
        self.scoped(|p| {
            let mut lhs = p.sim_event_and()?;
            while p.eat(TokenKind::OrOr) {
                let rhs = p.sim_event_and()?;
                if !p.enter() {
                    return None;
                }
                lhs = SimEvent::Or(Box::new(lhs), Box::new(rhs));
            }
            Some(lhs)
        })
    }

    fn sim_event_and(&mut self) -> Option<SimEvent> {
        self.scoped(|p| {
            let mut lhs = p.sim_event_unary()?;
            while p.eat(TokenKind::AndAnd) {
                let rhs = p.sim_event_unary()?;
                if !p.enter() {
                    return None;
                }
                lhs = SimEvent::And(Box::new(lhs), Box::new(rhs));
            }
            Some(lhs)
        })
    }

    fn sim_event_unary(&mut self) -> Option<SimEvent> {
        if self.eat(TokenKind::Bang) {
            let inner = self.nested(Self::sim_event_unary)?;
            return Some(SimEvent::Not(Box::new(inner)));
        }
        if self.eat(TokenKind::LParen) {
            let inner = self.nested(Self::sim_event)?;
            self.expect(TokenKind::RParen);
            return Some(inner);
        }
        self.port_event()
    }

    /// `port.recv`, `port.ack`, `state == "v"` or `state != "v"`.
    fn port_event(&mut self) -> Option<SimEvent> {
        let name = self.expect_name()?;
        if self.eat(TokenKind::Dot) {
            let (what, what_span) = self.expect_ident()?;
            match what {
                "recv" => Some(SimEvent::Recv(name)),
                "ack" => Some(SimEvent::Ack(name)),
                other => {
                    self.report(
                        format!("unknown port event `.{other}` (expected .recv or .ack)"),
                        what_span,
                    );
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
        let value = self.eat_str();
        if value.is_none() {
            self.error_here(format!("expected string literal, found {}", self.peek()));
        }
        value
    }

    /// A handler or branch body after its `{`, through the `}`.
    fn sim_actions_until_rbrace(&mut self) -> Vec<SimAction> {
        self.nested(|p| Some(p.sim_actions_inner()))
            .unwrap_or_default()
    }

    fn sim_actions_inner(&mut self) -> Vec<SimAction> {
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

    /// One handler action. Each kind of nested body has its own
    /// function, so nested `if`/`for` stack only small frames.
    fn sim_action(&mut self) -> Option<SimAction> {
        if self.eat_keyword("if") {
            self.sim_if()
        } else if self.eat_keyword("for") {
            self.sim_for()
        } else {
            self.sim_simple_action()
        }
    }

    fn sim_if(&mut self) -> Option<SimAction> {
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
        Some(SimAction::If {
            cond,
            then_actions,
            else_actions,
        })
    }

    fn sim_for(&mut self) -> Option<SimAction> {
        let var = self.expect_name()?;
        self.expect_keyword("in");
        self.expect(TokenKind::LParen);
        let start = self.sim_expr()?;
        self.expect(TokenKind::DotDot);
        let end = self.sim_expr()?;
        self.expect(TokenKind::RParen);
        self.expect(TokenKind::LBrace);
        let body = self.sim_actions_until_rbrace();
        Some(SimAction::For {
            var,
            start,
            end,
            body,
        })
    }

    /// `send`, `last`, `ack`, `delay` or `set_state`.
    fn sim_simple_action(&mut self) -> Option<SimAction> {
        if self.eat_keyword("send") {
            self.expect(TokenKind::LParen);
            let port = self.expect_name()?;
            self.expect(TokenKind::Comma);
            let expr = self.sim_expr()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::Send { port, expr });
        }
        if self.eat_keyword("last") {
            self.expect(TokenKind::LParen);
            let port = self.expect_name()?;
            let levels = if self.eat(TokenKind::Comma) {
                match self.token.kind {
                    TokenKind::Int(v) if v > 0 => {
                        self.bump();
                        v as u32
                    }
                    _ => {
                        self.error_here(format!(
                            "expected positive level count, found {}",
                            self.peek()
                        ));
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
            let port = self.expect_name()?;
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
            let name = self.expect_name()?;
            self.expect(TokenKind::Comma);
            let value = self.sim_string()?;
            self.expect(TokenKind::RParen);
            self.terminator();
            return Some(SimAction::SetState(name, value));
        }
        self.error_here(format!(
            "expected a simulation action (send/last/ack/delay/set_state/if/for), found {}",
            self.peek()
        ));
        None
    }

    /// A simulation expression, one nesting level.
    fn sim_expr(&mut self) -> Option<SimExpr> {
        self.nested(|p| p.sim_expr_bin(0))
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
            let rhs = self.scoped(|p| p.sim_expr_bin(level + 1))?;
            if !self.enter() {
                return None;
            }
            lhs = SimExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn sim_expr_unary(&mut self) -> Option<SimExpr> {
        let unary: fn(Box<SimExpr>) -> SimExpr = match self.peek() {
            TokenKind::Minus => SimExpr::Neg,
            TokenKind::Bang => SimExpr::Not,
            _ => return self.sim_expr_primary(),
        };
        self.bump();
        let operand = self.nested(Self::sim_expr_unary)?;
        Some(unary(Box::new(operand)))
    }

    fn sim_expr_primary(&mut self) -> Option<SimExpr> {
        let span = self.peek_span();
        match self.token.kind {
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
                self.sim_name(name.to_string(), span)
            }
            _ => {
                self.error_here(format!(
                    "expected simulation expression, found {}",
                    self.peek()
                ));
                None
            }
        }
    }

    /// A variable, `port.data` or `port.data.field`, after the name.
    fn sim_name(&mut self, name: String, span: Span) -> Option<SimExpr> {
        if !self.eat(TokenKind::Dot) {
            return Some(SimExpr::Var(name));
        }
        let (what, _) = self.expect_ident()?;
        if what != "data" {
            self.report(format!("expected `.data`, found `.{what}`"), span);
            return None;
        }
        if self.eat(TokenKind::Dot) {
            let field = self.expect_name()?;
            Some(SimExpr::Field(name, field))
        } else {
            Some(SimExpr::Data(name))
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

    /// The initializer of the first `const` in `src`.
    fn const_value(src: &str) -> Expr {
        match &*parse_ok(src).decls[0] {
            Decl::Const(c) => c.value.clone(),
            other => panic!("{other:?}"),
        }
    }

    /// The operators of a chain, and its operands.
    fn chain(e: &Expr) -> (Vec<BinOp>, Vec<&Expr>) {
        let Expr::Chain { first, rest, .. } = e else {
            panic!("expected a chain, got {e:?}")
        };
        let ops = rest.iter().map(|(op, _)| *op).collect();
        let operands = std::iter::once(&**first)
            .chain(rest.iter().map(|(_, x)| x))
            .collect();
        (ops, operands)
    }

    #[test]
    fn expression_precedence() {
        // 1 + (2 * (3 ^ 2))
        let value = const_value("package t;\nconst x = 1 + 2 * 3 ^ 2;");
        let (ops, operands) = chain(&value);
        assert_eq!(ops, [BinOp::Add]);
        let (ops, operands) = chain(operands[1]);
        assert_eq!(ops, [BinOp::Mul]);
        let (ops, _) = chain(operands[1]);
        assert_eq!(ops, [BinOp::Pow]);
    }

    #[test]
    fn same_level_operators_form_one_chain() {
        let value = const_value("package t;\nconst x = a - b + c * d / e % f + g;");
        let (ops, operands) = chain(&value);
        assert_eq!(ops, [BinOp::Sub, BinOp::Add, BinOp::Add]);
        let (ops, _) = chain(operands[2]);
        assert_eq!(ops, [BinOp::Mul, BinOp::Div, BinOp::Rem]);
        assert_eq!(value.span(), Span::new(0, 21, 46));
        // Comparison and boolean levels chain the same way; a lower
        // level's chain takes the higher one's as an operand.
        let value = const_value("package t;\nconst x = a < b <= c || d && e && f || g;");
        let (ops, operands) = chain(&value);
        assert_eq!(ops, [BinOp::Or, BinOp::Or]);
        assert_eq!(chain(operands[0]).0, [BinOp::Lt, BinOp::Le]);
        assert_eq!(chain(operands[1]).0, [BinOp::And, BinOp::And]);
    }

    #[test]
    fn power_nests_to_the_right() {
        // 2 ^ (3 ^ 2), each `^` a chain of one.
        let value = const_value("package t;\nconst x = 2 ^ 3 ^ 2;");
        let (ops, operands) = chain(&value);
        assert_eq!(ops, [BinOp::Pow]);
        assert!(matches!(operands[0], Expr::Int(2, _)));
        assert_eq!(chain(operands[1]).0, [BinOp::Pow]);
    }

    #[test]
    fn template_value_arguments_stop_at_comparisons() {
        let p = parse_ok("package t;\nimpl x of s<1 + 2 * 3, (a > b)> { }");
        let Decl::Impl(i) = &*p.decls[0] else {
            panic!()
        };
        assert_eq!(i.streamlet.args.len(), 2);
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
