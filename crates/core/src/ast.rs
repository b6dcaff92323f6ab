//! Abstract syntax tree for Tydi-lang.
//!
//! One [`Package`] per source file (files sharing a `package` name are
//! merged before elaboration). The AST mirrors the surface syntax; all
//! evaluation, template instantiation and generative expansion happens
//! in [`crate::instantiate`].

use crate::sim_ast::SimBlock;
use crate::span::Span;
use std::sync::Arc;

/// Binary operators, lowest precedence first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `^` (power, as in the paper's `10^15`)
    Pow,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Expressions of the variable/math system (paper §IV-A).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Float literal.
    Float(f64, Span),
    /// String literal.
    Str(String, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Clock domain literal `!name`.
    Clock(String, Span),
    /// Variable reference.
    Ident(String, Span),
    /// Array literal `[a, b, c]`.
    Array(Vec<Expr>, Span),
    /// Range `(start..end)` or `(start..end step s)`, end exclusive.
    Range {
        /// First value (inclusive).
        start: Box<Expr>,
        /// End bound (exclusive).
        end: Box<Expr>,
        /// Step (default 1).
        step: Option<Box<Expr>>,
        /// Source range.
        span: Span,
    },
    /// Indexing `base[index]`.
    Index {
        /// Array expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source range.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source range.
        span: Span,
    },
    /// A chain of binary operations: `first op1 x1 op2 x2 ...`, one
    /// node for a whole run of operators of one precedence level,
    /// meaning `((first op1 x1) op2 x2) ...` (left-associative). A
    /// single `a + b` is a chain of length 1; `rest` is never empty.
    /// `^` is right-associative, so each `^` chain has length 1 and
    /// `a ^ b ^ c` nests as `a ^ (b ^ c)`. A long `a + b + ...` is
    /// flat, so passes over the tree recurse only as deep as the
    /// source nests parentheses and operators of different levels.
    Chain {
        /// Leftmost operand.
        first: Box<Expr>,
        /// Each operator with its right operand, left to right.
        rest: Vec<(BinOp, Expr)>,
        /// Source range of the whole chain.
        span: Span,
    },
    /// Builtin function call (`ceil`, `log2`, `pow`, `len`, ...).
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source range.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Float(_, s)
            | Expr::Str(_, s)
            | Expr::Bool(_, s)
            | Expr::Clock(_, s)
            | Expr::Ident(_, s)
            | Expr::Array(_, s) => *s,
            Expr::Range { span, .. }
            | Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Chain { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }
}

/// Type expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `Null`
    Null(Span),
    /// `Bit(expr)`
    Bit(Box<Expr>, Span),
    /// A named type (alias, Group/Union declaration, or a `type`
    /// template parameter).
    Ref(String, Span),
    /// `Stream(element, args...)`
    Stream {
        /// Element type.
        element: Box<TypeExpr>,
        /// Stream parameters.
        args: Vec<StreamArg>,
        /// Source range.
        span: Span,
    },
}

impl TypeExpr {
    /// The source span of the type expression.
    pub fn span(&self) -> Span {
        match self {
            TypeExpr::Null(s) | TypeExpr::Bit(_, s) | TypeExpr::Ref(_, s) => *s,
            TypeExpr::Stream { span, .. } => *span,
        }
    }
}

/// One keyword argument of a `Stream(...)` type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamArg {
    /// `d = expr`
    Dimension(Expr),
    /// `t = expr`
    Throughput(Expr),
    /// `c = expr`
    Complexity(Expr),
    /// `r = Forward | Reverse`
    Direction(String, Span),
    /// `x = Sync | Flatten | Desync | FlatDesync`
    Synchronicity(String, Span),
    /// `u = type`
    User(TypeExpr),
    /// `keep = expr`
    Keep(Expr),
}

/// Kinds of `const` variables (paper §IV-A: integer, float, string,
/// boolean and clock domain, plus arrays of these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarKind {
    /// `int`
    Int,
    /// `float`
    Float,
    /// `string`
    Str,
    /// `bool`
    Bool,
    /// `clockdomain`
    Clock,
    /// `[kind]`
    Array(Box<VarKind>),
}

/// A `const` declaration (all Tydi-lang variables are immutable).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDecl {
    /// Variable name.
    pub name: String,
    /// Optional declared kind; inferred when absent.
    pub kind: Option<VarKind>,
    /// Initializer.
    pub value: Expr,
    /// Source range.
    pub span: Span,
}

/// A template parameter (paper §IV-B: variables, logical types, and
/// implementations of a given streamlet).
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateParam {
    /// Parameter name.
    pub name: String,
    /// Parameter kind.
    pub kind: TemplateParamKind,
    /// Source range.
    pub span: Span,
}

/// Kinds of template parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateParamKind {
    /// `name: int`
    Int,
    /// `name: float`
    Float,
    /// `name: string`
    Str,
    /// `name: bool`
    Bool,
    /// `name: clockdomain`
    Clock,
    /// `name: type`
    Type,
    /// `name: impl of <streamlet>` — only implementations derived from
    /// the named streamlet (template) are accepted.
    ImplOf(String),
}

/// A reference to a (possibly templated) streamlet or implementation:
/// `name` or `name<arg, type T, impl x>`.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedRef {
    /// Base name.
    pub name: String,
    /// Template arguments (empty for plain references).
    pub args: Vec<TemplateArgExpr>,
    /// Source range.
    pub span: Span,
}

impl NamedRef {
    /// A plain (argument-less) reference.
    pub fn plain(name: impl Into<String>, span: Span) -> Self {
        NamedRef {
            name: name.into(),
            args: Vec::new(),
            span,
        }
    }
}

/// One template argument at an instantiation site.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateArgExpr {
    /// A value argument (int/float/string/bool/clockdomain).
    Value(Expr),
    /// `type <type-expr>`
    Type(TypeExpr),
    /// `impl <ref>`
    Impl(NamedRef),
}

/// Clock annotation on a port.
#[derive(Debug, Clone, PartialEq)]
pub enum ClockSpec {
    /// `!name`
    Named(String, Span),
    /// `!(expr)` where the expression evaluates to a clockdomain.
    Expr(Expr),
}

/// A port declaration inside a streamlet.
#[derive(Debug, Clone, PartialEq)]
pub struct PortDecl {
    /// Port name.
    pub name: String,
    /// Logical type (must elaborate to a `Stream`).
    pub ty: TypeExpr,
    /// Port direction.
    pub direction: PortDir,
    /// Optional array size: `name : T in [n]` expands to `name_0 ..
    /// name_{n-1}`.
    pub array: Option<Expr>,
    /// Optional clock domain annotation.
    pub clock: Option<ClockSpec>,
    /// Source range.
    pub span: Span,
}

/// Port direction keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// `in`
    In,
    /// `out`
    Out,
}

/// A streamlet declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamletDecl {
    /// Streamlet name.
    pub name: String,
    /// Template parameters (empty for concrete streamlets).
    pub params: Vec<TemplateParam>,
    /// Port declarations.
    pub ports: Vec<PortDecl>,
    /// Attributes (`@...`).
    pub attributes: Vec<Attribute>,
    /// Doc comment text.
    pub doc: String,
    /// Source range.
    pub span: Span,
}

/// An attribute: `@name` or `@name(expr)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Optional argument.
    pub arg: Option<Expr>,
    /// Source range.
    pub span: Span,
}

/// Statements inside a normal implementation body.
///
/// Statements are walked in place during elaboration, so the variants
/// stay unboxed; the expressions that are rarely present (instance
/// array sizes, endpoint indices) are boxed to keep the common
/// connection and instance statements small.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `instance name(impl_ref)` or `instance name(impl_ref) [n]`.
    Instance {
        /// Instance name.
        name: String,
        /// The implementation to instantiate.
        impl_ref: NamedRef,
        /// Optional array size (boxed: rarely present).
        array: Option<Box<Expr>>,
        /// Source range.
        span: Span,
    },
    /// `src => dst`.
    Connect {
        /// Source endpoint.
        src: EndpointExpr,
        /// Sink endpoint.
        dst: EndpointExpr,
        /// Source range.
        span: Span,
    },
    /// Generative loop (paper Table II).
    For {
        /// Loop variable.
        var: String,
        /// Array or range to iterate.
        iterable: Expr,
        /// Body statements, expanded once per element.
        body: Vec<Stmt>,
        /// Source range.
        span: Span,
    },
    /// Conditional generation (paper Table II).
    If {
        /// Condition (must evaluate to bool).
        cond: Expr,
        /// Statements generated when true.
        body: Vec<Stmt>,
        /// Statements generated when false.
        else_body: Vec<Stmt>,
        /// Source range.
        span: Span,
    },
    /// `assert(expr)` / `assert(expr, "message")` (paper Table II).
    Assert {
        /// Condition that must hold.
        expr: Expr,
        /// Optional message.
        message: Option<Expr>,
        /// Source range.
        span: Span,
    },
    /// A local `const` (scoped to the surrounding body; shadowing
    /// allowed, paper §IV-A).
    Const(ConstDecl),
}

/// A connection endpoint: `port`, `port[i]`, `inst.port`,
/// `inst[i].port[j]`, ...
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointExpr {
    /// Instance name plus optional index; `None` for own ports.
    pub instance: Option<(String, Option<Box<Expr>>)>,
    /// Port name.
    pub port: String,
    /// Optional port array index.
    pub port_index: Option<Box<Expr>>,
    /// Source range.
    pub span: Span,
}

/// Implementation body.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplBody {
    /// Instances and connections.
    Normal(Vec<Stmt>),
    /// `external`, optionally with event-driven simulation code
    /// (paper §V-A).
    External {
        /// Parsed simulation block, when present.
        simulation: Option<SimBlock>,
    },
}

/// An implementation declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplDecl {
    /// Implementation name.
    pub name: String,
    /// Template parameters (empty for concrete impls).
    pub params: Vec<TemplateParam>,
    /// The streamlet this implements.
    pub streamlet: NamedRef,
    /// Body.
    pub body: ImplBody,
    /// Attributes (`@builtin("std.duplicator")`, `@NoStrictType`, ...).
    pub attributes: Vec<Attribute>,
    /// Doc comment text.
    pub doc: String,
    /// Source range.
    pub span: Span,
}

/// Top-level declarations.
///
/// The variant sizes are deliberately unboxed: declarations are parsed
/// once and immediately stored in package tables, so the clarity of
/// direct pattern matching outweighs the enum size.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `const ...`
    Const(ConstDecl),
    /// `type Name = <type-expr>;`
    TypeAlias {
        /// Alias name.
        name: String,
        /// Aliased type.
        ty: TypeExpr,
        /// Source range.
        span: Span,
    },
    /// `Group Name { field: type, ... }`
    Group {
        /// Group name.
        name: String,
        /// Fields.
        fields: Vec<(String, TypeExpr)>,
        /// Source range.
        span: Span,
    },
    /// `Union Name { field: type, ... }`
    Union {
        /// Union name.
        name: String,
        /// Variants.
        fields: Vec<(String, TypeExpr)>,
        /// Source range.
        span: Span,
    },
    /// A streamlet declaration.
    Streamlet(StreamletDecl),
    /// An implementation declaration.
    Impl(ImplDecl),
    /// A top-level assertion, checked once at elaboration.
    Assert {
        /// Condition that must hold.
        expr: Expr,
        /// Optional message.
        message: Option<Expr>,
        /// Source range.
        span: Span,
    },
}

impl Decl {
    /// The declared name, if the declaration introduces one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Decl::Const(c) => Some(&c.name),
            Decl::TypeAlias { name, .. } | Decl::Group { name, .. } | Decl::Union { name, .. } => {
                Some(name)
            }
            Decl::Streamlet(s) => Some(&s.name),
            Decl::Impl(i) => Some(&i.name),
            Decl::Assert { .. } => None,
        }
    }
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    /// Package name from the `package` header.
    pub name: String,
    /// Imported package names (`use x;`).
    pub uses: Vec<String>,
    /// Declarations in order. Shared, so handing a cached package to
    /// elaboration copies one pointer per declaration, not the tree.
    pub decls: Vec<Arc<Decl>>,
    /// Source range of the header.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_spans() {
        let e = Expr::Int(3, Span::new(0, 5, 6));
        assert_eq!(e.span(), Span::new(0, 5, 6));
        let b = Expr::Chain {
            first: Box::new(e.clone()),
            rest: vec![(BinOp::Add, e)],
            span: Span::new(0, 5, 10),
        };
        assert_eq!(b.span().end, 10);
    }

    /// Connections and instances are most of a large design's
    /// statements; their rarely present index and size expressions are
    /// boxed to keep them small.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn statement_nodes_stay_small() {
        assert_eq!(std::mem::size_of::<Expr>(), 72);
        assert_eq!(std::mem::size_of::<EndpointExpr>(), 88);
        assert_eq!(std::mem::size_of::<Stmt>(), 200);
    }

    #[test]
    fn decl_names() {
        let d = Decl::TypeAlias {
            name: "T".into(),
            ty: TypeExpr::Null(Span::synthetic()),
            span: Span::synthetic(),
        };
        assert_eq!(d.name(), Some("T"));
        let a = Decl::Assert {
            expr: Expr::Bool(true, Span::synthetic()),
            message: None,
            span: Span::synthetic(),
        };
        assert_eq!(a.name(), None);
    }
}
