//! Elaboration: evaluation, template instantiation and generative
//! expansion (paper Fig. 3, code structures #1 through #3).
//!
//! The elaborator walks every concrete (non-template) implementation,
//! lazily evaluating constants and types, instantiating streamlet and
//! implementation templates on demand, expanding `for`/`if` generative
//! statements and port/instance arrays, and emitting a
//! [`tydi_ir::Project`] directly. It runs on one thread: packages
//! elaborate in input order straight into the final project, sharing
//! one set of template caches and one [`TypeStore`].
//!
//! ## Hash-consed types and O(1) template identity
//!
//! Every logical type is built through the session's
//! [`TypeStore`]: structurally equal types share one [`TypeId`] (and
//! one `Arc<LogicalType>` allocation), so
//!
//! * the template-instantiation memo keys on `(declaration,
//!   argument ids/values)` — **no mangled type strings are built on
//!   the hot path**; the human-readable mangled instance name is
//!   produced once per cache miss from the store's cached text;
//! * repeated references to the same instantiation cost a handful of
//!   integer hashes regardless of how deep the argument types are;
//! * IR ports of equal types share their `Arc`, which the DRC exploits
//!   with a pointer-equality fast path.
//!
//! Declarations are stored as [`Arc<Decl>`] and resolved by cloning
//! the handle, never by deep-cloning whole declaration trees per
//! reference. The elaborated IR of every cookbook design is pinned by
//! `tests/golden/ir/`.

use crate::ast::*;
use crate::diagnostics::Diagnostic;
use crate::eval::{eval_expr, EvalError, Resolver};
use crate::scope::ScopeFrames;
use crate::span::Span;
use crate::value::{ImplValue, TypeValue, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tydi_ir::{
    Connection, EndpointRef, Implementation, Instance, Port, PortDirection, Project, Streamlet,
};
use tydi_spec::{
    ClockDomain, Complexity, Direction, LogicalType, StreamParams, Synchronicity, Throughput,
    TypeId, TypeStore, TypeStoreStats,
};

/// Side information the later pipeline stages need.
#[derive(Debug, Clone, Default)]
pub struct ElabInfo {
    /// Interner backing the span table keys: implementation names and
    /// connection descriptions are stored once as [`Symbol`]s instead
    /// of owned string pairs per connection.
    ///
    /// [`Symbol`]: tydi_ir::Symbol
    span_keys: tydi_ir::Interner,
    /// Span of each connection, keyed by interned
    /// `(impl name, "src => sink")` symbols, used to attach source
    /// locations to DRC findings.
    connection_spans: HashMap<(tydi_ir::Symbol, tydi_ir::Symbol), Span>,
    /// Declaration span of each elaborated implementation, keyed by
    /// its interned IR name, used to point analyzer hazards at the
    /// impl that declared the hazardous structure.
    impl_spans: HashMap<tydi_ir::Symbol, Span>,
    /// Number of template instantiations performed (cache misses).
    pub template_instantiations: usize,
    /// Number of template cache hits.
    pub template_cache_hits: usize,
    /// Hash-consing statistics of the session type store: distinct
    /// nodes interned, dedup hits, cached-expansion reuse.
    pub type_store: TypeStoreStats,
}

impl ElabInfo {
    /// An info carrying only template statistics — the shape restored
    /// from the on-disk artifact cache, where connection spans are not
    /// persisted (they are only consulted when the DRC fails, and
    /// cached artifacts passed the DRC).
    pub fn with_template_counts(instantiations: usize, cache_hits: usize) -> Self {
        ElabInfo {
            template_instantiations: instantiations,
            template_cache_hits: cache_hits,
            ..ElabInfo::default()
        }
    }

    /// Records the source span of a connection.
    pub fn record_connection_span(&mut self, impl_name: &str, connection: &str, span: Span) {
        let key = (
            self.span_keys.intern(impl_name),
            self.span_keys.intern(connection),
        );
        self.connection_spans.insert(key, span);
    }

    /// The source span of a connection, when known. Read-only: unknown
    /// names are not interned.
    pub fn connection_span(&self, impl_name: &str, connection: &str) -> Option<Span> {
        let key = (
            self.span_keys.get(impl_name)?,
            self.span_keys.get(connection)?,
        );
        self.connection_spans.get(&key).copied()
    }

    /// Number of recorded connection spans.
    pub fn connection_span_count(&self) -> usize {
        self.connection_spans.len()
    }

    /// Records the declaration span of an elaborated implementation.
    pub fn record_impl_span(&mut self, impl_name: &str, span: Span) {
        let key = self.span_keys.intern(impl_name);
        self.impl_spans.insert(key, span);
    }

    /// The declaration span of an elaborated implementation, when
    /// known. Cache-restored infos carry no spans (see
    /// [`ElabInfo::with_template_counts`]); callers fall back to
    /// span-less reporting.
    pub fn impl_span(&self, impl_name: &str) -> Option<Span> {
        let key = self.span_keys.get(impl_name)?;
        self.impl_spans.get(&key).copied()
    }
}

/// Elaborates merged packages into an IR project: one package after
/// the other in input order, each concrete impl and streamlet in
/// declaration order, with templates instantiated on first reference.
pub fn elaborate(
    packages: Vec<Package>,
    project_name: &str,
) -> (Project, ElabInfo, Vec<Diagnostic>) {
    let (packages, package_index, diagnostics) = merge_packages(packages);
    let mut elab = Elaborator {
        packages,
        package_index,
        project: Project::new(project_name),
        info: ElabInfo::default(),
        diagnostics,
        types: TypeStore::new(),
        value_cache: HashMap::new(),
        evaluating: HashSet::new(),
        streamlet_cache: HashMap::new(),
        impl_cache: HashMap::new(),
        locals: ScopeFrames::new(),
        current_package: 0,
    };
    for pkg_idx in 0..elab.packages.len() {
        let _span =
            tydi_obs::trace::span_named("core", || format!("elab:{}", elab.packages[pkg_idx].name));
        elab.run_package(pkg_idx);
    }
    elab.info.type_store = elab.types.stats();
    (elab.project, elab.info, elab.diagnostics)
}

/// Merges parsed packages by name (later files extend earlier ones),
/// reporting duplicate declarations within a package.
fn merge_packages(
    packages: Vec<Package>,
) -> (Vec<MergedPackage>, HashMap<String, usize>, Vec<Diagnostic>) {
    let mut merged: Vec<MergedPackage> = Vec::new();
    let mut package_index = HashMap::new();
    let mut diagnostics = Vec::new();
    for package in packages {
        let idx = match package_index.get(&package.name) {
            Some(&i) => i,
            None => {
                package_index.insert(package.name.clone(), merged.len());
                merged.push(MergedPackage {
                    name: package.name.clone(),
                    uses: Vec::new(),
                    decls: Vec::new(),
                    index: HashMap::new(),
                });
                merged.len() - 1
            }
        };
        let target = &mut merged[idx];
        for used in package.uses {
            if !target.uses.contains(&used) {
                target.uses.push(used);
            }
        }
        for decl in package.decls {
            if let Some(name) = decl.name() {
                if target.index.contains_key(name) {
                    diagnostics.push(Diagnostic::error(
                        "evaluate",
                        format!(
                            "duplicate declaration `{name}` in package `{}`",
                            target.name
                        ),
                        decl_span(&decl),
                    ));
                    continue;
                }
                target.index.insert(name.to_string(), target.decls.len());
            }
            target.decls.push(decl);
        }
    }
    (merged, package_index, diagnostics)
}

/// A declaration's identity: owning package plus index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DeclId {
    package: usize,
    decl: usize,
}

/// A template memo key: the declaration plus its evaluated argument
/// list in compact form. Type arguments key on their [`TypeId`] —
/// hashing one is an integer op, however deep the tree behind it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ArgKey {
    Int(i64),
    /// Float bit pattern (mangling distinguishes `1` from `1.0` too).
    Float(u64),
    Str(String),
    Bool(bool),
    Clock(String),
    Array(Vec<ArgKey>),
    Type(TypeId),
    Impl(Arc<str>),
}

impl ArgKey {
    fn of(value: &Value) -> ArgKey {
        match value {
            Value::Int(v) => ArgKey::Int(*v),
            Value::Float(v) => ArgKey::Float(v.to_bits()),
            Value::Str(s) => ArgKey::Str(s.clone()),
            Value::Bool(b) => ArgKey::Bool(*b),
            Value::Clock(c) => ArgKey::Clock(c.name().to_string()),
            Value::Array(items) => ArgKey::Array(items.iter().map(ArgKey::of).collect()),
            Value::Type(t) => ArgKey::Type(t.id),
            Value::Impl(i) => ArgKey::Impl(Arc::clone(&i.name)),
        }
    }

    fn of_bindings(bindings: &[(String, Value)]) -> Vec<ArgKey> {
        bindings.iter().map(|(_, v)| ArgKey::of(v)).collect()
    }
}

struct MergedPackage {
    name: String,
    uses: Vec<String>,
    /// Declarations behind shared handles: resolving a reference
    /// clones the `Arc`, never the tree.
    decls: Vec<Arc<Decl>>,
    index: HashMap<String, usize>,
}

/// The elaboration state of one compile: the merged ASTs, the project
/// being built, the template caches and the session type store.
struct Elaborator {
    packages: Vec<MergedPackage>,
    package_index: HashMap<String, usize>,
    project: Project,
    info: ElabInfo,
    diagnostics: Vec<Diagnostic>,
    /// The session's hash-consed type store.
    types: TypeStore,
    /// Evaluated global consts / types, keyed by declaration; `None`
    /// marks a failed evaluation whose error was already reported.
    value_cache: HashMap<DeclId, Option<Value>>,
    /// Cycle detection for lazy global evaluation.
    evaluating: HashSet<DeclId>,
    /// Elaborated streamlet templates: (decl, args) -> IR name, or
    /// `None` when elaboration failed and was reported.
    streamlet_cache: HashMap<(DeclId, Vec<ArgKey>), Option<Arc<str>>>,
    /// Elaborated implementations: (decl, args) -> value.
    impl_cache: HashMap<(DeclId, Vec<ArgKey>), ImplValue>,
    /// Local scope frames (template args, for-vars, local consts).
    locals: ScopeFrames,
    /// The package whose scope we are currently elaborating in.
    current_package: usize,
}

/// Maximum template/instantiation recursion before assuming runaway
/// recursion (e.g. a template instantiating itself).
const MAX_DEPTH: usize = 64;

impl Elaborator {
    /// Elaborates every concrete (non-template) impl and streamlet of
    /// one package, and checks its top-level asserts, in declaration
    /// order. Cross-package references are elaborated on first use.
    fn run_package(&mut self, pkg_idx: usize) {
        self.current_package = pkg_idx;
        for decl_idx in 0..self.packages[pkg_idx].decls.len() {
            let decl = Arc::clone(&self.packages[pkg_idx].decls[decl_idx]);
            let id = DeclId {
                package: pkg_idx,
                decl: decl_idx,
            };
            match &*decl {
                Decl::Assert {
                    expr,
                    message,
                    span,
                } => self.check_assert(expr, message.as_ref(), *span),
                Decl::Streamlet(s) if s.params.is_empty() => {
                    self.elaborate_streamlet(id, s, &[], 0);
                }
                Decl::Impl(i) if i.params.is_empty() => {
                    self.elaborate_impl(id, i, &[], 0);
                }
                _ => {}
            }
        }
    }

    // ---- diagnostics helpers ---------------------------------------------

    fn error(&mut self, message: impl Into<String>, span: Span) {
        self.diagnostics
            .push(Diagnostic::error("evaluate", message, Some(span)));
    }

    /// Reports an evaluation error, unless its cause already was.
    fn eval_error(&mut self, e: EvalError) {
        if !e.is_reported() {
            self.diagnostics
                .push(Diagnostic::error("evaluate", e.message, Some(e.span)));
        }
    }

    // ---- name resolution ----------------------------------------------------

    /// Finds a declaration visible from `pkg`: its own declarations
    /// first, then everything imported with `use`. No allocation on
    /// the success path — the import list is walked in place.
    fn find_decl(&mut self, pkg: usize, name: &str, span: Span) -> Option<DeclId> {
        if let Some(&decl) = self.packages[pkg].index.get(name) {
            return Some(DeclId { package: pkg, decl });
        }
        let mut found: Option<DeclId> = None;
        let mut pending: Vec<String> = Vec::new();
        let mut ambiguous = false;
        for ui in 0..self.packages[pkg].uses.len() {
            let used = self.packages[pkg].uses[ui].as_str();
            let Some(&used_idx) = self.package_index.get(used) else {
                pending.push(format!("use of unknown package `{used}`"));
                continue;
            };
            if let Some(&decl) = self.packages[used_idx].index.get(name) {
                if let Some(previous) = found {
                    let a = &self.packages[previous.package].name;
                    let b = &self.packages[used_idx].name;
                    pending.push(format!(
                        "`{name}` is ambiguous: defined in both `{a}` and `{b}`"
                    ));
                    ambiguous = true;
                    break;
                }
                found = Some(DeclId {
                    package: used_idx,
                    decl,
                });
            }
        }
        for message in pending {
            self.error(message, span);
        }
        if ambiguous {
            return None;
        }
        found
    }

    /// Lazily evaluates a global declaration to a value. A failure is
    /// reported and memoized once; later references fail silently.
    fn global_value(&mut self, id: DeclId, span: Span) -> Result<Value, EvalError> {
        if let Some(cached) = self.value_cache.get(&id) {
            return cached.clone().ok_or_else(|| EvalError::reported(span));
        }
        if !self.evaluating.insert(id) {
            let name = self.packages[id.package].decls[id.decl]
                .name()
                .unwrap_or("<unnamed>")
                .to_string();
            return Err(EvalError::new(
                format!("cyclic definition involving `{name}`"),
                span,
            ));
        }
        let saved_package = self.current_package;
        self.current_package = id.package;
        let decl = Arc::clone(&self.packages[id.package].decls[id.decl]);
        let result = match &*decl {
            Decl::Const(c) => {
                let value = eval_expr(&c.value, self);
                match value {
                    Ok(v) => self.check_var_kind(&c.name, c.kind.as_ref(), v, c.span),
                    Err(e) => Err(e),
                }
            }
            Decl::TypeAlias { name, ty, span } => {
                let qualified = format!("{}.{}", self.packages[id.package].name, name);
                self.elaborate_type(ty, 0)
                    .map(|tv| Value::Type(tv.with_origin(qualified)))
                    .map_err(|e| e.at(*span))
            }
            Decl::Group { name, fields, span } | Decl::Union { name, fields, span } => {
                let qualified = format!("{}.{}", self.packages[id.package].name, name);
                let is_group = matches!(&*decl, Decl::Group { .. });
                let mut out_fields = Vec::with_capacity(fields.len());
                let mut failed = None;
                for (field_name, field_ty) in fields {
                    match self.elaborate_type(field_ty, 0) {
                        Ok(tv) => out_fields.push((field_name.clone(), tv.id)),
                        Err(e) => {
                            failed = Some(e.at(*span));
                            break;
                        }
                    }
                }
                match failed {
                    Some(e) => Err(e),
                    None => {
                        let composed = if is_group {
                            self.types.group(out_fields)
                        } else {
                            self.types.union(out_fields)
                        };
                        match composed {
                            Ok(ty_id) => {
                                Ok(Value::Type(self.type_value(ty_id).with_origin(qualified)))
                            }
                            Err(e) => Err(EvalError::new(e.to_string(), *span)),
                        }
                    }
                }
            }
            Decl::Impl(i) if i.params.is_empty() => self
                .elaborate_impl(id, i, &[], 0)
                .map(Value::Impl)
                .ok_or_else(|| EvalError::reported(span)),
            Decl::Impl(i) => Err(EvalError::new(
                format!("`{}` is a template and needs arguments", i.name),
                span,
            )),
            Decl::Streamlet(s) => Err(EvalError::new(
                format!("`{}` is a streamlet, not a value", s.name),
                span,
            )),
            Decl::Assert { .. } => Err(EvalError::new("asserts are not values", span)),
        };
        self.current_package = saved_package;
        self.evaluating.remove(&id);
        match result {
            Ok(v) => {
                self.value_cache.insert(id, Some(v.clone()));
                Ok(v)
            }
            Err(e) => {
                self.eval_error(e);
                self.value_cache.insert(id, None);
                Err(EvalError::reported(span))
            }
        }
    }

    fn check_var_kind(
        &mut self,
        name: &str,
        kind: Option<&VarKind>,
        value: Value,
        span: Span,
    ) -> Result<Value, EvalError> {
        let Some(kind) = kind else {
            return Ok(value);
        };
        if var_kind_matches(kind, &value) {
            Ok(value)
        } else {
            Err(EvalError::new(
                format!(
                    "const `{name}` declared as {} but initializer is {}",
                    var_kind_name(kind),
                    value.kind_name()
                ),
                span,
            ))
        }
    }

    fn check_assert(&mut self, expr: &Expr, message: Option<&Expr>, span: Span) {
        match eval_expr(expr, self) {
            Ok(Value::Bool(true)) => {}
            Ok(Value::Bool(false)) => {
                let text = message
                    .and_then(|m| eval_expr(m, self).ok())
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "assertion failed".to_string());
                self.error(format!("assert failed: {text}"), span);
            }
            Ok(other) => {
                self.error(
                    format!("assert condition must be bool, got {}", other.kind_name()),
                    span,
                );
            }
            Err(e) => self.eval_error(e),
        }
    }

    // ---- types --------------------------------------------------------------

    /// Wraps an interned id as an anonymous [`TypeValue`].
    fn type_value(&self, id: TypeId) -> TypeValue {
        TypeValue::from_id(&self.types, id)
    }

    fn elaborate_type(&mut self, ty: &TypeExpr, depth: usize) -> Result<TypeValue, EvalError> {
        if depth > MAX_DEPTH {
            return Err(EvalError::new("type nesting too deep", ty.span()));
        }
        match ty {
            TypeExpr::Null(_) => {
                let id = self.types.null();
                Ok(self.type_value(id))
            }
            TypeExpr::Bit(width, span) => {
                let w = eval_expr(width, self)?;
                let w = w.as_int().ok_or_else(|| {
                    EvalError::new(
                        format!("Bit width must be an int, got {}", w.kind_name()),
                        *span,
                    )
                })?;
                if w <= 0 || w > u32::MAX as i64 {
                    return Err(EvalError::new(
                        format!("Bit width must be positive, got {w}"),
                        *span,
                    ));
                }
                let id = self
                    .types
                    .bit(w as u32)
                    .expect("positive width is always valid");
                Ok(self.type_value(id))
            }
            TypeExpr::Ref(name, span) => {
                let v = self.lookup(name, *span)?;
                match v {
                    Value::Type(tv) => Ok(tv),
                    other => Err(EvalError::new(
                        format!("`{name}` is a {}, not a type", other.kind_name()),
                        *span,
                    )),
                }
            }
            TypeExpr::Stream {
                element,
                args,
                span,
            } => {
                let element_tv = self.elaborate_type(element, depth + 1)?;
                let mut params = StreamParams::new();
                let mut user: Option<TypeId> = None;
                for arg in args {
                    match arg {
                        StreamArg::Dimension(e) => {
                            let v = eval_expr(e, self)?;
                            let d = v.as_int().ok_or_else(|| {
                                EvalError::new("dimension must be an int", e.span())
                            })?;
                            if !(0..=32).contains(&d) {
                                return Err(EvalError::new(
                                    format!("dimension must be in 0..=32, got {d}"),
                                    e.span(),
                                ));
                            }
                            params.dimension = d as u32;
                        }
                        StreamArg::Throughput(e) => {
                            let v = eval_expr(e, self)?;
                            let t = v.as_f64().ok_or_else(|| {
                                EvalError::new("throughput must be numeric", e.span())
                            })?;
                            params.throughput = Throughput::from_f64(t)
                                .map_err(|err| EvalError::new(err.to_string(), e.span()))?;
                        }
                        StreamArg::Complexity(e) => {
                            let v = eval_expr(e, self)?;
                            let c = v.as_int().ok_or_else(|| {
                                EvalError::new("complexity must be an int", e.span())
                            })?;
                            let c = u8::try_from(c)
                                .map_err(|_| EvalError::new("complexity out of range", e.span()))?;
                            params.complexity = Complexity::new(c)
                                .map_err(|err| EvalError::new(err.to_string(), e.span()))?;
                        }
                        StreamArg::Direction(word, dspan) => {
                            params.direction = match word.as_str() {
                                "Forward" => Direction::Forward,
                                "Reverse" => Direction::Reverse,
                                other => {
                                    return Err(EvalError::new(
                                        format!("unknown direction `{other}`"),
                                        *dspan,
                                    ))
                                }
                            };
                        }
                        StreamArg::Synchronicity(word, sspan) => {
                            params.synchronicity = match word.as_str() {
                                "Sync" => Synchronicity::Sync,
                                "Flatten" => Synchronicity::Flatten,
                                "Desync" => Synchronicity::Desync,
                                "FlatDesync" => Synchronicity::FlatDesync,
                                other => {
                                    return Err(EvalError::new(
                                        format!("unknown synchronicity `{other}`"),
                                        *sspan,
                                    ))
                                }
                            };
                        }
                        StreamArg::User(t) => {
                            let tv = self.elaborate_type(t, depth + 1)?;
                            user = Some(tv.id);
                        }
                        StreamArg::Keep(e) => {
                            let v = eval_expr(e, self)?;
                            params.keep = v
                                .as_bool()
                                .ok_or_else(|| EvalError::new("keep must be a bool", e.span()))?;
                        }
                    }
                }
                let id = self
                    .types
                    .stream(element_tv.id, params, user)
                    .map_err(|e| EvalError::new(e.to_string(), *span))?;
                Ok(self.type_value(id))
            }
        }
    }

    // ---- templates ----------------------------------------------------------

    /// Evaluates instantiation-site template arguments against the
    /// declared parameters, returning name/value bindings.
    fn bind_template_args(
        &mut self,
        owner: &str,
        params: &[TemplateParam],
        args: &[TemplateArgExpr],
        span: Span,
        depth: usize,
    ) -> Result<Vec<(String, Value)>, EvalError> {
        if params.len() != args.len() {
            return Err(EvalError::new(
                format!(
                    "`{owner}` expects {} template argument(s), got {}",
                    params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut bindings = Vec::with_capacity(params.len());
        for (param, arg) in params.iter().zip(args) {
            let value = match (&param.kind, arg) {
                (TemplateParamKind::Type, TemplateArgExpr::Type(t)) => {
                    Value::Type(self.elaborate_type(t, depth)?)
                }
                (TemplateParamKind::ImplOf(bound), TemplateArgExpr::Impl(r)) => {
                    let impl_value = self.evaluate_impl_ref(r, depth + 1)?;
                    if impl_value.streamlet_base.as_ref() != bound {
                        return Err(EvalError::new(
                            format!(
                                "template argument `{}` must be an impl of `{bound}`, but `{}` implements `{}`",
                                param.name, impl_value.name, impl_value.streamlet_base
                            ),
                            r.span,
                        ));
                    }
                    Value::Impl(impl_value)
                }
                (kind, TemplateArgExpr::Value(e)) => {
                    let v = eval_expr(e, self)?;
                    let ok = match kind {
                        TemplateParamKind::Int => matches!(v, Value::Int(_)),
                        TemplateParamKind::Float => v.is_numeric(),
                        TemplateParamKind::Str => matches!(v, Value::Str(_)),
                        TemplateParamKind::Bool => matches!(v, Value::Bool(_)),
                        TemplateParamKind::Clock => matches!(v, Value::Clock(_)),
                        _ => false,
                    };
                    if !ok {
                        return Err(EvalError::new(
                            format!(
                                "template argument `{}` expects {}, got {}",
                                param.name,
                                template_kind_name(kind),
                                v.kind_name()
                            ),
                            e.span(),
                        ));
                    }
                    // Widen int literals for float parameters.
                    if matches!(kind, TemplateParamKind::Float) {
                        Value::Float(v.as_f64().unwrap())
                    } else {
                        v
                    }
                }
                (kind, _) => {
                    return Err(EvalError::new(
                        format!(
                            "template argument `{}` expects {} (prefix `type`/`impl` arguments accordingly)",
                            param.name,
                            template_kind_name(kind)
                        ),
                        span,
                    ))
                }
            };
            bindings.push((param.name.clone(), value));
        }
        Ok(bindings)
    }

    /// Builds the human-readable mangled instance name. Called once
    /// per cache **miss** — cache hits never reach this. Type
    /// arguments splice in the store's cached text.
    fn mangle(&self, base: &str, bindings: &[(String, Value)]) -> String {
        if bindings.is_empty() {
            base.to_string()
        } else {
            let args: Vec<String> = bindings.iter().map(|(_, v)| v.mangle()).collect();
            format!("{base}<{}>", args.join(","))
        }
    }

    /// Resolves a streamlet reference to (IR name, base name).
    fn evaluate_streamlet_ref(
        &mut self,
        r: &NamedRef,
        depth: usize,
    ) -> Result<(Arc<str>, String), EvalError> {
        if depth > MAX_DEPTH {
            return Err(EvalError::new("instantiation recursion too deep", r.span));
        }
        let id = self
            .find_decl(self.current_package, &r.name, r.span)
            .ok_or_else(|| EvalError::new(format!("unknown streamlet `{}`", r.name), r.span))?;
        let decl = Arc::clone(&self.packages[id.package].decls[id.decl]);
        let Decl::Streamlet(s) = &*decl else {
            return Err(EvalError::new(
                format!("`{}` is not a streamlet", r.name),
                r.span,
            ));
        };
        let bindings = self.bind_template_args(&r.name, &s.params, &r.args, r.span, depth)?;
        self.elaborate_streamlet(id, s, &bindings, depth)
            .map(|ir_name| (ir_name, s.name.clone()))
            .ok_or_else(|| EvalError::reported(r.span))
    }

    /// Resolves an implementation reference to an [`ImplValue`].
    fn evaluate_impl_ref(&mut self, r: &NamedRef, depth: usize) -> Result<ImplValue, EvalError> {
        if depth > MAX_DEPTH {
            return Err(EvalError::new("instantiation recursion too deep", r.span));
        }
        // A bare name may be a local binding (template parameter of
        // kind `impl of ...`) or a global concrete impl.
        if r.args.is_empty() {
            if let Some(v) = self.locals.get(&r.name).cloned() {
                return match v {
                    Value::Impl(iv) => Ok(iv),
                    other => Err(EvalError::new(
                        format!("`{}` is a {}, not an impl", r.name, other.kind_name()),
                        r.span,
                    )),
                };
            }
        }
        let id = self
            .find_decl(self.current_package, &r.name, r.span)
            .ok_or_else(|| {
                EvalError::new(format!("unknown implementation `{}`", r.name), r.span)
            })?;
        let decl = Arc::clone(&self.packages[id.package].decls[id.decl]);
        let Decl::Impl(i) = &*decl else {
            return Err(EvalError::new(
                format!("`{}` is not an implementation", r.name),
                r.span,
            ));
        };
        let bindings = self.bind_template_args(&r.name, &i.params, &r.args, r.span, depth)?;
        self.elaborate_impl(id, i, &bindings, depth)
            .ok_or_else(|| EvalError::reported(r.span))
    }

    /// Elaborates a streamlet with bound template arguments; returns
    /// the IR streamlet name.
    fn elaborate_streamlet(
        &mut self,
        id: DeclId,
        s: &StreamletDecl,
        bindings: &[(String, Value)],
        depth: usize,
    ) -> Option<Arc<str>> {
        let key = (id, ArgKey::of_bindings(bindings));
        if let Some(cached) = self.streamlet_cache.get(&key) {
            self.info.template_cache_hits += 1;
            return cached.clone();
        }
        if !bindings.is_empty() {
            self.info.template_instantiations += 1;
        }
        let ir_name: Arc<str> = Arc::from(self.mangle(&s.name, bindings).as_str());

        let saved_package = self.current_package;
        self.current_package = id.package;
        self.locals.push();
        for (name, value) in bindings {
            self.locals.define(name, value.clone());
        }

        let mut streamlet = Streamlet::new(ir_name.as_ref());
        streamlet.doc = s.doc.clone();
        let mut ok = true;
        for port in &s.ports {
            let tv = match self.elaborate_type(&port.ty, depth + 1) {
                Ok(tv) => tv,
                Err(e) => {
                    self.eval_error(e);
                    ok = false;
                    continue;
                }
            };
            if !matches!(*tv.ty, LogicalType::Stream { .. }) {
                self.error(
                    format!(
                        "port `{}` must bind a Stream type, got `{}`",
                        port.name, tv.ty
                    ),
                    port.span,
                );
                ok = false;
                continue;
            }
            let clock = match &port.clock {
                None => ClockDomain::default(),
                Some(ClockSpec::Named(name, _)) => ClockDomain::new(name),
                Some(ClockSpec::Expr(e)) => match eval_expr(e, self) {
                    Ok(Value::Clock(c)) => c,
                    Ok(other) => {
                        self.error(
                            format!(
                                "clock annotation must be a clockdomain, got {}",
                                other.kind_name()
                            ),
                            e.span(),
                        );
                        ok = false;
                        continue;
                    }
                    Err(e) => {
                        self.eval_error(e);
                        ok = false;
                        continue;
                    }
                },
            };
            let direction = match port.direction {
                PortDir::In => PortDirection::In,
                PortDir::Out => PortDirection::Out,
            };
            let count = match &port.array {
                None => None,
                Some(e) => match eval_expr(e, self) {
                    Ok(Value::Int(n)) if (1..=4096).contains(&n) => Some(n as usize),
                    Ok(Value::Int(n)) => {
                        self.error(
                            format!("port array size must be in 1..=4096, got {n}"),
                            e.span(),
                        );
                        ok = false;
                        continue;
                    }
                    Ok(other) => {
                        self.error(
                            format!("port array size must be an int, got {}", other.kind_name()),
                            e.span(),
                        );
                        ok = false;
                        continue;
                    }
                    Err(e) => {
                        self.eval_error(e);
                        ok = false;
                        continue;
                    }
                },
            };
            // Equal port types share one `Arc` via the store: no deep
            // clone per port, and downstream pointer-equality fast
            // paths (DRC, fingerprints) hit.
            let make_port = |name: String| {
                let mut p =
                    Port::from_arc(name, direction, Arc::clone(&tv.ty)).with_clock(clock.clone());
                p.type_origin = tv.origin.as_ref().map(|o| o.as_ref().to_string());
                p
            };
            match count {
                None => streamlet.ports.push(make_port(port.name.clone())),
                Some(n) => {
                    for i in 0..n {
                        streamlet
                            .ports
                            .push(make_port(format!("{}_{i}", port.name)));
                    }
                }
            }
        }

        self.locals.pop();
        self.current_package = saved_package;

        if ok && self.project.streamlet(&ir_name).is_none() {
            if let Err(e) = self.project.add_streamlet(streamlet) {
                self.error(e.to_string(), s.span);
                ok = false;
            }
        }
        let result = ok.then_some(ir_name);
        self.streamlet_cache.insert(key, result.clone());
        result
    }

    /// Elaborates an implementation with bound template arguments.
    fn elaborate_impl(
        &mut self,
        id: DeclId,
        i: &ImplDecl,
        bindings: &[(String, Value)],
        depth: usize,
    ) -> Option<ImplValue> {
        let key = (id, ArgKey::of_bindings(bindings));
        if let Some(existing) = self.impl_cache.get(&key) {
            self.info.template_cache_hits += 1;
            return Some(existing.clone());
        }
        if !bindings.is_empty() {
            self.info.template_instantiations += 1;
        }
        let ir_name: Arc<str> = Arc::from(self.mangle(&i.name, bindings).as_str());
        self.info.record_impl_span(ir_name.as_ref(), i.span);
        if depth > MAX_DEPTH {
            self.error("instantiation recursion too deep", i.span);
            return None;
        }

        let saved_package = self.current_package;
        self.current_package = id.package;
        self.locals.push();
        for (name, value) in bindings {
            self.locals.define(name, value.clone());
        }

        // Resolve the streamlet this impl realizes (its template args
        // may reference our bindings).
        let streamlet = match self.evaluate_streamlet_ref(&i.streamlet, depth + 1) {
            Ok(v) => v,
            Err(e) => {
                self.eval_error(e);
                self.locals.pop();
                self.current_package = saved_package;
                return None;
            }
        };
        let (streamlet_ir, streamlet_base) = streamlet;

        // Pre-register in the cache so self-references inside the body
        // fail fast rather than recursing forever.
        let value = ImplValue {
            name: Arc::clone(&ir_name),
            streamlet: Arc::clone(&streamlet_ir),
            streamlet_base: Arc::from(streamlet_base.as_str()),
        };
        self.impl_cache.insert(key.clone(), value.clone());

        let mut implementation = match &i.body {
            ImplBody::External { simulation } => {
                let mut imp = Implementation::external(ir_name.as_ref(), streamlet_ir.as_ref());
                if let Some(sim) = simulation {
                    imp = imp.with_sim_source(sim.source.clone());
                }
                imp
            }
            ImplBody::Normal(_) => Implementation::normal(ir_name.as_ref(), streamlet_ir.as_ref()),
        };
        implementation.doc = i.doc.clone();

        // Attributes: @builtin("key"), @NoStrictType, etc.
        for attr in &i.attributes {
            match attr.name.as_str() {
                "builtin" => {
                    let Some(arg) = &attr.arg else {
                        self.error("@builtin requires a string argument", attr.span);
                        continue;
                    };
                    match eval_expr(arg, self) {
                        Ok(Value::Str(keyname)) => {
                            implementation = implementation.with_builtin(keyname);
                        }
                        Ok(other) => self.error(
                            format!("@builtin expects a string, got {}", other.kind_name()),
                            attr.span,
                        ),
                        Err(e) => self.eval_error(e),
                    }
                }
                other => {
                    let value = match &attr.arg {
                        Some(arg) => match eval_expr(arg, self) {
                            Ok(v) => v.to_string(),
                            Err(e) => {
                                self.eval_error(e);
                                String::new()
                            }
                        },
                        None => String::new(),
                    };
                    implementation.attributes.insert(other.to_string(), value);
                }
            }
        }
        // Record template bindings as builtin parameters.
        for (name, v) in bindings {
            implementation
                .attributes
                .insert(format!("param_{name}"), v.mangle());
        }

        if let ImplBody::Normal(stmts) = &i.body {
            let mut body = BodyBuilder {
                implementation: &mut implementation,
                instance_impls: HashMap::new(),
                aliases: Vec::new(),
                fresh: 0,
            };
            self.run_stmts(stmts, &mut body, depth);
        }

        self.locals.pop();
        self.current_package = saved_package;

        if let Err(e) = self.project.add_implementation(implementation) {
            self.error(e.to_string(), i.span);
        }
        Some(value)
    }

    // ---- implementation bodies --------------------------------------------

    fn run_stmts(&mut self, stmts: &[Stmt], body: &mut BodyBuilder<'_>, depth: usize) {
        for stmt in stmts {
            self.run_stmt(stmt, body, depth);
        }
    }

    /// Runs one statement. Each kind has its own function, so nested
    /// `if`/`for` bodies stack only small frames.
    fn run_stmt(&mut self, stmt: &Stmt, body: &mut BodyBuilder<'_>, depth: usize) {
        match stmt {
            Stmt::Const(c) => match eval_expr(&c.value, self) {
                Ok(v) => match self.check_var_kind(&c.name, c.kind.as_ref(), v, c.span) {
                    Ok(v) => self.locals.define(&c.name, v),
                    Err(e) => self.eval_error(e),
                },
                Err(e) => self.eval_error(e),
            },
            Stmt::Assert {
                expr,
                message,
                span,
            } => self.check_assert(expr, message.as_ref(), *span),
            Stmt::If {
                cond,
                body: then_body,
                else_body,
                ..
            } => self.run_if(cond, then_body, else_body, body, depth),
            Stmt::For {
                var,
                iterable,
                body: loop_body,
                ..
            } => self.run_for(var, iterable, loop_body, body, depth),
            Stmt::Instance {
                name,
                impl_ref,
                array,
                span,
            } => self.run_instance(name, impl_ref, array.as_deref(), *span, body, depth),
            Stmt::Connect { src, dst, span } => self.run_connect(src, dst, *span, body),
        }
    }

    fn run_if(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        body: &mut BodyBuilder<'_>,
        depth: usize,
    ) {
        match eval_expr(cond, self) {
            Ok(Value::Bool(true)) => {
                self.locals.push();
                body.aliases.push(HashMap::new());
                self.run_stmts(then_body, body, depth);
                body.aliases.pop();
                self.locals.pop();
            }
            Ok(Value::Bool(false)) => {
                self.locals.push();
                body.aliases.push(HashMap::new());
                self.run_stmts(else_body, body, depth);
                body.aliases.pop();
                self.locals.pop();
            }
            Ok(other) => self.error(
                format!("if condition must be bool, got {}", other.kind_name()),
                cond.span(),
            ),
            Err(e) => self.eval_error(e),
        }
    }

    fn run_for(
        &mut self,
        var: &str,
        iterable: &Expr,
        loop_body: &[Stmt],
        body: &mut BodyBuilder<'_>,
        depth: usize,
    ) {
        match eval_expr(iterable, self) {
            Ok(Value::Array(items)) => {
                for item in items {
                    self.locals.push();
                    self.locals.define(var, item);
                    body.aliases.push(HashMap::new());
                    self.run_stmts(loop_body, body, depth);
                    body.aliases.pop();
                    self.locals.pop();
                }
            }
            Ok(other) => self.error(
                format!(
                    "for iterable must be an array or range, got {}",
                    other.kind_name()
                ),
                iterable.span(),
            ),
            Err(e) => self.eval_error(e),
        }
    }

    fn run_instance(
        &mut self,
        name: &str,
        impl_ref: &NamedRef,
        array: Option<&Expr>,
        span: Span,
        body: &mut BodyBuilder<'_>,
        depth: usize,
    ) {
        let impl_value = match self.evaluate_impl_ref(impl_ref, depth + 1) {
            Ok(v) => v,
            Err(e) => {
                self.eval_error(e);
                return;
            }
        };
        let count = match array {
            None => None,
            Some(e) => match eval_expr(e, self) {
                Ok(Value::Int(n)) if (1..=4096).contains(&n) => Some(n as usize),
                Ok(other) => {
                    self.error(
                        format!("instance array size must be a small positive int, got {other}"),
                        e.span(),
                    );
                    return;
                }
                Err(e) => {
                    self.eval_error(e);
                    return;
                }
            },
        };
        // Inside a generative scope the declared name maps to
        // a unique concrete name, scoped to this iteration.
        let base = if body.aliases.is_empty() {
            name.to_string()
        } else {
            let unique = format!("{name}__{}", body.fresh);
            body.fresh += 1;
            body.aliases
                .last_mut()
                .expect("alias frame present")
                .insert(name.to_string(), unique.clone());
            unique
        };
        let add = |elab: &mut Self, body: &mut BodyBuilder<'_>, inst_name: String| {
            if body.instance_impls.contains_key(&inst_name) {
                elab.error(format!("duplicate instance `{inst_name}`"), span);
                return;
            }
            body.instance_impls
                .insert(inst_name.to_string(), impl_value.clone());
            body.implementation
                .add_instance(Instance::new(inst_name, impl_value.name.as_ref()));
        };
        match count {
            None => add(self, body, base),
            Some(n) => {
                for idx in 0..n {
                    add(self, body, format!("{base}_{idx}"));
                }
            }
        }
    }

    fn run_connect(
        &mut self,
        src: &EndpointExpr,
        dst: &EndpointExpr,
        span: Span,
        body: &mut BodyBuilder<'_>,
    ) {
        let Some(source) = self.resolve_endpoint(src, body) else {
            return;
        };
        let Some(sink) = self.resolve_endpoint(dst, body) else {
            return;
        };
        let connection = Connection::new(source, sink);
        self.info
            .record_connection_span(&body.implementation.name, &connection.describe(), span);
        body.implementation.add_connection(connection);
    }

    /// Resolves an endpoint expression to a concrete [`EndpointRef`],
    /// folding array indices into the expanded port/instance names.
    fn resolve_endpoint(
        &mut self,
        e: &EndpointExpr,
        body: &BodyBuilder<'_>,
    ) -> Option<EndpointRef> {
        let port_index = match &e.port_index {
            None => None,
            Some(expr) => match eval_expr(expr, self) {
                Ok(Value::Int(i)) if i >= 0 => Some(i as usize),
                Ok(other) => {
                    self.error(
                        format!("port index must be a non-negative int, got {other}"),
                        expr.span(),
                    );
                    return None;
                }
                Err(err) => {
                    self.eval_error(err);
                    return None;
                }
            },
        };
        let apply_index = |name: &str, idx: Option<usize>| match idx {
            None => name.to_string(),
            Some(i) => format!("{name}_{i}"),
        };
        match &e.instance {
            None => Some(EndpointRef::own(apply_index(&e.port, port_index))),
            Some((inst_name, inst_index)) => {
                let inst_index = match inst_index {
                    None => None,
                    Some(expr) => match eval_expr(expr, self) {
                        Ok(Value::Int(i)) if i >= 0 => Some(i as usize),
                        Ok(other) => {
                            self.error(
                                format!("instance index must be a non-negative int, got {other}"),
                                expr.span(),
                            );
                            return None;
                        }
                        Err(err) => {
                            self.eval_error(err);
                            return None;
                        }
                    },
                };
                let base = body.resolve_alias(inst_name);
                let resolved_inst = apply_index(&base, inst_index);
                if !body.instance_impls.contains_key(&resolved_inst) {
                    self.error(
                        format!("unknown instance `{resolved_inst}` in connection"),
                        e.span,
                    );
                    return None;
                }
                Some(EndpointRef::instance(
                    resolved_inst,
                    apply_index(&e.port, port_index),
                ))
            }
        }
    }
}

/// Mutable view of the implementation being built plus its local
/// instance table.
struct BodyBuilder<'a> {
    implementation: &'a mut Implementation,
    instance_impls: HashMap<String, ImplValue>,
    /// Alias frames for generative scopes: an `instance` declared
    /// inside a `for` iteration gets a unique concrete name, and the
    /// declared name resolves to it only within that iteration
    /// (paper §IV-A: "use the for statement to declare four instances
    /// of a comparator template").
    aliases: Vec<HashMap<String, String>>,
    /// Counter for generating unique concrete instance names.
    fresh: usize,
}

impl BodyBuilder<'_> {
    /// Resolves a declared instance base name through the active
    /// generative scopes.
    fn resolve_alias(&self, name: &str) -> String {
        for frame in self.aliases.iter().rev() {
            if let Some(actual) = frame.get(name) {
                return actual.clone();
            }
        }
        name.to_string()
    }
}

impl Resolver for Elaborator {
    fn lookup(&mut self, name: &str, span: Span) -> Result<Value, EvalError> {
        if let Some(v) = self.locals.get(name) {
            return Ok(v.clone());
        }
        match self.find_decl(self.current_package, name, span) {
            Some(id) => self.global_value(id, span),
            None => Err(EvalError::new(format!("undefined name `{name}`"), span)),
        }
    }
}

fn decl_span(decl: &Decl) -> Option<Span> {
    match decl {
        Decl::Const(c) => Some(c.span),
        Decl::TypeAlias { span, .. }
        | Decl::Group { span, .. }
        | Decl::Union { span, .. }
        | Decl::Assert { span, .. } => Some(*span),
        Decl::Streamlet(s) => Some(s.span),
        Decl::Impl(i) => Some(i.span),
    }
}

fn var_kind_matches(kind: &VarKind, value: &Value) -> bool {
    match (kind, value) {
        (VarKind::Int, Value::Int(_)) => true,
        (VarKind::Float, Value::Float(_) | Value::Int(_)) => true,
        (VarKind::Str, Value::Str(_)) => true,
        (VarKind::Bool, Value::Bool(_)) => true,
        (VarKind::Clock, Value::Clock(_)) => true,
        (VarKind::Array(inner), Value::Array(items)) => {
            items.iter().all(|v| var_kind_matches(inner, v))
        }
        _ => false,
    }
}

fn var_kind_name(kind: &VarKind) -> String {
    match kind {
        VarKind::Int => "int".into(),
        VarKind::Float => "float".into(),
        VarKind::Str => "string".into(),
        VarKind::Bool => "bool".into(),
        VarKind::Clock => "clockdomain".into(),
        VarKind::Array(inner) => format!("[{}]", var_kind_name(inner)),
    }
}

fn template_kind_name(kind: &TemplateParamKind) -> String {
    match kind {
        TemplateParamKind::Int => "int".into(),
        TemplateParamKind::Float => "float".into(),
        TemplateParamKind::Str => "string".into(),
        TemplateParamKind::Bool => "bool".into(),
        TemplateParamKind::Clock => "clockdomain".into(),
        TemplateParamKind::Type => "type".into(),
        TemplateParamKind::ImplOf(s) => format!("impl of {s}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::has_errors;
    use crate::parser::parse_package;

    fn elaborate_sources(sources: &[&str]) -> (Project, ElabInfo, Vec<Diagnostic>) {
        let mut packages = Vec::new();
        let mut diags = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let (pkg, mut d) = parse_package(i, src);
            diags.append(&mut d);
            if let Some(p) = pkg {
                packages.push(p);
            }
        }
        assert!(!has_errors(&diags), "parse errors: {diags:?}");
        elaborate(packages, "test")
    }

    fn elaborate_ok(sources: &[&str]) -> Project {
        let (project, _, diags) = elaborate_sources(sources);
        assert!(
            !has_errors(&diags),
            "elaboration errors: {:?}",
            diags.iter().map(|d| &d.message).collect::<Vec<_>>()
        );
        project
    }

    #[test]
    fn simple_wire() {
        let project = elaborate_ok(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet wire_s { i : Byte in, o : Byte out, }
impl wire_i of wire_s { i => o, }
"#]);
        let s = project.streamlet("wire_s").unwrap();
        assert_eq!(s.ports.len(), 2);
        assert_eq!(s.ports[0].type_origin.as_deref(), Some("demo.Byte"));
        let i = project.implementation("wire_i").unwrap();
        assert_eq!(i.connections().len(), 1);
        assert_eq!(project.validate(), Ok(()));
    }

    #[test]
    fn equal_port_types_share_one_allocation() {
        // The hash-consing contract: both ports of the wire carry the
        // *same* Arc, not two equal trees.
        let project = elaborate_ok(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet wire_s { i : Byte in, o : Byte out, }
impl wire_i of wire_s { i => o, }
"#]);
        let s = project.streamlet("wire_s").unwrap();
        assert!(Arc::ptr_eq(&s.ports[0].ty, &s.ports[1].ty));
    }

    #[test]
    fn const_evaluation_and_shadowing() {
        let project = elaborate_ok(&[r#"
package demo;
const width : int = 8 * 4;
type T = Stream(Bit(width));
streamlet s { i : T in, o : T out, }
impl i_i of s {
    const width = 99,
    i => o,
}
"#]);
        let s = project.streamlet("s").unwrap();
        match &*s.ports[0].ty {
            LogicalType::Stream { element, .. } => {
                assert_eq!(**element, LogicalType::Bit(32));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn group_union_elaboration() {
        let project = elaborate_ok(&[r#"
package demo;
Group AdderInput { data0: Bit(32), data1: Bit(32), }
type In = Stream(AdderInput);
streamlet s { a : In in, r : In out, }
impl x of s { a => r, }
"#]);
        let port = &project.streamlet("s").unwrap().ports[0];
        match &*port.ty {
            LogicalType::Stream { element, .. } => assert_eq!(element.bit_width(), 64),
            _ => panic!(),
        }
        assert_eq!(port.type_origin.as_deref(), Some("demo.In"));
    }

    #[test]
    fn template_instantiation_memoised() {
        let (project, info, diags) = elaborate_sources(&[r#"
package demo;
streamlet pass_s<T: type> { i : T in, o : T out, }
@builtin("std.passthrough")
impl pass_i<T: type> of pass_s<type T> external;
type Byte = Stream(Bit(8));
streamlet top_s { i : Byte in, o : Byte out, }
impl top_i of top_s {
    instance a(pass_i<type Byte>),
    instance b(pass_i<type Byte>),
    i => a.i,
    a.o => b.i,
    b.o => o,
}
"#]);
        assert!(!has_errors(&diags), "{diags:?}");
        // pass_i<...> elaborated once, hit once.
        assert!(info.template_cache_hits >= 1);
        let mangled = "pass_i<Stream(Bit(8))>";
        assert!(
            project.implementation(mangled).is_some(),
            "missing {mangled}"
        );
        assert_eq!(project.validate(), Ok(()));
    }

    #[test]
    fn type_store_stats_are_reported() {
        let (_, info, diags) = elaborate_sources(&[r#"
package demo;
type A = Stream(Bit(8));
type B = Stream(Bit(8));
streamlet s { i : A in, o : B out, }
@NoStrictType
impl x of s { i => o, }
"#]);
        assert!(!has_errors(&diags), "{diags:?}");
        // A and B build the same two nodes: the second alias is served
        // entirely from the dedup table.
        assert_eq!(info.type_store.distinct_types, 2);
        assert!(info.type_store.intern_hits >= 2);
    }

    #[test]
    fn for_expansion_with_arrays() {
        let project = elaborate_ok(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet sink_s { i : Byte in, }
@builtin("std.voider")
impl sink_i of sink_s external;
streamlet fan_s { i : Byte in [4], }
impl fan_i of fan_s {
    instance sinks(sink_i) [4],
    for k in (0..4) {
        i[k] => sinks[k].i,
    }
}
"#]);
        let imp = project.implementation("fan_i").unwrap();
        assert_eq!(imp.instances().len(), 4);
        assert_eq!(imp.connections().len(), 4);
        assert_eq!(project.validate(), Ok(()));
    }

    #[test]
    fn if_and_assert_in_bodies() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet s { i : Byte in, o : Byte out, }
impl x of s {
    if (1 + 1 == 2) {
        i => o,
    } else {
        assert(false, "unreachable"),
    }
    assert(len([1,2,3]) == 3),
}
"#]);
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn failed_assert_reports() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
assert(1 == 2, "math broke");
"#]);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.message.contains("math broke")));
    }

    #[test]
    fn impl_template_argument() {
        // The paper's parallelize pattern: an impl passed as a
        // template argument, bounded by its streamlet.
        let project = elaborate_ok(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet pu_s { i : Byte in, o : Byte out, }
@builtin("std.passthrough")
impl pu_impl of pu_s external;
streamlet wrap_s { i : Byte in, o : Byte out, }
impl wrap_i<pu: impl of pu_s> of wrap_s {
    instance unit(pu),
    i => unit.i,
    unit.o => o,
}
impl top of wrap_s {
    instance w(wrap_i<impl pu_impl>),
    i => w.i,
    w.o => o,
}
"#]);
        assert!(project.implementation("wrap_i<pu_impl>").is_some());
        assert_eq!(project.validate(), Ok(()));
    }

    #[test]
    fn impl_of_bound_enforced() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet a_s { i : Byte in, o : Byte out, }
streamlet b_s { i : Byte in, o : Byte out, }
@builtin("std.passthrough")
impl a_i of a_s external;
streamlet wrap_s { i : Byte in, o : Byte out, }
impl wrap_i<pu: impl of b_s> of wrap_s {
    instance unit(pu),
    i => unit.i,
    unit.o => o,
}
impl top of wrap_s {
    instance w(wrap_i<impl a_i>),
    i => w.i,
    w.o => o,
}
"#]);
        assert!(has_errors(&diags));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("must be an impl of")));
    }

    #[test]
    fn cross_package_use() {
        let project = elaborate_ok(&[
            r#"
package lib;
type Byte = Stream(Bit(8));
streamlet pass_s { i : Byte in, o : Byte out, }
@builtin("std.passthrough")
impl pass_i of pass_s external;
"#,
            r#"
package app;
use lib;
impl top of pass_s {
    instance p(pass_i),
    i => p.i,
    p.o => o,
}
"#,
        ]);
        assert!(project.implementation("top").is_some());
        assert_eq!(project.validate(), Ok(()));
    }

    #[test]
    fn cyclic_const_detected() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
const a : int = b + 1;
const b : int = a + 1;
type T = Stream(Bit(a));
streamlet s { i : T in, o : T out, }
impl x of s { i => o, }
"#]);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.message.contains("cyclic")));
    }

    #[test]
    fn unknown_names_reported() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
type T = Stream(Bit(nope));
streamlet s { i : T in, o : T out, }
impl x of s { i => o, }
"#]);
        assert!(has_errors(&diags));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("undefined name `nope`")));
    }

    #[test]
    fn non_stream_port_rejected_at_elaboration() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
streamlet s { i : Bit(8) in, }
impl x of s { }
"#]);
        assert!(has_errors(&diags));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("must bind a Stream")));
    }

    #[test]
    fn duplicate_decl_reported() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
const x : int = 1;
const x : int = 2;
"#]);
        assert!(has_errors(&diags));
    }

    #[test]
    fn template_value_kind_checked() {
        let (_, _, diags) = elaborate_sources(&[r#"
package demo;
streamlet s<n: int> { i : Stream(Bit(n)) in, o : Stream(Bit(n)) out, }
impl x of s<"eight"> { i => o, }
"#]);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.message.contains("expects int")));
    }

    #[test]
    fn instance_declared_inside_for_loop() {
        // Paper §IV-A: one `instance` statement inside a `for` loop
        // declares one comparator per array element, each wired to a
        // port of the or-gate.
        let project = elaborate_ok(&[r#"
package demo;
type Byte = Stream(Bit(8));
streamlet cmp_s<v: int> { i : Byte in, o : Byte out, }
@builtin("std.eq_const")
impl cmp_i<v: int> of cmp_s<v> external;
streamlet or_s<n: int> { i : Byte in [n], o : Byte out, }
@builtin("std.or_n")
impl or_i<n: int> of or_s<4> external;
streamlet top_s { data : Byte in [4], o : Byte out, }
impl top_i of top_s {
    const codes = [10, 20, 30, 40],
    instance or_gate(or_i<4>),
    for k in (0..4) {
        instance cmp(cmp_i<codes[k]>),
        data[k] => cmp.i,
        cmp.o => or_gate.i[k],
    }
    or_gate.o => o,
}
"#]);
        let imp = project.implementation("top_i").unwrap();
        assert_eq!(imp.instances().len(), 5);
        assert_eq!(imp.connections().len(), 9);
        assert_eq!(project.validate(), Ok(()));
        // Four distinct comparator template instances were created.
        for code in [10, 20, 30, 40] {
            assert!(project.implementation(&format!("cmp_i<{code}>")).is_some());
        }
    }

    #[test]
    fn clock_domains_on_ports() {
        let project = elaborate_ok(&[r#"
package demo;
const mem_clk : clockdomain = clockdomain("mem");
type Byte = Stream(Bit(8));
streamlet s {
    a : Byte in !mem,
    b : Byte out !(mem_clk),
}
impl x of s { a => b, }
"#]);
        let s = project.streamlet("s").unwrap();
        assert_eq!(s.ports[0].clock.name(), "mem");
        assert_eq!(s.ports[1].clock.name(), "mem");
        assert_eq!(project.validate(), Ok(()));
    }
}
