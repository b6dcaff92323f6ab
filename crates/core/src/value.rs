//! Runtime values of the Tydi-lang evaluation stage.
//!
//! The five variable kinds of paper §IV-A (integer, float, string,
//! boolean, clock domain), arrays of these, plus the two entity-level
//! values that template arguments can carry: logical types and
//! implementations.
//!
//! Type values are backed by the session's hash-consed
//! [`TypeStore`]: a [`TypeValue`] carries the compact [`TypeId`] (so
//! equality is an integer compare and template memo keys never walk
//! trees), the shared canonical `Arc<LogicalType>`, and the store's
//! cached mangled text (so [`Value::mangle`] is O(1) instead of
//! stringifying the whole tree per reference).

use std::fmt::{self, Write as _};
use std::sync::Arc;
use tydi_spec::{ClockDomain, LogicalType, TypeId, TypeStore};

/// An evaluated logical type together with the declaration it came
/// from, which drives the strict type equality DRC (paper §IV-B).
#[derive(Debug, Clone)]
pub struct TypeValue {
    /// Hash-consed id in the session's [`TypeStore`]; equal ids ⇔
    /// structurally equal types (within one store).
    pub id: TypeId,
    /// The canonical structural type, shared with every other value of
    /// the same structure.
    pub ty: Arc<LogicalType>,
    /// Cached mangled display text (canonical form, spaces removed).
    pub mangled: Arc<str>,
    /// Fully-qualified origin (`package.Name` or a template mangling)
    /// for named declarations; `None` for anonymous type expressions.
    pub origin: Option<Arc<str>>,
}

impl TypeValue {
    /// The value of an already-interned type (anonymous).
    pub fn from_id(store: &TypeStore, id: TypeId) -> Self {
        TypeValue {
            id,
            ty: store.ty(id),
            mangled: store.mangled(id),
            origin: None,
        }
    }

    /// Interns `ty` into `store` and wraps it (anonymous).
    ///
    /// # Panics
    /// Panics when the type is invalid; callers validate first (the
    /// elaborator constructs types through the store, which rejects
    /// invalid nodes with a proper diagnostic).
    pub fn intern(store: &TypeStore, ty: &LogicalType) -> Self {
        let id = store.intern(ty).expect("interning an invalid type");
        TypeValue::from_id(store, id)
    }

    /// Attaches the declaration origin used for strict type equality.
    pub fn with_origin(mut self, origin: impl Into<Arc<str>>) -> Self {
        self.origin = Some(origin.into());
        self
    }
}

/// Two type values are equal when they denote the same interned type
/// *and* carry the same origin. Ids are only comparable within one
/// session store — exactly the scope a compilation uses.
impl PartialEq for TypeValue {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.origin == other.origin
    }
}

/// A reference to an elaborated implementation (used as a template
/// argument: `impl adder_32`). All fields are shared strings: an
/// `ImplValue` is cloned once per instantiating reference, which must
/// not copy name bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplValue {
    /// The elaborated (mangled) implementation name in the output IR.
    pub name: Arc<str>,
    /// The elaborated streamlet this implementation realizes.
    pub streamlet: Arc<str>,
    /// The base (template) name of that streamlet, used to check
    /// `impl of <streamlet>` template-parameter bounds.
    pub streamlet_base: Arc<str>,
}

/// A Tydi-lang value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Clock domain.
    Clock(ClockDomain),
    /// Array of values.
    Array(Vec<Value>),
    /// Logical type (template arguments, type aliases).
    Type(TypeValue),
    /// Implementation reference (template arguments).
    Impl(ImplValue),
}

impl Value {
    /// A short kind name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Clock(_) => "clockdomain",
            Value::Array(_) => "array",
            Value::Type(_) => "type",
            Value::Impl(_) => "impl",
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view (ints widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True when the value is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Canonical text used for template-instance mangling. Two equal
    /// values always produce identical text; the text contains no
    /// whitespace. Type values return the store's cached mangled text,
    /// so this never walks a type tree.
    pub fn mangle(&self) -> String {
        let mut out = String::new();
        self.push_mangled(&mut out);
        out
    }

    /// Appends [`Value::mangle`]'s text to `out`.
    pub fn push_mangled(&self, out: &mut String) {
        match self {
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => {
                let _ = write!(out, "{v:?}");
            }
            Value::Str(s) => {
                let _ = write!(out, "{s:?}");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Clock(c) => {
                out.push('!');
                out.push_str(c.name());
            }
            Value::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.push_mangled(out);
                }
                out.push(']');
            }
            Value::Type(t) => out.push_str(&t.mangled),
            Value::Impl(i) => out.push_str(&i.name),
        }
    }
}

impl fmt::Display for Value {
    /// Strings display raw; every other value displays as its
    /// canonical mangled text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{}", other.mangle()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(Value::Int(1).kind_name(), "int");
        assert_eq!(Value::Array(vec![]).kind_name(), "array");
        assert_eq!(
            Value::Clock(ClockDomain::new("m")).kind_name(),
            "clockdomain"
        );
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn mangled_text_is_pinned_per_kind() {
        // Template instance names are built from this text, and the
        // emitted IR, VHDL and SV carry them.
        let nested = Value::Array(vec![Value::Int(1), Value::Array(vec![Value::Bool(false)])]);
        let cases = [
            (Value::Int(-3), "-3"),
            (Value::Float(1.0), "1.0"),
            (Value::Str("a b".into()), "\"a b\""),
            (Value::Bool(true), "true"),
            (Value::Clock(ClockDomain::new("m")), "!m"),
            (nested, "[1,[false]]"),
        ];
        for (value, text) in cases {
            assert_eq!(value.mangle(), text);
        }
    }

    #[test]
    fn mangling_is_whitespace_free_and_distinct() {
        let store = TypeStore::new();
        let t = TypeValue::intern(
            &store,
            &LogicalType::group(vec![("a", LogicalType::Bit(2)), ("b", LogicalType::Bit(3))]),
        );
        let m = Value::Type(t).mangle();
        assert!(!m.contains(' '));
        assert!(m.contains("Group"));
        assert_ne!(Value::Int(1).mangle(), Value::Str("1".into()).mangle());
        assert_ne!(Value::Float(1.0).mangle(), Value::Int(1).mangle());
        assert_eq!(
            Value::Array(vec![Value::Int(1), Value::Int(2)]).mangle(),
            "[1,2]"
        );
    }

    #[test]
    fn type_mangling_matches_display_without_spaces() {
        let store = TypeStore::new();
        let ty = LogicalType::stream(
            LogicalType::group(vec![("x", LogicalType::Bit(4)), ("y", LogicalType::Bit(4))]),
            tydi_spec::StreamParams::new().with_dimension(1),
        );
        let t = TypeValue::intern(&store, &ty);
        assert_eq!(Value::Type(t).mangle(), ty.to_string().replace(' ', ""));
    }

    #[test]
    fn type_equality_is_id_plus_origin() {
        let store = TypeStore::new();
        let a = TypeValue::intern(&store, &LogicalType::Bit(8));
        let b = TypeValue::intern(&store, &LogicalType::Bit(8));
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.ty, &b.ty));
        let named = b.clone().with_origin("demo.Byte");
        assert_ne!(a, named);
        let c = TypeValue::intern(&store, &LogicalType::Bit(9));
        assert_ne!(a, c);
    }

    #[test]
    fn display_strings_are_raw() {
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Int(4).to_string(), "4");
    }
}
