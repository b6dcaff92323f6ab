//! Expression evaluation: the Tydi-lang math system (paper §IV-A).
//!
//! Evaluation is pure; name lookup is delegated to a [`Resolver`] so
//! that the elaborator can resolve globals lazily (with memoisation
//! and cycle detection) while local frames stay simple.

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::span::Span;
use crate::value::Value;
use tydi_spec::ClockDomain;

/// An evaluation failure, pointing at the offending expression.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
    /// The cause already has a diagnostic: the error still fails the
    /// enclosing evaluation, but must not be reported again.
    reported: bool,
}

impl EvalError {
    /// Creates an error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        EvalError {
            message: message.into(),
            span,
            reported: false,
        }
    }

    /// A failure whose cause has already been reported.
    pub fn reported(span: Span) -> Self {
        EvalError {
            message: String::new(),
            span,
            reported: true,
        }
    }

    /// Whether the cause has already been reported.
    pub fn is_reported(&self) -> bool {
        self.reported
    }

    /// The same error, pointing at `span`.
    pub fn at(self, span: Span) -> Self {
        EvalError { span, ..self }
    }
}

/// Name resolution callback used by [`eval_expr`].
pub trait Resolver {
    /// Resolves `name` to a value or fails with a diagnostic message.
    fn lookup(&mut self, name: &str, span: Span) -> Result<Value, EvalError>;
}

/// A resolver over a plain closure, handy in tests.
impl<F> Resolver for F
where
    F: FnMut(&str, Span) -> Result<Value, EvalError>,
{
    fn lookup(&mut self, name: &str, span: Span) -> Result<Value, EvalError> {
        self(name, span)
    }
}

/// Evaluates an expression.
pub fn eval_expr(expr: &Expr, resolver: &mut dyn Resolver) -> Result<Value, EvalError> {
    match expr {
        Expr::Int(v, _) => Ok(Value::Int(*v)),
        Expr::Float(v, _) => Ok(Value::Float(*v)),
        Expr::Str(s, _) => Ok(Value::Str(s.clone())),
        Expr::Bool(b, _) => Ok(Value::Bool(*b)),
        Expr::Clock(name, _) => Ok(Value::Clock(ClockDomain::new(name))),
        Expr::Ident(name, span) => resolver.lookup(name, *span),
        Expr::Array(items, _) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval_expr(item, resolver)?);
            }
            Ok(Value::Array(out))
        }
        Expr::Range {
            start,
            end,
            step,
            span,
        } => {
            let start_v = expect_int(eval_expr(start, resolver)?, start.span())?;
            let end_v = expect_int(eval_expr(end, resolver)?, end.span())?;
            let step_v = match step {
                Some(s) => expect_int(eval_expr(s, resolver)?, s.span())?,
                None => 1,
            };
            if step_v == 0 {
                return Err(EvalError::new("range step must be non-zero", *span));
            }
            let mut out = Vec::new();
            let mut v = start_v;
            if step_v > 0 {
                while v < end_v {
                    out.push(Value::Int(v));
                    v += step_v;
                }
            } else {
                while v > end_v {
                    out.push(Value::Int(v));
                    v += step_v;
                }
            }
            if out.len() > 1_000_000 {
                return Err(EvalError::new(
                    "range produces more than 1e6 elements",
                    *span,
                ));
            }
            Ok(Value::Array(out))
        }
        Expr::Index { base, index, span } => {
            let base_v = eval_expr(base, resolver)?;
            let index_v = expect_int(eval_expr(index, resolver)?, index.span())?;
            match base_v {
                Value::Array(items) => {
                    if index_v < 0 || index_v as usize >= items.len() {
                        Err(EvalError::new(
                            format!(
                                "index {index_v} out of bounds for array of length {}",
                                items.len()
                            ),
                            *span,
                        ))
                    } else {
                        Ok(items[index_v as usize].clone())
                    }
                }
                other => Err(EvalError::new(
                    format!("cannot index into a {}", other.kind_name()),
                    *span,
                )),
            }
        }
        Expr::Unary { op, operand, span } => {
            let v = eval_expr(operand, resolver)?;
            match (op, v) {
                (UnaryOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
                (UnaryOp::Neg, Value::Float(v)) => Ok(Value::Float(-v)),
                (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (op, v) => Err(EvalError::new(
                    format!(
                        "unary `{}` is not defined for {}",
                        match op {
                            UnaryOp::Neg => "-",
                            UnaryOp::Not => "!",
                        },
                        v.kind_name()
                    ),
                    *span,
                )),
            }
        }
        Expr::Binary { op, lhs, rhs, span } => {
            // Short-circuit booleans first.
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = expect_bool(eval_expr(lhs, resolver)?, lhs.span())?;
                return match (op, l) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => {
                        let r = expect_bool(eval_expr(rhs, resolver)?, rhs.span())?;
                        Ok(Value::Bool(r))
                    }
                };
            }
            let l = eval_expr(lhs, resolver)?;
            let r = eval_expr(rhs, resolver)?;
            binary(*op, l, r, *span)
        }
        Expr::Call { name, args, span } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_expr(a, resolver)?);
            }
            call_builtin(name, &values, *span)
        }
    }
}

fn expect_int(v: Value, span: Span) -> Result<i64, EvalError> {
    v.as_int()
        .ok_or_else(|| EvalError::new(format!("expected int, found {}", v.kind_name()), span))
}

fn expect_bool(v: Value, span: Span) -> Result<bool, EvalError> {
    v.as_bool()
        .ok_or_else(|| EvalError::new(format!("expected bool, found {}", v.kind_name()), span))
}

fn binary(op: BinOp, l: Value, r: Value, span: Span) -> Result<Value, EvalError> {
    use BinOp::*;
    // String concatenation: `"a" + x`.
    if op == Add {
        if let Value::Str(a) = &l {
            return Ok(Value::Str(format!("{a}{r}")));
        }
        if let Value::Str(b) = &r {
            return Ok(Value::Str(format!("{l}{b}")));
        }
    }
    // Equality works across all matching kinds (numeric kinds unify).
    if matches!(op, Eq | Ne) {
        let equal = match (&l, &r) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                a.as_f64().unwrap() == b.as_f64().unwrap()
            }
            (a, b) => a == b,
        };
        return Ok(Value::Bool(if op == Eq { equal } else { !equal }));
    }
    // Ordering on numbers and strings.
    if matches!(op, Lt | Le | Gt | Ge) {
        let ordering = match (&l, &r) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap())
            }
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        };
        let Some(ordering) = ordering else {
            return Err(EvalError::new(
                format!("cannot order {} and {}", l.kind_name(), r.kind_name()),
                span,
            ));
        };
        use std::cmp::Ordering as O;
        let result = match op {
            Lt => ordering == O::Less,
            Le => ordering != O::Greater,
            Gt => ordering == O::Greater,
            Ge => ordering != O::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(result));
    }
    // Arithmetic.
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            match op {
                Add => checked(a.checked_add(b), span),
                Sub => checked(a.checked_sub(b), span),
                Mul => checked(a.checked_mul(b), span),
                Div => {
                    if b == 0 {
                        Err(EvalError::new("division by zero", span))
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                Rem => {
                    if b == 0 {
                        Err(EvalError::new("remainder by zero", span))
                    } else {
                        Ok(Value::Int(a % b))
                    }
                }
                Pow => {
                    if b >= 0 {
                        match u32::try_from(b).ok().and_then(|e| a.checked_pow(e)) {
                            Some(v) => Ok(Value::Int(v)),
                            None => Err(EvalError::new("integer power overflow", span)),
                        }
                    } else {
                        Ok(Value::Float((a as f64).powi(b as i32)))
                    }
                }
                _ => unreachable!(),
            }
        }
        (a, b) if a.is_numeric() && b.is_numeric() => {
            let a = a.as_f64().unwrap();
            let b = b.as_f64().unwrap();
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(EvalError::new("division by zero", span));
                    }
                    a / b
                }
                Rem => {
                    if b == 0.0 {
                        return Err(EvalError::new("remainder by zero", span));
                    }
                    a % b
                }
                Pow => a.powf(b),
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
        _ => Err(EvalError::new(
            format!(
                "operator is not defined for {} and {}",
                l.kind_name(),
                r.kind_name()
            ),
            span,
        )),
    }
}

fn checked(v: Option<i64>, span: Span) -> Result<Value, EvalError> {
    v.map(Value::Int)
        .ok_or_else(|| EvalError::new("integer overflow", span))
}

/// The builtin function table of the math system.
fn call_builtin(name: &str, args: &[Value], span: Span) -> Result<Value, EvalError> {
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::new(
                format!("`{name}` expects {n} argument(s), got {}", args.len()),
                span,
            ))
        }
    };
    let num = |i: usize| -> Result<f64, EvalError> {
        args[i].as_f64().ok_or_else(|| {
            EvalError::new(
                format!(
                    "`{name}` expects a numeric argument, got {}",
                    args[i].kind_name()
                ),
                span,
            )
        })
    };
    match name {
        "ceil" => {
            arity(1)?;
            Ok(Value::Int(num(0)?.ceil() as i64))
        }
        "floor" => {
            arity(1)?;
            Ok(Value::Int(num(0)?.floor() as i64))
        }
        "round" => {
            arity(1)?;
            Ok(Value::Int(num(0)?.round() as i64))
        }
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(EvalError::new(
                    format!("`abs` expects a number, got {}", other.kind_name()),
                    span,
                )),
            }
        }
        "log2" => {
            arity(1)?;
            let v = num(0)?;
            if v <= 0.0 {
                return Err(EvalError::new("log2 of a non-positive number", span));
            }
            Ok(Value::Float(v.log2()))
        }
        "log10" => {
            arity(1)?;
            let v = num(0)?;
            if v <= 0.0 {
                return Err(EvalError::new("log10 of a non-positive number", span));
            }
            Ok(Value::Float(v.log10()))
        }
        "ln" => {
            arity(1)?;
            let v = num(0)?;
            if v <= 0.0 {
                return Err(EvalError::new("ln of a non-positive number", span));
            }
            Ok(Value::Float(v.ln()))
        }
        "sqrt" => {
            arity(1)?;
            let v = num(0)?;
            if v < 0.0 {
                return Err(EvalError::new("sqrt of a negative number", span));
            }
            Ok(Value::Float(v.sqrt()))
        }
        "pow" => {
            arity(2)?;
            Ok(Value::Float(num(0)?.powf(num(1)?)))
        }
        "min" | "max" => {
            if args.is_empty() {
                return Err(EvalError::new(format!("`{name}` needs arguments"), span));
            }
            let mut best = num(0)?;
            let mut all_int = matches!(args[0], Value::Int(_));
            for (i, a) in args.iter().enumerate().skip(1) {
                let v = num(i)?;
                all_int &= matches!(a, Value::Int(_));
                best = if name == "min" {
                    best.min(v)
                } else {
                    best.max(v)
                };
            }
            if all_int {
                Ok(Value::Int(best as i64))
            } else {
                Ok(Value::Float(best))
            }
        }
        "len" => {
            arity(1)?;
            match &args[0] {
                Value::Array(items) => Ok(Value::Int(items.len() as i64)),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(EvalError::new(
                    format!(
                        "`len` expects an array or string, got {}",
                        other.kind_name()
                    ),
                    span,
                )),
            }
        }
        "int" => {
            arity(1)?;
            Ok(Value::Int(num(0)? as i64))
        }
        "float" => {
            arity(1)?;
            Ok(Value::Float(num(0)?))
        }
        "str" => {
            arity(1)?;
            Ok(Value::Str(args[0].to_string()))
        }
        other => Err(EvalError::new(
            format!("unknown builtin function `{other}`"),
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_package;

    /// Evaluates the initializer of `const x = <expr>;`.
    fn eval_str(expr_text: &str) -> Result<Value, EvalError> {
        let src = format!("package t;\nconst x = {expr_text};");
        let (pkg, diags) = parse_package(0, &src);
        assert!(diags.is_empty(), "parse diags for `{expr_text}`: {diags:?}");
        let pkg = pkg.unwrap();
        let crate::ast::Decl::Const(c) = &*pkg.decls[0] else {
            panic!()
        };
        let mut resolver = |name: &str, span: Span| match name {
            "n" => Ok(Value::Int(8)),
            "f" => Ok(Value::Float(0.5)),
            "names" => Ok(Value::Array(vec![
                Value::Str("a".into()),
                Value::Str("b".into()),
            ])),
            other => Err(EvalError::new(format!("undefined `{other}`"), span)),
        };
        eval_expr(&c.value, &mut resolver)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7 % 2").unwrap(), Value::Int(1));
        assert_eq!(eval_str("2 ^ 10").unwrap(), Value::Int(1024));
        assert_eq!(eval_str("1.5 + 1").unwrap(), Value::Float(2.5));
        assert_eq!(eval_str("-n").unwrap(), Value::Int(-8));
    }

    #[test]
    fn paper_decimal_width() {
        // Bit width of SQL Decimal(15): ceil(log2(10^15 - 1)) = 50.
        assert_eq!(eval_str("ceil(log2(10 ^ 15 - 1))").unwrap(), Value::Int(50));
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(eval_str("1 < 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 <= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 == 1.0").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("\"a\" < \"b\"").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("true && false").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("true || false").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("!(1 > 2)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // `undefined` would fail if evaluated.
        assert_eq!(eval_str("false && undefined").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("true || undefined").unwrap(), Value::Bool(true));
    }

    #[test]
    fn string_concat() {
        assert_eq!(eval_str("\"w=\" + 8").unwrap(), Value::Str("w=8".into()));
        assert_eq!(eval_str("\"a\" + \"b\"").unwrap(), Value::Str("ab".into()));
    }

    #[test]
    fn arrays_ranges_indexing() {
        assert_eq!(
            eval_str("[1, 2, 3]").unwrap(),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval_str("(0..4)").unwrap(),
            Value::Array((0..4).map(Value::Int).collect())
        );
        assert_eq!(
            eval_str("(0..10 step 3)").unwrap(),
            Value::Array(vec![
                Value::Int(0),
                Value::Int(3),
                Value::Int(6),
                Value::Int(9)
            ])
        );
        assert_eq!(eval_str("[5, 6, 7][1]").unwrap(), Value::Int(6));
        assert_eq!(eval_str("names[0]").unwrap(), Value::Str("a".into()));
        assert_eq!(eval_str("len(names)").unwrap(), Value::Int(2));
        assert_eq!(eval_str("len(\"abc\")").unwrap(), Value::Int(3));
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(eval_str("ceil(2.1)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("floor(2.9)").unwrap(), Value::Int(2));
        assert_eq!(eval_str("round(2.5)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("abs(-4)").unwrap(), Value::Int(4));
        assert_eq!(eval_str("min(3, 1, 2)").unwrap(), Value::Int(1));
        assert_eq!(eval_str("max(3, 1, 2)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("min(1, 0.5)").unwrap(), Value::Float(0.5));
        assert_eq!(eval_str("int(2.9)").unwrap(), Value::Int(2));
        assert_eq!(eval_str("str(42)").unwrap(), Value::Str("42".into()));
    }

    #[test]
    fn errors() {
        assert!(eval_str("1 / 0").is_err());
        assert!(eval_str("1 % 0").is_err());
        assert!(eval_str("log2(0)").is_err());
        assert!(eval_str("[1][5]").is_err());
        assert!(eval_str("[1][-1]").is_err());
        assert!(eval_str("5[0]").is_err());
        assert!(eval_str("true + 1").is_err());
        assert!(eval_str("!3").is_err());
        assert!(eval_str("nosuchfn(1)").is_err());
        assert!(eval_str("undefined_var").is_err());
        assert!(eval_str("(0..4 step 0)").is_err());
        assert!(eval_str("2 ^ 200").is_err()); // overflow
        assert!(eval_str("9223372036854775807 + 1").is_err());
    }

    #[test]
    fn reverse_range() {
        assert_eq!(
            eval_str("(3..0 step -1)").unwrap(),
            Value::Array(vec![Value::Int(3), Value::Int(2), Value::Int(1)])
        );
    }

    #[test]
    fn clock_values() {
        assert_eq!(
            eval_str("clockdomain(\"mem\")").unwrap(),
            Value::Clock(tydi_spec::ClockDomain::new("mem"))
        );
    }
}
