//! AST for the event-driven simulation syntax (paper §V-A).
//!
//! Simulation code is attached to *external* implementations and
//! describes their behaviour for the Tydi simulator: state variables,
//! composite port events, and event handlers that acknowledge ports,
//! send data, delay, and change state.
//!
//! ```text
//! simulation {
//!     state st = "idle";
//!     on (in0.recv && in1.recv) {
//!         delay(8);
//!         send(out, in0.data + in1.data);
//!         ack(in0);
//!         ack(in1);
//!         set_state(st, "busy");
//!     }
//!     on (out.ack) {
//!         set_state(st, "idle");
//!     }
//! }
//! ```

use crate::span::Span;

/// A `state name = "initial";` declaration. State variables take
/// string values (paper §V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct SimStateDecl {
    /// Variable name.
    pub name: String,
    /// Initial value.
    pub init: String,
    /// Source range.
    pub span: Span,
}

/// Composite events built from port actions and state tests with
/// boolean logic (paper §V-A "designers can use boolean logic to
/// define composite events").
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// `port.recv` — a data packet is available on an input port.
    Recv(String),
    /// `port.ack` — a previously sent packet on an output port was
    /// accepted by the sink.
    Ack(String),
    /// `statevar == "value"`.
    StateIs(String, String),
    /// `statevar != "value"`.
    StateIsNot(String, String),
    /// Conjunction.
    And(Box<SimEvent>, Box<SimEvent>),
    /// Disjunction.
    Or(Box<SimEvent>, Box<SimEvent>),
    /// Negation.
    Not(Box<SimEvent>),
}

impl SimEvent {
    /// All ports mentioned in `recv` terms.
    pub fn recv_ports(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_recv(&mut out);
        out
    }

    fn collect_recv<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            SimEvent::Recv(p) => out.push(p),
            SimEvent::And(a, b) | SimEvent::Or(a, b) => {
                a.collect_recv(out);
                b.collect_recv(out);
            }
            SimEvent::Not(e) => e.collect_recv(out),
            _ => {}
        }
    }
}

/// Binary operators in simulation expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
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
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Value expressions inside handlers. Values are signed integers at
/// simulation level; comparisons yield 0/1.
#[derive(Debug, Clone, PartialEq)]
pub enum SimExpr {
    /// Integer literal.
    Int(i64),
    /// `port.data` — the element at the head of the port's buffer.
    Data(String),
    /// `port.data.field` — a group field of the head element.
    Field(String, String),
    /// A handler-local loop variable.
    Var(String),
    /// A chain of binary operations `first op1 x1 op2 x2 ...`, one node
    /// for a run of operators of one precedence level, meaning
    /// `((first op1 x1) op2 x2) ...`; `rest` is never empty.
    Chain {
        /// Leftmost operand.
        first: Box<SimExpr>,
        /// Each operator with its right operand, left to right.
        rest: Vec<(SimOp, SimExpr)>,
    },
    /// Unary negation.
    Neg(Box<SimExpr>),
    /// Unary logical not.
    Not(Box<SimExpr>),
}

/// Actions inside an event handler.
#[derive(Debug, Clone, PartialEq)]
pub enum SimAction {
    /// `send(port, expr)` — enqueue a packet on an output port.
    Send {
        /// Output port.
        port: String,
        /// Value to send.
        expr: SimExpr,
    },
    /// `last(port)` / `last(port, n)` — close `n` (default 1)
    /// dimension levels on the most recent packet.
    Last {
        /// Output port.
        port: String,
        /// How many dimension levels to close.
        levels: u32,
    },
    /// `ack(port)` — acknowledge the packet at the head of an input
    /// port (the explicit handshake control of paper §V-A).
    Ack(String),
    /// `delay(expr)` — advance this component's local time by the
    /// given number of cycles before subsequent actions take effect.
    Delay(SimExpr),
    /// `set_state(var, "value")`.
    SetState(String, String),
    /// `if (cond) { ... } else { ... }` (paper §V-A: flow control in
    /// handlers).
    If {
        /// Condition; nonzero is true.
        cond: SimExpr,
        /// Actions when true.
        then_actions: Vec<SimAction>,
        /// Actions when false.
        else_actions: Vec<SimAction>,
    },
    /// `for v in (a..b) { ... }`.
    For {
        /// Loop variable.
        var: String,
        /// Start (inclusive).
        start: SimExpr,
        /// End (exclusive).
        end: SimExpr,
        /// Body.
        body: Vec<SimAction>,
    },
}

/// One `on (event) { actions }` handler.
#[derive(Debug, Clone, PartialEq)]
pub struct SimHandler {
    /// The triggering event.
    pub event: SimEvent,
    /// Actions to run when the event fires.
    pub actions: Vec<SimAction>,
    /// Source range.
    pub span: Span,
}

/// A full `simulation { ... }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimBlock {
    /// State variable declarations.
    pub states: Vec<SimStateDecl>,
    /// Event handlers in declaration order.
    pub handlers: Vec<SimHandler>,
    /// The raw source text (carried into Tydi-IR so the simulator can
    /// re-parse it independently of the frontend).
    pub source: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_ports_collects_through_boolean_structure() {
        let e = SimEvent::And(
            Box::new(SimEvent::Recv("a".into())),
            Box::new(SimEvent::Or(
                Box::new(SimEvent::Recv("b".into())),
                Box::new(SimEvent::Not(Box::new(SimEvent::Recv("c".into())))),
            )),
        );
        assert_eq!(e.recv_ports(), vec!["a", "b", "c"]);
    }

    #[test]
    fn state_events_have_no_recv_ports() {
        let e = SimEvent::StateIs("st".into(), "idle".into());
        assert!(e.recv_ports().is_empty());
    }
}
