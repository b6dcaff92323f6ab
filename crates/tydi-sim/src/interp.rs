//! Interpreter for event-driven simulation code (paper §V-A).
//!
//! External implementations carry `simulation { ... }` blocks with
//! state variables and `on (event) { actions }` handlers. This module
//! executes those blocks as a [`Behavior`]:
//!
//! * `port.recv` is true while a packet waits at the head of an input;
//! * `port.ack` is true when everything previously sent on an output
//!   has been accepted downstream;
//! * `delay(n)` makes the component busy: the *remaining* actions of
//!   the handler run `n` cycles later (top-level actions only;
//!   a nested `delay` just extends the busy window);
//! * `send` respects backpressure through an internal pending queue.

use crate::behavior::{Behavior, IoCtx, Wake};
use crate::channel::Packet;
use std::collections::{HashMap, VecDeque};
use tydi_lang::sim_ast::{SimAction, SimBlock, SimEvent, SimExpr, SimOp};

/// Interpreted behaviour for one simulation block.
pub struct SimInterpreter {
    block: SimBlock,
    states: HashMap<String, String>,
    /// The component does nothing until this cycle.
    busy_until: u64,
    /// Actions deferred by a top-level `delay`, with their loop-var
    /// environment.
    deferred: Option<(Vec<SimAction>, HashMap<String, i64>)>,
    /// Packets produced by `send` that wait for channel space.
    out_pending: VecDeque<(String, Packet)>,
    /// Output ports with unacknowledged sends (drives `port.ack`).
    sent_outstanding: HashMap<String, bool>,
    /// Recorded (cycle, from-state, to-state) transitions.
    transitions: Vec<(u64, String, String)>,
}

impl SimInterpreter {
    /// Builds an interpreter from a parsed simulation block.
    pub fn new(block: SimBlock) -> Self {
        let states = block
            .states
            .iter()
            .map(|s| (s.name.clone(), s.init.clone()))
            .collect();
        SimInterpreter {
            block,
            states,
            busy_until: 0,
            deferred: None,
            out_pending: VecDeque::new(),
            sent_outstanding: HashMap::new(),
            transitions: Vec::new(),
        }
    }

    /// Parses simulation source and builds an interpreter.
    pub fn from_source(source: &str) -> Result<Self, String> {
        let block = tydi_lang::parse_simulation(source).map_err(|d| {
            format!(
                "simulation parse error: {:?}",
                d.first().map(|x| &x.message)
            )
        })?;
        Ok(SimInterpreter::new(block))
    }

    /// The recorded state-transition table (paper §V-B).
    pub fn transitions(&self) -> &[(u64, String, String)] {
        &self.transitions
    }

    fn flush_pending(&mut self, io: &mut IoCtx<'_>) -> bool {
        while let Some((port, packet)) = self.out_pending.front().cloned() {
            if io.send(&port, packet) {
                self.sent_outstanding.insert(port.clone(), true);
                self.out_pending.pop_front();
            } else {
                return false;
            }
        }
        true
    }

    fn event_true(&self, event: &SimEvent, io: &IoCtx<'_>) -> bool {
        match event {
            SimEvent::Recv(port) => io.can_recv(port),
            SimEvent::Ack(port) => {
                self.sent_outstanding.get(port).copied().unwrap_or(false)
                    && io.output_drained(port)
                    && self.out_pending.iter().all(|(p, _)| p != port)
            }
            SimEvent::StateIs(name, value) => {
                self.states.get(name).map(String::as_str) == Some(value.as_str())
            }
            SimEvent::StateIsNot(name, value) => {
                self.states.get(name).map(String::as_str) != Some(value.as_str())
            }
            SimEvent::And(a, b) => self.event_true(a, io) && self.event_true(b, io),
            SimEvent::Or(a, b) => self.event_true(a, io) || self.event_true(b, io),
            SimEvent::Not(e) => !self.event_true(e, io),
        }
    }

    fn eval(&self, expr: &SimExpr, env: &HashMap<String, i64>, io: &IoCtx<'_>) -> i64 {
        match expr {
            SimExpr::Int(v) => *v,
            SimExpr::Data(port) | SimExpr::Field(port, _) => {
                // Group fields are packed into the single element
                // payload at this abstraction level.
                io.peek(port).map(|p| p.data).unwrap_or(0)
            }
            SimExpr::Var(name) => env.get(name).copied().unwrap_or(0),
            SimExpr::Neg(e) => -self.eval(e, env, io),
            SimExpr::Not(e) => (self.eval(e, env, io) == 0) as i64,
            SimExpr::Chain { first, rest } => rest
                .iter()
                .fold(self.eval(first, env, io), |x, (op, operand)| {
                    apply(*op, x, self.eval(operand, env, io))
                }),
        }
    }

    /// Executes `actions`; returns the index at which a top-level
    /// `delay` paused execution (the remainder is deferred).
    fn exec_actions(
        &mut self,
        actions: &[SimAction],
        env: &mut HashMap<String, i64>,
        io: &mut IoCtx<'_>,
        top_level: bool,
    ) -> Option<usize> {
        for (index, action) in actions.iter().enumerate() {
            match action {
                SimAction::Send { port, expr } => {
                    let value = self.eval(expr, env, io);
                    self.out_pending
                        .push_back((port.clone(), Packet::data(value)));
                }
                SimAction::Last { port, levels } => {
                    // Attach the close to the most recent pending
                    // packet for this port, or emit an empty close.
                    if let Some(entry) = self.out_pending.iter_mut().rev().find(|(p, _)| p == port)
                    {
                        entry.1.last += levels;
                    } else {
                        self.out_pending
                            .push_back((port.clone(), Packet::close(*levels)));
                    }
                }
                SimAction::Ack(port) => {
                    io.recv(port);
                }
                SimAction::Delay(expr) => {
                    let cycles = self.eval(expr, env, io).max(0) as u64;
                    self.busy_until = self.busy_until.max(io.cycle() + cycles);
                    if top_level {
                        return Some(index + 1);
                    }
                }
                SimAction::SetState(name, value) => {
                    let old = self
                        .states
                        .insert(name.clone(), value.clone())
                        .unwrap_or_default();
                    if old != *value {
                        self.transitions.push((io.cycle(), old, value.clone()));
                    }
                }
                SimAction::If {
                    cond,
                    then_actions,
                    else_actions,
                } => {
                    let branch = if self.eval(cond, env, io) != 0 {
                        then_actions
                    } else {
                        else_actions
                    };
                    self.exec_actions(branch, env, io, false);
                }
                SimAction::For {
                    var,
                    start,
                    end,
                    body,
                } => {
                    let from = self.eval(start, env, io);
                    let to = self.eval(end, env, io);
                    for value in from..to {
                        env.insert(var.clone(), value);
                        self.exec_actions(body, env, io, false);
                    }
                    env.remove(var);
                }
            }
        }
        None
    }
}

impl Behavior for SimInterpreter {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        // Backpressured sends first.
        if !self.flush_pending(io) {
            return;
        }
        if io.cycle() < self.busy_until {
            return;
        }
        // Resume a handler paused by delay().
        if let Some((actions, mut env)) = self.deferred.take() {
            if let Some(resume_at) = self.exec_actions(&actions, &mut env, io, true) {
                self.deferred = Some((actions[resume_at..].to_vec(), env));
            }
            self.flush_pending(io);
            return;
        }
        // Evaluate handlers in declaration order; each handler
        // re-checks its event because earlier handlers may have
        // consumed packets.
        for i in 0..self.block.handlers.len() {
            let handler = self.block.handlers[i].clone();
            if !self.event_true(&handler.event, io) {
                continue;
            }
            // Reset ack flags consumed by this event.
            reset_ack_flags(&handler.event, &mut self.sent_outstanding);
            let mut env = HashMap::new();
            if let Some(resume_at) = self.exec_actions(&handler.actions, &mut env, io, true) {
                self.deferred = Some((handler.actions[resume_at..].to_vec(), env));
                break;
            }
        }
        self.flush_pending(io);
    }

    fn state_label(&self) -> Option<String> {
        if self.states.is_empty() {
            return None;
        }
        let mut parts: Vec<String> = self
            .states
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.sort();
        Some(parts.join(","))
    }

    fn wake(&self, io: &IoCtx<'_>) -> Wake {
        // A paused handler resumes when the delay window closes.
        if self.deferred.is_some() || io.cycle() < self.busy_until {
            return Wake::AtCycle(self.busy_until);
        }
        // Backpressured sends are unblocked by downstream credit,
        // which is a channel event.
        if !self.out_pending.is_empty() {
            return Wake::OnEvent;
        }
        // A handler that could fire right now (e.g. on a state set by
        // this very tick, or on an unconsumed input) needs another
        // tick; otherwise only a channel event can change anything.
        if self
            .block
            .handlers
            .iter()
            .any(|h| self.event_true(&h.event, io))
        {
            return Wake::NextCycle;
        }
        Wake::OnEvent
    }
}

fn reset_ack_flags(event: &SimEvent, flags: &mut HashMap<String, bool>) {
    match event {
        SimEvent::Ack(port) => {
            flags.insert(port.clone(), false);
        }
        SimEvent::And(a, b) | SimEvent::Or(a, b) => {
            reset_ack_flags(a, flags);
            reset_ack_flags(b, flags);
        }
        SimEvent::Not(e) => reset_ack_flags(e, flags),
        _ => {}
    }
}

/// One binary operation of a simulation expression. Division and
/// remainder by zero give 0; comparisons and logic give 0 or 1.
fn apply(op: SimOp, x: i64, y: i64) -> i64 {
    match op {
        SimOp::Add => x.wrapping_add(y),
        SimOp::Sub => x.wrapping_sub(y),
        SimOp::Mul => x.wrapping_mul(y),
        SimOp::Div => {
            if y == 0 {
                0
            } else {
                x / y
            }
        }
        SimOp::Rem => {
            if y == 0 {
                0
            } else {
                x % y
            }
        }
        SimOp::Eq => (x == y) as i64,
        SimOp::Ne => (x != y) as i64,
        SimOp::Lt => (x < y) as i64,
        SimOp::Le => (x <= y) as i64,
        SimOp::Gt => (x > y) as i64,
        SimOp::Ge => (x >= y) as i64,
        SimOp::And => ((x != 0) && (y != 0)) as i64,
        SimOp::Or => ((x != 0) || (y != 0)) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    struct Rig {
        interp: SimInterpreter,
        channels: Vec<Channel>,
        inputs: HashMap<String, usize>,
        outputs: HashMap<String, usize>,
        blocked: HashMap<String, u64>,
        cycle: u64,
    }

    impl Rig {
        fn new(source: &str, ins: &[&str], outs: &[&str]) -> Rig {
            let interp = SimInterpreter::from_source(source).unwrap();
            let mut channels = Vec::new();
            let mut inputs = HashMap::new();
            let mut outputs = HashMap::new();
            for n in ins {
                inputs.insert(n.to_string(), channels.len());
                channels.push(Channel::new(*n, 8));
            }
            for n in outs {
                outputs.insert(n.to_string(), channels.len());
                channels.push(Channel::new(*n, 8));
            }
            Rig {
                interp,
                channels,
                inputs,
                outputs,
                blocked: HashMap::new(),
                cycle: 0,
            }
        }

        fn feed(&mut self, port: &str, packets: &[Packet]) {
            let idx = self.inputs[port];
            for p in packets {
                assert!(self.channels[idx].push(*p));
            }
            self.channels[idx].commit();
        }

        fn tick(&mut self) {
            let mut activity = false;
            let mut io = IoCtx {
                cycle: self.cycle,
                channels: &mut self.channels,
                inputs: &self.inputs,
                outputs: &self.outputs,
                blocked: &mut self.blocked,
                activity: &mut activity,
            };
            self.interp.tick(&mut io);
            for c in &mut self.channels {
                c.commit();
            }
            self.cycle += 1;
        }

        fn run(&mut self, n: u64) {
            for _ in 0..n {
                self.tick();
            }
        }

        fn drain(&mut self, port: &str) -> Vec<Packet> {
            let idx = self.outputs[port];
            let mut out = Vec::new();
            while let Some(p) = self.channels[idx].pop() {
                out.push(p);
            }
            out
        }
    }

    const ADDER: &str = r#"
state st = "idle";
on (in0.recv && in1.recv) {
    delay(8);
    send(outp, in0.data + in1.data);
    ack(in0);
    ack(in1);
    set_state(st, "busy");
}
on (outp.ack && st == "busy") {
    set_state(st, "idle");
}
"#;

    #[test]
    fn adder_simulation_code_adds_with_delay() {
        let mut rig = Rig::new(ADDER, &["in0", "in1"], &["outp"]);
        rig.feed("in0", &[Packet::data(2)]);
        rig.feed("in1", &[Packet::data(3)]);
        rig.run(6);
        // Delay of 8 cycles: nothing yet.
        assert!(rig.drain("outp").is_empty());
        rig.run(6);
        let out = rig.drain("outp");
        assert_eq!(out, vec![Packet::data(5)]);
    }

    #[test]
    fn adder_throughput_is_one_per_delay() {
        let mut rig = Rig::new(ADDER, &["in0", "in1"], &["outp"]);
        let packets: Vec<Packet> = (0..8).map(Packet::data).collect();
        rig.feed("in0", &packets);
        rig.feed("in1", &packets);
        rig.run(34);
        // ~4 results in 34 cycles at one result per ~8 cycles.
        let produced = rig.drain("outp").len();
        assert!((3..=5).contains(&produced), "produced {produced}");
    }

    #[test]
    fn state_transitions_recorded() {
        let mut rig = Rig::new(ADDER, &["in0", "in1"], &["outp"]);
        rig.feed("in0", &[Packet::data(1)]);
        rig.feed("in1", &[Packet::data(1)]);
        rig.run(24);
        // Drain so outp.ack fires.
        rig.drain("outp");
        rig.run(4);
        let transitions = rig.interp.transitions();
        assert!(transitions
            .iter()
            .any(|(_, from, to)| from == "idle" && to == "busy"));
        assert!(transitions
            .iter()
            .any(|(_, from, to)| from == "busy" && to == "idle"));
        assert_eq!(rig.interp.state_label().as_deref(), Some("st=idle"));
    }

    #[test]
    fn if_and_for_actions() {
        let src = r#"
on (i.recv) {
    if (i.data > 10) {
        send(o, i.data * 2);
    } else {
        for k in (0..3) {
            send(o, i.data + k);
        }
    }
    ack(i);
}
"#;
        let mut rig = Rig::new(src, &["i"], &["o"]);
        rig.feed("i", &[Packet::data(20), Packet::data(1)]);
        rig.run(6);
        let out: Vec<i64> = rig.drain("o").iter().map(|p| p.data).collect();
        assert_eq!(out, vec![40, 1, 2, 3]);
    }

    #[test]
    fn last_action_closes_dimension() {
        let src = r#"
on (i.recv) {
    send(o, i.data);
    last(o, 1);
    ack(i);
}
"#;
        let mut rig = Rig::new(src, &["i"], &["o"]);
        rig.feed("i", &[Packet::data(9)]);
        rig.run(3);
        assert_eq!(rig.drain("o"), vec![Packet::last(9, 1)]);
    }

    #[test]
    fn backpressure_holds_pending_sends() {
        let src = r#"
on (i.recv) {
    send(o, i.data);
    ack(i);
}
"#;
        let interp = SimInterpreter::from_source(src).unwrap();
        let mut channels = vec![Channel::new("i", 8), Channel::new("o", 1)];
        let mut inputs = HashMap::new();
        inputs.insert("i".to_string(), 0);
        let mut outputs = HashMap::new();
        outputs.insert("o".to_string(), 1);
        let mut rig = Rig {
            interp,
            channels: {
                channels[0].push(Packet::data(1));
                channels[0].push(Packet::data(2));
                channels[0].push(Packet::data(3));
                channels[0].commit();
                channels
            },
            inputs,
            outputs,
            blocked: HashMap::new(),
            cycle: 0,
        };
        // Capacity-1 output: progress is one packet per drain.
        rig.run(3);
        let idx = rig.outputs["o"];
        assert_eq!(rig.channels[idx].len(), 1);
        assert_eq!(rig.channels[idx].pop(), Some(Packet::data(1)));
        rig.run(3);
        let out = rig.drain("o");
        assert_eq!(out[0], Packet::data(2));
    }

    /// A 2001-operator expression is one flat chain per precedence
    /// level, well within the parser's nesting budget, and folds left
    /// to right with `*` binding tighter than `+` and `-`.
    #[test]
    fn long_operator_chains_parse_and_evaluate() {
        let terms: String = (1..=667).map(|k| format!(" + {k} * 2 - {k}")).collect();
        let src = format!("on (i.recv) {{ send(o, i.data{terms}); ack(i); }}");
        let mut rig = Rig::new(&src, &["i"], &["o"]);
        rig.feed("i", &[Packet::data(5)]);
        rig.run(3);
        assert_eq!(rig.drain("o"), vec![Packet::data(5 + 667 * 668 / 2)]);
    }
}
