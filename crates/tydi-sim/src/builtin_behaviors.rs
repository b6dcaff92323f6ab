//! Behavioural models for the standard-library builtins.
//!
//! These are the simulator-side twins of the RTL generators in
//! `tydi-stdlib`: same keys, same handshake semantics, cycle-level
//! timing.

use crate::behavior::{Behavior, BehaviorRegistry, IoCtx, Wake};
use crate::channel::Packet;
use tydi_ir::{Implementation, PortDirection, Streamlet};

/// Registers behaviours for every `std.*` key.
pub fn register_std_behaviors(registry: &mut BehaviorRegistry) {
    registry.register("std.passthrough", |_, _| Ok(Box::new(Passthrough)));
    registry.register("std.duplicator", |_, s| {
        Ok(Box::new(Duplicator {
            outputs: out_ports(s),
        }))
    });
    registry.register("std.voider", |_, _| Ok(Box::new(Voider)));
    registry.register("std.add", binop_factory(|a, b| a.wrapping_add(b)));
    registry.register("std.sub", binop_factory(|a, b| a.wrapping_sub(b)));
    registry.register("std.mul", binop_factory(|a, b| a.wrapping_mul(b)));
    registry.register(
        "std.div",
        binop_factory(|a, b| if b == 0 { 0 } else { a / b }),
    );
    registry.register("std.cmp_eq", binop_factory(|a, b| (a == b) as i64));
    registry.register("std.cmp_ne", binop_factory(|a, b| (a != b) as i64));
    registry.register("std.cmp_lt", binop_factory(|a, b| (a < b) as i64));
    registry.register("std.cmp_le", binop_factory(|a, b| (a <= b) as i64));
    registry.register("std.cmp_gt", binop_factory(|a, b| (a > b) as i64));
    registry.register("std.cmp_ge", binop_factory(|a, b| (a >= b) as i64));
    registry.register("std.eq_const", compare_const_factory(|a, v| a == v));
    registry.register("std.ne_const", compare_const_factory(|a, v| a != v));
    registry.register("std.lt_const", compare_const_factory(|a, v| a < v));
    registry.register("std.le_const", compare_const_factory(|a, v| a <= v));
    registry.register("std.gt_const", compare_const_factory(|a, v| a > v));
    registry.register("std.ge_const", compare_const_factory(|a, v| a >= v));
    registry.register("std.and_n", logic_factory(true));
    registry.register("std.or_n", logic_factory(false));
    registry.register("std.not", |_, _| Ok(Box::new(NotGate)));
    registry.register("std.filter", |_, _| Ok(Box::new(Filter)));
    registry.register("std.sum", reduce_factory(ReduceKind::Sum));
    registry.register("std.count", reduce_factory(ReduceKind::Count));
    registry.register("std.min", reduce_factory(ReduceKind::Min));
    registry.register("std.max", reduce_factory(ReduceKind::Max));
    registry.register("std.demux", |_, s| {
        Ok(Box::new(Demux {
            outputs: out_ports(s),
            sel: 0,
        }))
    });
    registry.register("std.mux", |_, s| {
        Ok(Box::new(Mux {
            inputs: in_ports(s),
            sel: 0,
        }))
    });
    registry.register("std.group_split2", |_, s| {
        let (wa, wb) = group2_widths(s, "i")?;
        Ok(Box::new(GroupSplit2 { wa, wb }))
    });
    registry.register("std.group_combine2", |_, s| {
        let (wa, wb) = group2_widths(s, "o")?;
        Ok(Box::new(GroupCombine2 { wa, wb }))
    });
    registry.register("std.const", |i, _| {
        let remaining = i
            .attributes
            .get("param_n")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| "template parameter `n` is not an integer".to_string())
            })
            .transpose()?;
        Ok(Box::new(ConstSource {
            value: int_param(i, "v")?,
            remaining,
        }))
    });
}

fn out_ports(streamlet: &Streamlet) -> Vec<String> {
    streamlet
        .ports
        .iter()
        .filter(|p| p.direction == PortDirection::Out)
        .map(|p| p.name.to_string())
        .collect()
}

fn in_ports(streamlet: &Streamlet) -> Vec<String> {
    streamlet
        .ports
        .iter()
        .filter(|p| p.direction == PortDirection::In)
        .map(|p| p.name.to_string())
        .collect()
}

fn int_param(implementation: &Implementation, name: &str) -> Result<i64, String> {
    implementation
        .attributes
        .get(&format!("param_{name}"))
        .ok_or_else(|| format!("missing template parameter `{name}`"))?
        .parse::<i64>()
        .map_err(|_| format!("template parameter `{name}` is not an integer"))
}

/// Optional latency parameter shared by the data operators.
fn latency_of(implementation: &Implementation) -> u64 {
    implementation
        .attributes
        .get("param_latency")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Field widths of the two-field Group carried by `port`.
fn group2_widths(streamlet: &Streamlet, port: &str) -> Result<(u32, u32), String> {
    let p = streamlet
        .port(port)
        .ok_or_else(|| format!("missing port `{port}`"))?;
    let tydi_spec::LogicalType::Stream { element, .. } = &*p.ty else {
        return Err(format!("port `{port}` is not a stream"));
    };
    let fields = element.fields();
    if fields.len() < 2 {
        return Err(format!("port `{port}` must carry a two-field Group"));
    }
    Ok((fields[0].ty.bit_width(), fields[1].ty.bit_width()))
}

fn mask_bits(width: u32) -> i64 {
    if width >= 63 {
        -1
    } else {
        (1i64 << width) - 1
    }
}

/// Splits a packed two-field Group element into its field streams
/// (field `a` occupies the low bits).
struct GroupSplit2 {
    wa: u32,
    wb: u32,
}

impl Behavior for GroupSplit2 {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let Some(p) = io.peek("i") else { return };
        if io.can_send("a") && io.can_send("b") {
            io.send(
                "a",
                Packet {
                    data: p.data & mask_bits(self.wa),
                    ..p
                },
            );
            io.send(
                "b",
                Packet {
                    data: (p.data >> self.wa) & mask_bits(self.wb),
                    ..p
                },
            );
            io.recv("i");
        } else {
            for port in ["a", "b"] {
                if !io.can_send(port) {
                    io.note_blocked(port);
                }
            }
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

/// Packs two element streams into a Group element.
struct GroupCombine2 {
    wa: u32,
    wb: u32,
}

impl Behavior for GroupCombine2 {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let (Some(a), Some(b)) = (io.peek("a"), io.peek("b")) else {
            return;
        };
        if !io.can_send("o") {
            io.note_blocked("o");
            return;
        }
        io.recv("a");
        io.recv("b");
        io.send(
            "o",
            Packet {
                data: (a.data & mask_bits(self.wa)) | ((b.data & mask_bits(self.wb)) << self.wa),
                last: a.last.max(b.last),
                empty: a.empty && b.empty,
            },
        );
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

// ---- plumbing -------------------------------------------------------------

struct Passthrough;

impl Behavior for Passthrough {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        if let Some(p) = io.peek("i") {
            if io.can_send("o") {
                io.send("o", p);
                io.recv("i");
            } else {
                io.note_blocked("o");
            }
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

struct Duplicator {
    outputs: Vec<String>,
}

impl Behavior for Duplicator {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let Some(p) = io.peek("i") else { return };
        // Only acknowledge the input when all outputs accept
        // (paper §IV-C).
        if self.outputs.iter().all(|o| io.can_send(o)) {
            for o in &self.outputs {
                io.send(o, p);
            }
            io.recv("i");
        } else {
            for o in &self.outputs {
                if !io.can_send(o) {
                    io.note_blocked(o);
                }
            }
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

struct Voider;

impl Behavior for Voider {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        io.recv("i");
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

// ---- data operators ---------------------------------------------------------

/// Two-input operator with configurable blocking latency.
struct Binop {
    op: fn(i64, i64) -> i64,
    latency: u64,
    /// (ready-at cycle, packet) when busy.
    pending: Option<(u64, Packet)>,
}

impl Behavior for Binop {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        if let Some((ready_at, packet)) = self.pending {
            if io.cycle() >= ready_at {
                if io.can_send("o") {
                    io.send("o", packet);
                    self.pending = None;
                } else {
                    io.note_blocked("o");
                }
            }
            return;
        }
        let (Some(a), Some(b)) = (io.peek("in0"), io.peek("in1")) else {
            return;
        };
        io.recv("in0");
        io.recv("in1");
        let packet = Packet {
            data: (self.op)(a.data, b.data),
            last: a.last.max(b.last),
            empty: a.empty && b.empty,
        };
        self.pending = Some((io.cycle() + self.latency - 1, packet));
    }

    fn state_label(&self) -> Option<String> {
        Some(
            if self.pending.is_some() {
                "busy"
            } else {
                "idle"
            }
            .to_string(),
        )
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        // The internal latency timer must fire even when both input
        // channels are empty.
        match self.pending {
            Some((ready_at, _)) => Wake::AtCycle(ready_at),
            None => Wake::Auto,
        }
    }
}

fn binop_factory(
    op: fn(i64, i64) -> i64,
) -> impl Fn(&Implementation, &Streamlet) -> Result<Box<dyn Behavior>, String> + Send + Sync {
    move |implementation, _| {
        Ok(Box::new(Binop {
            op,
            latency: latency_of(implementation),
            pending: None,
        }))
    }
}

/// Single-input compare against a constant.
struct CompareConst {
    op: fn(i64, i64) -> bool,
    value: i64,
}

impl Behavior for CompareConst {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let Some(p) = io.peek("i") else { return };
        if io.can_send("o") {
            io.send(
                "o",
                Packet {
                    data: (self.op)(p.data, self.value) as i64,
                    last: p.last,
                    empty: p.empty,
                },
            );
            io.recv("i");
        } else {
            io.note_blocked("o");
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

fn compare_const_factory(
    op: fn(i64, i64) -> bool,
) -> impl Fn(&Implementation, &Streamlet) -> Result<Box<dyn Behavior>, String> + Send + Sync {
    move |implementation, _| {
        Ok(Box::new(CompareConst {
            op,
            value: int_param(implementation, "v")?,
        }))
    }
}

/// N-ary and/or over boolean streams.
struct LogicN {
    inputs: Vec<String>,
    is_and: bool,
}

impl Behavior for LogicN {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        if !self.inputs.iter().all(|p| io.can_recv(p)) {
            return;
        }
        if !io.can_send("o") {
            io.note_blocked("o");
            return;
        }
        let mut acc = self.is_and;
        let mut last = 0u32;
        let mut all_empty = true;
        for p in &self.inputs {
            let packet = io.recv(p).expect("head checked");
            let b = packet.data != 0;
            acc = if self.is_and { acc && b } else { acc || b };
            last = last.max(packet.last);
            all_empty &= packet.empty;
        }
        io.send(
            "o",
            Packet {
                data: acc as i64,
                last,
                empty: all_empty,
            },
        );
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

fn logic_factory(
    is_and: bool,
) -> impl Fn(&Implementation, &Streamlet) -> Result<Box<dyn Behavior>, String> + Send + Sync {
    move |_, streamlet| {
        Ok(Box::new(LogicN {
            inputs: in_ports(streamlet),
            is_and,
        }))
    }
}

struct NotGate;

impl Behavior for NotGate {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let Some(p) = io.peek("i") else { return };
        if io.can_send("o") {
            io.send(
                "o",
                Packet {
                    data: (p.data == 0) as i64,
                    ..p
                },
            );
            io.recv("i");
        } else {
            io.note_blocked("o");
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

// ---- stream manipulation -----------------------------------------------------

/// Drops packets whose `keep` flag is 0, preserving dimension closes
/// with empty packets.
struct Filter;

impl Behavior for Filter {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let (Some(data), Some(keep)) = (io.peek("i"), io.peek("keep")) else {
            return;
        };
        if !io.can_send("o") {
            io.note_blocked("o");
            return;
        }
        io.recv("i");
        io.recv("keep");
        if data.empty || keep.data != 0 {
            io.send("o", data);
        } else if data.last > 0 {
            io.send("o", Packet::close(data.last));
        }
        // Otherwise: silently dropped.
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceKind {
    Sum,
    Count,
    Min,
    Max,
}

/// Reduction over the innermost dimension: consumes a `d >= 1` stream
/// and emits one element per closed innermost sequence.
struct Reduce {
    kind: ReduceKind,
    acc: i64,
    seen: bool,
    pending: Option<Packet>,
}

impl Reduce {
    fn new(kind: ReduceKind) -> Self {
        Reduce {
            kind,
            acc: Self::init(kind),
            seen: false,
            pending: None,
        }
    }

    fn init(kind: ReduceKind) -> i64 {
        match kind {
            ReduceKind::Sum | ReduceKind::Count => 0,
            ReduceKind::Min => i64::MAX,
            ReduceKind::Max => i64::MIN,
        }
    }

    fn absorb(&mut self, value: i64) {
        self.seen = true;
        self.acc = match self.kind {
            ReduceKind::Sum => self.acc.wrapping_add(value),
            ReduceKind::Count => self.acc + 1,
            ReduceKind::Min => self.acc.min(value),
            ReduceKind::Max => self.acc.max(value),
        };
    }
}

impl Behavior for Reduce {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        if let Some(packet) = self.pending {
            if io.can_send("o") {
                io.send("o", packet);
                self.pending = None;
            } else {
                io.note_blocked("o");
            }
            return;
        }
        let Some(p) = io.peek("i") else { return };
        io.recv("i");
        if !p.empty {
            self.absorb(p.data);
        }
        if p.last >= 1 {
            let value = if self.seen { self.acc } else { 0 };
            let out = Packet {
                data: value,
                last: p.last - 1,
                empty: !self.seen && self.kind != ReduceKind::Count && self.kind != ReduceKind::Sum,
            };
            self.acc = Self::init(self.kind);
            self.seen = false;
            if io.can_send("o") {
                io.send("o", out);
            } else {
                self.pending = Some(out);
                io.note_blocked("o");
            }
        }
    }

    fn state_label(&self) -> Option<String> {
        Some(
            if self.pending.is_some() {
                "emit"
            } else if self.seen {
                "accumulating"
            } else {
                "idle"
            }
            .to_string(),
        )
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        // A held result is released by downstream credit (a channel
        // event); otherwise the reducer is input-driven.
        if self.pending.is_some() {
            Wake::OnEvent
        } else {
            Wake::Auto
        }
    }
}

fn reduce_factory(
    kind: ReduceKind,
) -> impl Fn(&Implementation, &Streamlet) -> Result<Box<dyn Behavior>, String> + Send + Sync {
    move |_, _| Ok(Box::new(Reduce::new(kind)))
}

/// Round-robin distributor (the paper's parallelize pattern).
struct Demux {
    outputs: Vec<String>,
    sel: usize,
}

impl Behavior for Demux {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let Some(p) = io.peek("i") else { return };
        let target = self.outputs[self.sel].clone();
        if io.can_send(&target) {
            io.send(&target, p);
            io.recv("i");
            self.sel = (self.sel + 1) % self.outputs.len();
        } else {
            io.note_blocked(&target);
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

/// Round-robin collector.
struct Mux {
    inputs: Vec<String>,
    sel: usize,
}

impl Behavior for Mux {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        let source = self.inputs[self.sel].clone();
        if io.peek(&source).is_some() {
            if io.can_send("o") {
                let p = io.recv(&source).expect("head checked");
                io.send("o", p);
                self.sel = (self.sel + 1) % self.inputs.len();
            } else {
                io.note_blocked("o");
            }
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        Wake::Auto
    }
}

/// Constant source: unbounded (`remaining: None`) or a finite column
/// of `n` rows closing its sequence on the final row.
struct ConstSource {
    value: i64,
    remaining: Option<u64>,
}

impl Behavior for ConstSource {
    fn tick(&mut self, io: &mut IoCtx<'_>) {
        match self.remaining {
            Some(0) => {}
            Some(1) => {
                if io.send("o", Packet::last(self.value, 1)) {
                    self.remaining = Some(0);
                }
            }
            Some(n) => {
                if io.send("o", Packet::data(self.value)) {
                    self.remaining = Some(n - 1);
                }
            }
            None => {
                if io.can_send("o") {
                    io.send("o", Packet::data(self.value));
                }
            }
        }
    }

    fn wake(&self, _io: &IoCtx<'_>) -> Wake {
        // A spontaneous source drives itself until drained.
        match self.remaining {
            Some(0) => Wake::OnEvent,
            _ => Wake::NextCycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use std::collections::HashMap;

    /// A tiny harness around one behaviour: named input and output
    /// channels plus a tick driver.
    struct Rig {
        behavior: Box<dyn Behavior>,
        channels: Vec<Channel>,
        inputs: HashMap<String, usize>,
        outputs: HashMap<String, usize>,
        blocked: HashMap<String, u64>,
        cycle: u64,
    }

    impl Rig {
        fn new(behavior: Box<dyn Behavior>, ins: &[&str], outs: &[&str]) -> Rig {
            let mut channels = Vec::new();
            let mut inputs = HashMap::new();
            let mut outputs = HashMap::new();
            for name in ins {
                inputs.insert(name.to_string(), channels.len());
                channels.push(Channel::new(format!("in:{name}"), 8));
            }
            for name in outs {
                outputs.insert(name.to_string(), channels.len());
                channels.push(Channel::new(format!("out:{name}"), 8));
            }
            Rig {
                behavior,
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
            self.behavior.tick(&mut io);
            for c in &mut self.channels {
                c.commit();
            }
            self.cycle += 1;
        }

        fn drain(&mut self, port: &str) -> Vec<Packet> {
            let idx = self.outputs[port];
            let mut out = Vec::new();
            while let Some(p) = self.channels[idx].pop() {
                out.push(p);
            }
            out
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.tick();
            }
        }
    }

    fn build_std(key: &str, ins: &[&str], outs: &[&str], params: &[(&str, &str)]) -> Rig {
        let registry = BehaviorRegistry::with_std();
        let mut streamlet = Streamlet::new("s");
        let ty = tydi_spec::LogicalType::stream(
            tydi_spec::LogicalType::Bit(32),
            tydi_spec::StreamParams::new(),
        );
        for name in ins {
            streamlet
                .ports
                .push(tydi_ir::Port::new(*name, PortDirection::In, ty.clone()));
        }
        for name in outs {
            streamlet
                .ports
                .push(tydi_ir::Port::new(*name, PortDirection::Out, ty.clone()));
        }
        let mut implementation = Implementation::external("x", "s");
        for (k, v) in params {
            implementation
                .attributes
                .insert(format!("param_{k}"), v.to_string());
        }
        let behavior = registry.build(key, &implementation, &streamlet).unwrap();
        Rig::new(behavior, ins, outs)
    }

    #[test]
    fn adder_adds() {
        let mut rig = build_std("std.add", &["in0", "in1"], &["o"], &[]);
        rig.feed("in0", &[Packet::data(2), Packet::data(10)]);
        rig.feed("in1", &[Packet::data(3), Packet::last(20, 1)]);
        rig.run(6);
        let out = rig.drain("o");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].data, 5);
        assert_eq!(out[1].data, 30);
        assert_eq!(out[1].last, 1);
    }

    #[test]
    fn adder_latency_throttles() {
        // An 8-cycle adder processes at most 1 packet per 8 cycles
        // (the paper's §IV-B motivating example).
        let mut rig = build_std("std.add", &["in0", "in1"], &["o"], &[("latency", "8")]);
        let inputs: Vec<Packet> = (0..4).map(Packet::data).collect();
        rig.feed("in0", &inputs);
        rig.feed("in1", &inputs);
        rig.run(16);
        assert_eq!(
            rig.drain("o").len(),
            2,
            "2 results in 16 cycles at latency 8"
        );
    }

    #[test]
    fn comparator_emits_bool() {
        let mut rig = build_std("std.cmp_lt", &["in0", "in1"], &["o"], &[]);
        rig.feed("in0", &[Packet::data(1), Packet::data(9)]);
        rig.feed("in1", &[Packet::data(5), Packet::data(5)]);
        rig.run(6);
        let out = rig.drain("o");
        assert_eq!(out.iter().map(|p| p.data).collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn const_compare() {
        let mut rig = build_std("std.ge_const", &["i"], &["o"], &[("v", "10")]);
        rig.feed("i", &[Packet::data(9), Packet::data(10), Packet::data(11)]);
        rig.run(5);
        let out = rig.drain("o");
        assert_eq!(
            out.iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn and_or_gates() {
        let mut rig = build_std("std.and_n", &["i_0", "i_1"], &["o"], &[]);
        rig.feed("i_0", &[Packet::data(1), Packet::data(1)]);
        rig.feed("i_1", &[Packet::data(0), Packet::data(1)]);
        rig.run(4);
        assert_eq!(
            rig.drain("o").iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![0, 1]
        );

        let mut rig = build_std("std.or_n", &["i_0", "i_1"], &["o"], &[]);
        rig.feed("i_0", &[Packet::data(1), Packet::data(0)]);
        rig.feed("i_1", &[Packet::data(0), Packet::data(0)]);
        rig.run(4);
        assert_eq!(
            rig.drain("o").iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![1, 0]
        );
    }

    #[test]
    fn filter_drops_and_preserves_last() {
        let mut rig = build_std("std.filter", &["i", "keep"], &["o"], &[]);
        rig.feed("i", &[Packet::data(1), Packet::data(2), Packet::last(3, 1)]);
        rig.feed("keep", &[Packet::data(1), Packet::data(0), Packet::data(0)]);
        rig.run(6);
        let out = rig.drain("o");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Packet::data(1));
        // The dropped final element still closes the sequence.
        assert!(out[1].empty);
        assert_eq!(out[1].last, 1);
    }

    #[test]
    fn sum_reduces_innermost_dimension() {
        let mut rig = build_std("std.sum", &["i"], &["o"], &[]);
        rig.feed(
            "i",
            &[
                Packet::data(1),
                Packet::data(2),
                Packet::last(3, 1),
                Packet::last(10, 2),
            ],
        );
        rig.run(8);
        let out = rig.drain("o");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].data, 6);
        assert_eq!(out[0].last, 0);
        assert_eq!(out[1].data, 10);
        assert_eq!(out[1].last, 1); // one level consumed
    }

    #[test]
    fn count_min_max() {
        let mut rig = build_std("std.count", &["i"], &["o"], &[]);
        rig.feed("i", &[Packet::data(5), Packet::data(5), Packet::last(5, 1)]);
        rig.run(6);
        assert_eq!(rig.drain("o")[0].data, 3);

        let mut rig = build_std("std.min", &["i"], &["o"], &[]);
        rig.feed("i", &[Packet::data(5), Packet::data(2), Packet::last(9, 1)]);
        rig.run(6);
        assert_eq!(rig.drain("o")[0].data, 2);

        let mut rig = build_std("std.max", &["i"], &["o"], &[]);
        rig.feed("i", &[Packet::data(5), Packet::data(2), Packet::last(9, 1)]);
        rig.run(6);
        assert_eq!(rig.drain("o")[0].data, 9);
    }

    #[test]
    fn demux_round_robin() {
        let mut rig = build_std("std.demux", &["i"], &["o_0", "o_1"], &[]);
        rig.feed(
            "i",
            &[
                Packet::data(0),
                Packet::data(1),
                Packet::data(2),
                Packet::data(3),
            ],
        );
        rig.run(8);
        assert_eq!(
            rig.drain("o_0").iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            rig.drain("o_1").iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn mux_round_robin() {
        let mut rig = build_std("std.mux", &["i_0", "i_1"], &["o"], &[]);
        rig.feed("i_0", &[Packet::data(0), Packet::data(2)]);
        rig.feed("i_1", &[Packet::data(1), Packet::data(3)]);
        rig.run(8);
        assert_eq!(
            rig.drain("o").iter().map(|p| p.data).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn const_source_fills_channel() {
        let mut rig = build_std("std.const", &[], &["o"], &[("v", "7")]);
        rig.run(3);
        let out = rig.drain("o");
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.data == 7));
    }

    #[test]
    fn duplicator_waits_for_all_sinks() {
        let registry = BehaviorRegistry::with_std();
        let ty = tydi_spec::LogicalType::stream(
            tydi_spec::LogicalType::Bit(8),
            tydi_spec::StreamParams::new(),
        );
        let streamlet = Streamlet::new("s")
            .with_port(tydi_ir::Port::new("i", PortDirection::In, ty.clone()))
            .with_port(tydi_ir::Port::new("o_0", PortDirection::Out, ty.clone()))
            .with_port(tydi_ir::Port::new("o_1", PortDirection::Out, ty));
        let implementation = Implementation::external("d", "s");
        let behavior = registry
            .build("std.duplicator", &implementation, &streamlet)
            .unwrap();
        let mut rig = Rig::new(behavior, &["i"], &["o_0", "o_1"]);
        rig.feed("i", &[Packet::data(42)]);
        rig.run(3);
        assert_eq!(rig.drain("o_0"), vec![Packet::data(42)]);
        assert_eq!(rig.drain("o_1"), vec![Packet::data(42)]);
    }

    #[test]
    fn voider_consumes_everything() {
        let mut rig = build_std("std.voider", &["i"], &[], &[]);
        rig.feed("i", &[Packet::data(1), Packet::data(2)]);
        rig.run(4);
        assert_eq!(rig.channels[rig.inputs["i"]].len(), 0);
    }
}
