//! # tydi-sim
//!
//! The Tydi simulator (paper §V): an event-driven, handshake-accurate
//! simulator for elaborated Tydi designs.
//!
//! The simulator flattens a validated [`tydi_ir::Project`] into a
//! graph of leaf components (external implementations) connected by
//! bounded FIFO channels that model the `valid`/`ready` handshake.
//! Component behaviour comes from three sources:
//!
//! * **builtin models** for every `std.*` standard-library component;
//! * **interpreted simulation code** (`simulation { ... }` blocks on
//!   external impls, paper §V-A) — state variables, composite events,
//!   explicit acknowledgement and `delay(n)`;
//! * **custom Rust behaviours** registered by the embedding crate
//!   (the Fletcher substrate uses this to feed table columns).
//!
//! The engine is an event-driven scheduler: components sit on a
//! ready-set worklist and are stepped only when an input channel gains
//! a packet, an output channel gains credit, or their own [`Wake`]
//! hint (internal delays, spontaneous sources) fires; inert cycles are
//! skipped outright. [`SimBatch`] shards N independent stimulus
//! scenarios over the same design across threads and merges their
//! bottleneck reports.
//!
//! Analyses reproduce the paper's §V-B capabilities: per-port blocked
//! time for *bottleneck* identification, quiescence-based *deadlock*
//! detection with typed [`StopReason`]s, data-flow recording, and
//! state-transition tables. The boundary recording lowers to a
//! [`tydi_ir::Testbench`], which `tydi-vhdl` turns into a VHDL
//! testbench (paper §V-C).

#![warn(missing_docs)]

pub mod batch;
pub mod behavior;
pub mod builtin_behaviors;
pub mod channel;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod interp;
pub mod report;
pub mod testbench_gen;

pub use batch::{worker_threads, BatchError, BatchReport, Scenario, ScenarioReport, SimBatch};
pub use behavior::{Behavior, BehaviorRegistry, IoCtx, Wake};
pub use channel::{Channel, Packet};
pub use engine::{RunResult, SchedulerKind, SimError, Simulator, StopReason};
pub use fault::{Fault, FaultParseError, FaultPlan, FaultStats};
pub use report::{BottleneckReport, ChannelStats, PortBlockage, SimReport};
