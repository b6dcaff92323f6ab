//! # tydi-rtl
//!
//! A backend-neutral structural netlist IR for generated RTL, sitting
//! between Tydi-IR and emitted text (the layer argued for by the
//! Tydi-IR companion paper: one structural representation, many HDL
//! writers).
//!
//! The [`netlist`] module defines the datatype: a [`netlist::Netlist`]
//! is a list of [`netlist::Module`]s, each with typed scalar/vector
//! ports and one of three bodies — *structural* (nets, continuous
//! assignments, instances with port maps), *behavioral* (opaque
//! per-backend text blocks produced by builtin generators), or
//! *black-box*. Everything backend-specific lives behind the
//! [`emit::Emitter`] trait, implemented by [`vhdl::VhdlEmitter`] and
//! [`verilog::SystemVerilogEmitter`].
//!
//! [`names`] centralizes identifier legalization with per-backend
//! keyword tables and case-sensitivity rules (VHDL identifiers are
//! case-insensitive, Verilog identifiers are not); the default
//! [`names::sanitize`] is backend-neutral, producing names legal in
//! every supported backend so a single netlist can be rendered by any
//! emitter without renaming.

#![warn(missing_docs)]

pub mod check;
pub mod emit;
pub mod names;
pub mod netlist;
pub mod verilog;
pub mod vhdl;

pub use emit::{emitter_for, EmitError, EmittedFile, Emitter};
pub use names::{sanitize, Backend, NameAllocator};
pub use netlist::{Module, ModuleBody, Netlist};
pub use verilog::SystemVerilogEmitter;
pub use vhdl::VhdlEmitter;
