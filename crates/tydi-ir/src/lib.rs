//! # tydi-ir
//!
//! The Tydi intermediate representation ("A toolchain for streaming
//! dataflow accelerator designs for big data analytics: defining an IR
//! for composable typed streaming dataflow designs", ADMS 2023), the
//! layer between the Tydi-lang frontend and hardware backends.
//!
//! A Tydi-IR [`Project`] contains:
//!
//! * [`Streamlet`]s — port maps, the analogue of VHDL entities. Every
//!   port binds a Tydi logical *stream* type and a clock domain.
//! * [`Implementation`]s — the inner structure of a component, either
//!   *normal* (a set of [`Instance`]s plus [`Connection`]s, the
//!   analogue of a structural VHDL architecture) or *external*
//!   (a black box provided by another tool or by the builtin RTL
//!   generators of the standard library).
//!
//! The IR enforces the paper's design rules on [`Project::validate`]:
//! connected ports must have identical logical types (strict,
//! by-declaration equality unless relaxed), compatible protocol
//! complexities, legal directions, matching clock domains, and every
//! port must be used exactly once.
//!
//! The IR also has a stable text format ([`text::emit_project`] /
//! [`text::parse_project`]), a versioned binary format with an
//! interned type table ([`binary::encode_project`] /
//! [`binary::decode_project`]) used by the artifact cache, and a
//! [`testbench`] representation that the simulator fills in and the
//! VHDL backend lowers to a VHDL testbench.

#![warn(missing_docs)]

pub mod binary;
pub mod bits;
pub mod component;
pub mod error;
pub mod fingerprint;
pub mod index;
pub mod intern;
pub mod project;
pub mod testbench;
pub mod text;
pub mod validate;

pub use bits::BitsValue;
pub use component::{
    Connection, EndpointRef, ImplKind, Implementation, Instance, Port, PortDirection, Streamlet,
};
pub use error::IrError;
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use index::ProjectIndex;
pub use intern::{ImplId, Interner, StreamletId, Symbol};
pub use project::Project;
pub use testbench::{Testbench, Transfer, TransferDirection};
