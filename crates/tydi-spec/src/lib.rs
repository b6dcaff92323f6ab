//! # tydi-spec
//!
//! An implementation of the *Tydi specification* ("Tydi: An open
//! specification for complex data structures over hardware streams",
//! IEEE Micro 2020), the type-system foundation of the Tydi-lang
//! toolchain.
//!
//! The Tydi specification codifies composite, variable-length data
//! structures as *logical types* and defines how a logical type is
//! lowered onto one or more *physical streams*, each with a concrete
//! set of hardware signals (`valid`/`ready` handshake, `data`, `last`,
//! `stai`, `endi`, `strb`, `user`).
//!
//! This crate is purely structural: it knows nothing about source files,
//! templates or components. Those live in the `tydi-lang` frontend and
//! the `tydi-ir` intermediate representation, both of which build on the
//! types defined here.
//!
//! ## Quick tour
//!
//! ```
//! use tydi_spec::{LogicalType, StreamParams};
//!
//! // Stream(Bit(8), dimension = 2): an English sentence, characters in
//! // words in a sentence (paper §II).
//! let sentence = LogicalType::stream(
//!     LogicalType::Bit(8),
//!     StreamParams::new().with_dimension(2),
//! );
//!
//! // The logical type lowers to exactly one physical stream with one
//! // 8-bit data lane and two `last` bits.
//! let phys = tydi_spec::lower(&sentence).unwrap();
//! assert_eq!(phys.len(), 1);
//! assert_eq!(phys[0].signals().data_bits, 8);
//! assert_eq!(phys[0].signals().last_bits, 2);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod logical;
pub mod physical;
pub mod store;
pub mod stream;
pub mod text;

pub use clock::ClockDomain;
pub use error::SpecError;
pub use logical::{Field, LogicalType};
pub use physical::{index_width, lower, PhysicalStream, SignalBundle};
pub use store::{TypeId, TypeStore, TypeStoreStats};
pub use stream::{Complexity, Direction, StreamParams, Synchronicity, Throughput};
pub use text::parse_logical_type;
