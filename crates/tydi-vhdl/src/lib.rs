//! # tydi-vhdl
//!
//! The Tydi-IR RTL backend (the second compilation step of the
//! paper's toolchain, Fig. 1). Tydi-IR is lowered **once** to the
//! backend-neutral netlist of [`tydi_rtl`] ([`lower::lower_project`])
//! and then rendered by a per-backend emitter; [`generate_project`]
//! is the VHDL entry point and [`generate_project_for`] selects any
//! backend (VHDL or SystemVerilog). Every Tydi-IR implementation
//! becomes one netlist module and one generated file:
//!
//! * each port's logical stream type is lowered to its physical
//!   streams (via [`tydi_spec::lower`]) and each physical stream
//!   expands into `valid`/`ready`/`data`/`last`/`stai`/`endi`/`strb`/
//!   `user` signals ([`signals`]);
//! * *normal* implementations become structural bodies with direct
//!   instantiation and one intermediate signal bundle per connection;
//! * *external* implementations with a registered builtin key get one
//!   behavioral body per backend from the [`builtin`] registry — the
//!   "hard-coded RTL generation process" for standard-library
//!   components described in paper §IV-C;
//! * testbenches recorded by the simulator lower to VHDL testbenches
//!   (paper §V-C).
//!
//! The backend also exposes [`loc::count_loc`], the line-of-code metric
//! used to regenerate the paper's Table IV.

#![warn(missing_docs)]

pub mod backend;
pub mod builtin;
pub mod check;
pub mod error;
pub mod loc;
pub mod lower;
pub mod names;
pub mod signals;
pub mod testbench;

pub use backend::{files_to_string, generate_project, generate_project_for, VhdlFile, VhdlOptions};
pub use builtin::BuiltinRegistry;
pub use error::VhdlError;
pub use loc::count_loc;
pub use lower::{lower_project, lower_project_with};
pub use testbench::generate_testbench;
pub use tydi_rtl::{emitter_for, Backend};
