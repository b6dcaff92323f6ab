//! # tydi-lang
//!
//! The Tydi-lang compiler frontend — the primary contribution of
//! *"Tydi-lang: A Language for Typed Streaming Hardware"* (SC 2023).
//!
//! Tydi-lang is a high-level hardware description language for typed
//! streaming hardware. Source code describes logical types (paper
//! Table I), streamlets, implementations, immutable variables with a
//! math expression system, generative `for`/`if`/`assert` syntax
//! (paper Table II), and C++-class-template-like *templates* over
//! streamlets and implementations (paper §IV-B).
//!
//! The frontend follows the staged pipeline of paper Fig. 3:
//!
//! 1. **parse** — source text to abstract syntax tree;
//! 2. **evaluate** — constants, types and the math system;
//! 3. **expand** — template instantiation and generative syntax,
//!    producing concrete streamlets/implementations (code structure
//!    #2/#3);
//! 4. **sugar** — automatic duplicator/voider insertion (paper Fig. 4);
//! 5. **DRC** — the design-rule checks (strict type equality and
//!    exactly-once port usage);
//! 6. **IR generation** — a validated [`tydi_ir::Project`].
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! use tydi_lang::{compile, CompileOptions};
//!
//! let source = r#"
//! package demo;
//! type Byte = Stream(Bit(8));
//! streamlet wire_s { i : Byte in, o : Byte out, }
//! impl wire_i of wire_s { i => o, }
//! "#;
//! let output = compile(&[("demo.td", source)], &CompileOptions::default()).unwrap();
//! assert!(output.project.implementation("wire_i").is_some());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod diagnostics;
pub mod eval;
pub mod fingerprint;
pub mod instantiate;
pub mod lexer;
pub mod obs;
pub mod parser;
pub mod pipeline;
pub mod pretty;
pub mod scope;
pub mod session;
pub mod sim_ast;
pub mod span;
pub mod sugar;
pub mod token;
pub mod value;

pub use cache::{ArtifactCache, CacheLock, CACHE_DIR_NAME};
pub use diagnostics::{Diagnostic, Severity};
pub use fingerprint::Fingerprint;
pub use obs::publish_compile_metrics;
pub use pipeline::{compile, compile_with_cache, CompileOptions, CompileOutput, StageTimings};
pub use session::{ParsedUnit, Session, Stage, StageRecord};
pub use span::{SourceFile, Span};
pub use value::Value;

/// Parses simulation code (the body of a `simulation { ... }` block)
/// into its AST. Exposed for the `tydi-sim` crate.
pub fn parse_simulation(source: &str) -> Result<sim_ast::SimBlock, Vec<Diagnostic>> {
    parser::parse_simulation_source(source)
}
