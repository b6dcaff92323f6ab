//! Identifier legalization with per-backend keyword tables.
//!
//! Tydi-lang names (which may contain template mangling such as
//! `duplicator_i<Stream(Bit(8)),2>`) must map to legal, unique HDL
//! identifiers. The rules differ per backend: VHDL identifiers are
//! case-*insensitive* and must avoid the VHDL reserved words;
//! (System)Verilog identifiers are case-*sensitive* and must avoid
//! the Verilog keywords. Because one netlist is rendered by several
//! emitters, [`sanitize`] and [`NameAllocator`] are
//! backend-*neutral*: they avoid the union of all keyword tables and
//! uniquify case-insensitively (the strictest rule), so a single
//! legalized name is valid everywhere.

use std::collections::HashSet;
use std::sync::OnceLock;

/// A supported RTL backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// VHDL-93.
    Vhdl,
    /// SystemVerilog (IEEE 1800).
    SystemVerilog,
}

impl Backend {
    /// Every supported backend, in emission-preference order.
    pub const ALL: [Backend; 2] = [Backend::Vhdl, Backend::SystemVerilog];

    /// Lower-case backend name, as accepted by `tydic --emit`.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Vhdl => "vhdl",
            Backend::SystemVerilog => "verilog",
        }
    }

    /// The reserved words of this backend (lower-case).
    pub fn reserved_words(&self) -> &'static [&'static str] {
        match self {
            Backend::Vhdl => VHDL_RESERVED,
            Backend::SystemVerilog => VERILOG_RESERVED,
        }
    }

    /// Whether identifiers are compared case-sensitively. VHDL is
    /// case-insensitive (`Top` and `top` collide); Verilog is not.
    pub fn case_sensitive(&self) -> bool {
        match self {
            Backend::Vhdl => false,
            Backend::SystemVerilog => true,
        }
    }

    /// The single-line comment leader.
    pub fn comment_prefix(&self) -> &'static str {
        match self {
            Backend::Vhdl => "--",
            Backend::SystemVerilog => "//",
        }
    }

    /// The conventional file extension for generated sources.
    pub fn file_extension(&self) -> &'static str {
        match self {
            Backend::Vhdl => "vhd",
            Backend::SystemVerilog => "sv",
        }
    }

    /// True if `word` is reserved in this backend. Keyword tables are
    /// lower-case; VHDL matches case-insensitively, Verilog exactly
    /// (keywords are themselves lower-case, so `Reg` is a legal
    /// Verilog identifier while `reg` is not).
    pub fn is_reserved(&self, word: &str) -> bool {
        if self.case_sensitive() {
            self.reserved_words().contains(&word)
        } else {
            self.reserved_words()
                .contains(&word.to_ascii_lowercase().as_str())
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// VHDL-93 reserved words (lowercase).
const VHDL_RESERVED: &[&str] = &[
    "abs",
    "access",
    "after",
    "alias",
    "all",
    "and",
    "architecture",
    "array",
    "assert",
    "attribute",
    "begin",
    "block",
    "body",
    "buffer",
    "bus",
    "case",
    "component",
    "configuration",
    "constant",
    "disconnect",
    "downto",
    "else",
    "elsif",
    "end",
    "entity",
    "exit",
    "file",
    "for",
    "function",
    "generate",
    "generic",
    "group",
    "guarded",
    "if",
    "impure",
    "in",
    "inertial",
    "inout",
    "is",
    "label",
    "library",
    "linkage",
    "literal",
    "loop",
    "map",
    "mod",
    "nand",
    "new",
    "next",
    "nor",
    "not",
    "null",
    "of",
    "on",
    "open",
    "or",
    "others",
    "out",
    "package",
    "port",
    "postponed",
    "procedure",
    "process",
    "pure",
    "range",
    "record",
    "register",
    "reject",
    "rem",
    "report",
    "return",
    "rol",
    "ror",
    "select",
    "severity",
    "signal",
    "shared",
    "sla",
    "sll",
    "sra",
    "srl",
    "subtype",
    "then",
    "to",
    "transport",
    "type",
    "unaffected",
    "units",
    "until",
    "use",
    "variable",
    "wait",
    "when",
    "while",
    "with",
    "xnor",
    "xor",
];

/// SystemVerilog (IEEE 1800) keywords (lowercase). Covers the
/// Verilog-2005 set plus the SystemVerilog additions generated code
/// is likely to collide with.
const VERILOG_RESERVED: &[&str] = &[
    "alias",
    "always",
    "always_comb",
    "always_ff",
    "always_latch",
    "and",
    "assert",
    "assign",
    "assume",
    "automatic",
    "before",
    "begin",
    "bind",
    "bins",
    "binsof",
    "bit",
    "break",
    "buf",
    "bufif0",
    "bufif1",
    "byte",
    "case",
    "casex",
    "casez",
    "cell",
    "chandle",
    "class",
    "clocking",
    "cmos",
    "config",
    "const",
    "constraint",
    "context",
    "continue",
    "cover",
    "covergroup",
    "coverpoint",
    "cross",
    "deassign",
    "default",
    "defparam",
    "design",
    "disable",
    "dist",
    "do",
    "edge",
    "else",
    "end",
    "endcase",
    "endclass",
    "endclocking",
    "endconfig",
    "endfunction",
    "endgenerate",
    "endgroup",
    "endinterface",
    "endmodule",
    "endpackage",
    "endprimitive",
    "endprogram",
    "endproperty",
    "endspecify",
    "endsequence",
    "endtable",
    "endtask",
    "enum",
    "event",
    "expect",
    "export",
    "extends",
    "extern",
    "final",
    "first_match",
    "for",
    "force",
    "foreach",
    "forever",
    "fork",
    "forkjoin",
    "function",
    "generate",
    "genvar",
    "highz0",
    "highz1",
    "if",
    "iff",
    "ifnone",
    "ignore_bins",
    "illegal_bins",
    "import",
    "incdir",
    "include",
    "initial",
    "inout",
    "input",
    "inside",
    "instance",
    "int",
    "integer",
    "interface",
    "intersect",
    "join",
    "join_any",
    "join_none",
    "large",
    "liblist",
    "library",
    "local",
    "localparam",
    "logic",
    "longint",
    "macromodule",
    "matches",
    "medium",
    "modport",
    "module",
    "nand",
    "negedge",
    "new",
    "nmos",
    "nor",
    "noshowcancelled",
    "not",
    "notif0",
    "notif1",
    "null",
    "or",
    "output",
    "package",
    "packed",
    "parameter",
    "pmos",
    "posedge",
    "primitive",
    "priority",
    "program",
    "property",
    "protected",
    "pull0",
    "pull1",
    "pulldown",
    "pullup",
    "pure",
    "rand",
    "randc",
    "randcase",
    "randsequence",
    "rcmos",
    "real",
    "realtime",
    "ref",
    "reg",
    "release",
    "repeat",
    "return",
    "rnmos",
    "rpmos",
    "rtran",
    "rtranif0",
    "rtranif1",
    "scalared",
    "sequence",
    "shortint",
    "shortreal",
    "showcancelled",
    "signed",
    "small",
    "solve",
    "specify",
    "specparam",
    "static",
    "string",
    "strong0",
    "strong1",
    "struct",
    "super",
    "supply0",
    "supply1",
    "table",
    "tagged",
    "task",
    "this",
    "throughout",
    "time",
    "timeprecision",
    "timeunit",
    "tran",
    "tranif0",
    "tranif1",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "type",
    "typedef",
    "union",
    "unique",
    "unsigned",
    "use",
    "uwire",
    "var",
    "vectored",
    "virtual",
    "void",
    "wait",
    "wait_order",
    "wand",
    "weak0",
    "weak1",
    "while",
    "wildcard",
    "wire",
    "with",
    "within",
    "wor",
    "xnor",
    "xor",
];

/// True if `word` is reserved in *any* supported backend (the neutral
/// rule used when one name must serve every emitter). Every keyword is
/// lower-case, so a name without upper-case ASCII is one lookup in the
/// union of the tables, and a name with it can only match VHDL's
/// case-insensitive rule.
fn is_reserved_anywhere(word: &str) -> bool {
    static ALL_RESERVED: OnceLock<HashSet<&'static str>> = OnceLock::new();
    if word.bytes().any(|b| b.is_ascii_uppercase()) {
        return Backend::Vhdl.is_reserved(word);
    }
    ALL_RESERVED
        .get_or_init(|| {
            VHDL_RESERVED
                .iter()
                .chain(VERILOG_RESERVED)
                .copied()
                .collect()
        })
        .contains(word)
}

/// Sanitizes an arbitrary string into an identifier legal in every
/// supported backend.
///
/// Illegal characters become underscores, runs of underscores collapse,
/// a leading digit gains a `v` prefix, and words reserved in any
/// backend gain a `_v` suffix. The empty string becomes `"anon"`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    sanitize_into(&mut out, name);
    out
}

/// Appends [`sanitize`]`(name)` to `out`, so a caller that builds many
/// names can reuse one buffer.
pub fn sanitize_into(out: &mut String, name: &str) {
    let start = out.len();
    let mut last_underscore = true; // suppress leading underscores
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
            last_underscore = false;
        } else if !last_underscore {
            out.push('_');
            last_underscore = true;
        }
    }
    while out.len() > start && out.ends_with('_') {
        out.pop();
    }
    if out.len() == start {
        out.push_str("anon");
        return;
    }
    if out[start..].starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(start, 'v');
    }
    if is_reserved_anywhere(&out[start..]) {
        out.push_str("_v");
    }
}

/// Allocates unique sanitized identifiers.
///
/// Allocation is backend-neutral: names are legal in every backend
/// (see [`sanitize`]) and uniquified case-insensitively, so the
/// allocation is stable no matter which emitter later renders it.
#[derive(Debug, Default)]
pub struct NameAllocator {
    taken: HashSet<String>,
}

impl NameAllocator {
    /// An empty allocator.
    pub fn new() -> Self {
        NameAllocator::default()
    }

    /// Returns a sanitized identifier for `name`, appending `_2`, `_3`
    /// ... on collision.
    pub fn allocate(&mut self, name: &str) -> String {
        let base = sanitize(name);
        let mut candidate = base.clone();
        let mut counter = 1u32;
        while !self.taken.insert(candidate.to_ascii_lowercase()) {
            counter += 1;
            candidate = format!("{base}_{counter}");
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_legal_names_through() {
        assert_eq!(sanitize("adder_32"), "adder_32");
        assert_eq!(sanitize("TopLevel"), "TopLevel");
    }

    #[test]
    fn replaces_illegal_characters() {
        assert_eq!(
            sanitize("duplicator_i<Stream(Bit(8)),2>"),
            "duplicator_i_Stream_Bit_8_2"
        );
        assert_eq!(sanitize("a..b"), "a_b");
    }

    #[test]
    fn collapses_underscores_and_trims() {
        assert_eq!(sanitize("__a__b__"), "a_b");
        assert_eq!(sanitize("a---b"), "a_b");
    }

    #[test]
    fn fixes_leading_digit() {
        assert_eq!(sanitize("8bit"), "v8bit");
    }

    #[test]
    fn union_lookup_agrees_with_every_backend_table() {
        let words = VHDL_RESERVED.iter().chain(VERILOG_RESERVED);
        for word in words.chain(&["adder", "u_top", "Top"]) {
            let capitalized = format!("{}{}", word[..1].to_ascii_uppercase(), &word[1..]);
            for variant in [word.to_string(), word.to_ascii_uppercase(), capitalized] {
                let per_backend = Backend::ALL.iter().any(|b| b.is_reserved(&variant));
                assert_eq!(is_reserved_anywhere(&variant), per_backend, "{variant}");
            }
        }
    }

    #[test]
    fn avoids_reserved_words_of_every_backend() {
        // VHDL keywords.
        assert_eq!(sanitize("signal"), "signal_v");
        assert_eq!(sanitize("Entity"), "Entity_v");
        assert_eq!(sanitize("out"), "out_v");
        // Verilog keywords (not reserved in VHDL).
        assert_eq!(sanitize("reg"), "reg_v");
        assert_eq!(sanitize("always_ff"), "always_ff_v");
        assert_eq!(sanitize("module"), "module_v");
    }

    #[test]
    fn vhdl_keywords_match_case_insensitively_verilog_exactly() {
        assert!(Backend::Vhdl.is_reserved("ENTITY"));
        assert!(Backend::SystemVerilog.is_reserved("reg"));
        // Verilog identifiers are case-sensitive; `Reg` is legal.
        assert!(!Backend::SystemVerilog.is_reserved("Reg"));
    }

    #[test]
    fn empty_becomes_anon() {
        assert_eq!(sanitize(""), "anon");
        assert_eq!(sanitize("<>"), "anon");
    }

    #[test]
    fn sanitize_into_appends_what_sanitize_returns() {
        for name in ["8bit", "signal", "__a__b__", "<>", "u_p0", "n3_p2_o"] {
            let mut out = "kept_".to_string();
            sanitize_into(&mut out, name);
            assert_eq!(out, format!("kept_{}", sanitize(name)), "{name}");
        }
    }

    #[test]
    fn neutral_allocator_uniquifies_case_insensitively() {
        let mut a = NameAllocator::new();
        assert_eq!(a.allocate("x"), "x");
        assert_eq!(a.allocate("X"), "X_2");
        assert_eq!(a.allocate("x"), "x_3");
        assert_eq!(a.allocate("y"), "y");
    }

    #[test]
    fn backend_metadata() {
        assert_eq!(Backend::Vhdl.comment_prefix(), "--");
        assert_eq!(Backend::SystemVerilog.comment_prefix(), "//");
        assert_eq!(Backend::Vhdl.file_extension(), "vhd");
        assert_eq!(Backend::SystemVerilog.file_extension(), "sv");
        assert_eq!(Backend::Vhdl.to_string(), "vhdl");
        assert_eq!(Backend::SystemVerilog.to_string(), "verilog");
    }
}
