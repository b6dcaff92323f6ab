//! Identifier sanitization (re-exported from [`tydi_rtl::names`]).
//!
//! Tydi-lang names (which may contain template mangling such as
//! `duplicator_i<Stream(Bit(8)),2>`) must map to legal, unique HDL
//! identifiers. Legalization lives in `tydi-rtl` with per-backend
//! keyword tables; the functions re-exported here are
//! backend-*neutral* (avoid every backend's keywords, uniquify
//! case-insensitively) so one legalized name serves the VHDL and
//! SystemVerilog emitters alike.

pub use tydi_rtl::names::{sanitize, NameAllocator};

#[cfg(test)]
mod tests {
    use super::*;

    // The historic VHDL-facing behaviour, pinned: the neutral rules
    // are a superset of VHDL's, so existing callers see no change for
    // VHDL-reserved or structurally illegal names.
    #[test]
    fn vhdl_reserved_words_still_suffixed() {
        assert_eq!(sanitize("signal"), "signal_v");
        assert_eq!(sanitize("Entity"), "Entity_v");
        assert_eq!(sanitize("out"), "out_v");
    }

    #[test]
    fn template_mangling_still_flattened() {
        assert_eq!(
            sanitize("duplicator_i<Stream(Bit(8)),2>"),
            "duplicator_i_Stream_Bit_8_2"
        );
    }

    #[test]
    fn allocator_still_uniquifies_case_insensitively() {
        let mut a = NameAllocator::new();
        assert_eq!(a.allocate("x"), "x");
        assert_eq!(a.allocate("X"), "X_2");
        assert_eq!(a.allocate("x"), "x_3");
        assert_eq!(a.allocate("y"), "y");
    }
}
