//! The traced, in-process pass: calls each layer's public function
//! directly, in the order `tydic build --no-cache --emit vhdl` runs
//! them, and wraps every call in a span named after the layer.

use crate::gen::Design;
use crate::trace::Tracer;
use std::path::Path;
use tydi_ir::{Project, ProjectIndex};
use tydi_lang::diagnostics::has_errors;
use tydi_rtl::{emitter_for, Backend, EmittedFile};
use tydi_stdlib::{full_registry, stdlib_source};
use tydi_vhdl::{BuiltinRegistry, VhdlOptions};

/// The project name `tydic` gives every compile.
pub const PROJECT_NAME: &str = "tydic_out";

/// What one in-process build produced.
pub struct Built {
    /// Emitted VHDL files, in definition order.
    pub files: Vec<EmittedFile>,
    /// The elaborated, sugared project.
    pub project: Project,
    /// Its name-resolution index.
    pub index: ProjectIndex,
    /// Source bytes parsed (standard library excluded).
    pub parse_bytes: u64,
}

/// The RTL builtin registry `tydic` builds for VHDL emission.
pub fn registry() -> BuiltinRegistry {
    let registry = full_registry();
    tydi_fletcher::register_fletcher_rtl(&registry);
    registry
}

fn errors_text(diagnostics: &[tydi_lang::Diagnostic]) -> String {
    diagnostics
        .iter()
        .map(|d| d.message.clone())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Compiles `design` layer by layer and, with `out_dir`, writes the
/// VHDL files there.
pub fn build(
    design: &Design,
    registry: &BuiltinRegistry,
    tracer: &mut Tracer,
    out_dir: Option<&Path>,
) -> Result<Built, String> {
    let stdlib = tracer.span("core.stdlib_parse", |_| {
        tydi_lang::parser::parse_package(0, stdlib_source())
    });
    let mut packages = Vec::with_capacity(design.texts.len() + 1);
    let mut diagnostics = stdlib.1;
    packages.extend(stdlib.0);
    let mut parse_bytes = 0u64;
    tracer.span("core.parse", |_| {
        for (index, text) in design.texts.iter().enumerate() {
            let (package, diags) = tydi_lang::parser::parse_package(index + 1, text);
            parse_bytes += text.len() as u64;
            diagnostics.extend(diags);
            packages.extend(package);
        }
    });
    if has_errors(&diagnostics) {
        return Err(format!(
            "{}: parse failed: {}",
            design.name,
            errors_text(&diagnostics)
        ));
    }
    tracer.span("core.fingerprint", |_| {
        for package in &packages {
            std::hint::black_box(tydi_lang::fingerprint::ast_fingerprint(package));
        }
    });
    let (mut project, mut index) = tracer.span("core.elaborate", |_| {
        let (project, _info, diags) = tydi_lang::instantiate::elaborate(packages, PROJECT_NAME);
        diagnostics.extend(diags);
        let index = ProjectIndex::build(&project);
        (project, index)
    });
    if has_errors(&diagnostics) {
        return Err(format!(
            "{}: elaboration failed: {}",
            design.name,
            errors_text(&diagnostics)
        ));
    }
    if design.sugaring {
        tracer.span("core.sugar", |_| {
            tydi_lang::sugar::apply_sugaring_with(&mut project, &mut index)
        });
    }
    let check = |tracer: &mut Tracer, layer: &'static str| {
        tracer
            .span(layer, |_| project.validate_with(&index))
            .map_err(|errors| format!("{}: {layer} failed: {errors:?}", design.name))
    };
    check(tracer, "core.drc")?;
    // `tydic build` validates a second time inside `lower_project_with`
    // (`VhdlOptions::validate`); it is timed as its own layer here.
    check(tracer, "ir.validate")?;
    let options = VhdlOptions {
        emit_comments: true,
        validate: false,
    };
    let netlist = tracer
        .span("vhdl.lower", |_| {
            tydi_vhdl::lower_project_with(&project, &index, registry, &options)
        })
        .map_err(|e| format!("{}: lowering failed: {e}", design.name))?;
    let files = tracer
        .span("rtl.emit", |_| {
            emitter_for(Backend::Vhdl).emit_netlist(&netlist)
        })
        .map_err(|e| format!("{}: emission failed: {e}", design.name))?;
    if let Some(dir) = out_dir {
        tracer
            .span("io.write", |_| -> std::io::Result<()> {
                std::fs::create_dir_all(dir)?;
                for file in &files {
                    std::fs::write(dir.join(&file.name), &file.contents)?;
                }
                Ok(())
            })
            .map_err(|e| format!("{}: write failed: {e}", design.name))?;
    }
    Ok(Built {
        files,
        project,
        index,
        parse_bytes,
    })
}

/// Runs the static analyzer on the design's first top-level candidate,
/// as `tydic analyze` does without `--top`.
pub fn analyze(built: &Built, tracer: &mut Tracer) -> Result<(), String> {
    let top = built
        .project
        .top_level_candidates()
        .first()
        .map(|s| s.to_string())
        .ok_or("no top-level candidate")?;
    tracer
        .span("analyze", |_| {
            tydi_analyze::analyze(
                &built.project,
                &built.index,
                &top,
                &tydi_analyze::AnalyzeOptions::default(),
            )
        })
        .map(|_| ())
        .map_err(|e| format!("analyze `{top}`: {e}"))
}
