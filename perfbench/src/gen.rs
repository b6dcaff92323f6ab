//! Seeded input generation. Every generated byte is a function of the
//! workload seed alone; the same seed writes byte-identical files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tydi_tpch::{all_queries, GenOptions, QueryCase, TpchData};

/// splitmix64: small, fast and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Size of one generated or loaded input, for the run record.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputSize {
    /// Source bytes over all of the design's files.
    pub bytes: u64,
    /// `instance` declarations in the generated top level.
    pub instances: u64,
    /// Terms of the generated expression chain.
    pub terms: u64,
    /// TPC-H rows per table.
    pub rows: u64,
}

/// One design: the files handed to `tydic`, in order.
#[derive(Debug, Clone)]
pub struct Design {
    /// Class name in reports, e.g. `cookbook/04_generative` or `chain.large`.
    pub name: String,
    /// Input files (the standard library is implicit).
    pub files: Vec<PathBuf>,
    /// Their contents, in the same order.
    pub texts: Vec<String>,
    /// Sugaring on (`--no-sugar` off).
    pub sugaring: bool,
    /// Stem of the pinned VHDL snapshot under `tests/golden/vhdl`.
    pub golden: Option<String>,
    /// Generated family and the scale parameter (cold_large only).
    pub family: Option<(&'static str, u64)>,
    /// Sizes for the run record.
    pub size: InputSize,
}

impl Design {
    fn new(name: String, files: Vec<(PathBuf, String)>, sugaring: bool) -> Design {
        let bytes = files.iter().map(|(_, text)| text.len() as u64).sum();
        let (files, texts) = files.into_iter().unzip();
        Design {
            name,
            files,
            texts,
            sugaring,
            golden: None,
            family: None,
            size: InputSize {
                bytes,
                ..InputSize::default()
            },
        }
    }

    /// Writes the design's files to disk.
    pub fn write(&self) -> std::io::Result<()> {
        for (path, text) in self.files.iter().zip(&self.texts) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, text)?;
        }
        Ok(())
    }

    /// The design's sizes as a run-record JSON object.
    pub fn size_json(&self) -> String {
        let s = self.size;
        format!(
            "{{\"bytes\":{},\"instances\":{},\"terms\":{},\"rows\":{}}}",
            s.bytes, s.instances, s.terms, s.rows
        )
    }

    /// `(file name, text)` pairs, the form the compiler library takes.
    pub fn sources(&self) -> Vec<(String, String)> {
        self.files
            .iter()
            .map(|p| p.display().to_string())
            .zip(self.texts.iter().cloned())
            .collect()
    }
}

/// The 13 cookbook designs, read from the checkout and copied under
/// `dir` (copies, so a workload may rewrite them).
pub fn cookbook(root: &Path, dir: &Path) -> std::io::Result<Vec<Design>> {
    let mut names: Vec<String> = std::fs::read_dir(root.join("cookbook"))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().to_string_lossy().to_string();
            name.ends_with(".td").then_some(name)
        })
        .collect();
    names.sort();
    let mut designs = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(root.join("cookbook").join(&name))?;
        let stem = name.trim_end_matches(".td").to_string();
        let mut design = Design::new(
            format!("cookbook/{stem}"),
            vec![(dir.join("cookbook").join(&name), text)],
            true,
        );
        design.golden = Some(stem);
        designs.push(design);
    }
    Ok(designs)
}

/// The TPC-H data set and the 6 query cases for `rows` rows.
pub fn tpch(seed: u64, rows: usize) -> (TpchData, Vec<QueryCase>) {
    let data = TpchData::generate(GenOptions { rows, seed });
    let cases = all_queries(&data);
    (data, cases)
}

/// The TPC-H queries written out as `.td` files: the generated
/// Fletcher interface packages plus the query logic, one directory per
/// query.
pub fn tpch_designs(cases: &[QueryCase], rows: usize, dir: &Path) -> Vec<Design> {
    cases
        .iter()
        .map(|case| {
            let qdir = dir.join("tpch").join(case.id);
            let mut files: Vec<(PathBuf, String)> = case
                .fletcher_sources
                .iter()
                .map(|(name, text)| (qdir.join(name), text.clone()))
                .collect();
            files.push((qdir.join(&case.query_source.0), case.query_source.1.clone()));
            let mut design = Design::new(format!("tpch/{}", case.id), files, case.sugaring);
            design.size.rows = rows as u64;
            design
        })
        .collect()
}

/// A chain of `n` passthrough instances between the top's ports.
pub fn chain(rng: &mut Rng, n: u64, path: PathBuf) -> Design {
    let width = rng.range(10, 99);
    let tag = rng.range(100, 999);
    let mut s = String::new();
    let _ = writeln!(s, "package chain_{tag};");
    let _ = writeln!(s, "type W = Stream(Bit({width}));");
    let _ = writeln!(s, "streamlet pass_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl pass_{tag}_i of pass_s {{ i => o, }}");
    let _ = writeln!(s, "streamlet top_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl top_i of top_s {{");
    for k in 0..n {
        let _ = writeln!(s, "    instance p{k}(pass_{tag}_i),");
    }
    let _ = writeln!(s, "    i => p0.i,");
    for k in 1..n {
        let _ = writeln!(s, "    p{}.o => p{k}.i,", k - 1);
    }
    let _ = writeln!(s, "    p{}.o => o,", n - 1);
    let _ = writeln!(s, "}}");
    let mut design = Design::new(String::new(), vec![(path, s)], true);
    design.size.instances = n;
    design
}

/// A left-nested `const x = d + d + ...;` chain of `n` single-digit
/// terms next to a one-wire design, plus the value it must evaluate to.
pub fn expr(rng: &mut Rng, n: u64, path: PathBuf) -> Design {
    let width = rng.range(10, 99);
    let mut s = String::new();
    let _ = writeln!(s, "package expr_{};", rng.range(100, 999));
    let _ = writeln!(s, "type W = Stream(Bit({width}));");
    let _ = writeln!(s, "streamlet wire_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl wire_i of wire_s {{ i => o, }}");
    s.push_str("const x = ");
    for k in 0..n {
        if k > 0 {
            s.push_str(" + ");
        }
        let _ = write!(s, "{}", rng.range(1, 9));
    }
    s.push_str(";\n");
    let mut design = Design::new(String::new(), vec![(path, s)], true);
    design.size.terms = n;
    design
}

/// `n` instances of distinct `const_vec_i` template instantiations.
pub fn templates(rng: &mut Rng, n: u64, path: PathBuf) -> Design {
    let width = rng.range(10, 99);
    let base = rng.range(1000, 4999);
    let mut s = String::new();
    let _ = writeln!(s, "package tmpl_{};", rng.range(100, 999));
    let _ = writeln!(s, "use std;");
    let _ = writeln!(s, "type W = Stream(Bit({width}));");
    let _ = writeln!(s, "streamlet top_s {{ i : W in, o : W out, }}");
    let _ = writeln!(s, "impl top_i of top_s {{");
    let _ = writeln!(s, "    i => o,");
    for k in 0..n {
        let _ = writeln!(
            s,
            "    instance c{k}(const_vec_i<type W, {}, {}>),",
            base + k,
            rng.range(2, 9)
        );
    }
    let _ = writeln!(s, "}}");
    let mut design = Design::new(String::new(), vec![(path, s)], true);
    design.size.instances = n;
    design
}

/// The cold_large design set: three families, each at a small and a
/// large scale (4x apart).
pub fn large_designs(seed: u64, dir: &Path) -> Vec<Design> {
    type Generator = fn(&mut Rng, u64, PathBuf) -> Design;
    let families: [(&'static str, Generator, u64); 3] = [
        ("chain", chain, 1000),
        ("expr", expr, 5000),
        ("tmpl", templates, 100),
    ];
    let mut designs = Vec::new();
    for (stream, (family, generate, small)) in families.into_iter().enumerate() {
        for (scale, n) in [("small", small), ("large", small * 4)] {
            let mut rng = Rng::new(seed, stream as u64 * 2 + (scale == "large") as u64);
            let name = format!("{family}.{scale}");
            let mut design = generate(&mut rng, n, dir.join("large").join(format!("{name}.td")));
            design.name = name;
            design.family = Some((family, n));
            designs.push(design);
        }
    }
    designs
}
