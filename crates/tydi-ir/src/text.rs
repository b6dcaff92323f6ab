//! The Tydi-IR text format.
//!
//! The frontend "compiles Tydi-lang to Tydi-IR" (paper Fig. 1); this
//! module defines the stable, human-readable serialization of that IR
//! so the two compiler halves can be developed and tested separately.
//! [`emit_project`] and [`parse_project`] round-trip.
//!
//! ```text
//! project demo {
//!   streamlet pass_s {
//!     port i in !default : Stream(Bit(8));
//!     port o out !default : Stream(Bit(8));
//!   }
//!   impl top_i of pass_s {
//!     instance l of leaf_i;
//!     connect .i => l.i;
//!     connect l.o => .o;
//!   }
//!   impl leaf_i of pass_s external builtin "std.passthrough";
//! }
//! ```

use crate::component::{
    Connection, EndpointRef, ImplKind, Implementation, Instance, Port, PortDirection, Streamlet,
};
use crate::error::IrError;
use crate::project::Project;
use std::fmt::Write as _;
use tydi_spec::{parse_logical_type, ClockDomain};

/// Serializes a project to the text format.
pub fn emit_project(project: &Project) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "project {} {{", project.name);
    for streamlet in project.streamlets() {
        if !streamlet.doc.is_empty() {
            for line in streamlet.doc.lines() {
                let _ = writeln!(out, "  // {line}");
            }
        }
        let _ = writeln!(out, "  streamlet {} {{", streamlet.name);
        for port in &streamlet.ports {
            let _ = write!(
                out,
                "    port {} {} !{}",
                port.name,
                port.direction,
                port.clock.name()
            );
            if let Some(origin) = &port.type_origin {
                let _ = write!(out, " origin \"{origin}\"");
            }
            let _ = writeln!(out, " : {};", port.ty);
        }
        let _ = writeln!(out, "  }}");
    }
    for implementation in project.implementations() {
        if !implementation.doc.is_empty() {
            for line in implementation.doc.lines() {
                let _ = writeln!(out, "  // {line}");
            }
        }
        let _ = write!(
            out,
            "  impl {} of {}",
            implementation.name, implementation.streamlet
        );
        match &implementation.kind {
            ImplKind::External {
                builtin,
                sim_source,
            } => {
                let _ = write!(out, " external");
                if let Some(key) = builtin {
                    let _ = write!(out, " builtin \"{key}\"");
                }
                if let Some(sim) = sim_source {
                    let _ = write!(out, " sim \"{}\"", escape(sim));
                }
                for (attr, value) in &implementation.attributes {
                    let _ = write!(out, " attr {attr} \"{}\"", escape(value));
                }
                let _ = writeln!(out, ";");
            }
            ImplKind::Normal {
                instances,
                connections,
            } => {
                let _ = writeln!(out, " {{");
                for (attr, value) in &implementation.attributes {
                    let _ = writeln!(out, "    attr {attr} \"{}\";", escape(value));
                }
                for instance in instances {
                    let _ = writeln!(
                        out,
                        "    instance {} of {};",
                        instance.name, instance.impl_name
                    );
                }
                for connection in connections {
                    let _ = write!(
                        out,
                        "    connect {} => {}",
                        connection.source, connection.sink
                    );
                    if connection.relax_type_check {
                        let _ = write!(out, " relaxed");
                    }
                    if connection.inserted_by_sugar {
                        let _ = write!(out, " sugar");
                    }
                    let _ = writeln!(out, ";");
                }
                let _ = writeln!(out, "  }}");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Parses the text format back into a [`Project`].
pub fn parse_project(input: &str) -> Result<Project, IrError> {
    let mut p = TextParser::new(input);
    p.parse()
}

struct TextParser<'a> {
    lines: Vec<&'a str>,
    index: usize,
}

impl<'a> TextParser<'a> {
    fn new(input: &'a str) -> Self {
        TextParser {
            lines: input.lines().collect(),
            index: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.index + 1,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Option<&'a str> {
        while self.index < self.lines.len() {
            let line = self.lines[self.index].trim();
            self.index += 1;
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            return Some(line);
        }
        None
    }

    /// Like [`TextParser::next_line`], but collects `//` comment lines
    /// into `doc` instead of discarding them — the emitter writes
    /// streamlet/implementation documentation as comments immediately
    /// before the declaration, so the top-level loop reattaches them.
    fn next_line_with_doc(&mut self, doc: &mut Vec<&'a str>) -> Option<&'a str> {
        while self.index < self.lines.len() {
            let line = self.lines[self.index].trim();
            self.index += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix("//") {
                doc.push(comment.strip_prefix(' ').unwrap_or(comment));
                continue;
            }
            return Some(line);
        }
        None
    }

    fn parse(&mut self) -> Result<Project, IrError> {
        let header = self.next_line().ok_or_else(|| self.err("empty input"))?;
        let name = header
            .strip_prefix("project ")
            .and_then(|r| r.strip_suffix('{'))
            .map(str::trim)
            .ok_or_else(|| self.err("expected `project <name> {`"))?;
        let mut project = Project::new(name);
        let mut doc: Vec<&str> = Vec::new();
        loop {
            let line = self
                .next_line_with_doc(&mut doc)
                .ok_or_else(|| self.err("unexpected end of input, expected `}`"))?;
            if line == "}" {
                return Ok(project);
            }
            if let Some(rest) = line.strip_prefix("streamlet ") {
                let name = rest
                    .strip_suffix('{')
                    .map(str::trim)
                    .ok_or_else(|| self.err("expected `streamlet <name> {`"))?;
                let mut streamlet = self.parse_streamlet_body(name)?;
                streamlet.doc = doc.join("\n");
                doc.clear();
                project.add_streamlet(streamlet)?;
            } else if let Some(rest) = line.strip_prefix("impl ") {
                let mut implementation = self.parse_impl(rest)?;
                implementation.doc = doc.join("\n");
                doc.clear();
                project.add_implementation(implementation)?;
            } else {
                return Err(self.err(format!("unexpected line `{line}`")));
            }
        }
    }

    fn parse_streamlet_body(&mut self, name: &str) -> Result<Streamlet, IrError> {
        let mut streamlet = Streamlet::new(name);
        loop {
            let line = self
                .next_line()
                .ok_or_else(|| self.err("unexpected end of streamlet body"))?;
            if line == "}" {
                return Ok(streamlet);
            }
            let rest = line
                .strip_prefix("port ")
                .ok_or_else(|| self.err(format!("expected `port ...;` got `{line}`")))?;
            let rest = rest
                .strip_suffix(';')
                .ok_or_else(|| self.err("port line must end with `;`"))?;
            let (head, ty_text) = rest
                .split_once(" : ")
                .ok_or_else(|| self.err("port line must contain ` : <type>`"))?;
            let mut words = head.split_whitespace();
            let port_name = words.next().ok_or_else(|| self.err("missing port name"))?;
            let direction = match words.next() {
                Some("in") => PortDirection::In,
                Some("out") => PortDirection::Out,
                other => return Err(self.err(format!("bad port direction {other:?}"))),
            };
            let clock = match words.next() {
                Some(c) if c.starts_with('!') => ClockDomain::new(&c[1..]),
                other => return Err(self.err(format!("expected `!<clock>`, got {other:?}"))),
            };
            let mut origin = None;
            if let Some(word) = words.next() {
                if word == "origin" {
                    let quoted: String = words.collect::<Vec<_>>().join(" ");
                    origin = Some(quoted.trim().trim_matches('"').to_string());
                } else {
                    return Err(self.err(format!("unexpected token `{word}` in port line")));
                }
            }
            let ty = parse_logical_type(ty_text.trim()).map_err(IrError::Spec)?;
            let mut port = Port::new(port_name, direction, ty).with_clock(clock);
            port.type_origin = origin.map(Into::into);
            streamlet.ports.push(port);
        }
    }

    fn parse_impl(&mut self, header_rest: &str) -> Result<Implementation, IrError> {
        // header_rest: `<name> of <streamlet> {` or `<name> of <streamlet> external ...;`
        let (name, rest) = header_rest
            .split_once(" of ")
            .ok_or_else(|| self.err("expected `impl <name> of <streamlet>`"))?;
        let rest = rest.trim();
        if let Some(body_head) = rest.strip_suffix('{') {
            let streamlet = body_head.trim();
            let mut implementation = Implementation::normal(name.trim(), streamlet);
            loop {
                let line = self
                    .next_line()
                    .ok_or_else(|| self.err("unexpected end of impl body"))?;
                if line == "}" {
                    return Ok(implementation);
                }
                let line = line
                    .strip_suffix(';')
                    .ok_or_else(|| self.err("impl body lines must end with `;`"))?;
                if let Some(rest) = line.strip_prefix("instance ") {
                    let (inst_name, impl_name) = rest
                        .split_once(" of ")
                        .ok_or_else(|| self.err("expected `instance <name> of <impl>`"))?;
                    implementation.add_instance(Instance::new(inst_name.trim(), impl_name.trim()));
                } else if let Some(rest) = line.strip_prefix("connect ") {
                    let (src, rest) = rest
                        .split_once("=>")
                        .ok_or_else(|| self.err("expected `connect <src> => <sink>`"))?;
                    let mut words = rest.split_whitespace();
                    let sink = words.next().ok_or_else(|| self.err("missing sink"))?;
                    let mut connection = Connection::new(
                        parse_endpoint(src.trim())
                            .ok_or_else(|| self.err("bad source endpoint"))?,
                        parse_endpoint(sink).ok_or_else(|| self.err("bad sink endpoint"))?,
                    );
                    for word in words {
                        match word {
                            "relaxed" => connection.relax_type_check = true,
                            "sugar" => connection.inserted_by_sugar = true,
                            other => {
                                return Err(self.err(format!("unknown connect flag `{other}`")))
                            }
                        }
                    }
                    implementation.add_connection(connection);
                } else if let Some(rest) = line.strip_prefix("attr ") {
                    let (key, value) = parse_attr(rest.trim())
                        .ok_or_else(|| self.err("expected `attr <key> \"<value>\"`"))?;
                    implementation.attributes.insert(key, value);
                } else {
                    return Err(self.err(format!("unexpected impl body line `{line}`")));
                }
            }
        } else {
            let rest = rest
                .strip_suffix(';')
                .ok_or_else(|| self.err("external impl must end with `;`"))?;
            let mut parts = rest.splitn(2, " external");
            let streamlet = parts.next().unwrap_or("").trim();
            let tail = parts
                .next()
                .ok_or_else(|| self.err("expected `external` in impl header"))?
                .trim();
            let mut implementation = Implementation::external(name.trim(), streamlet);
            let mut remaining = tail;
            while !remaining.is_empty() {
                if let Some(rest) = remaining.strip_prefix("builtin ") {
                    let (value, after) = read_quoted(rest)
                        .ok_or_else(|| self.err("expected quoted value after `builtin`"))?;
                    implementation = implementation.with_builtin(value);
                    remaining = after.trim_start();
                } else if let Some(rest) = remaining.strip_prefix("sim ") {
                    let (value, after) = read_quoted(rest)
                        .ok_or_else(|| self.err("expected quoted value after `sim`"))?;
                    implementation = implementation.with_sim_source(value);
                    remaining = after.trim_start();
                } else if let Some(rest) = remaining.strip_prefix("attr ") {
                    let (key, after_key) = rest
                        .trim_start()
                        .split_once(' ')
                        .ok_or_else(|| self.err("expected `attr <key> \"<value>\"`"))?;
                    let (value, after) = read_quoted(after_key)
                        .ok_or_else(|| self.err("expected quoted value after attr key"))?;
                    implementation.attributes.insert(key.to_string(), value);
                    remaining = after.trim_start();
                } else {
                    return Err(self.err(format!("unexpected external clause `{remaining}`")));
                }
            }
            Ok(implementation)
        }
    }
}

/// Parses `key "value"`.
fn parse_attr(s: &str) -> Option<(String, String)> {
    let (key, rest) = s.split_once(' ')?;
    let (value, _after) = read_quoted(rest)?;
    Some((key.to_string(), value))
}

fn parse_endpoint(s: &str) -> Option<EndpointRef> {
    if let Some(port) = s.strip_prefix('.') {
        if port.is_empty() {
            return None;
        }
        Some(EndpointRef::own(port))
    } else {
        let (instance, port) = s.split_once('.')?;
        if instance.is_empty() || port.is_empty() {
            return None;
        }
        Some(EndpointRef::instance(instance, port))
    }
}

/// Reads a leading `"..."` (with escapes) and returns (content, rest).
fn read_quoted(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start();
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => {
                let (_, next) = chars.next()?;
                out.push(if next == 'n' { '\n' } else { next });
            }
            '"' => return Some((out, &rest[i + 1..])),
            other => out.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_spec::{LogicalType, StreamParams};

    fn demo_project() -> Project {
        let stream8 = LogicalType::stream(LogicalType::Bit(8), StreamParams::new());
        let mut p = Project::new("demo");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8.clone()).with_origin("pack.T"))
                .with_port(Port::new("o", PortDirection::Out, stream8)),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("leaf_i", "pass_s")
                .with_builtin("std.passthrough")
                .with_sim_source("state s = \"idle\";\non (i.recv) { ack(i); }"),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("l", "leaf_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("l", "i"),
        ));
        let mut back = Connection::new(EndpointRef::instance("l", "o"), EndpointRef::own("o"));
        back.inserted_by_sugar = true;
        back.relax_type_check = true;
        top.add_connection(back);
        p.add_implementation(top).unwrap();
        p
    }

    #[test]
    fn round_trip() {
        let p = demo_project();
        let text = emit_project(&p);
        let q = parse_project(&text).expect(&text);
        assert_eq!(q.name, "demo");
        assert_eq!(q.streamlets().len(), 1);
        assert_eq!(q.implementations().len(), 2);
        let leaf = q.implementation("leaf_i").unwrap();
        match &leaf.kind {
            ImplKind::External {
                builtin,
                sim_source,
            } => {
                assert_eq!(builtin.as_deref(), Some("std.passthrough"));
                assert!(sim_source.as_deref().unwrap().contains("state s"));
                assert!(sim_source.as_deref().unwrap().contains('\n'));
            }
            _ => panic!("expected external"),
        }
        let top = q.implementation("top_i").unwrap();
        assert_eq!(top.connections().len(), 2);
        assert!(top.connections()[1].inserted_by_sugar);
        assert!(top.connections()[1].relax_type_check);
        let port = q.streamlet("pass_s").unwrap().port("i").unwrap();
        assert_eq!(port.type_origin.as_deref(), Some("pack.T"));
        // Second round trip is a fixed point.
        assert_eq!(emit_project(&q), text);
    }

    #[test]
    fn attributes_and_docs_round_trip() {
        let stream8 = LogicalType::stream(LogicalType::Bit(8), StreamParams::new());
        let mut p = Project::new("attrs");
        let mut s = Streamlet::new("s")
            .with_port(Port::new("i", PortDirection::In, stream8.clone()))
            .with_port(Port::new("o", PortDirection::Out, stream8));
        s.doc = "a documented streamlet\nwith two lines".to_string();
        p.add_streamlet(s).unwrap();
        // External impl with template-binding attributes (the shape
        // builtin RTL generators read back at codegen time).
        let mut ext = Implementation::external("lt_i", "s").with_builtin("std.lt_const");
        ext.attributes.insert("v".to_string(), "100".to_string());
        ext.attributes
            .insert("T".to_string(), "Stream(Bit(32), d=1)".to_string());
        ext.doc = "compares against a constant".to_string();
        p.add_implementation(ext).unwrap();
        // Normal impl with a valued and a valueless attribute.
        let mut top = Implementation::normal("top_i", "s");
        top.attributes
            .insert("NoStrictType".to_string(), String::new());
        top.attributes.insert(
            "note".to_string(),
            "with \"quotes\"\nand newline".to_string(),
        );
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();

        let text = emit_project(&p);
        let q = parse_project(&text).expect(&text);
        let ext = q.implementation("lt_i").unwrap();
        assert_eq!(ext.attributes.get("v").map(String::as_str), Some("100"));
        assert_eq!(
            ext.attributes.get("T").map(String::as_str),
            Some("Stream(Bit(32), d=1)")
        );
        assert_eq!(ext.doc, "compares against a constant");
        let top = q.implementation("top_i").unwrap();
        assert_eq!(
            top.attributes.get("NoStrictType").map(String::as_str),
            Some("")
        );
        assert_eq!(
            top.attributes.get("note").map(String::as_str),
            Some("with \"quotes\"\nand newline")
        );
        assert_eq!(
            q.streamlet("s").unwrap().doc,
            "a documented streamlet\nwith two lines"
        );
        // Second round trip is a fixed point.
        assert_eq!(emit_project(&q), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_project("").is_err());
        assert!(parse_project("project x {").is_err());
        assert!(parse_project("project x {\n garbage;\n}").is_err());
        assert!(
            parse_project("project x {\n streamlet s {\n port a sideways !d : Bit(1);\n }\n}")
                .is_err()
        );
        // An attribute needs a quoted value.
        let valueless =
            "project x {\n  streamlet s {\n  }\n  impl i of s {\n    attr NoStrictType;\n  }\n}\n";
        let err = parse_project(valueless).unwrap_err().to_string();
        assert!(err.contains("expected `attr <key> \"<value>\"`"), "{err}");
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(parse_endpoint(".a"), Some(EndpointRef::own("a")));
        assert_eq!(parse_endpoint("x.a"), Some(EndpointRef::instance("x", "a")));
        assert_eq!(parse_endpoint("."), None);
        assert_eq!(parse_endpoint("noport"), None);
    }

    #[test]
    fn quoted_reader_handles_escapes() {
        let (v, rest) = read_quoted("\"a\\\"b\" tail").unwrap();
        assert_eq!(v, "a\"b");
        assert_eq!(rest, " tail");
        assert!(read_quoted("no quote").is_none());
        assert!(read_quoted("\"unterminated").is_none());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "\n// header\nproject x {\n\n  // a streamlet\n  streamlet s {\n  }\n}\n";
        let p = parse_project(text).unwrap();
        assert_eq!(p.name, "x");
        assert_eq!(p.streamlets().len(), 1);
    }
}
