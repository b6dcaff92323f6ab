//! The Tydi-IR binary format (`.tirb`).
//!
//! The artifact cache historically persisted elaborated projects as
//! `.tir` text and re-parsed them on every warm start — re-lexing
//! every type expression and re-hash-consing every port type. The
//! binary format removes that tax: a versioned header is followed by
//! a **type table** of interned type references — each distinct
//! logical type is stored once, in canonical text, and every port
//! refers to it by index — so the decoder parses each distinct type
//! exactly once and all ports sharing a type share one `Arc` again
//! after the round trip, exactly as the elaborator's hash-consed
//! store produced them.
//!
//! The wiring names (port names, declaration origins, instance names,
//! the implementations instances realize, and connection endpoints)
//! are shared the same way: a **name table** stores each distinct name
//! once, and every use refers to it by index. Decoding allocates each
//! name once and hands every use a clone of its `Arc<str>`, so a
//! restored project shares its names as the elaborated one did.
//!
//! The format is little-endian throughout: `u32` lengths/counts,
//! length-prefixed UTF-8 strings, `u32` name-table indices, and
//! single-byte tags. The decoder
//! is fully bounds-checked and returns [`IrError::Binary`] on any
//! truncated, corrupt or foreign input — it must never panic, since
//! cache files on disk are outside the compiler's control.

use crate::component::{
    Connection, EndpointRef, ImplKind, Implementation, Instance, Port, PortDirection, Streamlet,
};
use crate::error::IrError;
use crate::project::Project;
use std::collections::HashMap;
use std::sync::Arc;
use tydi_spec::{parse_logical_type, ClockDomain, LogicalType};

/// File magic: identifies `.tirb` payloads.
pub const MAGIC: &[u8; 4] = b"TIRB";

/// Current format version. Bump on any layout change; the decoder
/// rejects other versions so stale caches rebuild cold instead of
/// being misread.
pub const VERSION: u16 = 2;

const KIND_NORMAL: u8 = 0;
const KIND_EXTERNAL: u8 = 1;

/// Serializes a project to the binary format.
pub fn encode_project(project: &Project) -> Vec<u8> {
    // Type table: every distinct port type once, in first-use order.
    // Deduplication is by canonical text, which also collapses types
    // that are structurally equal but separately allocated.
    let mut table: Vec<String> = Vec::new();
    let mut by_text: HashMap<String, u32> = HashMap::new();
    let mut port_types: Vec<u32> = Vec::new();
    for streamlet in project.streamlets() {
        for port in &streamlet.ports {
            let text = port.ty.to_string();
            let index = *by_text.entry(text.clone()).or_insert_with(|| {
                table.push(text);
                (table.len() - 1) as u32
            });
            port_types.push(index);
        }
    }

    // The definitions go to their own buffer first: the name table
    // they fill precedes them in the output.
    let mut body = Writer::default();
    let mut next_port = port_types.iter().copied();
    body.u32(project.streamlets().len() as u32);
    for streamlet in project.streamlets() {
        body.str(&streamlet.name);
        body.str(&streamlet.doc);
        body.u32(streamlet.ports.len() as u32);
        for port in &streamlet.ports {
            body.name(&port.name);
            body.u8(match port.direction {
                PortDirection::In => 0,
                PortDirection::Out => 1,
            });
            body.str(port.clock.name());
            body.opt_name(port.type_origin.as_deref());
            body.u32(next_port.next().expect("port count matches type table"));
        }
    }

    body.u32(project.implementations().len() as u32);
    for implementation in project.implementations() {
        body.str(&implementation.name);
        body.str(&implementation.streamlet);
        body.str(&implementation.doc);
        body.u32(implementation.attributes.len() as u32);
        for (key, value) in &implementation.attributes {
            body.str(key);
            body.str(value);
        }
        match &implementation.kind {
            ImplKind::Normal {
                instances,
                connections,
            } => {
                body.u8(KIND_NORMAL);
                body.u32(instances.len() as u32);
                for instance in instances {
                    body.name(&instance.name);
                    body.name(&instance.impl_name);
                    body.str(&instance.doc);
                }
                body.u32(connections.len() as u32);
                for connection in connections {
                    body.endpoint(&connection.source);
                    body.endpoint(&connection.sink);
                    let mut flags = 0u8;
                    if connection.relax_type_check {
                        flags |= 1;
                    }
                    if connection.inserted_by_sugar {
                        flags |= 2;
                    }
                    body.u8(flags);
                }
            }
            ImplKind::External {
                builtin,
                sim_source,
            } => {
                body.u8(KIND_EXTERNAL);
                body.opt_str(builtin.as_deref());
                body.opt_str(sim_source.as_deref());
            }
        }
    }

    let mut w = Writer::default();
    w.bytes.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.str(&project.name);
    w.u32(table.len() as u32);
    for entry in &table {
        w.str(entry);
    }
    w.u32(body.name_table.len() as u32);
    for name in &body.name_table {
        w.str(name);
    }
    w.bytes.extend_from_slice(&body.bytes);
    w.bytes
}

/// Deserializes a project from the binary format.
///
/// Any malformed input — wrong magic, unknown version, truncation,
/// out-of-range type reference, invalid UTF-8 — yields
/// [`IrError::Binary`]; the decoder never panics.
pub fn decode_project(bytes: &[u8]) -> Result<Project, IrError> {
    let mut r = Reader {
        bytes,
        pos: 0,
        names: Vec::new(),
    };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(err("bad magic (not a .tirb file)"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(err(format!(
            "unsupported format version {version} (expected {VERSION})"
        )));
    }
    let name = r.str()?;
    let mut project = Project::new(name);

    let ntypes = r.count(4)?;
    let mut types: Vec<Arc<LogicalType>> = Vec::with_capacity(ntypes);
    for _ in 0..ntypes {
        let text = r.str()?;
        let ty = parse_logical_type(&text).map_err(IrError::Spec)?;
        types.push(Arc::new(ty));
    }

    let nnames = r.count(4)?;
    r.names.reserve(nnames);
    for _ in 0..nnames {
        let name: Arc<str> = r.str()?.into();
        r.names.push(name);
    }

    let nstreamlets = r.count(8)?;
    for _ in 0..nstreamlets {
        let mut streamlet = Streamlet::new(r.str()?);
        streamlet.doc = r.str()?;
        let nports = r.count(14)?;
        for _ in 0..nports {
            let port_name = r.name()?;
            let direction = match r.u8()? {
                0 => PortDirection::In,
                1 => PortDirection::Out,
                other => return Err(err(format!("bad port direction tag {other}"))),
            };
            let clock = ClockDomain::new(r.str()?);
            let origin = r.opt_name()?;
            let ty_index = r.u32()? as usize;
            let ty = types
                .get(ty_index)
                .ok_or_else(|| err(format!("type reference {ty_index} out of range")))?;
            let mut port = Port::from_arc(port_name, direction, Arc::clone(ty)).with_clock(clock);
            port.type_origin = origin;
            streamlet.ports.push(port);
        }
        project.add_streamlet(streamlet)?;
    }

    let nimpls = r.count(13)?;
    for _ in 0..nimpls {
        let impl_name = r.str()?;
        let streamlet_name = r.str()?;
        let doc = r.str()?;
        let nattrs = r.count(8)?;
        let mut attributes = std::collections::BTreeMap::new();
        for _ in 0..nattrs {
            let key = r.str()?;
            let value = r.str()?;
            attributes.insert(key, value);
        }
        let mut implementation = match r.u8()? {
            KIND_NORMAL => {
                let mut implementation = Implementation::normal(impl_name, streamlet_name);
                let ninstances = r.count(12)?;
                for _ in 0..ninstances {
                    let mut instance = Instance::new(r.name()?, r.name()?);
                    instance.doc = r.str()?;
                    implementation.add_instance(instance);
                }
                let nconnections = r.count(11)?;
                for _ in 0..nconnections {
                    let source = r.endpoint()?;
                    let sink = r.endpoint()?;
                    let flags = r.u8()?;
                    if flags & !3 != 0 {
                        return Err(err(format!("unknown connection flags {flags:#x}")));
                    }
                    let mut connection = Connection::new(source, sink);
                    connection.relax_type_check = flags & 1 != 0;
                    connection.inserted_by_sugar = flags & 2 != 0;
                    implementation.add_connection(connection);
                }
                implementation
            }
            KIND_EXTERNAL => {
                let mut implementation = Implementation::external(impl_name, streamlet_name);
                if let Some(builtin) = r.opt_str()? {
                    implementation = implementation.with_builtin(builtin);
                }
                if let Some(sim) = r.opt_str()? {
                    implementation = implementation.with_sim_source(sim);
                }
                implementation
            }
            other => return Err(err(format!("bad implementation kind tag {other}"))),
        };
        implementation.doc = doc;
        implementation.attributes = attributes;
        project.add_implementation(implementation)?;
    }
    if r.pos != bytes.len() {
        return Err(err(format!(
            "{} trailing byte(s) after project",
            bytes.len() - r.pos
        )));
    }
    Ok(project)
}

fn err(message: impl Into<String>) -> IrError {
    IrError::Binary {
        message: message.into(),
    }
}

/// An output buffer plus the name table its [`Writer::name`]
/// references index into.
#[derive(Default)]
struct Writer<'p> {
    bytes: Vec<u8>,
    /// Distinct names in first-use order.
    name_table: Vec<&'p str>,
    /// Each name's position in `name_table`.
    names: HashMap<&'p str, u32>,
}

impl<'p> Writer<'p> {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Writes a reference to `name`'s name-table entry.
    fn name(&mut self, name: &'p str) {
        let next = self.name_table.len() as u32;
        let index = *self.names.entry(name).or_insert(next);
        if index == next {
            self.name_table.push(name);
        }
        self.u32(index);
    }

    fn opt_name(&mut self, name: Option<&'p str>) {
        match name {
            None => self.u8(0),
            Some(name) => {
                self.u8(1);
                self.name(name);
            }
        }
    }

    fn endpoint(&mut self, e: &'p EndpointRef) {
        self.opt_name(e.instance.as_deref());
        self.name(&e.port);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The decoded name table.
    names: Vec<Arc<str>>,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IrError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| err("unexpected end of input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, IrError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, IrError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, IrError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an element count whose elements each occupy at least
    /// `min_elem_size` bytes, rejecting counts the remaining input
    /// cannot possibly hold (guards allocation on corrupt files).
    fn count(&mut self, min_elem_size: usize) -> Result<usize, IrError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_size) > remaining {
            return Err(err(format!("count {n} exceeds remaining input")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, IrError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid UTF-8 in string"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, IrError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(err(format!("bad option tag {other}"))),
        }
    }

    /// Reads a name-table reference.
    fn name(&mut self) -> Result<Arc<str>, IrError> {
        let index = self.u32()? as usize;
        self.names
            .get(index)
            .cloned()
            .ok_or_else(|| err(format!("name reference {index} out of range")))
    }

    fn opt_name(&mut self) -> Result<Option<Arc<str>>, IrError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.name()?)),
            other => Err(err(format!("bad option tag {other}"))),
        }
    }

    fn endpoint(&mut self) -> Result<EndpointRef, IrError> {
        let instance = self.opt_name()?;
        let port = self.name()?;
        Ok(EndpointRef { instance, port })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::emit_project;
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    fn demo_project() -> Project {
        let mut p = Project::new("demo");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(
                    Port::new("i", PortDirection::In, stream8())
                        .with_origin("pack.T")
                        .with_clock(ClockDomain::new("fast")),
                )
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("leaf_i", "pass_s")
                .with_builtin("std.passthrough")
                .with_sim_source("state s = \"idle\";\non (i.recv) { ack(i); }"),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.doc = "the top level\nacross two lines".to_string();
        top.attributes
            .insert("NoStrictType".to_string(), String::new());
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
    fn round_trips_byte_identically() {
        let p = demo_project();
        let encoded = encode_project(&p);
        let q = decode_project(&encoded).unwrap();
        // The canonical text render pins full structural equality.
        assert_eq!(emit_project(&q), emit_project(&p));
        // Re-encoding the decoded project is a fixed point.
        assert_eq!(encode_project(&q), encoded);
    }

    #[test]
    fn type_table_restores_arc_sharing() {
        let p = demo_project();
        let q = decode_project(&encode_project(&p)).unwrap();
        let s = q.streamlet("pass_s").unwrap();
        // Both ports carry the same logical type: one table entry,
        // one allocation after decoding.
        assert!(Arc::ptr_eq(&s.ports[0].ty, &s.ports[1].ty));
    }

    #[test]
    fn name_table_restores_name_sharing() {
        let p = demo_project();
        let encoded = encode_project(&p);
        let q = decode_project(&encoded).unwrap();
        let top = q.implementation("top_i").unwrap();
        let leaf = &top.instances()[0];
        let ports = &q.streamlet("pass_s").unwrap().ports;
        let [into, back] = top.connections() else {
            panic!("two connections");
        };
        // One allocation per distinct name: endpoints share their
        // instance's and their port's.
        assert!(Arc::ptr_eq(
            into.sink.instance.as_ref().unwrap(),
            &leaf.name
        ));
        assert!(Arc::ptr_eq(
            back.source.instance.as_ref().unwrap(),
            &leaf.name
        ));
        assert!(Arc::ptr_eq(&into.source.port, &ports[0].name));
        assert!(Arc::ptr_eq(&into.sink.port, &ports[0].name));
        assert!(Arc::ptr_eq(&back.sink.port, &ports[1].name));
        // Each name is stored once: `l` appears in three places but in
        // the payload once.
        let count = encoded.windows(5).filter(|w| *w == b"\x01\0\0\0l").count();
        assert_eq!(count, 1);
    }

    #[test]
    fn header_is_versioned() {
        let p = demo_project();
        let mut encoded = encode_project(&p);
        assert_eq!(&encoded[..4], MAGIC);
        // Wrong magic.
        let mut bad = encoded.clone();
        bad[0] = b'X';
        assert!(matches!(decode_project(&bad), Err(IrError::Binary { .. })));
        // Future version.
        encoded[4] = 0xff;
        assert!(matches!(
            decode_project(&encoded),
            Err(IrError::Binary { .. })
        ));
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let encoded = encode_project(&demo_project());
        for len in 0..encoded.len() {
            assert!(
                decode_project(&encoded[..len]).is_err(),
                "truncation at {len} must not decode"
            );
        }
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let encoded = encode_project(&demo_project());
        // Flip each byte through a few values; decoding may fail or
        // (for free-text bytes) still succeed, but must never panic.
        for pos in 0..encoded.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = encoded.clone();
                corrupt[pos] ^= flip;
                let _ = decode_project(&corrupt);
            }
        }
    }

    #[test]
    fn oversized_counts_are_rejected_early() {
        // A type-table count far beyond the payload must fail fast
        // instead of attempting a giant allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name len 1
        bytes.push(b'x');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ntypes
        assert!(matches!(
            decode_project(&bytes),
            Err(IrError::Binary { .. })
        ));
    }
}
