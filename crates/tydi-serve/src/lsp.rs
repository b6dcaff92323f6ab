//! A minimal Language Server Protocol subset over stdio
//! (`tydic serve --lsp`).
//!
//! Supported: `initialize`/`initialized`, full-sync
//! `textDocument/didOpen`/`didChange`/`didClose` (each compile
//! publishes `textDocument/publishDiagnostics` mapped from the
//! compiler's [`Diagnostic`] spans), `textDocument/hover` (the
//! resolved signature or logical stream type of the symbol under the
//! cursor, looked up through the IR project's interned symbol
//! tables), and `shutdown`/`exit`.
//!
//! The server compiles through the same [`ArtifactCache`] as the
//! batch compiler, so keystroke-latency rechecks of an unchanged
//! design are cache hits, and a `--cache-dir` shared with the daemon
//! means the editor inherits the daemon's warm artifacts on disk.
//!
//! Positions: LSP is 0-based, the compiler's
//! [`SourceFile::line_col`] is 1-based; this module converts at the
//! boundary. Character offsets are treated as Unicode scalar counts
//! (exact for the ASCII designs the language uses; a UTF-16 offset
//! divergence would need surrogate pairs in source).
//!
//! [`Diagnostic`]: tydi_lang::Diagnostic
//! [`ArtifactCache`]: tydi_lang::ArtifactCache
//! [`SourceFile::line_col`]: tydi_lang::SourceFile::line_col

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use tydi_lang::{
    compile_with_cache, ArtifactCache, CompileOptions, CompileOutput, Diagnostic, Severity,
};
use tydi_obs::json::{self, Json};
use tydi_stdlib::{stdlib_source, STDLIB_FILE_NAME};

/// Runs the LSP server over this process's stdin/stdout until the
/// client sends `exit` (or hangs up). `cache_dir` enables the on-disk
/// artifact cache (persisted on exit).
pub fn run_stdio(cache_dir: Option<&Path>) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lsp(&mut stdin.lock(), &mut stdout.lock(), cache_dir)
}

/// One open document.
struct Document {
    /// The file-system path compiled under (diagnostics render with
    /// it), derived from the uri.
    path: String,
    /// Current full text.
    text: String,
    /// The most recent *successful* compile of this document; hover
    /// keeps answering from it while the user types through broken
    /// intermediate states.
    last_good: Option<CompileOutput>,
}

/// The LSP server loop, reader/writer-generic for tests.
pub fn serve_lsp(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    cache_dir: Option<&Path>,
) -> io::Result<()> {
    let mut cache = match cache_dir {
        Some(dir) => ArtifactCache::load(dir),
        None => ArtifactCache::new(),
    };
    let mut documents: HashMap<String, Document> = HashMap::new();
    while let Some(body) = read_message(reader)? {
        let Ok(message) = json::parse(&body) else {
            continue; // not JSON; skip the frame
        };
        let method = message.get("method").and_then(Json::as_str).unwrap_or("");
        let id = message.get("id");
        let params = message.get("params");
        match method {
            "initialize" => {
                let capabilities = json::object([
                    ("textDocumentSync", 1u32.into()),
                    ("hoverProvider", true.into()),
                ]);
                let result = json::object([
                    ("capabilities", capabilities),
                    ("serverInfo", json::object([("name", "tydic".into())])),
                ]);
                respond(writer, id, result)?;
            }
            "initialized" => {}
            "shutdown" => respond(writer, id, Json::Null)?,
            "exit" => break,
            "textDocument/didOpen" => {
                let uri = text_document_field(params, "uri");
                let text = params
                    .and_then(|p| p.get("textDocument"))
                    .and_then(|d| d.get("text"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                if let Some(uri) = uri {
                    let document = Document {
                        path: uri_to_path(&uri),
                        text,
                        last_good: None,
                    };
                    documents.insert(uri.clone(), document);
                    check_and_publish(writer, &mut cache, documents.get_mut(&uri).unwrap(), &uri)?;
                }
            }
            "textDocument/didChange" => {
                let uri = text_document_field(params, "uri");
                // Full sync: the last content change carries the
                // whole document.
                let text = params
                    .and_then(|p| p.get("contentChanges"))
                    .and_then(Json::as_array)
                    .and_then(|changes| changes.last())
                    .and_then(|change| change.get("text"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                if let (Some(uri), Some(text)) = (uri, text) {
                    if let Some(document) = documents.get_mut(&uri) {
                        document.text = text;
                        check_and_publish(writer, &mut cache, document, &uri)?;
                    }
                }
            }
            "textDocument/didClose" => {
                if let Some(uri) = text_document_field(params, "uri") {
                    documents.remove(&uri);
                    publish_diagnostics(writer, &uri, Json::Array(Vec::new()))?;
                }
            }
            "textDocument/hover" => {
                let uri = text_document_field(params, "uri");
                let result = uri
                    .and_then(|uri| documents.get(&uri))
                    .and_then(|document| hover(document, params))
                    .unwrap_or(Json::Null);
                respond(writer, id, result)?;
            }
            _ => {
                // Unknown *requests* get a MethodNotFound error;
                // unknown notifications are ignored per the spec.
                if let Some(id) = id {
                    let error = json::object([
                        ("code", (-32601i32).into()),
                        ("message", "method not found".into()),
                    ]);
                    let reply = json::object([
                        ("jsonrpc", "2.0".into()),
                        ("id", id.clone()),
                        ("error", error),
                    ]);
                    write_message(writer, &reply)?;
                }
            }
        }
    }
    if let Some(dir) = cache_dir {
        if cache.is_dirty() {
            let _ = cache.save(dir);
        }
    }
    Ok(())
}

/// Compiles one document and publishes its diagnostics.
fn check_and_publish(
    writer: &mut impl Write,
    cache: &mut ArtifactCache,
    document: &mut Document,
    uri: &str,
) -> io::Result<()> {
    let stdlib = stdlib_source();
    let sources: Vec<(&str, &str)> = vec![
        (STDLIB_FILE_NAME, stdlib),
        (document.path.as_str(), document.text.as_str()),
    ];
    let options = CompileOptions {
        project_name: "tydic_lsp".to_string(),
        enable_sugaring: true,
        run_drc: true,
    };
    let payload = match compile_with_cache(&sources, &options, cache) {
        Ok(output) => {
            let payload = diagnostics_json(&output.diagnostics, &output.files, &document.path);
            document.last_good = Some(output);
            payload
        }
        Err(failure) => diagnostics_json(&failure.diagnostics, &failure.files, &document.path),
    };
    publish_diagnostics(writer, uri, payload)
}

/// The document-relevant diagnostics as an LSP `Diagnostic[]` JSON
/// array. Diagnostics with spans in other files (the implicit
/// standard library) are dropped; span-less diagnostics anchor at the
/// document's first character.
fn diagnostics_json(
    diagnostics: &[Diagnostic],
    files: &[tydi_lang::SourceFile],
    path: &str,
) -> Json {
    diagnostics
        .iter()
        .filter_map(|diagnostic| {
            let location = diagnostic
                .span
                .and_then(|span| files.get(span.file as usize).map(|file| (span, file)));
            let range = match location {
                Some((span, file)) => {
                    if &*file.name != path {
                        return None;
                    }
                    let (start_line, start_col) = file.line_col(span.start as usize);
                    let (end_line, end_col) = file.line_col(span.end as usize);
                    range(start_line, start_col, end_line, end_col)
                }
                None => range(1, 1, 1, 1),
            };
            let severity: u32 = match diagnostic.severity {
                Severity::Error => 1,
                Severity::Warning => 2,
                Severity::Note => 3,
            };
            Some(json::object([
                ("range", range),
                ("severity", severity.into()),
                ("source", format!("tydic/{}", diagnostic.stage).into()),
                ("message", diagnostic.message.as_str().into()),
            ]))
        })
        .collect()
}

/// 1-based compiler line/col to a 0-based LSP range.
fn range(start_line: usize, start_col: usize, end_line: usize, end_col: usize) -> Json {
    let position = |line: usize, col: usize| {
        json::object([
            ("line", line.saturating_sub(1).into()),
            ("character", col.saturating_sub(1).into()),
        ])
    };
    json::object([
        ("start", position(start_line, start_col)),
        ("end", position(end_line, end_col)),
    ])
}

/// Answers a hover request from the document's last good compile.
fn hover(document: &Document, params: Option<&Json>) -> Option<Json> {
    let output = document.last_good.as_ref()?;
    let position = params?.get("position")?;
    let line = position.get("line")?.as_f64()? as usize;
    let character = position.get("character")?.as_f64()? as usize;
    let (word, start, end) = word_at(&document.text, line, character)?;
    let text = resolve_symbol(output, &word)?;
    let contents = json::object([
        ("kind", "markdown".into()),
        ("value", format!("```tydi\n{text}\n```").into()),
    ]);
    Some(json::object([
        ("contents", contents),
        ("range", range(line + 1, start + 1, line + 1, end + 1)),
    ]))
}

/// The identifier under a 0-based line/character position, with its
/// 0-based start/end columns.
fn word_at(text: &str, line: usize, character: usize) -> Option<(String, usize, usize)> {
    let line_text = text.lines().nth(line)?;
    let chars: Vec<char> = line_text.chars().collect();
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut index = character.min(chars.len());
    // Allow hovering just past the last character of a word.
    if index >= chars.len() || !is_word(chars[index]) {
        if index == 0 || !is_word(chars[index - 1]) {
            return None;
        }
        index -= 1;
    }
    let mut start = index;
    while start > 0 && is_word(chars[start - 1]) {
        start -= 1;
    }
    let mut end = index + 1;
    while end < chars.len() && is_word(chars[end]) {
        end += 1;
    }
    Some((chars[start..end].iter().collect(), start, end))
}

/// Resolves `word` against the compiled project: streamlets and
/// implementations through the interner-backed name indexes, then
/// port names and type-alias origins by scanning the port tables.
fn resolve_symbol(output: &CompileOutput, word: &str) -> Option<String> {
    let project = &output.project;
    if let Some(streamlet) = project.streamlet(word) {
        let mut signature = format!("streamlet {} {{", streamlet.name);
        for port in &streamlet.ports {
            signature.push_str(&format!(
                "\n  {} : {} {},",
                port.name, port.ty, port.direction
            ));
        }
        signature.push_str("\n}");
        return Some(signature);
    }
    if let Some(implementation) = project.implementation(word) {
        return Some(format!(
            "impl {} of {}",
            implementation.name, implementation.streamlet
        ));
    }
    for streamlet in project.streamlets() {
        if let Some(port) = streamlet.port(word) {
            return Some(format!(
                "{} : {} {}  (port of streamlet {})",
                port.name, port.ty, port.direction, streamlet.name
            ));
        }
    }
    // A type alias has no IR node of its own, but every port carries
    // the origin it was declared with; the first match resolves the
    // alias to its expanded logical stream type.
    for streamlet in project.streamlets() {
        for port in &streamlet.ports {
            let Some(origin) = port.type_origin.as_deref() else {
                continue;
            };
            if origin == word || origin.ends_with(&format!(".{word}")) {
                return Some(format!("type {origin} = {}", port.ty));
            }
        }
    }
    None
}

fn text_document_field(params: Option<&Json>, field: &str) -> Option<String> {
    params?
        .get("textDocument")?
        .get(field)?
        .as_str()
        .map(str::to_string)
}

/// `file://` uris to paths; other schemes pass through as opaque
/// names (they still work as compile-unit labels).
fn uri_to_path(uri: &str) -> String {
    uri.strip_prefix("file://").unwrap_or(uri).to_string()
}

/// Reads one `Content-Length`-framed message; `None` on a clean EOF.
fn read_message(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(value) = line.strip_prefix("Content-Length:") {
            content_length = value.trim().parse().ok();
        }
    }
    let length = content_length
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing Content-Length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Some(String::from_utf8_lossy(&body).into_owned()))
}

fn write_message(writer: &mut impl Write, message: &Json) -> io::Result<()> {
    let body = message.to_string();
    write!(writer, "Content-Length: {}\r\n\r\n{body}", body.len())?;
    writer.flush()
}

/// Writes a JSON-RPC response; the id is echoed verbatim (numbers and
/// strings both occur in the wild).
fn respond(writer: &mut impl Write, id: Option<&Json>, result: Json) -> io::Result<()> {
    let message = json::object([
        ("jsonrpc", "2.0".into()),
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("result", result),
    ]);
    write_message(writer, &message)
}

fn publish_diagnostics(writer: &mut impl Write, uri: &str, diagnostics: Json) -> io::Result<()> {
    let params = json::object([("uri", uri.into()), ("diagnostics", diagnostics)]);
    let message = json::object([
        ("jsonrpc", "2.0".into()),
        ("method", "textDocument/publishDiagnostics".into()),
        ("params", params),
    ]);
    write_message(writer, &message)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "package demo;\ntype Byte = Stream(Bit(8));\nstreamlet wire_s { i : Byte in, o : Byte out, }\nimpl wire_i of wire_s { i => o, }\n";
    const BROKEN: &str = "package demo;\nconst x = ;\n";

    fn frame(body: &str) -> Vec<u8> {
        format!("Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
    }

    fn notification(method: &str, params: &str) -> Vec<u8> {
        frame(&format!(
            r#"{{"jsonrpc":"2.0","method":"{method}","params":{params}}}"#
        ))
    }

    fn request(id: u64, method: &str, params: &str) -> Vec<u8> {
        frame(&format!(
            r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#
        ))
    }

    fn did_open(uri: &str, text: &str) -> Vec<u8> {
        let text = Json::from(text);
        notification(
            "textDocument/didOpen",
            &format!(
                r#"{{"textDocument":{{"uri":"{uri}","languageId":"tydi","version":1,"text":{text}}}}}"#
            ),
        )
    }

    fn did_change(uri: &str, text: &str) -> Vec<u8> {
        let text = Json::from(text);
        notification(
            "textDocument/didChange",
            &format!(
                r#"{{"textDocument":{{"uri":"{uri}","version":2}},"contentChanges":[{{"text":{text}}}]}}"#
            ),
        )
    }

    /// Runs a scripted session and returns the server's messages.
    fn run_session(messages: &[Vec<u8>]) -> Vec<Json> {
        let mut input = Vec::new();
        for message in messages {
            input.extend_from_slice(message);
        }
        let mut output = Vec::new();
        serve_lsp(&mut input.as_slice(), &mut output, None).unwrap();
        parse_frames(&output)
    }

    fn parse_frames(bytes: &[u8]) -> Vec<Json> {
        let mut reader = bytes;
        let mut frames = Vec::new();
        while let Some(body) = read_message(&mut reader).unwrap() {
            frames.push(json::parse(&body).unwrap());
        }
        frames
    }

    fn diagnostics_of<'a>(frames: &'a [Json], uri: &str) -> Vec<&'a [Json]> {
        frames
            .iter()
            .filter(|frame| {
                frame.get("method").and_then(Json::as_str)
                    == Some("textDocument/publishDiagnostics")
                    && frame
                        .get("params")
                        .and_then(|p| p.get("uri"))
                        .and_then(Json::as_str)
                        == Some(uri)
            })
            .filter_map(|frame| {
                frame
                    .get("params")
                    .and_then(|p| p.get("diagnostics"))
                    .and_then(Json::as_array)
            })
            .collect()
    }

    #[test]
    fn session_publishes_diagnostics_and_hovers() {
        let uri = "file:///ws/demo.td";
        let frames = run_session(&[
            request(1, "initialize", "{}"),
            notification("initialized", "{}"),
            did_open(uri, GOOD),
            request(
                2,
                "textDocument/hover",
                &format!(
                    r#"{{"textDocument":{{"uri":"{uri}"}},"position":{{"line":2,"character":12}}}}"#
                ),
            ),
            did_change(uri, BROKEN),
            request(3, "shutdown", "{}"),
            notification("exit", "{}"),
        ]);

        // initialize advertised hover + full sync.
        let init = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_f64) == Some(1.0))
            .expect("initialize response");
        let capabilities = init
            .get("result")
            .and_then(|r| r.get("capabilities"))
            .unwrap();
        assert_eq!(capabilities.get("hoverProvider"), Some(&Json::Bool(true)));
        assert_eq!(
            capabilities.get("textDocumentSync").and_then(Json::as_f64),
            Some(1.0)
        );

        // The good open published (possibly empty) diagnostics; the
        // broken change published at least one error with a position.
        let published = diagnostics_of(&frames, uri);
        assert_eq!(published.len(), 2, "one publish per open/change");
        assert!(
            published[0]
                .iter()
                .all(|d| { d.get("severity").and_then(Json::as_f64) != Some(1.0) }),
            "no errors in the good document"
        );
        let error = published[1]
            .iter()
            .find(|d| d.get("severity").and_then(Json::as_f64) == Some(1.0))
            .expect("an error diagnostic for the broken edit");
        let start = error.get("range").and_then(|r| r.get("start")).unwrap();
        assert_eq!(
            start.get("line").and_then(Json::as_f64),
            Some(1.0),
            "0-based line"
        );

        // Hover on `wire_s` (line 2, col 12 points into the name).
        let hover = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_f64) == Some(2.0))
            .expect("hover response");
        let value = hover
            .get("result")
            .and_then(|r| r.get("contents"))
            .and_then(|c| c.get("value"))
            .and_then(Json::as_str)
            .expect("hover markdown");
        assert!(value.contains("streamlet wire_s"), "hover: {value}");
        assert!(value.contains("Stream"), "resolved type in hover: {value}");

        // shutdown answered null.
        let shutdown = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_f64) == Some(3.0))
            .expect("shutdown response");
        assert_eq!(shutdown.get("result"), Some(&Json::Null));
    }

    #[test]
    fn hover_survives_broken_intermediate_states() {
        let uri = "file:///ws/demo.td";
        let frames = run_session(&[
            request(1, "initialize", "{}"),
            did_open(uri, GOOD),
            did_change(uri, BROKEN),
            request(
                2,
                "textDocument/hover",
                &format!(
                    r#"{{"textDocument":{{"uri":"{uri}"}},"position":{{"line":2,"character":12}}}}"#
                ),
            ),
            notification("exit", "{}"),
        ]);
        let hover = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_f64) == Some(2.0))
            .expect("hover response");
        // The broken text no longer has wire_s on that position's
        // line, so the last-good compile may or may not resolve a
        // word there — the requirement is a well-formed response, not
        // a server error or a hang.
        assert!(hover.get("result").is_some());
    }

    #[test]
    fn unknown_requests_get_method_not_found() {
        let frames = run_session(&[
            request(7, "workspace/symbol", "{}"),
            notification("exit", "{}"),
        ]);
        let error = frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_f64) == Some(7.0))
            .expect("error response");
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_f64),
            Some(-32601.0)
        );
    }

    #[test]
    fn word_extraction_handles_boundaries() {
        let text = "impl wire_i of wire_s";
        assert_eq!(word_at(text, 0, 0), Some(("impl".to_string(), 0, 4)));
        assert_eq!(
            word_at(text, 0, 4),
            Some(("impl".to_string(), 0, 4)),
            "end of word"
        );
        assert_eq!(word_at(text, 0, 7), Some(("wire_i".to_string(), 5, 11)));
        assert_eq!(word_at(text, 0, 21), Some(("wire_s".to_string(), 15, 21)));
        assert_eq!(word_at("  ", 0, 1), None);
        assert_eq!(word_at(text, 9, 0), None, "line out of range");
    }
}
