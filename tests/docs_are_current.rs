//! README.md and docs/ARCHITECTURE.md point at code by name; this suite fails when a
//! name stops resolving, so the documents cannot silently drift from the tree.
//!
//! * A back-ticked `path.rs` names a file in the tree (matched by path suffix, so
//!   `df-engine/src/shuffle.rs`, `backend/task.rs` and `tests/block_codec.rs` all
//!   resolve).
//! * A back-ticked `Type::member` names a `fn` or `const` in an `impl` or `trait` of a
//!   workspace type, or a field or variant of it. `Type::{a, b}` checks each member.
//! * A `df_crate::module::…` path, back-ticked or in a code block, goes only through
//!   modules that are `pub mod` — so the documents cannot point at a private module.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["README.md", "docs/ARCHITECTURE.md"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, skipping build output and version control.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Inline code spans outside fenced blocks (a span may wrap onto the next line),
/// with the document line each starts on.
fn inline_spans(doc: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        // Fenced lines stay as blank lines so line numbers still count.
        prose.push_str(if fenced || line.trim_start().starts_with("```") {
            ""
        } else {
            line
        });
        prose.push('\n');
    }
    let mut spans = Vec::new();
    let mut parts = prose.split('`');
    let mut offset = parts.next().map_or(0, |p| p.len() + 1);
    while let (Some(span), Some(after)) = (parts.next(), parts.next()) {
        let line = prose[..offset].matches('\n').count() + 1;
        spans.push((line, span.split_whitespace().collect::<Vec<_>>().join(" ")));
        offset += span.len() + after.len() + 2;
    }
    spans
}

/// Rust source with comments and string/char literals blanked out, so that brace
/// matching and item searches see only code.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if b[i] == b'r' && matches!(b.get(i + 1), Some(b'#' | b'"')) && !ident(b, i) {
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            i += 1 + hashes;
            if b.get(i) != Some(&b'"') {
                continue;
            }
            let close: Vec<u8> = std::iter::once(b'"')
                .chain((0..hashes).map(|_| b'#'))
                .collect();
            i += 1;
            while i < b.len() && !b[i..].starts_with(&close) {
                i += 1;
            }
            i += close.len();
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if b[i] == b'\'' {
            // A char literal ('x', '\n', '{'), not a lifetime ('a).
            let len = src[i + 1..].chars().next().map_or(0, char::len_utf8);
            if b.get(i + 1) == Some(&b'\\') {
                i += 3;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 1 + len) == Some(&b'\'') {
                i += len + 2;
            } else {
                i += 1;
                continue;
            }
        } else {
            i += 1;
            continue;
        }
        let end = i.min(b.len());
        blank(&mut out, start, end);
        i = end;
    }
    String::from_utf8(out).unwrap()
}

fn ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `word` in `text` as a whole identifier.
fn word_at(text: &str, word: &str) -> Vec<usize> {
    text.match_indices(word)
        .map(|(i, _)| i)
        .filter(|&i| {
            let before = text[..i].chars().next_back();
            let after = text[i + word.len()..].chars().next();
            !matches!(before, Some(c) if is_ident_char(c))
                && !matches!(after, Some(c) if is_ident_char(c))
        })
        .collect()
}

/// The brace block opening at `open`, exclusive of the braces.
fn block(code: &str, open: usize) -> &str {
    let mut depth = 0;
    for (i, c) in code[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..open + i];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// The last path segment of a type, without generic arguments.
fn base_name(ty: &str) -> &str {
    let ty = ty.trim().trim_start_matches('&');
    let ty = ty.split('<').next().unwrap_or(ty);
    ty.rsplit("::").next().unwrap_or(ty).trim()
}

/// Bodies of everything that can define `Type::member`, by type name: `impl` blocks
/// and traits (whose members are `fn`s and `const`s) and structs and enums (whose
/// members are fields and variants).
#[derive(Default)]
struct Defs {
    impls: HashMap<String, Vec<String>>,
    shapes: HashMap<String, Vec<String>>,
}

impl Defs {
    fn scan(&mut self, code: &str) {
        for i in word_at(code, "impl") {
            let rest = &code[i + 4..];
            let Some(open) = rest.find(['{', ';']) else {
                continue;
            };
            if !rest[open..].starts_with('{') {
                continue;
            }
            let mut header = rest[..open].trim();
            if header.starts_with('<') {
                let mut depth = 0;
                for (j, c) in header.char_indices() {
                    depth += i32::from(c == '<') - i32::from(c == '>');
                    if depth == 0 {
                        header = &header[j + 1..];
                        break;
                    }
                }
            }
            let header = header.split(" where ").next().unwrap_or(header);
            let self_ty = match word_at(header, "for").first() {
                Some(&f) => &header[f + 3..],
                None => header,
            };
            self.impls
                .entry(base_name(self_ty).to_string())
                .or_default()
                .push(block(code, i + 4 + open).to_string());
        }
        for kind in ["struct", "enum", "trait", "union"] {
            for i in word_at(code, kind) {
                let rest = &code[i + kind.len()..];
                let name: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                let Some(open) = rest.find(['{', ';', '(']) else {
                    continue;
                };
                if name.is_empty() || !rest[open..].starts_with('{') {
                    continue;
                }
                let body = block(code, i + kind.len() + open).to_string();
                let map = if kind == "trait" {
                    &mut self.impls
                } else {
                    &mut self.shapes
                };
                map.entry(name).or_default().push(body);
            }
        }
    }

    fn has(&self, ty: &str, member: &str) -> bool {
        let callable = self.impls.get(ty).into_iter().flatten().any(|body| {
            word_at(body, member).into_iter().any(|i| {
                let before = body[..i].trim_end();
                ["fn", "const"]
                    .iter()
                    .any(|kw| word_at(before, kw).last() == Some(&(before.len() - kw.len())))
            })
        });
        let shaped = self
            .shapes
            .get(ty)
            .into_iter()
            .flatten()
            .any(|body| !word_at(body, member).is_empty());
        callable || shaped
    }

    fn knows(&self, ty: &str) -> bool {
        self.impls.contains_key(ty) || self.shapes.contains_key(ty)
    }
}

fn workspace_defs() -> Defs {
    let mut files = Vec::new();
    walk(&root().join("crates"), &mut files);
    walk(&root().join("src"), &mut files);
    let mut defs = Defs::default();
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
    {
        defs.scan(&code_only(&fs::read_to_string(file).unwrap()));
    }
    defs
}

fn docs() -> Vec<(&'static str, String)> {
    DOCS.iter()
        .map(|d| (*d, fs::read_to_string(root().join(d)).unwrap()))
        .collect()
}

#[test]
fn backticked_source_paths_name_files_in_the_tree() {
    let mut files = Vec::new();
    walk(&root(), &mut files);
    let files: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let mut missing = Vec::new();
    for (doc, text) in docs() {
        for (line, span) in inline_spans(&text) {
            let is_path = span.ends_with(".rs") && !span.contains(char::is_whitespace);
            if is_path
                && !files
                    .iter()
                    .any(|f| f == &span || f.ends_with(&format!("/{span}")))
            {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(missing.is_empty(), "no such file:\n{}", missing.join("\n"));
}

#[test]
fn backticked_type_members_exist() {
    let defs = workspace_defs();
    let mut missing = Vec::new();
    for (doc, text) in docs() {
        for (line, span) in inline_spans(&text) {
            let Some((ty, rest)) = span.split_once("::") else {
                continue;
            };
            if !ty.starts_with(|c: char| c.is_ascii_uppercase()) || !ty.chars().all(is_ident_char) {
                continue;
            }
            let members: Vec<&str> = match rest.strip_prefix('{') {
                Some(list) => list.split('}').next().unwrap_or("").split(',').collect(),
                None => vec![rest],
            };
            for member in members {
                let member: String = member
                    .trim()
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if member.is_empty() {
                    continue;
                }
                if !defs.knows(ty) || !defs.has(ty, &member) {
                    missing.push(format!("{doc}:{line}: `{ty}::{member}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no such member:\n{}",
        missing.join("\n")
    );
}

/// Whether `module` is declared `pub mod` in the module file `file`, and the file
/// that holds its body.
fn pub_child(file: &Path, module: &str) -> Option<PathBuf> {
    let code = code_only(&fs::read_to_string(file).ok()?);
    let declared = word_at(&code, module)
        .into_iter()
        .any(|i| code[..i].trim_end().ends_with("pub mod"));
    if !declared {
        return None;
    }
    let dir = match file.file_name()?.to_str()? {
        "lib.rs" | "mod.rs" => file.parent()?.to_path_buf(),
        name => file.parent()?.join(name.trim_end_matches(".rs")),
    };
    [
        dir.join(format!("{module}.rs")),
        dir.join(module).join("mod.rs"),
    ]
    .into_iter()
    .find(|p| p.exists())
}

#[test]
fn crate_paths_go_through_public_modules() {
    let mut private = Vec::new();
    for (doc, text) in docs() {
        for (n, line) in text.lines().enumerate() {
            for (i, _) in line.match_indices("df_") {
                if line[..i].chars().next_back().is_some_and(is_ident_char) {
                    continue;
                }
                let path: String = line[i..]
                    .chars()
                    .take_while(|&c| is_ident_char(c) || c == ':')
                    .collect();
                let mut segments: Vec<&str> = path.split("::").collect();
                let krate = segments.remove(0);
                let lib = root()
                    .join("crates")
                    .join(krate.replace('_', "-"))
                    .join("src/lib.rs");
                if segments.is_empty() || !lib.exists() {
                    continue;
                }
                // Every lowercase segment followed by `::` is a module on the way.
                let mut file = lib;
                for (k, seg) in segments.iter().enumerate() {
                    let is_module =
                        k + 1 < segments.len() && seg.starts_with(|c: char| c.is_ascii_lowercase());
                    if !is_module {
                        break;
                    }
                    match pub_child(&file, seg) {
                        Some(next) => file = next,
                        None => {
                            private.push(format!("{doc}:{}: `{path}` goes through `{seg}`", n + 1));
                            break;
                        }
                    }
                }
            }
        }
    }
    assert!(
        private.is_empty(),
        "not a public module path:\n{}",
        private.join("\n")
    );
}
