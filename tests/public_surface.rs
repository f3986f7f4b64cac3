//! Nothing ships without a caller. Two rules over `crates/*/src` (compat
//! excluded), checked by word grep with std only:
//! * item rule: a `pub` fn/struct/enum/trait/type/const/static is named at
//!   least once besides its declaration;
//! * file rule: at least one name a file declares (methods aside: they ride
//!   on their type) is used from another file.
//!
//! A use is a word match in non-test code of any crate (`src/bin` included),
//! `benchmark/src`, `examples/`, `tests/` or `crates/*/tests/`; comments, a
//! file's `#[cfg(test)] mod` tail and `pub use` statements are not uses. Fix:
//! delete the offender, or make a test-only accessor a `#[cfg(test)] fn`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Too common for a word match to prove anything: every type's `new`, std's `len` / `get`.
const ALLOW: [&str; 3] = ["new", "len", "get"];
const KINDS: [&str; 6] = ["struct", "enum", "trait", "type", "const", "static"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file without comments and, where judged, without its unit-test tail
/// and `pub use …;` statements.
fn code(path: &Path, judged: bool) -> String {
    let text = std::fs::read_to_string(path).expect("readable source");
    let tail = text.find("#[cfg(test)]\nmod ").filter(|_| judged);
    let (mut out, mut in_pub_use) = (String::new(), false);
    for line in text[..tail.unwrap_or(text.len())].lines() {
        let line = line.split("//").next().unwrap_or("");
        in_pub_use |= judged && line.trim_start().starts_with("pub use ");
        out.push_str(if in_pub_use { "" } else { line });
        out.push('\n');
        in_pub_use &= !line.contains(';');
    }
    out
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    text.split(move |c| !word(c)).filter(|w| !w.is_empty())
}

/// `(name, kind)` of every `pub` item `code` declares (`method` = indented fn).
fn declared(code: &str) -> Vec<(&str, &str)> {
    let mut items = Vec::new();
    for line in code.lines() {
        let skip = |t: &&str| !["unsafe", "async"].contains(t);
        let toks: Vec<&str> = words(line).filter(skip).collect();
        let top = line.starts_with("pub");
        let fn_kind = if top { "fn" } else { "method" };
        match toks[..] {
            ["pub", "const", "fn", name, ..] => items.push((name, fn_kind)),
            ["pub", "fn", name, ..] => items.push((name, fn_kind)),
            ["pub", kind, name, ..] if KINDS.contains(&kind) => items.push((name, kind)),
            _ => {}
        }
    }
    items
}

#[test]
fn every_public_item_and_every_source_file_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(root).expect("repository root");
    let mut files = Vec::new();
    for dir in ["crates", "benchmark/src", "examples", "tests"] {
        rs_files(Path::new(dir), &mut files);
    }
    files.retain(|path| !path.starts_with("crates/compat"));
    files.sort();
    // The rules judge `crates/<name>/src`; every other file only uses.
    let judged = |p: &Path| p.starts_with("crates") && p.iter().any(|part| part == "src");
    let texts: Vec<String> = files.iter().map(|f| code(f, judged(f))).collect();

    // word -> files using it; a judged file's declarations of a name are not uses.
    let mut uses: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut decls = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let items = declared(if judged(&files[i]) { text } else { "" });
        let mut own: BTreeMap<&str, usize> = BTreeMap::new();
        for (name, _) in &items {
            *own.entry(name).or_default() += 1;
        }
        for w in words(text) {
            match own.get_mut(w) {
                Some(left) if *left > 0 => *left -= 1,
                _ => drop(uses.entry(w).or_default().insert(i)),
            }
        }
        decls.push(items);
    }

    let mut offenders = Vec::new();
    for (i, items) in decls.iter().enumerate() {
        let shown = files[i].display().to_string();
        let elsewhere = |name| uses.get(name).is_some_and(|by| by.iter().any(|&f| f != i));
        let mut reachable = shown.ends_with("lib.rs") || shown.contains("/bin/");
        reachable |= items.iter().all(|(_, kind)| *kind == "method");
        for (name, kind) in items {
            reachable |= *kind != "method" && elsewhere(name);
            if !uses.contains_key(name) && !ALLOW.contains(name) {
                offenders.push(format!("{shown}: {kind} {name}"));
            }
        }
        if !reachable {
            offenders.push(format!("{shown}: file (unused by any other file)"));
        }
    }
    let report = offenders.join("\n");
    assert!(offenders.is_empty(), "unreachable:\n{report}");
}
