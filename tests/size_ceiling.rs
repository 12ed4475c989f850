//! A size ratchet with no knob. The numbers below are the current net library lines
//! of the largest engine files, the session, the result cache, the pandas frame, the
//! optimizer and the algebra, and each crate's count of `pub mod`s and `pub` items. They only ratchet down:
//! growth fails this suite, and a change that shrinks a file or a crate's public
//! surface lowers its number here in the same change.
//!
//! Counting rule (the same one behind the net-library-lines figures in CHANGES.md):
//! per `.rs` file under a crate's `src/`, stop at a top-level `#[cfg(test)]` that is
//! followed by `mod`; skip `#[cfg(test)]` lines, blank lines and `//` comment lines;
//! count what is left. A `pub` item is a line matching
//! `^\s*pub (fn|struct|enum|trait|type|const|static) `, a `pub mod` one matching
//! `^\s*pub mod `. The `dfbench` package is its own benchmark and is not counted.

use std::fs;
use std::path::{Path, PathBuf};

/// Net lines of the files every performance item promises to shrink.
const FILE_LINES: [(&str, usize); 8] = [
    ("crates/df-engine/src/engine.rs", 804),
    ("crates/df-engine/src/shuffle.rs", 864),
    ("crates/df-storage/src/spill.rs", 831),
    ("crates/df-engine/src/session.rs", 337),
    ("crates/df-engine/src/cache.rs", 375),
    ("crates/df-pandas/src/frame.rs", 586),
    ("crates/df-engine/src/optimizer.rs", 195),
    ("crates/df-core/src/algebra.rs", 647),
];

/// `(crate, pub mod, pub items)`.
const CRATE_SURFACE: [(&str, usize, usize); 9] = [
    ("df-baseline", 0, 5),
    ("df-bench", 0, 10),
    ("df-core", 11, 173),
    ("df-engine", 6, 111),
    ("df-pandas", 0, 95),
    ("df-service", 0, 26),
    ("df-storage", 3, 65),
    ("df-types", 6, 113),
    ("df-workloads", 0, 16),
];

#[derive(Default)]
struct Count {
    lines: usize,
    pub_mods: usize,
    pub_items: usize,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn count_file(path: &Path, total: &mut Count) {
    let text = fs::read_to_string(path).unwrap();
    let mut pending = false;
    for line in text.lines() {
        if line.starts_with("#[cfg(test)]") {
            pending = true;
            continue;
        }
        if pending && line.starts_with("mod ") {
            return;
        }
        pending = false;
        let code = line.trim_start();
        if code.starts_with("pub mod ") {
            total.pub_mods += 1;
        }
        let item = ["fn", "struct", "enum", "trait", "type", "const", "static"]
            .iter()
            .any(|kw| code.starts_with(&format!("pub {kw} ")));
        total.pub_items += usize::from(item);
        if !code.is_empty() && !code.starts_with("//") {
            total.lines += 1;
        }
    }
}

fn count_dir(dir: &Path, total: &mut Count) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.ends_with("dfbench") {
            continue;
        }
        if path.is_dir() {
            count_dir(&path, total);
        } else if path.extension().is_some_and(|e| e == "rs") {
            count_file(&path, total);
        }
    }
}

/// `what` is pinned at `pin`; `now` must equal it.
fn ratchet(what: &str, pin: usize, now: usize, failures: &mut Vec<String>) {
    if now > pin {
        failures.push(format!("{what} grew: {now} > ceiling {pin}"));
    } else if now < pin {
        failures.push(format!(
            "{what} shrank to {now}: lower its ceiling from {pin}"
        ));
    }
}

#[test]
fn hot_files_do_not_grow() {
    let mut failures = Vec::new();
    for (file, pin) in FILE_LINES {
        let mut count = Count::default();
        count_file(&root().join(file), &mut count);
        ratchet(
            &format!("{file} net lines"),
            pin,
            count.lines,
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn public_surface_does_not_grow() {
    let mut failures = Vec::new();
    let mut crates: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let pinned: Vec<&str> = CRATE_SURFACE.iter().map(|(name, ..)| *name).collect();
    assert_eq!(crates, pinned, "every crate has a pinned surface");
    for (name, pub_mods, pub_items) in CRATE_SURFACE {
        let mut count = Count::default();
        count_dir(&root().join("crates").join(name).join("src"), &mut count);
        ratchet(
            &format!("{name} pub mods"),
            pub_mods,
            count.pub_mods,
            &mut failures,
        );
        ratchet(
            &format!("{name} pub items"),
            pub_items,
            count.pub_items,
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
