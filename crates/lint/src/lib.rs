//! `comsig-lint`: the workspace's in-tree static-analysis engine.
//!
//! Run with `cargo run -p comsig-lint` (or `comsig lint [--json]`). Zero
//! dependencies. The engine is multi-pass:
//!
//! 1. [`source`] masks comments/literals and tracks `#[cfg(test)]`
//!    regions (line level);
//! 2. [`lexer`] tokenizes the masked text with byte spans (token-stream
//!    reconstruction is byte-equal to the masked source — proptested);
//! 3. [`model`] builds the workspace symbol table: fn items with
//!    `impl`/`trait` owners, struct-field and local type hints;
//! 4. [`callgraph`] extracts call sites and computes reachability from
//!    the streaming hot-path roots with call-chain evidence;
//! 5. [`rules`] (line level) and [`dataflow`] (token/graph level) emit
//!    diagnostics; [`allowlist`] applies audited `reason=` exceptions;
//!    [`vendor`] checks vendored-source drift; [`json`] serializes for
//!    CI.
//!
//! Rules (identifier → meaning):
//!
//! * `no-unwrap` — no `.unwrap()` / `.expect("")` in non-test code.
//! * `float-eq` — no exact `==`/`!=` against float literals.
//! * `std-hashmap` — hot-path modules must use `FxHashMap`.
//! * `must-use` — pure signature/distance constructors carry `#[must_use]`.
//! * `forbid-unsafe` — `#![forbid(unsafe_code)]` in every crate root and
//!   no `unsafe` token anywhere.
//! * `unordered-iter` — hash-container iteration must not feed ordered
//!   sinks (Vec push, digest update, serialized output) without a sort.
//! * `shard-float-order` — float accumulation must not escape
//!   `scope_chunks`/`signature_chunk` shard kernels without a
//!   subject-order reduction.
//! * `panic-path` — no panicking constructs reachable from the streaming
//!   roots (reported with the full call chain).
//! * `alloc-in-hot-loop` — no allocation inside loops of hot-path fns.
//! * `vendor-drift` — `vendor/` sources match `vendor/MANIFEST.txt`.
//! * `allowlist` — the exception file itself is well-formed and minimal.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod source;
pub mod vendor;

use std::io;
use std::path::{Path, PathBuf};

pub use model::Workspace;
pub use rules::{render, Diagnostic};

/// Runs the full lint pass over the workspace rooted at `root`.
/// Returns the surviving (non-allowlisted) diagnostics, sorted.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let mut diags = match load_sources(root) {
        Ok(sources) => analyze(sources),
        Err(e) => vec![Diagnostic {
            rule: "io-error",
            path: String::new(),
            line: 0,
            message: format!("cannot scan workspace: {e}"),
            snippet: String::new(),
            chain: Vec::new(),
        }],
    };
    let (entries, mut allow_diags) = allowlist::load(&root.join("crates/lint/allowlist.txt"));
    diags = allowlist::apply(&entries, diags);
    diags.append(&mut allow_diags);
    diags.extend(vendor::check(root));
    sort(&mut diags);
    diags
}

/// Runs every rule (line-level and dataflow) over in-memory sources,
/// without allowlist or vendor checks. This is the entry point the
/// fixture corpus uses: a fixture is just a `SourceFile` with a path that
/// places it in the right rule scope.
#[must_use]
pub fn analyze(sources: Vec<source::SourceFile>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for src in &sources {
        diags.extend(rules::check_file(src));
        diags.extend(rules::check_crate_root(src));
    }
    let ws = Workspace::build(sources);
    diags.extend(dataflow::check_workspace(&ws));
    sort(&mut diags);
    diags
}

fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
}

/// Number of `.rs` files the pass would scan (for the CLI summary).
pub fn file_count(root: &Path) -> usize {
    source_files(root).map_or(0, |f| f.len())
}

/// Loads every scanned file into the source model.
pub fn load_sources(root: &Path) -> io::Result<Vec<source::SourceFile>> {
    let mut sources = Vec::new();
    for path in source_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push(source::SourceFile::load(&path, &rel)?);
    }
    Ok(sources)
}

/// Every first-party `.rs` file: `src/` of the facade crate, `examples/`,
/// plus `crates/*/src/`, `crates/*/benches/` and `crates/*/tests/`
/// recursively (benches are measurement code on the same hot paths they
/// measure; examples and integration tests are scanned as test-grade
/// surface). `vendor/` and `target/` are outside the scanned roots by
/// construction. The lint's own fixture corpus is excluded — fixtures
/// contain deliberate violations.
fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let krate = entry?.path();
            for sub in ["src", "benches", "tests"] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut out)?;
                }
            }
        }
    }
    out.retain(|p| !p.to_string_lossy().contains("lint/tests/fixtures"));
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
