//! The run stamp: what code ran, on how many cores, on which toolchain
//! and filesystem.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use comsig_core::persist::Fnv;
use comsig_graph::ShardPlan;
use serde_json::{json, Value};

/// Collects the stamp for a run whose data lives under `data_dir`.
#[must_use]
pub fn collect(root: &Path, data_dir: &Path) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json!({
        "commit": commit(root),
        "source_fnv": source_digest(root),
        "available_parallelism": cores as u64,
        "server_shards": ShardPlan::auto().threads() as u64,
        "rustc": output("rustc", &["--version"], root).unwrap_or_else(|| "unknown".to_owned()),
        "data_dir_fs": filesystem(data_dir),
    })
}

fn output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The git commit, when the checkout is a git repository.
fn commit(root: &Path) -> String {
    output("git", &["rev-parse", "HEAD"], root)
        .unwrap_or_else(|| "none (not a git checkout; see source_fnv)".to_owned())
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in sorted path order: identifies the code when there is no commit.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}
