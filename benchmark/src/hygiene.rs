//! The benchmark writes only into its own temporary directory: every
//! checkpoint, report and `.rtrc` goes there, never to `results/` or
//! anywhere else in the checkout. [`Snapshot`] makes that checkable
//! without git (the benchmark may run in a checkout that is not a
//! repository): it lists every file of the tree with its length and
//! modification time, skipping build output and the temporary
//! directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Directory names at the root that hold build output or the
/// benchmark's own temporary files, and are not part of the tree.
pub const SKIPPED: [&str; 4] = [".git", ".bench_build", ".bench_tmp", "target"];

/// The files of a tree: path → (length, modification time).
#[derive(Debug, PartialEq, Eq)]
pub struct Snapshot(BTreeMap<PathBuf, (u64, Option<SystemTime>)>);

impl Snapshot {
    /// List every regular file under `root`, skipping [`SKIPPED`]
    /// directories at the root and `skip_also` (the cargo target
    /// directory, when it lies inside the tree).
    pub fn take(root: &Path, skip_also: Option<&Path>) -> Snapshot {
        let mut files = BTreeMap::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for e in entries.flatten() {
                let path = e.path();
                let skipped = (dir == root
                    && SKIPPED
                        .iter()
                        .any(|s| e.file_name() == std::ffi::OsStr::new(s)))
                    || skip_also.is_some_and(|s| path == s);
                let Ok(meta) = e.metadata() else { continue };
                if skipped {
                    continue;
                } else if meta.is_dir() {
                    stack.push(path);
                } else {
                    files.insert(path, (meta.len(), meta.modified().ok()));
                }
            }
        }
        Snapshot(files)
    }

    /// Paths added, removed or changed between `self` and `after`.
    pub fn changes(&self, after: &Snapshot) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = self
            .0
            .iter()
            .filter(|(p, v)| after.0.get(*p) != Some(v))
            .map(|(p, _)| p.clone())
            .collect();
        out.extend(after.0.keys().filter(|p| !self.0.contains_key(*p)).cloned());
        out
    }
}
