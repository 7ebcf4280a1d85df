//! Reference outcomes kept in the benchmark's own directory, checked
//! when a run uses the default seed, and the seed-to-input mapping that
//! makes the default seed reproduce the committed results.

use radio_campaign::ir::fnv1a64;
use std::path::{Path, PathBuf};

/// The seed whose outputs are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's directory.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (the benchmark's parent directory).
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// The `base_seed` a scenario runs under at `seed`: the committed value
/// at the default seed, a seed-keyed scramble of it otherwise.
pub fn campaign_base_seed(committed: u64, seed: u64) -> u64 {
    committed ^ (seed ^ DEFAULT_SEED).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Pinned scale outcomes as `(cell key and pass, outcome)` pairs, or `None` when
/// `seed` is not the default seed. A missing pin file yields an empty
/// list, so every pinned comparison fails.
pub fn scale_outcomes(seed: u64) -> Option<Vec<(String, String)>> {
    (seed == DEFAULT_SEED).then(|| {
        let text = std::fs::read_to_string(bench_dir().join("pins/scale_outcomes.txt"))
            .unwrap_or_default();
        text.lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let parts: Vec<&str> = l.splitn(5, ' ').collect();
                (parts.len() == 5).then(|| (parts[..4].join(" "), parts[4].trim().to_string()))
            })
            .collect()
    })
}

/// Check a campaign report against the committed
/// `results/sweep_<name>.json`: byte for byte when the file is present,
/// and always against the length and FNV-1a 64 hash pinned for it in
/// `pins/campaign_reports.txt`. Returns an error message on mismatch.
pub fn check_campaign_report(name: &str, bytes: &[u8]) -> Result<(), String> {
    let file = format!("sweep_{name}.json");
    if let Ok(committed) = std::fs::read(repo_root().join("results").join(&file)) {
        if committed != bytes {
            return Err(format!("{file}: report differs from the committed file"));
        }
    }
    let text =
        std::fs::read_to_string(bench_dir().join("pins/campaign_reports.txt")).unwrap_or_default();
    let want = text
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|p| p.len() == 3 && p[0] == file)
        .ok_or_else(|| format!("{file}: no pinned hash"))?;
    let got = (bytes.len().to_string(), format!("{:016x}", fnv1a64(bytes)));
    if (want[1], want[2]) != (got.0.as_str(), got.1.as_str()) {
        return Err(format!(
            "{file}: report (len {} fnv {}) differs from pinned (len {} fnv {})",
            got.0, got.1, want[1], want[2]
        ));
    }
    Ok(())
}
