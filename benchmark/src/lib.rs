//! The adhoc-radio benchmark: three workloads driven through the
//! workspace crates' public functions, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See
//! `README.md` in this directory for why each workload exists and which
//! end-to-end metric each layer metric should move.

pub mod campaign;
pub mod check;
pub mod host;
pub mod hygiene;
pub mod instruments;
pub mod pins;
pub mod scale;
pub mod stats;

use check::Checks;
use stats::{min, quantile, tail, Metrics};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["campaign_paper", "scale_csr", "scale_implicit"];

/// Passes an untraced run makes at least, even past `--seconds`, so
/// every unit's fastest time is taken over at least three repetitions.
pub const MIN_PASSES: usize = 3;

/// Set-up repeats in bursts, and `setup_s` is the fastest repetition.
/// An untraced run sets up before each of its first [`MIN_PASSES`]
/// passes, for at least one repetition and this many seconds, and the
/// later passes reuse what the last burst built.
pub const SETUP_BURST_S: f64 = 0.25;

/// A traced run sets up once before its passes: at least three
/// repetitions and this many seconds.
pub const SETUP_S: f64 = 1.0;

/// Untraced (end-to-end metrics) or traced (per-layer metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`.
    Plain,
    /// `--trace 1`.
    Traced,
}

/// Whether an untraced run starts another pass after `done` passes,
/// `elapsed` seconds into the run, the last pass (with its set-up)
/// having taken `last` seconds: always below [`MIN_PASSES`], and after
/// that only while a pass as long as the last one ends within `seconds`.
pub fn another_pass(done: usize, elapsed: f64, last: f64, seconds: f64) -> bool {
    done < MIN_PASSES || elapsed + last <= seconds
}

/// Every pass of an untraced run repeats the same work, so a unit's
/// (cell's, segment's) time is its fastest over the passes: the other
/// processes of a shared host only ever add time, and the fastest
/// repetition is the one they disturbed least. `passes[k][i]` is unit
/// `i`'s seconds in pass `k`; a pass cut short by a failure lacks its
/// last units.
pub fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes.first().map_or(0, Vec::len))
        .map(|i| {
            min(&passes
                .iter()
                .filter_map(|p| p.get(i).copied())
                .collect::<Vec<_>>())
        })
        .collect()
}

/// Record the timing end-to-end metrics shared by every workload from
/// the per-cell times `cells` (from `passes` passes): `cell_p50_s` is
/// the median cell, and `cell_tail_s` is the highest percentile of the
/// cells with at least ten beyond it when there are enough cells for
/// that percentile to lie above the median, and the slowest cell
/// otherwise. The percentiles are Harrell–Davis estimates ([`quantile`]).
pub fn end_to_end(
    m: &mut Metrics,
    run_s: f64,
    node_rounds_per_s: f64,
    cells: &[f64],
    passes: usize,
) {
    m.set("run_s", run_s, "s");
    m.set("cell_p50_s", quantile(cells, 0.5), "s");
    m.note(format!("node_rounds_per_s = {node_rounds_per_s} 1/s"));
    match tail(cells) {
        Some((t, pct)) => {
            m.set("cell_tail_s", t, "s");
            m.note(format!(
                "cell_tail_s is the p{pct:.1} of {} cells ({passes} passes)",
                cells.len(),
            ));
        }
        None => {
            m.set(
                "cell_tail_s",
                cells.iter().copied().fold(0.0, f64::max),
                "s",
            );
            m.note(format!(
                "cell_tail_s is the slowest of {} cells ({passes} passes): \
                 too few for a percentile with 10 beyond it above the median",
                cells.len(),
            ));
        }
    }
}

/// No phase may use more than `nproc` threads. `peak_threads` counts
/// every thread but the sampler, so it may exceed the worker count by
/// the one coordinating thread that waits on the workers.
pub fn thread_checks(m: &mut Metrics, checks: &mut Checks, peak_threads: usize) {
    let nproc = host::nproc();
    let workers = peak_threads.saturating_sub(1);
    m.set("host.worker_threads_peak", workers as f64, "count");
    checks.require(
        workers <= nproc,
        &format!("{workers} worker threads ran at once on a {nproc}-core host"),
    );
}

/// The ChaCha kernel metrics: the dispatched lane width, the decide
/// blocks the workload computed (one 64-byte block per awake node per
/// round under the v2 stream contract; 0 for v1 workloads), and the
/// standalone kernel rate on a batch the size of `awake_set`.
pub fn chacha_metrics(m: &mut Metrics, decide_blocks: u64, awake_set: usize) {
    let width = awake_set.max(1);
    let streams = radio_sim::DecideStreams::new(0x5eed);
    let keys: Vec<[u32; 8]> = (0..width)
        .map(|v| streams.node_key(v as radio_graph::NodeId))
        .collect();
    let mut counters = vec![0u64; width];
    let mut out = vec![[0u32; 16]; width];
    let mut blocks = 0u64;
    let start = Instant::now();
    while blocks < 1_000_000 || start.elapsed().as_secs_f64() < 0.2 {
        for (r, c) in counters.iter_mut().enumerate() {
            *c = radio_sim::DecideStreams::decide_block(blocks / width as u64 + r as u64);
        }
        rand_chacha::chacha8_blocks(&keys, &counters, &mut out);
        std::hint::black_box(&out);
        blocks += width as u64;
    }
    let rate = blocks as f64 / start.elapsed().as_secs_f64();
    m.set("chacha.lanes", rand_chacha::wide_lanes() as f64, "count");
    m.set("chacha.blocks", decide_blocks as f64, "count");
    m.set("chacha.bytes", (64 * decide_blocks) as f64, "B");
    m.set("chacha.blocks_per_s", rate, "1/s");
}

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("campaign.parse_s", "s"),
    ("campaign.compile_s", "s"),
    ("campaign.cell_s.faulty_broadcast", "s"),
    ("campaign.cell_s.energy_crossover", "s"),
    ("campaign.cell_s.energy_lifetime", "s"),
    ("campaign.cell_s.mobile_gossip", "s"),
    ("campaign.checkpoint_write_s", "s"),
    ("campaign.checkpoint_read_s", "s"),
    ("campaign.checkpoint_bytes", "B"),
    ("campaign.report_s", "s"),
    ("sweep.trials", "count"),
    ("sweep.trial_busy_s", "s"),
    ("sweep.fanout_util", "ratio"),
    ("graph.gen_s", "s"),
    ("graph.edges", "count"),
    ("graph.csr_bytes", "B"),
    ("topo.rows", "count"),
    ("topo.range_rows", "count"),
    ("topo.neighbors", "count"),
    ("topo.row_busy_s", "s"),
    ("topo.replay_ratio", "ratio"),
    ("topo.scan_medges_per_s", "Medges/s"),
    ("engine.rounds", "count"),
    ("engine.awake_node_rounds", "count"),
    ("engine.transmissions", "count"),
    ("engine.deliveries", "count"),
    ("engine.collisions", "count"),
    ("engine.decide_scatter_s", "s"),
    ("engine.deliver_s", "s"),
    ("engine.round_tail_s", "s"),
    ("engine.delivery_per_neighbor", "ratio"),
    ("engine.speedup_vs_1t", "ratio"),
    ("chacha.lanes", "count"),
    ("chacha.blocks", "count"),
    ("chacha.bytes", "B"),
    ("chacha.blocks_per_s", "1/s"),
    ("trace.files", "count"),
    ("trace.bytes", "B"),
    ("trace.overhead", "ratio"),
    ("host.worker_threads_peak", "count"),
];

/// Run one workload and return its metrics: the end-to-end set when
/// untraced, the per-layer set (every name in [`PER_LAYER`]) when
/// traced. Returns `None` for an unknown workload name.
pub fn run_workload(
    workload: &str,
    tmp: &std::path::Path,
    seed: u64,
    seconds: f64,
    mode: Mode,
    checks: &mut Checks,
) -> Option<Metrics> {
    let mut m = if workload == "campaign_paper" {
        campaign::run(tmp, seed, seconds, mode, checks)
    } else {
        scale::families(workload)?;
        scale::run(workload, seed, seconds, mode, checks)
    };
    match mode {
        Mode::Plain => m.set("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Mode::Traced => {
            let mut full = Metrics::default();
            for (name, unit) in PER_LAYER {
                full.set(name, m.get(name).unwrap_or(0.0), unit);
            }
            for line in m.notes() {
                full.note(line.clone());
            }
            m = full;
        }
    }
    Some(m)
}
