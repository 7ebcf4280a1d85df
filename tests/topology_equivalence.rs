//! CSR-vs-implicit topology equivalence.
//!
//! The implicit backends (`ImplicitGrid`, `ImplicitGnp`) answer the
//! same neighbor queries as a materialized CSR, so a run over either
//! must be **bit-identical** — not statistically equivalent, identical
//! in every field — to the same run over the CSR oracle obtained by
//! materializing the backend. This holds for both determinism
//! contracts: v1 runs draw from one serial stream in poll order, v2
//! fused runs from per-node counter streams; neither consults the
//! topology representation, only the edge *set*.
//!
//! The suite checks three layers:
//! 1. neighbor sets: implicit queries == materialized CSR rows, and
//!    `ImplicitGrid::generate` == `random_geometric` for equal seeds
//!    (including radii in (1/3, 0.5], the wrapped-scan dedup regime);
//! 2. whole runs: identical `RunResult`s for Algorithm 1 / flood /
//!    decay at n ≤ 2¹², across v1/fused and serial/parallel engines;
//! 3. scale (`#[ignore]`d, release-only): n = 2²⁴ rounds on both
//!    implicit backends, bit-identical across thread counts, with no
//!    O(m) materialization anywhere.

use adhoc_radio::core::broadcast::decay::DecayConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::flood::FloodConfig;
use adhoc_radio::core::broadcast::windowed::WindowedBroadcast;
use adhoc_radio::graph::{DiGraph, ImplicitGnp, ImplicitGrid, NodeId, Topology};
use adhoc_radio::sim::engine::{run_protocol, Run};
use adhoc_radio::sim::{EngineConfig, RunResult};
use adhoc_radio::util::{derive_rng, split_seed};

fn row<T: Topology>(t: &T, u: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    t.for_each_out(u, |v| out.push(v));
    out.sort_unstable();
    out
}

/// Neighbor-set oracle: every implicit row equals the materialized row.
fn assert_rows_match<T: Topology>(t: &T, g: &DiGraph, label: &str) {
    assert_eq!(Topology::n(t), g.n(), "{label}: node count");
    for u in 0..g.n() as NodeId {
        assert_eq!(row(t, u), g.out_neighbors(u), "{label}: row {u}");
    }
}

#[test]
fn implicit_grid_rows_match_csr_generator_and_materialization() {
    // Radii straddle the grid regimes: fine grid, cells == 2 (the
    // double-visit bug's home), and the torus bound cells == 1 cap.
    for (n, r) in [(512, 0.05), (256, 0.4), (128, 0.5)] {
        let seed = split_seed(2024, b"grid-eq", n as u64);
        let (g, pos) =
            adhoc_radio::graph::generate::random_geometric(n, r, &mut derive_rng(seed, b"geo", 0));
        let t = ImplicitGrid::generate(n, r, &mut derive_rng(seed, b"geo", 0));
        assert_eq!(t.positions(), &pos[..], "positions must replay identically");
        assert_rows_match(&t, &g, "grid vs random_geometric");
        assert_rows_match(&t, &t.materialize(), "grid vs materialize");
    }
}

#[test]
fn implicit_gnp_rows_match_materialization() {
    for (n, p) in [(512, 0.02), (1024, 0.008), (64, 0.5)] {
        let t = ImplicitGnp::new(n, p, split_seed(7, b"gnp-eq", n as u64));
        assert_rows_match(&t, &t.materialize(), "gnp vs materialize");
    }
}

/// Engine config exercising the parallel paths even at toy sizes.
fn par_cfg(max_rounds: u64, threads: usize) -> EngineConfig {
    let mut cfg = EngineConfig::with_max_rounds(max_rounds).with_threads(threads);
    cfg.par_min_edges = 0;
    cfg.par_min_edges_implicit = 0;
    cfg.par_min_awake = 0;
    cfg
}

/// Run the three e18 algorithms over a topology, v1 + fused, at the
/// given thread count, returning all RunResults.
fn all_runs<T: Topology>(t: &T, d: f64, run_seed: u64, threads: usize) -> Vec<RunResult> {
    let n = Topology::n(t);
    let q = 1.0 / d;
    let mut out = Vec::new();

    // Algorithm 1 (fused): the paper's p-parameterised config.
    let cfg = EeBroadcastConfig::for_gnp(n, d / n as f64);
    let mut alg1 = EeRandomBroadcast::new(n, 0, cfg);
    out.push(run_protocol(
        t,
        &mut alg1,
        par_cfg(cfg.schedule_end() + 2, threads),
        Run::v2(run_seed),
    ));

    // Flood and Decay (fused) through the windowed protocol.
    let fcfg = FloodConfig::with_prob(q, 400);
    let mut flood = WindowedBroadcast::new(n, 0, fcfg.spec());
    out.push(run_protocol(
        t,
        &mut flood,
        par_cfg(400, threads),
        Run::v2(split_seed(run_seed, b"flood", 0)),
    ));

    let dcfg = DecayConfig::new(n, 8);
    let mut decay = WindowedBroadcast::new(n, 0, dcfg.spec());
    out.push(run_protocol(
        t,
        &mut decay,
        par_cfg(dcfg.max_rounds(), threads),
        Run::v2(split_seed(run_seed, b"decay", 0)),
    ));

    // v1 contract too: serial shared stream, flood protocol.
    let mut flood_v1 = WindowedBroadcast::new(n, 0, fcfg.spec());
    let mut rng = derive_rng(run_seed, b"v1", 0);
    if threads == 1 {
        out.push(run_protocol(
            t,
            &mut flood_v1,
            par_cfg(400, 1),
            Run::v1(&mut rng),
        ));
    } else {
        out.push(run_protocol(
            t,
            &mut flood_v1,
            (par_cfg(400, 1)).with_threads(threads),
            Run::v1(&mut rng),
        ));
    }
    out
}

#[test]
fn runs_are_bit_identical_implicit_grid_vs_csr() {
    let n = 1 << 10;
    let d = 24.0;
    let t = ImplicitGrid::with_expected_degree(n, d, &mut derive_rng(11, b"run-eq", 0));
    let g = t.materialize();
    for threads in [1usize, 4] {
        let implicit = all_runs(&t, d, 91, threads);
        let csr = all_runs(&g, d, 91, threads);
        assert_eq!(implicit, csr, "grid vs CSR at {threads} threads");
    }
    // And across thread counts on the implicit backend itself.
    assert_eq!(all_runs(&t, d, 91, 1), all_runs(&t, d, 91, 4));
}

#[test]
fn runs_are_bit_identical_implicit_gnp_vs_csr() {
    let n = 1 << 12;
    let d = 16.0;
    let t = ImplicitGnp::with_expected_degree(n, d, split_seed(5, b"run-eq", 1));
    let g = t.materialize();
    for threads in [1usize, 4] {
        let implicit = all_runs(&t, d, 92, threads);
        let csr = all_runs(&g, d, 92, threads);
        assert_eq!(implicit, csr, "gnp vs CSR at {threads} threads");
    }
    assert_eq!(all_runs(&t, d, 92, 1), all_runs(&t, d, 92, 4));
}

#[test]
fn informative_runs_actually_inform() {
    // Guard against the equivalence tests passing vacuously on empty
    // graphs: the flood run must actually spread.
    let t = ImplicitGnp::with_expected_degree(1 << 10, 16.0, split_seed(5, b"run-eq", 2));
    let fcfg = FloodConfig::with_prob(1.0 / 16.0, 400);
    let mut flood = WindowedBroadcast::new(1 << 10, 0, fcfg.spec());
    let run = run_protocol(&t, &mut flood, par_cfg(400, 1), Run::v2(17));
    assert!(run.completed, "flood should complete on a connected G(n,p)");
}

/// Release-only acceptance at the CSR memory wall: n = 2²⁴ on both
/// implicit backends — far past where a materialized graph would need
/// ~2³¹ edge slots ((8·ln n)·2²⁴ ≈ 2.2×10⁹ ≫ the 2²⁶ prealloc budget).
/// A bounded number of flood rounds must run, allocate only O(n), and
/// be bit-identical across thread counts.
///
/// `#[ignore]`: ~½ GiB resident and ~30 min on a single core (four
/// full-scale runs; the 8-thread ones pay the receiver-range
/// partition's per-worker row replay with no cores to spread it over —
/// multi-core hosts finish proportionally faster). Run with
/// `cargo test --release -- --ignored topology_scale`.
#[test]
#[ignore = "release-scale acceptance run (n = 2^24)"]
fn topology_scale_2_24_bit_identical_across_threads() {
    let n = 1usize << 24;
    let d = 8.0 * (n as f64).ln();
    let rounds = 30u64;
    // The paper's q = 1/d would leave the lone source silent for ~d
    // expected rounds — useless inside a 30-round budget. q = 1/2 makes
    // the source transmit w.h.p. and keeps per-round work bounded (the
    // informed set stalls behind collisions, which is fine: this test
    // measures scale + bit-identity, not completion).
    let q = 0.5;

    // ImplicitGnp: O(1) graph memory.
    let t = ImplicitGnp::with_expected_degree(n, d, split_seed(99, b"scale", 0));
    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        let fcfg = FloodConfig::with_prob(q, rounds);
        let mut flood = WindowedBroadcast::new(n, 0, fcfg.spec());
        runs.push(run_protocol(
            &t,
            &mut flood,
            EngineConfig::with_max_rounds(rounds).with_threads(threads),
            Run::v2(313),
        ));
    }
    assert_eq!(runs[0], runs[1], "gnp @ 2^24: thread counts diverged");
    assert!(runs[0].metrics.total_transmissions() > 0);

    // ImplicitGrid: O(n) positions + buckets.
    let t = ImplicitGrid::with_expected_degree(n, d, &mut derive_rng(99, b"scale-grid", 0));
    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        let fcfg = FloodConfig::with_prob(q, rounds);
        let mut flood = WindowedBroadcast::new(n, 0, fcfg.spec());
        runs.push(run_protocol(
            &t,
            &mut flood,
            EngineConfig::with_max_rounds(rounds).with_threads(threads),
            Run::v2(313),
        ));
    }
    assert_eq!(runs[0], runs[1], "grid @ 2^24: thread counts diverged");
    assert!(runs[0].metrics.total_transmissions() > 0);
}
