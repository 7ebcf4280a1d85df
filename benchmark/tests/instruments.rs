//! The benchmark's instruments must observe without interfering: a run
//! through the wrapped topology and the timing sink returns exactly the
//! bare run's result, on CSR and on both implicit backends, and every
//! count they report repeats exactly across two traced runs.

use radio_benchmark::instruments::{TimedTopology, TimingSink};
use radio_benchmark::scale::{degree, trial};
use radio_graph::generate::gnp_directed;
use radio_graph::{ImplicitGnp, ImplicitGrid, Topology};
use radio_sim::trace::NullSink;
use radio_sim::TrialResult;
use radio_util::derive_rng;

const N: usize = 1 << 10;

/// Run `alg` bare, then twice through the instruments, at `threads`.
fn check<T: Topology>(g: &T, alg: &str, threads: usize) {
    let bare: TrialResult = trial(alg, g, 7, threads, &mut NullSink);
    let mut counts = Vec::new();
    for _ in 0..2 {
        let timed = TimedTopology::new(g);
        let mut sink = TimingSink::new();
        let traced = trial(alg, &timed, 7, threads, &mut sink);
        assert_eq!(traced, bare, "{alg}: instruments changed the run");
        let topo = timed.counts();
        let engine = sink.counts();
        assert_eq!(
            engine.rounds, bare.rounds,
            "{alg}: one RoundStart per round"
        );
        assert_eq!(engine.transmissions, bare.total_transmissions);
        assert!(topo.neighbors >= engine.deliveries + engine.collisions);
        counts.push((topo.counts(), engine.counts()));
    }
    assert_eq!(
        counts[0], counts[1],
        "{alg}: counts differ between two traced runs"
    );
}

#[test]
fn instruments_do_not_change_csr_runs() {
    let g = gnp_directed(N, degree(N) / N as f64, &mut derive_rng(3, b"gnp", 0));
    for alg in ["alg1", "flood", "decay"] {
        for threads in [1, 2] {
            check(&g, alg, threads);
        }
    }
}

#[test]
fn instruments_do_not_change_implicit_gnp_runs() {
    let g = ImplicitGnp::with_expected_degree(N, degree(N), 3);
    for alg in ["alg1", "flood", "decay"] {
        for threads in [1, 2] {
            check(&g, alg, threads);
        }
    }
}

#[test]
fn instruments_do_not_change_implicit_grid_runs() {
    let g = ImplicitGrid::with_expected_degree(N, degree(N), &mut derive_rng(3, b"geo", 0));
    for alg in ["flood", "decay"] {
        for threads in [1, 2] {
            check(&g, alg, threads);
        }
    }
}

#[test]
fn range_queries_count_replayed_rows() {
    // A receiver-range query on an implicit backend walks the whole row:
    // two ranges that tile the row visit it twice and pass it on once.
    let g = ImplicitGnp::with_expected_degree(N, degree(N), 5);
    let timed = TimedTopology::new(&g);
    let mut full = Vec::new();
    g.for_each_out(0, |v| full.push(v));
    let mut tiled = Vec::new();
    let half = (N / 2) as radio_graph::NodeId;
    timed.for_each_out_range(0, 0, half, |v| tiled.push(v));
    timed.for_each_out_range(0, half, N as radio_graph::NodeId, |v| tiled.push(v));
    assert_eq!(tiled, full);
    let c = timed.counts();
    assert_eq!((c.range_rows, c.neighbors), (2, full.len() as u64));
    assert_eq!(c.visited, 2 * full.len() as u64);

    // CSR narrows instead: visited equals passed on.
    let csr = g.materialize();
    let timed = TimedTopology::new(&csr);
    timed.for_each_out_range(0, 0, half, |_| {});
    timed.for_each_out_range(0, half, N as radio_graph::NodeId, |_| {});
    let c = timed.counts();
    assert_eq!(
        (c.visited, c.neighbors),
        (full.len() as u64, full.len() as u64)
    );
}
