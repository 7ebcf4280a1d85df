//! The two scale workloads: the e18 trial body at n = 2¹⁷ through the
//! fused v2 engine, on materialized CSR graphs (`scale_csr`) or on the
//! implicit backends (`scale_implicit`).

use crate::check::Checks;
use crate::instruments::{EngineCounts, TimedTopology, TimingSink, TopoCounts};
use crate::stats::{mean, median, min, Metrics};
use crate::{host, pins, Mode};
use radio_core::broadcast::decay::DecayConfig;
use radio_core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use radio_core::broadcast::flood::FloodConfig;
use radio_core::broadcast::windowed::run_windowed_fused_traced;
use radio_graph::generate::{gnp_directed, GeoParams};
use radio_graph::{DiGraph, GraphFamily, ImplicitGnp, ImplicitGrid, Topology};
use radio_sim::engine::run_protocol_fused_traced;
use radio_sim::trace::{NullSink, TraceSink};
use radio_sim::{EngineConfig, Protocol, TrialResult};
use radio_util::{derive_rng, split_seed};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// log₂ of the node count of every scale cell.
pub const LOG2_N: u32 = 17;
/// Expected degree is `DEGREE_C · ln n` (e18's regime).
const DEGREE_C: f64 = 8.0;
/// Decay's diameter hint (e18's value).
const D_HINT: u32 = 8;

/// Expected degree at `n`.
pub fn degree(n: usize) -> f64 {
    DEGREE_C * (n as f64).ln()
}

/// A topology family and the backend that stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `gnp_directed`, materialized as CSR.
    GnpCsr,
    /// `geometric`, materialized as CSR.
    GeoCsr,
    /// [`ImplicitGnp`]: rows re-sampled per query.
    GnpImplicit,
    /// [`ImplicitGrid`]: rows recomputed from positions per query.
    GridImplicit,
}

impl Family {
    /// Stable label used in output and in the pinned outcomes.
    pub fn label(self) -> &'static str {
        match self {
            Family::GnpCsr => "gnp_csr",
            Family::GeoCsr => "geometric_csr",
            Family::GnpImplicit => "implicit_gnp",
            Family::GridImplicit => "implicit_grid",
        }
    }

    /// The algorithms run on this family. Algorithm 1 is left out of
    /// the geometric families, where its G(n,p)-tuned schedule informs
    /// almost nobody (the paper's §5 caveat) and so measures nothing.
    pub fn algorithms(self) -> &'static [&'static str] {
        match self {
            Family::GnpCsr | Family::GnpImplicit => &["alg1", "flood", "decay"],
            Family::GeoCsr | Family::GridImplicit => &["flood", "decay"],
        }
    }
}

/// The two families of a scale workload, or `None` for another name.
pub fn families(workload: &str) -> Option<[Family; 2]> {
    match workload {
        "scale_csr" => Some([Family::GnpCsr, Family::GeoCsr]),
        "scale_implicit" => Some([Family::GnpImplicit, Family::GridImplicit]),
        _ => None,
    }
}

/// A built topology.
#[derive(Debug)]
pub enum Graph {
    /// Stored CSR rows.
    Csr(DiGraph),
    /// Implicit G(n,p).
    Gnp(ImplicitGnp),
    /// Implicit geometric grid.
    Grid(ImplicitGrid),
}

impl Graph {
    /// Build `family` at `n` nodes from `graph_seed`. The geometric CSR
    /// graph and the implicit grid draw the same positions from the same
    /// stream, so they are the same graph.
    pub fn build(family: Family, n: usize, graph_seed: u64) -> Graph {
        let d = degree(n);
        let geo_rng = || derive_rng(graph_seed, b"geo", 0);
        match family {
            Family::GnpCsr => Graph::Csr(gnp_directed(
                n,
                d / n as f64,
                &mut derive_rng(graph_seed, b"gnp", 0),
            )),
            Family::GeoCsr => Graph::Csr(GraphFamily::Geometric.generate(
                n,
                GeoParams::with_expected_degree(n, d).r_min,
                &mut geo_rng(),
            )),
            Family::GnpImplicit => Graph::Gnp(ImplicitGnp::with_expected_degree(n, d, graph_seed)),
            Family::GridImplicit => {
                Graph::Grid(ImplicitGrid::with_expected_degree(n, d, &mut geo_rng()))
            }
        }
    }

    /// Stored edges (0 for implicit backends).
    pub fn stored_edges(&self) -> u64 {
        match self {
            Graph::Csr(g) => g.m() as u64,
            _ => 0,
        }
    }

    /// Bytes of the out- and in-CSR arrays, computed from their lengths
    /// at 4 bytes per entry (0 for implicit backends).
    pub fn csr_bytes(&self) -> u64 {
        match self {
            Graph::Csr(g) => [g.out_csr(), g.in_csr()]
                .iter()
                .map(|c| 4 * (c.offsets().len() + c.nnz()) as u64)
                .sum(),
            _ => 0,
        }
    }

    /// One trial on the bare backend.
    pub fn trial(&self, alg: &str, seed: u64, threads: usize) -> TrialResult {
        match self {
            Graph::Csr(g) => trial(alg, g, seed, threads, &mut NullSink),
            Graph::Gnp(g) => trial(alg, g, seed, threads, &mut NullSink),
            Graph::Grid(g) => trial(alg, g, seed, threads, &mut NullSink),
        }
    }

    /// One trial through [`TimedTopology`] and `sink`; returns the
    /// trial and the topology counts.
    pub fn trial_traced(
        &self,
        alg: &str,
        seed: u64,
        threads: usize,
        sink: &mut TimingSink,
    ) -> (TrialResult, TopoCounts) {
        fn go<T: Topology>(
            g: &T,
            alg: &str,
            seed: u64,
            threads: usize,
            sink: &mut TimingSink,
        ) -> (TrialResult, TopoCounts) {
            let timed = TimedTopology::new(g);
            let t = trial(alg, &timed, seed, threads, sink);
            (t, timed.counts())
        }
        match self {
            Graph::Csr(g) => go(g, alg, seed, threads, sink),
            Graph::Gnp(g) => go(g, alg, seed, threads, sink),
            Graph::Grid(g) => go(g, alg, seed, threads, sink),
        }
    }

    /// Visit every row once; returns `(edges, seconds)`.
    pub fn full_scan(&self) -> (u64, f64) {
        fn go<T: Topology>(g: &T) -> (u64, f64) {
            let start = Instant::now();
            let mut edges = 0u64;
            for u in 0..g.n() {
                g.for_each_out(u as radio_graph::NodeId, |v| {
                    edges += 1;
                    std::hint::black_box(v);
                });
            }
            (edges, start.elapsed().as_secs_f64())
        }
        match self {
            Graph::Csr(g) => go(g),
            Graph::Gnp(g) => go(g),
            Graph::Grid(g) => go(g),
        }
    }
}

/// The e18 trial body: `alg` from node 0 through the fused v2 engine
/// with `threads` workers. Algorithm 1 takes the analytic `p = d/n`.
pub fn trial<T: Topology, S: TraceSink>(
    alg: &str,
    graph: &T,
    seed: u64,
    threads: usize,
    sink: &mut S,
) -> TrialResult {
    let n = graph.n();
    let d = degree(n);
    let cfg = |max_rounds: u64| EngineConfig::with_max_rounds(max_rounds).with_threads(threads);
    match alg {
        "alg1" => {
            let acfg = EeBroadcastConfig::for_gnp(n, d / n as f64);
            let mut protocol = EeRandomBroadcast::new(n, 0, acfg);
            let run = run_protocol_fused_traced(
                graph,
                &mut protocol,
                cfg(acfg.schedule_end() + 2),
                seed,
                sink,
            );
            let informed = protocol.informed_count();
            TrialResult::from_run(&run, informed == n, informed)
        }
        "flood" => {
            let q = (1.0 / d).min(1.0);
            let fcfg = FloodConfig::with_prob(q, DecayConfig::new(n, D_HINT).max_rounds());
            run_windowed_fused_traced(graph, 0, fcfg.spec(), cfg(fcfg.max_rounds), seed, sink)
                .to_trial()
        }
        "decay" => {
            let dcfg = DecayConfig::new(n, D_HINT);
            run_windowed_fused_traced(graph, 0, dcfg.spec(), cfg(dcfg.max_rounds()), seed, sink)
                .to_trial()
        }
        other => panic!("unknown algorithm {other}"),
    }
}

/// The outcome a pin records: rounds, total transmissions, max
/// transmissions per node, informed nodes.
pub fn outcome(t: &TrialResult) -> String {
    format!(
        "rounds={} tx={} max_tx={} informed={}",
        t.rounds, t.total_transmissions, t.max_transmissions_per_node, t.informed
    )
}

/// Distinct trials of every cell in a run. Pass `k` runs trial
/// `k % TRIALS` of every cell, so the passes cycle through the trials and
/// a cell's time averages over `TRIALS` trials, which vary in length
/// (Decay's transmissions on G(n,p) vary by up to a third from seed to
/// seed).
pub const TRIALS: usize = 3;

/// One cell of a scale workload.
struct Cell {
    family: usize,
    alg: &'static str,
    /// The seeds of the cell's trials, the same in every run at one seed.
    trial_seeds: [u64; TRIALS],
    key: String,
}

/// One pass over every cell: per-cell wall seconds and results
/// (`None` when the trial panicked).
type Pass = Vec<(f64, Option<TrialResult>)>;

/// Run trial `j` of every cell on `graphs`.
fn run_pass(graphs: &[Graph], cells: &[Cell], j: usize, threads: usize) -> Pass {
    cells
        .iter()
        .map(|c| {
            let start = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                graphs[c.family].trial(c.alg, c.trial_seeds[j], threads)
            }))
            .ok();
            (start.elapsed().as_secs_f64(), r)
        })
        .collect()
}

/// Build both topologies from `seed` at least `min_reps` times and for
/// at least `secs` seconds into `graphs`, pushing each build's seconds
/// onto `times`. Every build yields the same graphs; the previous build
/// is dropped first, so peak memory holds one.
fn setup_burst(
    fams: [Family; 2],
    n: usize,
    seed: u64,
    (min_reps, secs): (usize, f64),
    graphs: &mut Vec<Graph>,
    times: &mut Vec<f64>,
) {
    let begin = Instant::now();
    let mut reps = 0;
    while reps < min_reps || begin.elapsed().as_secs_f64() < secs {
        graphs.clear();
        let start = Instant::now();
        for (i, &f) in fams.iter().enumerate() {
            graphs.push(Graph::build(
                f,
                n,
                split_seed(seed, b"bench-graph", i as u64),
            ));
        }
        times.push(start.elapsed().as_secs_f64());
        reps += 1;
    }
}

/// Run a scale workload, checking every trial into `checks`.
///
/// The topologies are built from the run's seed, in a set-up burst
/// before each of the first [`crate::MIN_PASSES`] passes (every burst
/// rebuilds the same graphs). The passes cycle through the [`TRIALS`]
/// trials of every cell, so each trial repeats identical work: its time
/// is its fastest repetition, and a cell's time is the mean over its
/// trials.
pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode, checks: &mut Checks) -> Metrics {
    let fams = families(workload).expect("caller checked the workload name");
    let n = 1usize << LOG2_N;
    let threads = host::nproc();
    let cells: Vec<Cell> = fams
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| f.algorithms().iter().map(move |&alg| (fi, f.label(), alg)))
        .enumerate()
        .map(|(ci, (family, label, alg))| {
            let cell_seed = split_seed(seed, b"bench-trial", ci as u64);
            Cell {
                family,
                alg,
                trial_seeds: std::array::from_fn(|j| {
                    split_seed(cell_seed, b"bench-pass", j as u64)
                }),
                key: format!("{workload} {label} {alg}"),
            }
        })
        .collect();
    let pinned = pins::scale_outcomes(seed);

    // A traced run makes one untraced reference pass after a longer
    // set-up; an untraced run makes passes until `seconds`, and runs
    // every trial at least once.
    let burst = match mode {
        Mode::Traced => (3, crate::SETUP_S),
        Mode::Plain => (1, crate::SETUP_BURST_S),
    };
    let mut graphs = Vec::new();
    let mut setup_times = Vec::new();
    let begin = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last = 0.0;
    while match mode {
        Mode::Traced => passes.is_empty(),
        Mode::Plain => {
            passes.len() < TRIALS
                || crate::another_pass(passes.len(), begin.elapsed().as_secs_f64(), last, seconds)
        }
    } {
        let start = Instant::now();
        if passes.len() < crate::MIN_PASSES {
            setup_burst(fams, n, seed, burst, &mut graphs, &mut setup_times);
        }
        let pass = run_pass(&graphs, &cells, passes.len() % TRIALS, threads);
        if passes.is_empty() {
            one_thread_check(&graphs, &cells, &pass, checks);
        }
        passes.push(pass);
        last = start.elapsed().as_secs_f64();
    }
    let setup_s = min(&setup_times);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.note(format!(
        "setup_s is the fastest of {} set-ups (median {} s)",
        setup_times.len(),
        median(&setup_times)
    ));
    let first: Vec<&Pass> = passes.iter().take(TRIALS).collect();
    for (k, pass) in passes.iter().enumerate() {
        let j = k % TRIALS;
        for (i, (c, (_, r))) in cells.iter().zip(pass).enumerate() {
            if k < TRIALS {
                check_trial(checks, c, j, r.as_ref(), pinned.as_deref());
            } else {
                checks.attempt();
                if *r != first[j][i].1 {
                    checks.fail(&format!("{}: trial {j} differs between passes", c.key));
                }
            }
        }
    }
    let reference: Vec<Option<TrialResult>> = passes[0].iter().map(|(_, r)| r.clone()).collect();

    // Fastest repetition of every (trial, cell), then the mean over the
    // trials of each cell.
    let per_trial: Vec<Vec<f64>> = (0..TRIALS.min(passes.len()))
        .map(|j| {
            crate::fastest(
                &passes
                    .iter()
                    .skip(j)
                    .step_by(TRIALS)
                    .map(|p| p.iter().map(|c| c.0).collect())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let cell_s: Vec<f64> = (0..cells.len())
        .map(|i| mean(&per_trial.iter().map(|t| t[i]).collect::<Vec<_>>()))
        .collect();
    for (i, c) in cells.iter().enumerate() {
        let all: Vec<f64> = passes.iter().map(|p| p[i].0).collect();
        m.note(format!(
            "cell {}: {} s (fastest per trial: {:?}), median pass {} s, {} passes",
            c.key,
            cell_s[i],
            per_trial.iter().map(|t| t[i]).collect::<Vec<_>>(),
            median(&all),
            all.len()
        ));
        for (j, pass) in first.iter().enumerate() {
            let result = pass[i].1.as_ref().map_or("panicked".to_string(), outcome);
            m.note(format!("outcome {} trial{j} {result}", c.key));
        }
    }
    let run_s: f64 = cell_s.iter().sum();
    match mode {
        Mode::Plain => {
            let node_rounds: f64 = first
                .iter()
                .flat_map(|p| p.iter())
                .filter_map(|(_, r)| r.as_ref())
                .map(|r| (n as u64 * r.rounds) as f64)
                .sum::<f64>()
                / TRIALS as f64;
            crate::end_to_end(&mut m, run_s, node_rounds / run_s, &cell_s, passes.len());
        }
        Mode::Traced => traced(&mut m, &graphs, &cells, &reference, run_s, setup_s, checks),
    }
    m
}

/// The cell of the first pass with the fewest rounds, re-run on one
/// thread on the same graphs, must equal its `nproc`-thread result.
fn one_thread_check(graphs: &[Graph], cells: &[Cell], first: &Pass, checks: &mut Checks) {
    let Some((ci, want)) = first
        .iter()
        .enumerate()
        .filter_map(|(i, (_, r))| r.as_ref().map(|r| (i, r)))
        .min_by_key(|(_, r)| r.rounds)
    else {
        return;
    };
    let c = &cells[ci];
    let one = graphs[c.family].trial(c.alg, c.trial_seeds[0], 1);
    checks.attempt();
    if one != *want {
        checks.fail(&format!(
            "{}: 1-thread result differs from the {}-thread result",
            c.key,
            host::nproc()
        ));
    }
}

/// Compare trial `j` of cell `c` with Theorem 2.1 and, when `pinned`
/// is given, with its pin.
fn check_trial(
    checks: &mut Checks,
    c: &Cell,
    j: usize,
    got: Option<&TrialResult>,
    pinned: Option<&[(String, String)]>,
) {
    checks.attempt();
    let Some(t) = got else {
        checks.fail(&format!("{}: trial panicked", c.key));
        return;
    };
    if c.alg == "alg1" && t.max_transmissions_per_node > 1 {
        checks.fail(&format!(
            "{}: Algorithm 1 node transmitted {} times (Theorem 2.1 allows 1)",
            c.key, t.max_transmissions_per_node
        ));
        return;
    }
    if let Some(pins) = pinned {
        let key = format!("{} trial{j}", c.key);
        let want = pins
            .iter()
            .find(|(p, _)| *p == key)
            .map(|(_, v)| v.as_str());
        if want != Some(outcome(t).as_str()) {
            checks.fail(&format!(
                "{key}: outcome {} differs from pinned {}",
                outcome(t),
                want.unwrap_or("(none)")
            ));
        }
    }
}

/// The traced part of a traced run, after the `nproc`-thread reference
/// pass that took `first_s`: a 1-thread pass for the speedup, one pass
/// through the wrapped topology and the timing sink, a second reference
/// pass, then the standalone layer probes. The speedup and the overhead
/// divide by the mean of the two reference passes, so warm-up does not
/// favour the passes that come later.
fn traced(
    m: &mut Metrics,
    graphs: &[Graph],
    cells: &[Cell],
    reference: &[Option<TrialResult>],
    first_s: f64,
    setup_s: f64,
    checks: &mut Checks,
) {
    let threads = host::nproc();
    let pass_s = |pass: &Pass| pass.iter().map(|c| c.0).sum::<f64>();
    let one_thread_s = pass_s(&run_pass(graphs, cells, 0, 1));

    let ((traced_s, sink, topo), peak_threads) = host::with_thread_peak(|| {
        let mut sink = TimingSink::new();
        let mut topo = TopoCounts::default();
        let start = Instant::now();
        for (c, want) in cells.iter().zip(reference) {
            let (t, counts) =
                graphs[c.family].trial_traced(c.alg, c.trial_seeds[0], threads, &mut sink);
            checks.require(
                Some(&t) == want.as_ref(),
                &format!("{}: traced result differs from untraced", c.key),
            );
            topo.add(&counts);
        }
        (start.elapsed().as_secs_f64(), sink.counts(), topo)
    });
    crate::thread_checks(m, checks, peak_threads);
    let again = run_pass(graphs, cells, 0, threads);
    for (c, ((_, got), want)) in cells.iter().zip(again.iter().zip(reference)) {
        checks.require(
            got == want,
            &format!("{}: second reference result differs from the first", c.key),
        );
    }
    let untraced_s = (first_s + pass_s(&again)) / 2.0;

    let (scan_edges, scan_s) = graphs
        .iter()
        .map(Graph::full_scan)
        .fold((0u64, 0.0), |(e, s), (e2, s2)| (e + e2, s + s2));
    let awake_set = sink.awake_node_rounds.checked_div(sink.rounds).unwrap_or(1);

    m.set("trace.overhead", traced_s / untraced_s, "ratio");
    m.set("graph.gen_s", setup_s, "s");
    m.set(
        "graph.edges",
        graphs.iter().map(Graph::stored_edges).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "graph.csr_bytes",
        graphs.iter().map(Graph::csr_bytes).sum::<u64>() as f64,
        "B",
    );
    m.set("topo.rows", topo.rows as f64, "count");
    m.set("topo.range_rows", topo.range_rows as f64, "count");
    m.set("topo.neighbors", topo.neighbors as f64, "count");
    m.set("topo.row_busy_s", topo.busy_ns as f64 * 1e-9, "s");
    m.set(
        "topo.replay_ratio",
        topo.visited as f64 / topo.neighbors.max(1) as f64,
        "ratio",
    );
    m.set(
        "topo.scan_medges_per_s",
        scan_edges as f64 / scan_s / 1e6,
        "Medges/s",
    );
    engine_metrics(m, &sink, topo.neighbors);
    m.set("engine.speedup_vs_1t", one_thread_s / untraced_s, "ratio");
    crate::chacha_metrics(m, sink.awake_node_rounds, awake_set as usize);
}

/// The sink-derived engine metrics.
fn engine_metrics(m: &mut Metrics, e: &EngineCounts, neighbors: u64) {
    m.set("engine.rounds", e.rounds as f64, "count");
    m.set(
        "engine.awake_node_rounds",
        e.awake_node_rounds as f64,
        "count",
    );
    m.set("engine.transmissions", e.transmissions as f64, "count");
    m.set("engine.deliveries", e.deliveries as f64, "count");
    m.set("engine.collisions", e.collisions as f64, "count");
    m.set(
        "engine.decide_scatter_s",
        e.decide_scatter_ns as f64 * 1e-9,
        "s",
    );
    m.set("engine.deliver_s", e.deliver_ns as f64 * 1e-9, "s");
    m.set("engine.round_tail_s", e.round_tail_ns as f64 * 1e-9, "s");
    m.set(
        "engine.delivery_per_neighbor",
        e.deliveries as f64 / neighbors.max(1) as f64,
        "ratio",
    );
}
