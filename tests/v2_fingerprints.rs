//! **Bit-identity pins for the v2 fused-engine contract.**
//!
//! `tests/v2_equivalence.rs` checks the v2 engine is *statistically*
//! right; this suite checks it never *changes*. Every decide/receive
//! draw under the v2 contract is a pure function of
//! `(run_seed, node, round)`, so a fused run's `RunResult` is a frozen
//! artifact: any refactor of the decide phase — batching, wide RNG
//! kernels, fast-path comparisons — must reproduce these exact
//! trajectories or it has silently broken the contract (and with it the
//! committed `results/sweep_e18.json`).
//!
//! The pinned values were captured from the engine as of PR 5/6 (the
//! first counter-based-stream implementation, one scalar ChaCha block
//! per draw). If a pin trips, the fix is to restore bit-compatibility,
//! not to refresh the constant — refreshing is only legitimate for a
//! *deliberate*, documented contract change, which also obsoletes every
//! committed v2 sweep artifact.

use adhoc_radio::core::broadcast::decay::DecayConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::flood::FloodConfig;
use adhoc_radio::core::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use adhoc_radio::core::seq::{KDistribution, SharedSequence};
use adhoc_radio::graph::GraphFamily;
use adhoc_radio::sim::engine::{run_protocol, Run};
use adhoc_radio::sim::{Battery, EnergySession, EngineConfig, FusedDecide, LinearRadio, RunResult};
use adhoc_radio::util::{derive_rng, split_seed};

const N: usize = 256;

/// FNV-1a over a stream of u64s — stable, dependency-free.
fn mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// A fingerprint that covers everything observable about a run: round
/// count, completion, and the full per-node transmission vector (which
/// pins *who* transmitted, not just how much traffic there was).
fn fingerprint(run: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, run.rounds);
    mix(&mut h, u64::from(run.completed));
    mix(&mut h, run.metrics.total_transmissions());
    for &t in run.metrics.per_node() {
        mix(&mut h, u64::from(t));
    }
    h
}

/// Engine config that forces the parallel decide/scatter paths on even
/// at this small n, so multi-thread fingerprints exercise the fan-out.
fn cfg(max_rounds: u64, threads: usize) -> EngineConfig {
    EngineConfig {
        par_min_edges: 0,
        par_min_awake: 0,
        ..EngineConfig::with_max_rounds(max_rounds)
    }
    .with_threads(threads)
}

fn graph(family: GraphFamily, seed: u64) -> adhoc_radio::graph::DiGraph {
    let p = match family {
        GraphFamily::GnpDirected => 8.0 * (N as f64).ln() / N as f64,
        _ => {
            adhoc_radio::graph::generate::GeoParams::with_expected_degree(N, 8.0 * (N as f64).ln())
                .r_min
        }
    };
    family.generate(N, p, &mut derive_rng(seed, b"fp-g", 0))
}

/// Run `protocol` on the fused engine at 1 and 4 threads, assert the
/// trajectories agree, and return the (shared) fingerprint.
fn pinned_run<P, F>(make: F, max_rounds: u64, run_seed: u64) -> u64
where
    P: FusedDecide,
    F: Fn() -> P,
{
    let g = graph(GraphFamily::GnpDirected, run_seed);
    let fp_at = |threads: usize| {
        let mut p = make();
        fingerprint(&run_protocol(
            &g,
            &mut p,
            cfg(max_rounds, threads),
            Run::v2(run_seed),
        ))
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4), "thread count changed the trajectory");
    serial
}

#[test]
fn flood_fixed_q_is_pinned() {
    let q = (1.0 / (8.0 * (N as f64).ln())).min(1.0);
    let flood = FloodConfig::with_prob(q, 4_000);
    let fp = pinned_run(
        || WindowedBroadcast::new(N, 0, flood.spec()),
        flood.max_rounds,
        0xF100D,
    );
    assert_eq!(fp, 0x9942_0417_CAFB_EBFB, "flood trajectory changed");
}

#[test]
fn decay_cycle_is_pinned() {
    let decay = DecayConfig::new(N, 8);
    let fp = pinned_run(
        || WindowedBroadcast::new(N, 0, decay.spec()),
        decay.max_rounds(),
        0xDECA1,
    );
    assert_eq!(fp, 0xA346_ED8D_BCE6_3D50, "decay trajectory changed");
}

#[test]
fn alg1_gnp_is_pinned() {
    let p = 8.0 * (N as f64).ln() / N as f64;
    let cfg1 = EeBroadcastConfig::for_gnp(N, p);
    let fp = pinned_run(
        || EeRandomBroadcast::new(N, 0, cfg1),
        cfg1.schedule_end() + 2,
        0xA161,
    );
    assert_eq!(fp, 0xB5EA_AE91_6960_8F80, "Algorithm 1 trajectory changed");
}

#[test]
fn shared_sequence_source_is_pinned() {
    let dist = KDistribution::paper_alpha(8, 3.0);
    let seq_seed = 0x5E9;
    let fp = pinned_run(
        || {
            WindowedBroadcast::new(
                N,
                0,
                WindowedSpec {
                    source: ProbSource::Shared(SharedSequence::new(dist.clone(), seq_seed)),
                    window: Some(400),
                    early_stop: true,
                },
            )
        },
        2_000,
        0x5EA5,
    );
    assert_eq!(
        fp, 0xA950_B10B_F872_F870,
        "shared-sequence trajectory changed"
    );
}

#[test]
fn private_distribution_source_is_pinned() {
    // `Private` draws its k from the node's own decide lane *before*
    // the transmit coin — pins the draw order within a single decide.
    let dist = KDistribution::paper_alpha(8, 3.0);
    let fp = pinned_run(
        || {
            WindowedBroadcast::new(
                N,
                0,
                WindowedSpec {
                    source: ProbSource::Private(dist.clone()),
                    window: None,
                    early_stop: true,
                },
            )
        },
        4_000,
        0x9417,
    );
    assert_eq!(
        fp, 0x2DF2_3ACF_C700_3E77,
        "private-source trajectory changed"
    );
}

#[test]
fn geometric_topology_is_pinned() {
    let q = (1.0 / (8.0 * (N as f64).ln())).min(1.0);
    let flood = FloodConfig::with_prob(q, 4_000);
    let g = graph(GraphFamily::Geometric, 0x6E0);
    let fp_at = |threads: usize| {
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        fingerprint(&run_protocol(
            &g,
            &mut p,
            cfg(flood.max_rounds, threads),
            Run::v2(0x6E0),
        ))
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4));
    assert_eq!(
        serial, 0x4C9D_59F2_CD30_E1F0,
        "geometric trajectory changed"
    );
}

#[test]
fn battery_depletion_dead_path_is_pinned() {
    // Batteries make the engine's Dead decide-event path live: nodes
    // 1..=40 deplete mid-run and must fail-stop at exactly the same
    // rounds regardless of how the decide phase is batched.
    let q = 0.2;
    let flood = FloodConfig::with_prob(q, 60);
    let g = graph(GraphFamily::GnpDirected, 0xBA77);
    let fp_at = |threads: usize| {
        let mut caps = vec![f64::INFINITY; N];
        for c in caps.iter_mut().take(41).skip(1) {
            *c = 4.0;
        }
        let mut session = EnergySession::new(N, LinearRadio::uniform_drain(1.0), 17)
            .with_battery(Battery::per_node(caps));
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        let res = run_protocol(
            &g,
            &mut p,
            cfg(flood.max_rounds, threads),
            Run::v2(0xBA77).energy(&mut session),
        );
        let mut h = fingerprint(&res.run);
        mix(&mut h, res.energy.depleted_count() as u64);
        h
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4));
    assert_eq!(
        serial, 0xA417_5F7E_B90E_5E3E,
        "battery/Dead trajectory changed"
    );
}

#[test]
fn fingerprints_depend_on_the_seed() {
    // Anti-vacuity: the fingerprint function must actually see the
    // trajectory (a constant hash would pin nothing).
    let q = 0.1;
    let flood = FloodConfig::with_prob(q, 1_000);
    let g = graph(GraphFamily::GnpDirected, 1);
    let fp = |seed: u64| {
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        fingerprint(&run_protocol(
            &g,
            &mut p,
            cfg(flood.max_rounds, 1),
            Run::v2(seed),
        ))
    };
    assert_ne!(fp(split_seed(1, b"a", 0)), fp(split_seed(1, b"a", 1)));
}
