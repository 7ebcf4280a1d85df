//! The pre-CSR engine: identical semantics over `Vec<Vec<NodeId>>`.
//!
//! [`run_adjlist`] replicates [`crate::engine::Engine::run`] *exactly* —
//! same polling order, same RNG consumption, same delivery order — but
//! walks an [`AdjListGraph`], the pointer-chasing per-node `Vec` layout
//! that the flat CSR backend replaced. It exists for two reasons:
//!
//! * the `engine_csr` criterion bench quantifies the CSR speedup against
//!   it (the acceptance gate for the storage refactor), and
//! * differential tests get a third independent implementation of the
//!   collision semantics beyond [`crate::reference`].
//!
//! Keep it semantically frozen; performance work goes into the real
//! engine.

use crate::metrics::Metrics;
use crate::{Action, EngineConfig, Protocol, RunResult};
use radio_graph::{DiGraph, NodeId};
use rand_chacha::ChaCha8Rng;

/// Adjacency lists as separately heap-allocated per-node `Vec`s — the
/// layout a straightforward simulator grows edge by edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjListGraph {
    out: Vec<Vec<NodeId>>,
}

impl AdjListGraph {
    /// Convert a CSR digraph, rebuilding the lists edge by edge the way
    /// incremental construction would (each row reallocates as it grows,
    /// so rows end up scattered across the heap like in real adjacency-
    /// list code, not laid out back to back).
    pub fn from_digraph(g: &DiGraph) -> Self {
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); g.n()];
        for (u, v) in g.edges() {
            out[u as usize].push(v);
        }
        AdjListGraph { out }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Nodes whose radios can hear `u` (sorted).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out[u as usize]
    }
}

/// Run `protocol` on the adjacency-list layout with the engine's exact
/// stamped-scratch algorithm and RNG order.
pub fn run_adjlist<P: Protocol>(
    graph: &AdjListGraph,
    protocol: &mut P,
    cfg: EngineConfig,
    rng: &mut ChaCha8Rng,
) -> RunResult {
    let n = graph.n();
    let mut metrics = Metrics::new(n);

    let mut stamp = vec![u64::MAX; n];
    let mut hit_count = vec![0u32; n];
    let mut hit_source = vec![0 as NodeId; n];
    let mut touched: Vec<NodeId> = Vec::with_capacity(64);
    let mut sent_stamp = vec![u64::MAX; n];

    let mut is_awake = vec![false; n];
    let mut awake_list: Vec<NodeId> = Vec::new();
    let mut awake_count = 0usize;
    for v in protocol.initially_awake() {
        if !is_awake[v as usize] {
            is_awake[v as usize] = true;
            awake_count += 1;
            awake_list.push(v);
        }
    }

    let mut transmitters: Vec<NodeId> = Vec::new();
    let mut rounds = 0u64;
    let mut completed = protocol.is_complete();

    while !completed && rounds < cfg.max_rounds && awake_count > 0 {
        rounds += 1;
        let round = rounds;

        // --- poll phase (identical to the engine) ------------------------
        transmitters.clear();
        let mut w = 0usize;
        for r in 0..awake_list.len() {
            let v = awake_list[r];
            if !is_awake[v as usize] {
                continue;
            }
            match protocol.decide(v, round, rng) {
                Action::Silent => {
                    awake_list[w] = v;
                    w += 1;
                }
                Action::Transmit => {
                    transmitters.push(v);
                    sent_stamp[v as usize] = round;
                    awake_list[w] = v;
                    w += 1;
                }
                Action::Sleep => {
                    is_awake[v as usize] = false;
                    awake_count -= 1;
                }
            }
        }
        awake_list.truncate(w);

        // --- transmit phase: per-node Vec walk ---------------------------
        touched.clear();
        for &u in &transmitters {
            metrics.record_transmission(u);
            for &v in graph.out_neighbors(u) {
                let vi = v as usize;
                if stamp[vi] != round {
                    stamp[vi] = round;
                    hit_count[vi] = 1;
                    hit_source[vi] = u;
                    touched.push(v);
                } else {
                    hit_count[vi] += 1;
                }
            }
        }

        // --- delivery phase ----------------------------------------------
        if !transmitters.is_empty() {
            touched.sort_unstable();
            for &v in &touched {
                let vi = v as usize;
                if hit_count[vi] != 1 {
                    continue;
                }
                if cfg.half_duplex && sent_stamp[vi] == round {
                    continue;
                }
                let from = hit_source[vi];
                let msg = protocol.payload(from, round);
                protocol.on_receive(v, from, round, &msg, rng);
                if !is_awake[vi] {
                    is_awake[vi] = true;
                    awake_count += 1;
                    awake_list.push(v);
                }
            }
        }

        completed = protocol.is_complete();
    }

    metrics.set_rounds(rounds);
    RunResult {
        rounds,
        completed,
        hit_round_cap: !completed && rounds >= cfg.max_rounds,
        metrics,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, Run};
    use radio_graph::generate::gnp_directed;
    use radio_util::derive_rng;
    use rand::RngExt;

    struct CoinFlood {
        informed: Vec<bool>,
        n_informed: usize,
        prob: f64,
    }

    impl CoinFlood {
        fn new(n: usize, prob: f64) -> Self {
            let mut informed = vec![false; n];
            informed[0] = true;
            CoinFlood {
                informed,
                n_informed: 1,
                prob,
            }
        }
    }

    impl Protocol for CoinFlood {
        type Msg = ();
        fn initially_awake(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn decide(&mut self, _n: NodeId, _r: u64, rng: &mut ChaCha8Rng) -> Action {
            if rng.random_bool(self.prob) {
                Action::Transmit
            } else {
                Action::Silent
            }
        }
        fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
        fn on_receive(
            &mut self,
            node: NodeId,
            _f: NodeId,
            _r: u64,
            _m: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[node as usize] {
                self.informed[node as usize] = true;
                self.n_informed += 1;
            }
        }
        fn is_complete(&self) -> bool {
            self.n_informed == self.informed.len()
        }
        fn informed_count(&self) -> usize {
            self.n_informed
        }
        fn active_count(&self) -> usize {
            self.n_informed
        }
    }

    #[test]
    fn adjlist_graph_mirrors_digraph() {
        let g = gnp_directed(150, 0.05, &mut derive_rng(1, b"adj", 0));
        let a = AdjListGraph::from_digraph(&g);
        assert_eq!(a.n(), g.n());
        assert_eq!(a.m(), g.m());
        for u in 0..g.n() as NodeId {
            assert_eq!(a.out_neighbors(u), g.out_neighbors(u));
        }
    }

    #[test]
    fn adjlist_engine_matches_csr_engine_exactly() {
        for seed in 0..8u64 {
            let g = gnp_directed(140, 0.06, &mut derive_rng(seed, b"adj-g", 0));
            let a = AdjListGraph::from_digraph(&g);
            let cfg = EngineConfig::with_max_rounds(300);

            let mut p1 = CoinFlood::new(140, 0.3);
            let mut rng1 = derive_rng(seed, b"adj-run", 0);
            let fast = run_protocol(&g, &mut p1, cfg, Run::v1(&mut rng1));

            let mut p2 = CoinFlood::new(140, 0.3);
            let mut rng2 = derive_rng(seed, b"adj-run", 0);
            let slow = run_adjlist(&a, &mut p2, cfg, &mut rng2);

            assert_eq!(fast.rounds, slow.rounds, "seed {seed}");
            assert_eq!(fast.completed, slow.completed, "seed {seed}");
            assert_eq!(fast.hit_round_cap, slow.hit_round_cap, "seed {seed}");
            assert_eq!(
                fast.metrics.per_node(),
                slow.metrics.per_node(),
                "seed {seed}"
            );
            assert_eq!(p1.informed, p2.informed, "seed {seed}");
        }
    }
}
