//! Implicit `G(n, p)`: rows re-sampled lazily from per-row seeded
//! streams.
//!
//! The trick is the one `radio_sim::DecideStreams` introduced for the
//! v2 determinism contract, applied to the *graph* instead of the coin
//! flips: row `u` of the adjacency matrix is a pure function of
//! `(graph_seed, u)`. Asking for `u`'s out-neighbors keys a fresh
//! ChaCha8 stream with `split_seed(graph_seed, b"gnp-row", u)` — the
//! label half cached at construction, so the per-query cost is two
//! SplitMix64 rounds and a key expansion — and replays the
//! Batagelj–Brandes geometric-skip walk over the `n − 1`
//! possible targets — O(expected degree) time, zero bytes stored. Two
//! queries for the same row, from any thread, in any order, always see
//! the same edge set, which is exactly what the engine's
//! bit-identical-across-thread-counts contract needs.
//!
//! Note the *distribution* matches `generate::gnp_directed` (each
//! ordered pair carries an edge independently with probability `p`) but
//! the *sample* differs for a given seed: the materializing generator
//! consumes one serial RNG across all rows, while every row here has
//! its own stream. The CSR oracle for equivalence tests is therefore
//! [`ImplicitGnp::materialize`], not `gnp_directed`.

use crate::generate::edge_capacity;
use crate::generate::gnp::geometric_skip;
use crate::topology::{RangeQueryCost, Topology};
use crate::{DiGraph, NodeId};
use radio_util::{split_seed_indexed, split_seed_prefix};
use rand_chacha::{key_words_from_u64, ChaCha8Rng};

/// Implicit directed `G(n, p)` topology: O(1) memory, rows sampled on
/// demand as pure functions of `(graph_seed, row)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicitGnp {
    n: usize,
    p: f64,
    graph_seed: u64,
    /// Cached `ln(1 − p)` for the geometric skip (−∞ when `p == 1`,
    /// but that case short-circuits to the complete row).
    log1mp: f64,
    /// Cached `split_seed_prefix(graph_seed, b"gnp-row")`: a pure
    /// function of `graph_seed`, hoisted so a row query hashes only the
    /// row index, not the label bytes. (Safe under the derived
    /// `PartialEq`: equal seeds always carry equal prefixes.)
    row_key_prefix: u64,
}

impl ImplicitGnp {
    /// An implicit `G(n, p)` with edge probability `p` keyed by
    /// `graph_seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1` and `n` fits `NodeId`.
    pub fn new(n: usize, p: f64, graph_seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
        assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
        ImplicitGnp {
            n,
            p,
            graph_seed,
            log1mp: (1.0 - p).ln(),
            row_key_prefix: split_seed_prefix(graph_seed, b"gnp-row"),
        }
    }

    /// The paper's parameterisation `d = np`: edge probability `d / n`,
    /// capped at 1.
    pub fn with_expected_degree(n: usize, d: f64, graph_seed: u64) -> Self {
        let p = if n == 0 {
            0.0
        } else {
            (d / n as f64).clamp(0.0, 1.0)
        };
        Self::new(n, p, graph_seed)
    }

    /// Edge probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The seed keying every row stream.
    #[inline]
    pub fn graph_seed(&self) -> u64 {
        self.graph_seed
    }

    /// The per-row stream: deterministic in `(graph_seed, u)` only.
    ///
    /// Fast path: the `b"gnp-row"` label hash is cached at construction
    /// (`row_key_prefix`), so keying a row costs two SplitMix64 rounds
    /// plus the `key_words_from_u64` expansion — the exact composition
    /// `seed_from_u64(split_seed(graph_seed, b"gnp-row", u))` performs,
    /// minus the per-query label walk. Stream-equality is pinned by
    /// `fast_row_keying_matches_seed_from_u64_of_split_seed` below.
    #[inline]
    fn row_rng(&self, u: NodeId) -> ChaCha8Rng {
        let seed = split_seed_indexed(self.row_key_prefix, u64::from(u));
        ChaCha8Rng::from_key_words(key_words_from_u64(seed))
    }

    /// A reusable per-row sampling cursor for callers that walk many
    /// rows back to back (one per scatter worker); see
    /// [`GnpRowSampler`].
    #[inline]
    pub fn row_sampler(&self) -> GnpRowSampler<'_> {
        GnpRowSampler { gnp: self }
    }

    /// Shared row walk: visit row `u` by driving `rng` (already keyed
    /// for `u`) through the geometric-skip slots. Degenerate cases
    /// (`p ∈ {0, 1}`, `n < 2`) are the caller's job — both callers
    /// short-circuit them before keying a stream.
    fn walk_row<F: FnMut(NodeId)>(&self, rng: &mut ChaCha8Rng, u: NodeId, mut f: F) {
        // Skip-walk the n − 1 non-self slots of row u. Slot s maps to
        // target s if s < u else s + 1, so targets ascend and never
        // equal u — the same linear indexing as `gnp_directed`.
        let slots = (self.n - 1) as u64;
        let mut s = geometric_skip(rng, self.log1mp);
        while s < slots {
            let v = if s < u64::from(u) {
                s as NodeId
            } else {
                s as NodeId + 1
            };
            f(v);
            s = s.saturating_add(1 + geometric_skip(rng, self.log1mp));
        }
    }

    /// Handle the row shapes that need no stream: returns `true` when
    /// the row was fully emitted (or is empty) without sampling.
    #[inline]
    fn emit_degenerate<F: FnMut(NodeId)>(&self, u: NodeId, f: &mut F) -> bool {
        if self.n < 2 || self.p <= 0.0 {
            return true;
        }
        if self.p >= 1.0 {
            for v in 0..self.n as NodeId {
                if v != u {
                    f(v);
                }
            }
            return true;
        }
        false
    }

    /// Materialize the full CSR graph — the O(m) test oracle. Rows are
    /// emitted ascending and duplicate-free by construction.
    pub fn materialize(&self) -> DiGraph {
        let expected = self.p * (self.n as f64) * (self.n.saturating_sub(1) as f64);
        let mut edges: Vec<(NodeId, NodeId)> =
            Vec::with_capacity(edge_capacity(self.n, expected * 1.05));
        for u in 0..self.n as NodeId {
            Topology::for_each_out(self, u, |v| edges.push((u, v)));
        }
        DiGraph::from_sorted_unique_edges(self.n, edges)
    }
}

impl Topology for ImplicitGnp {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree_hint(&self, _u: NodeId) -> u64 {
        (self.p * self.n.saturating_sub(1) as f64).ceil() as u64
    }

    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        if self.emit_degenerate(u, &mut f) {
            return;
        }
        let mut rng = self.row_rng(u);
        self.walk_row(&mut rng, u, f);
    }

    #[inline]
    fn for_each_out_range<F: FnMut(NodeId)>(&self, u: NodeId, lo: NodeId, hi: NodeId, mut f: F) {
        // No stored row: replay the walk and filter. Rows ascend, so we
        // could early-exit at hi, but the walk past hi costs the same
        // O(deg) it saves and keeping one code path is simpler to audit.
        self.for_each_out(u, |v| {
            if v >= lo && v < hi {
                f(v);
            }
        });
    }

    /// Range queries replay the whole row (above): tell the engine to
    /// shard by transmitter, not by receiver range.
    #[inline]
    fn range_query_cost(&self) -> RangeQueryCost {
        RangeQueryCost::FullRowReplay
    }
}

/// A reusable per-row sampling cursor over an [`ImplicitGnp`].
///
/// `sample(u, f)` visits exactly what `Topology::for_each_out(u, f)`
/// visits. The cursor is the seam for workers that walk thousands of
/// rows back to back (the engine's transmitter-sharded scatter): every
/// row is keyed from the cached label prefix straight into a
/// stack-allocated ChaCha8 generator, so the whole walk performs no
/// heap allocation and no per-query label hashing. (`&mut self` keeps
/// room for cached cursor state without an API break.)
#[derive(Debug, Clone)]
pub struct GnpRowSampler<'g> {
    gnp: &'g ImplicitGnp,
}

impl GnpRowSampler<'_> {
    /// Visit row `u`, identically to `Topology::for_each_out`.
    #[inline]
    pub fn sample<F: FnMut(NodeId)>(&mut self, u: NodeId, mut f: F) {
        if self.gnp.emit_degenerate(u, &mut f) {
            return;
        }
        let mut rng = self.gnp.row_rng(u);
        self.gnp.walk_row(&mut rng, u, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_util::derive_rng;
    use rand::RngExt;

    fn row(t: &ImplicitGnp, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.for_each_out(u, |v| out.push(v));
        out
    }

    #[test]
    fn rows_are_pure_functions_of_seed_and_node() {
        let a = ImplicitGnp::new(500, 0.03, 99);
        let b = ImplicitGnp::new(500, 0.03, 99);
        for u in (0..500).step_by(13) {
            assert_eq!(row(&a, u as NodeId), row(&b, u as NodeId));
        }
        let c = ImplicitGnp::new(500, 0.03, 100);
        let differs = (0..500).any(|u| row(&a, u) != row(&c, u));
        assert!(differs, "different graph_seed must give a different graph");
    }

    #[test]
    fn rows_ascend_without_self_or_duplicates() {
        let t = ImplicitGnp::new(300, 0.1, 7);
        for u in 0..300 as NodeId {
            let r = row(&t, u);
            assert!(!r.contains(&u), "self-loop at {u}");
            assert!(
                r.windows(2).all(|w| w[0] < w[1]),
                "row {u} not strictly ascending: {r:?}"
            );
            assert!(r.iter().all(|&v| (v as usize) < 300));
        }
    }

    #[test]
    fn extremes_p_zero_and_one() {
        let empty = ImplicitGnp::new(64, 0.0, 1);
        assert!((0..64).all(|u| row(&empty, u).is_empty()));
        assert_eq!(empty.materialize().m(), 0);
        let full = ImplicitGnp::new(64, 1.0, 1);
        assert!((0..64).all(|u| row(&full, u).len() == 63));
        assert_eq!(full.materialize().m(), 64 * 63);
    }

    #[test]
    fn materialize_matches_queries() {
        let t = ImplicitGnp::new(400, 0.05, 5);
        let g = t.materialize();
        assert_eq!(Topology::n(&t), g.n());
        for u in 0..400 as NodeId {
            assert_eq!(row(&t, u), g.out_neighbors(u));
        }
    }

    #[test]
    fn edge_count_concentrates_around_the_mean() {
        // m ~ Binomial(n(n−1), p): mean 99 900·0.05 = 4995, sd ≈ 68.9.
        let t = ImplicitGnp::new(1000, 0.005, 11);
        let m = t.materialize().m() as f64;
        let mean: f64 = 1000.0 * 999.0 * 0.005;
        let sd = (mean * 0.995).sqrt();
        assert!((m - mean).abs() < 6.0 * sd, "m = {m}, expected ≈ {mean}");
    }

    #[test]
    fn range_queries_tile_the_row() {
        let t = ImplicitGnp::new(600, 0.04, 3);
        for u in (0..600).step_by(41) {
            let full = row(&t, u as NodeId);
            let mut tiled = Vec::new();
            for (lo, hi) in [(0u32, 200), (200, 450), (450, 600)] {
                t.for_each_out_range(u as NodeId, lo, hi, |v| tiled.push(v));
            }
            assert_eq!(tiled, full, "u = {u}");
        }
    }

    #[test]
    fn with_expected_degree_matches_paper_parameterisation() {
        let t = ImplicitGnp::with_expected_degree(1 << 12, 24.0, 9);
        assert!((t.p() - 24.0 / 4096.0).abs() < 1e-12);
        let mean_deg = t.materialize().m() as f64 / 4096.0;
        assert!((mean_deg - 24.0).abs() < 2.0, "mean degree {mean_deg}");
        // Degenerate corners: d > n caps at p = 1; n = 0 stays empty.
        assert_eq!(ImplicitGnp::with_expected_degree(4, 100.0, 0).p(), 1.0);
        assert_eq!(
            ImplicitGnp::with_expected_degree(0, 8.0, 0)
                .materialize()
                .n(),
            0
        );
    }

    #[test]
    fn degree_hint_is_the_binomial_mean_rounded_up() {
        let t = ImplicitGnp::new(1000, 0.01, 2);
        assert_eq!(t.degree_hint(0), (0.01f64 * 999.0).ceil() as u64);
        // Hints are heuristic, but should be the right order: compare
        // the total against the realised edge count.
        let total: u64 = (0..1000).map(|u| t.degree_hint(u)).sum();
        let m = t.materialize().m() as u64;
        assert!(total >= m / 2 && total <= m * 2, "hint {total} vs m {m}");
    }

    /// The cached-prefix keying must reproduce the original derivation
    /// (`ChaCha8Rng::seed_from_u64(split_seed(graph_seed, b"gnp-row", u))`)
    /// word for word — equal seeds must keep giving the same graph
    /// across this optimisation.
    #[test]
    fn fast_row_keying_matches_seed_from_u64_of_split_seed() {
        use rand_chacha::rand_core::{RngCore, SeedableRng};
        for graph_seed in [0u64, 7, 0xDEAD_BEEF_CAFE_F00D] {
            let t = ImplicitGnp::new(1 << 10, 0.01, graph_seed);
            for u in [0u32, 1, 511, 1023] {
                let mut fast = t.row_rng(u);
                let mut slow = ChaCha8Rng::seed_from_u64(radio_util::split_seed(
                    graph_seed,
                    b"gnp-row",
                    u64::from(u),
                ));
                for _ in 0..32 {
                    assert_eq!(
                        fast.next_u32(),
                        slow.next_u32(),
                        "seed {graph_seed} row {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_sampler_matches_for_each_out() {
        for (n, p) in [(400usize, 0.03), (64, 0.0), (64, 1.0), (1, 0.5)] {
            let t = ImplicitGnp::new(n, p, 21);
            let mut sampler = t.row_sampler();
            for u in 0..n as NodeId {
                let mut via_sampler = Vec::new();
                sampler.sample(u, |v| via_sampler.push(v));
                assert_eq!(via_sampler, row(&t, u), "n {n} p {p} u {u}");
            }
        }
    }

    #[test]
    fn independent_of_shared_rng_state() {
        // Unlike gnp_directed, queries consume no caller RNG: a derived
        // rng elsewhere can't perturb the graph.
        let mut noise = derive_rng(1, b"noise", 0);
        let t = ImplicitGnp::new(100, 0.1, 4);
        let before = row(&t, 50);
        let _ = noise.random::<u64>();
        assert_eq!(row(&t, 50), before);
    }
}
