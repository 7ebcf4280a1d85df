//! The benchmark's own probes into the engine, built only from the
//! workspace's public traits: a [`Topology`] wrapper that counts and
//! times every row query before forwarding it to the real backend, and
//! a [`TraceSink`] that timestamps the engine's round events. Neither
//! changes what the engine computes; `tests/instruments.rs` pins that a
//! run through both equals the bare run.

use radio_graph::{NodeId, RangeQueryCost, Topology};
use radio_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Counter slots per wrapper. Each thread adds into the slot its id
/// maps to, so concurrent workers rarely share a cache line.
const SLOTS: usize = 16;

/// One thread's share of the counters, padded to its own cache lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    rows: AtomicU64,
    range_rows: AtomicU64,
    visited: AtomicU64,
    neighbors: AtomicU64,
    busy_ns: AtomicU64,
}

/// This thread's slot index.
fn slot_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id % SLOTS)
}

/// Forwards every query to `inner` and records the work: rows asked
/// for, candidates the backend had to visit, neighbors handed to the
/// engine, and time spent inside row queries.
///
/// Counters are `Relaxed` atomics: they publish no other data, and the
/// engine's scoped workers are joined before anyone reads them.
#[derive(Debug)]
pub struct TimedTopology<'a, T> {
    inner: &'a T,
    slots: Box<[Slot; SLOTS]>,
}

/// What a [`TimedTopology`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopoCounts {
    /// Full-row queries (`for_each_out`).
    pub rows: u64,
    /// Range queries (`for_each_out_range`).
    pub range_rows: u64,
    /// Candidates the backend walked: the whole row for full queries
    /// and for range queries on backends that replay the row, the
    /// in-range part where the backend narrows.
    pub visited: u64,
    /// Neighbors passed on to the engine. Ranges tile rows, so this is
    /// Σ out-degree over every queried transmitter.
    pub neighbors: u64,
    /// Nanoseconds spent inside row queries, summed over threads.
    pub busy_ns: u64,
}

impl TopoCounts {
    /// The counts without the timing field, which must repeat exactly
    /// across runs of the same input.
    pub fn counts(&self) -> [u64; 4] {
        [self.rows, self.range_rows, self.visited, self.neighbors]
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &TopoCounts) {
        self.rows += other.rows;
        self.range_rows += other.range_rows;
        self.visited += other.visited;
        self.neighbors += other.neighbors;
        self.busy_ns += other.busy_ns;
    }
}

impl<'a, T: Topology> TimedTopology<'a, T> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: &'a T) -> Self {
        TimedTopology {
            inner,
            slots: Box::default(),
        }
    }

    /// The counters summed over slots.
    pub fn counts(&self) -> TopoCounts {
        let mut c = TopoCounts::default();
        for s in self.slots.iter() {
            c.add(&TopoCounts {
                rows: s.rows.load(Ordering::Relaxed),
                range_rows: s.range_rows.load(Ordering::Relaxed),
                visited: s.visited.load(Ordering::Relaxed),
                neighbors: s.neighbors.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            });
        }
        c
    }

    /// Time one query and add its counts to this thread's slot.
    fn record(&self, range: bool, query: impl FnOnce() -> (u64, u64)) {
        let start = Instant::now();
        let (visited, passed) = query();
        let ns = start.elapsed().as_nanos() as u64;
        let s = &self.slots[slot_index()];
        let calls = if range { &s.range_rows } else { &s.rows };
        calls.fetch_add(1, Ordering::Relaxed);
        s.visited.fetch_add(visited, Ordering::Relaxed);
        s.neighbors.fetch_add(passed, Ordering::Relaxed);
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl<T: Topology> Topology for TimedTopology<'_, T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn degree_hint(&self, u: NodeId) -> u64 {
        self.inner.degree_hint(u)
    }

    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        self.record(false, || {
            let mut k = 0u64;
            self.inner.for_each_out(u, |v| {
                k += 1;
                f(v);
            });
            (k, k)
        });
    }

    fn for_each_out_range<F: FnMut(NodeId)>(&self, u: NodeId, lo: NodeId, hi: NodeId, mut f: F) {
        self.record(true, || {
            let (mut seen, mut kept) = (0u64, 0u64);
            match self.inner.range_query_cost() {
                // Such a backend answers a range query by walking the
                // whole row and filtering; doing the same walk here
                // (same members, same order, by the `Topology`
                // contract) makes the replayed candidates countable.
                RangeQueryCost::FullRowReplay => self.inner.for_each_out(u, |v| {
                    seen += 1;
                    if v >= lo && v < hi {
                        kept += 1;
                        f(v);
                    }
                }),
                RangeQueryCost::Narrowed => self.inner.for_each_out_range(u, lo, hi, |v| {
                    kept += 1;
                    f(v);
                }),
            }
            (seen.max(kept), kept)
        });
    }

    fn range_query_cost(&self) -> RangeQueryCost {
        self.inner.range_query_cost()
    }
}

/// Event counts and phase times recovered from one or more runs'
/// event streams.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounts {
    /// Rounds started.
    pub rounds: u64,
    /// Σ over rounds of the awake-set size at the round's end.
    pub awake_node_rounds: u64,
    /// Transmit decisions.
    pub transmissions: u64,
    /// Clean receptions.
    pub deliveries: u64,
    /// Receivers that heard two or more transmitters.
    pub collisions: u64,
    /// Σ (first channel event − RoundStart), or the whole round when it
    /// had no channel event: decide plus scatter.
    pub decide_scatter_ns: u64,
    /// Σ (last − first channel event): the delivery sweep.
    pub deliver_ns: u64,
    /// Σ (RoundEnd − last channel event).
    pub round_tail_ns: u64,
}

impl EngineCounts {
    /// The counts without the timing fields.
    pub fn counts(&self) -> [u64; 5] {
        [
            self.rounds,
            self.awake_node_rounds,
            self.transmissions,
            self.deliveries,
            self.collisions,
        ]
    }
}

/// An active [`TraceSink`] that counts the engine's events and splits
/// each round's wall time at its first and last channel event.
#[derive(Debug, Default)]
pub struct TimingSink {
    counts: EngineCounts,
    round_start: Option<Instant>,
    first_channel: Option<Instant>,
    last_channel: Option<Instant>,
}

impl TimingSink {
    /// A sink with zeroed counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything observed so far.
    pub fn counts(&self) -> EngineCounts {
        self.counts
    }

    fn channel_event(&mut self) {
        let now = Instant::now();
        self.first_channel.get_or_insert(now);
        self.last_channel = Some(now);
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

impl TraceSink for TimingSink {
    const ACTIVE: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::RoundStart { .. } => {
                self.counts.rounds += 1;
                self.round_start = Some(Instant::now());
                self.first_channel = None;
                self.last_channel = None;
            }
            TraceEvent::Transmit { .. } => self.counts.transmissions += 1,
            TraceEvent::Sleep { .. } | TraceEvent::Depleted { .. } => {}
            TraceEvent::Collision { .. } => {
                self.counts.collisions += 1;
                self.channel_event();
            }
            TraceEvent::Deliver { .. } => {
                self.counts.deliveries += 1;
                self.channel_event();
            }
            TraceEvent::RoundEnd { awake, .. } => {
                let end = Instant::now();
                self.counts.awake_node_rounds += awake;
                let start = self.round_start.take().unwrap_or(end);
                let first = self.first_channel.unwrap_or(end);
                let last = self.last_channel.unwrap_or(end);
                self.counts.decide_scatter_ns += ns(start, first);
                self.counts.deliver_ns += ns(first, last);
                self.counts.round_tail_ns += ns(last, end);
            }
        }
    }
}
