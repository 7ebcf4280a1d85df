//! Record, replay, diff: the `radio-trace` debugging loop.
//!
//! A simulation bug report is only actionable if the run can be
//! reproduced *exactly* — and when two runs disagree, the question is
//! always "where did they first part ways?". This example walks the
//! full loop on an Algorithm-1 broadcast:
//!
//! 1. **Record** a fused-engine run into a compact `.rtrc` file: one
//!    structured event per transmission, sleep, collision, and
//!    collision-free delivery, framed per round.
//! 2. **Replay** the identical `(graph, protocol, seed)` through a
//!    [`ReplayVerifier`] against the recording read back from disk —
//!    zero divergences, at any engine thread count, because the engine
//!    emits events on the serial side of each round.
//! 3. **Diff** the recording against a seed-perturbed twin with
//!    [`first_divergence`], which pinpoints the first `(round, event,
//!    node)` where the two histories disagree — the starting point of
//!    any differential debugging session.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use adhoc_radio::core::broadcast::ee_random::EeRandomBroadcast;
use adhoc_radio::prelude::*;

/// One recorded Algorithm-1 run at `seed`, written to `path`.
fn record(
    g: &DiGraph,
    cfg: &EeBroadcastConfig,
    ecfg: EngineConfig,
    seed: u64,
    path: &std::path::Path,
) -> RunResult {
    let n = g.n();
    let header = RunHeader::new(seed, "v2", format!("gnp_directed/n={n}"));
    let mut sink = RecordingSink::create(path, &header).expect("create .rtrc");
    let mut proto = EeRandomBroadcast::new(n, 0, *cfg);
    let run = Engine::new(g, ecfg).run(&mut proto, Run::v2(seed).sink(&mut sink));
    sink.finish(run.completed).expect("write footer");
    run
}

fn main() {
    let n = adhoc_radio::example_scale(4096, 256);
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(11, b"trace-demo", 0));
    let acfg = EeBroadcastConfig::for_gnp(n, p);
    let ecfg = EngineConfig::with_max_rounds(acfg.schedule_end() + 2);
    let dir = std::env::temp_dir().join(format!("trace-replay-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. Record.
    let seed = 42;
    let path = dir.join("run_a.rtrc");
    let run = record(&g, &acfg, ecfg, seed, &path);
    let rec = Recording::read_from(&path).expect("read recording");
    println!(
        "recorded: seed {seed}, {} rounds, {} events, {} bytes on disk ({})",
        rec.rounds.len(),
        rec.event_count(),
        std::fs::metadata(&path).map_or(0, |m| m.len()),
        path.display()
    );

    // 2. Replay the identical run against the recording. The verifier
    // is itself a TraceSink: the engine streams live events into it and
    // it compares them to the file, event for event.
    let mut verifier = ReplayVerifier::new(&rec);
    let mut proto = EeRandomBroadcast::new(n, 0, acfg);
    let replayed = Engine::new(&g, ecfg).run(&mut proto, Run::v2(seed).sink(&mut verifier));
    assert_eq!(run, replayed, "re-driven run must be bit-identical");
    match verifier.finish() {
        Ok(events) => println!("replay:   verified {events} events, zero divergences"),
        Err(d) => panic!("replay diverged — engine nondeterminism: {d}"),
    }

    // 3. Diff against a seed-perturbed twin. Everything about the two
    // runs is identical except the seed, so the first divergence is the
    // first round where the perturbed coins land differently.
    let path_b = dir.join("run_b.rtrc");
    record(&g, &acfg, ecfg, seed + 1, &path_b);
    let rec_b = Recording::read_from(&path_b).expect("read twin");
    for (field, a, b) in header_diff(&rec, &rec_b) {
        println!("diff:     header {field}: A={a} B={b}");
    }
    match first_divergence(&rec, &rec_b) {
        Some(d) => println!("diff:     {d}"),
        None => println!("diff:     event streams identical (unexpected for different seeds)"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
