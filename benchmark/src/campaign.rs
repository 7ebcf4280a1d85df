//! `campaign_paper`: the four committed paper scenarios through the
//! campaign runner — parse, fresh campaign, one `step()` per cell,
//! `report()`, then `resume` + `report()` over the finished checkpoint.

use crate::check::Checks;
use crate::stats::{median, min, Metrics};
use crate::{host, pins, Mode};
use radio_campaign::checkpoint::{read_cell, write_cell};
use radio_campaign::kernels::{
    energy_crossover_trial, energy_lifetime_trial, faulty_broadcast_trial, CrossoverCfg,
    FaultyBroadcastCfg, LifetimeCfg,
};
use radio_campaign::{Backend, Campaign, Compiled, ProtocolSpec, Scenario};
use radio_core::gossip::EeGossipConfig;
use radio_graph::generate::mobile_geometric_sequence;
use radio_graph::GraphFamily;
use radio_sim::{CellResults, Sweep};
use radio_util::{derive_rng, Json};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The committed scenarios, in run order.
pub const SCENARIOS: [&str; 4] = ["e16_crash", "e16_mobility", "e17_energy", "e17_lifetime"];
/// The scenario that runs with its `trace` block on, so `.rtrc` writes
/// are part of the workload. Its cap is the trial count: with a smaller
/// cap, which fanned-out trial claims a recording slot first varies from
/// run to run, and so would the bytes written.
const TRACED_SCENARIO: &str = "e17_lifetime";

/// The protocol kinds, for the per-kind cell times.
const KINDS: [&str; 4] = [
    "faulty_broadcast",
    "energy_crossover",
    "energy_lifetime",
    "mobile_gossip",
];

/// Rewrite a committed scenario for this run: `base_seed` from the
/// seed, and the trace block on for [`TRACED_SCENARIO`], recording every
/// trial into `trace_dir`.
fn render(name: &str, text: &str, seed: u64, trace_dir: &Path) -> Result<String, String> {
    let mut doc = Json::parse(text).map_err(|e| format!("{name}: {e}"))?;
    let trials = doc
        .get("sweep")
        .and_then(|s| s.get("trials"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{name}: no sweep.trials"))?;
    let Json::Obj(top) = &mut doc else {
        return Err(format!("{name}: not a JSON object"));
    };
    for (k, v) in top.iter_mut() {
        if let (true, Json::Obj(sweep)) = (k == "sweep", v) {
            for (sk, sv) in sweep.iter_mut() {
                if sk == "base_seed" {
                    let committed = sv
                        .as_u64()
                        .ok_or_else(|| format!("{name}: base_seed is not an integer"))?;
                    *sv = Json::str(pins::campaign_base_seed(committed, seed).to_string());
                }
            }
        }
    }
    if name == TRACED_SCENARIO {
        top.push((
            "trace".to_string(),
            Json::obj(vec![
                ("dir", Json::str(trace_dir.display().to_string())),
                ("per_cell_cap", Json::Num(trials)),
            ]),
        ));
    }
    Ok(doc.to_string_pretty())
}

/// Every committed scenario rendered for `seed` (see [`render`]), as
/// `(name, text)` pairs.
fn render_all(
    committed: &[(String, String)],
    seed: u64,
    trace_dir: &Path,
) -> Vec<(String, String)> {
    committed
        .iter()
        .map(|(name, text)| {
            let text = render(name, text, seed, trace_dir)
                .unwrap_or_else(|e| panic!("committed scenario {name} must render: {e}"));
            (name.clone(), text)
        })
        .collect()
}

/// One set-up: parse and compile every rendered scenario. Returns the
/// parsed scenarios with the parse and compile seconds.
fn setup_once(texts: &[(String, String)]) -> (Vec<Scenario>, f64, f64) {
    let (mut parse_s, mut compile_s) = (0.0, 0.0);
    let scenarios = texts
        .iter()
        .map(|(name, text)| {
            let start = Instant::now();
            let scn = Scenario::parse(text)
                .unwrap_or_else(|e| panic!("committed scenario {name} must parse: {e}"));
            parse_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::hint::black_box(Compiled::new(scn.clone()));
            compile_s += start.elapsed().as_secs_f64();
            scn
        })
        .collect();
    (scenarios, parse_s, compile_s)
}

/// Repeat [`setup_once`] for at least `min_reps` times and `secs`
/// seconds, pushing each repetition's `(parse, compile)` seconds onto
/// `setups`; returns the last repetition's scenarios.
fn setup_burst(
    texts: &[(String, String)],
    min_reps: usize,
    secs: f64,
    setups: &mut Vec<(f64, f64)>,
) -> Vec<Scenario> {
    let begin = Instant::now();
    let mut reps = 0;
    loop {
        let (scenarios, p, c) = setup_once(texts);
        setups.push((p, c));
        reps += 1;
        if reps >= min_reps && begin.elapsed().as_secs_f64() >= secs {
            return scenarios;
        }
    }
}

/// What one pass over the four scenarios produced.
struct Pass {
    wall_s: f64,
    /// `(protocol kind, step seconds)` per committed cell.
    steps: Vec<(&'static str, f64)>,
    /// `scenario label` per committed cell, in step order.
    cells: Vec<String>,
    report_s: f64,
    /// Seconds per scenario outside its steps: `Campaign::fresh`, the
    /// report, the resume and its report.
    around_s: Vec<f64>,
    /// Report bytes per scenario (`None` when the campaign failed).
    reports: Vec<Option<String>>,
}

/// Run every scenario as a fresh campaign under `dir`, then resume it
/// and report again. Failures are recorded in `checks`.
fn run_pass(scenarios: &[Scenario], dir: &Path, checks: &mut Checks) -> Pass {
    let begin = Instant::now();
    let mut steps = Vec::new();
    let mut cells = Vec::new();
    let mut report_s = 0.0;
    let mut around_s = Vec::new();
    let mut reports = Vec::new();
    for scn in scenarios {
        let ckpt = dir.join(&scn.name);
        let mut around = 0.0;
        let report = catch_unwind(AssertUnwindSafe(|| -> Result<String, String> {
            let start = Instant::now();
            let mut c = Campaign::fresh(scn.clone(), &ckpt)?;
            around += start.elapsed().as_secs_f64();
            loop {
                let start = Instant::now();
                let Some(idx) = c.step()? else { break };
                let (_, proto) = scn
                    .resolve_protocol(&scn.cells[idx].label)
                    .expect("validated: every cell label resolves");
                steps.push((proto.kind(), start.elapsed().as_secs_f64()));
                cells.push(format!("{} {}", scn.name, scn.cells[idx].label));
            }
            let start = Instant::now();
            let fresh = c.report()?.to_json_string();
            let resumed = Campaign::resume(scn.clone(), &ckpt)?
                .report()?
                .to_json_string();
            let took = start.elapsed().as_secs_f64();
            report_s += took;
            around += took;
            if fresh != resumed {
                return Err("resumed report differs from the fresh one".to_string());
            }
            Ok(fresh)
        }));
        around_s.push(around);
        match report {
            Ok(Ok(bytes)) => reports.push(Some(bytes)),
            Ok(Err(e)) => {
                checks.require(false, &format!("{}: {e}", scn.name));
                reports.push(None);
            }
            Err(_) => {
                checks.require(false, &format!("{}: campaign panicked", scn.name));
                reports.push(None);
            }
        }
    }
    Pass {
        wall_s: begin.elapsed().as_secs_f64(),
        steps,
        cells,
        report_s,
        around_s,
        reports,
    }
}

/// Per-trial checks over a finished pass's checkpoints; returns the
/// pass's Σ n·rounds.
fn check_trials(scenarios: &[Scenario], dir: &Path, checks: &mut Checks) -> f64 {
    let mut node_rounds = 0.0;
    for scn in scenarios {
        let compiled = Compiled::new(scn.clone());
        for (idx, cell) in compiled.sweep().cells().iter().enumerate() {
            let trials = scn.sweep.trials as u64;
            match read_cell(&dir.join(&scn.name), idx, cell) {
                Ok(res) => {
                    for t in &res.trials {
                        checks.attempt();
                        node_rounds += (cell.n as u64 * t.rounds) as f64;
                        if cell.algorithm.starts_with("alg1") && t.max_transmissions_per_node > 1 {
                            checks.fail(&format!(
                                "{} {}: Algorithm 1 node transmitted {} times (Theorem 2.1 allows 1)",
                                scn.name, cell.algorithm, t.max_transmissions_per_node
                            ));
                        }
                    }
                }
                Err(e) => {
                    checks.attempt_n(trials);
                    checks.fail_n(trials, &format!("{} cell {idx}: {e}", scn.name));
                }
            }
        }
    }
    node_rounds
}

/// Run `campaign_paper`.
pub fn run(tmp: &Path, seed: u64, seconds: f64, mode: Mode, checks: &mut Checks) -> Metrics {
    let root = pins::repo_root();
    let committed: Vec<(String, String)> = SCENARIOS
        .iter()
        .map(|name| {
            let path = root.join("scenarios").join(format!("{name}.scenario.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (name.to_string(), text)
        })
        .collect();
    let trace_dir = tmp.join("rtrc");

    // Set-up is well under a millisecond, so it repeats in bursts and
    // `setup_s` is the fastest repetition. Rendering the texts is the
    // harness's own work and stays outside the clock.
    let texts = render_all(&committed, seed, &trace_dir);
    let mut setups = Vec::new();
    let mut m = Metrics::default();

    // Each pass writes its checkpoints under its own directory and its
    // `.rtrc` files under `trace_dir`; both go once the pass is checked.
    let clean = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(&trace_dir);
    };
    let pinned = seed == pins::DEFAULT_SEED;
    if mode == Mode::Traced {
        // A reference pass, the same pass under the thread sampler with
        // the layer probes over its checkpoints, and a second reference,
        // so warm-up does not read as negative overhead.
        let scenarios = setup_burst(&texts, 3, crate::SETUP_S, &mut setups);
        let dir = tmp.join("traced");
        let reference = run_pass(&scenarios, &dir, checks);
        check_reports(&scenarios, &reference, None, pinned, checks);
        clean(&dir);
        let (pass, peak_threads) = host::with_thread_peak(|| run_pass(&scenarios, &dir, checks));
        crate::thread_checks(&mut m, checks, peak_threads);
        check_trials(&scenarios, &dir, checks);
        check_reports(&scenarios, &pass, Some(&reference), pinned, checks);
        traced(&mut m, &scenarios, &dir, &trace_dir, &pass, &setups, checks);
        clean(&dir);
        let again = run_pass(&scenarios, &dir, checks);
        clean(&dir);
        m.set(
            "trace.overhead",
            2.0 * pass.wall_s / (reference.wall_s + again.wall_s),
            "ratio",
        );
        return m;
    }

    // Every pass runs the same scenarios at the run's seed, so the passes
    // repeat identical work: each report must equal the first pass's, and
    // each cell's time is its fastest pass.
    let mut passes: Vec<Pass> = Vec::new();
    let mut scns = Vec::new();
    let mut node_rounds = 0.0;
    let begin = Instant::now();
    let mut last = 0.0;
    while crate::another_pass(passes.len(), begin.elapsed().as_secs_f64(), last, seconds) {
        let start = Instant::now();
        let k = passes.len();
        if k < crate::MIN_PASSES {
            scns = setup_burst(&texts, 1, crate::SETUP_BURST_S, &mut setups);
        }
        let dir = tmp.join(format!("pass{k}"));
        let pass = run_pass(&scns, &dir, checks);
        let rounds = check_trials(&scns, &dir, checks);
        if k == 0 {
            node_rounds = rounds;
        }
        check_reports(&scns, &pass, passes.first(), pinned && k == 0, checks);
        clean(&dir);
        passes.push(pass);
        last = start.elapsed().as_secs_f64();
    }
    let totals: Vec<f64> = setups.iter().map(|(p, c)| p + c).collect();
    m.set("setup_s", min(&totals), "s");
    m.note(format!(
        "setup_s is the fastest of {} set-ups (median {} s)",
        totals.len(),
        median(&totals)
    ));
    let cells = crate::fastest(
        &passes
            .iter()
            .map(|p| p.steps.iter().map(|s| s.1).collect())
            .collect::<Vec<_>>(),
    );
    let around = crate::fastest(
        &passes
            .iter()
            .map(|p| p.around_s.clone())
            .collect::<Vec<_>>(),
    );
    for (key, s) in passes[0].cells.iter().zip(&cells) {
        m.note(format!(
            "cell {key}: fastest {s} s of {} passes",
            passes.len()
        ));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    m.note(format!(
        "pass wall: fastest {} s, median {} s",
        min(&walls),
        median(&walls)
    ));
    let run_s = cells.iter().sum::<f64>() + around.iter().sum::<f64>();
    crate::end_to_end(&mut m, run_s, node_rounds / run_s, &cells, passes.len());
    m
}

/// A pass's reports must equal those of `reference` (a pass over the
/// same scenarios) and, when `pinned`, the committed results.
fn check_reports(
    scenarios: &[Scenario],
    pass: &Pass,
    reference: Option<&Pass>,
    pinned: bool,
    checks: &mut Checks,
) {
    for (i, (scn, report)) in scenarios.iter().zip(&pass.reports).enumerate() {
        let Some(bytes) = report else { continue };
        if let Some(reference) = reference {
            checks.require(
                reference.reports[i].as_ref() == Some(bytes),
                &format!("{}: report differs from the reference pass", scn.name),
            );
        }
        if pinned {
            if let Err(e) = pins::check_campaign_report(&scn.name, bytes.as_bytes()) {
                checks.require(false, &e);
            }
        }
    }
}

/// Regenerate every graph the trials of cell `idx` used, from the
/// streams the compiler draws them from: `(seconds, edges, CSR bytes)`.
/// A CSR-kernel graph is then handed to the public kernel, whose result
/// must equal the checkpointed trial, so these figures describe graphs
/// that trials really used.
fn regenerate_cell(
    scn: &Scenario,
    sweep: &Sweep,
    idx: usize,
    stored: &CellResults,
    checks: &mut Checks,
) -> (f64, u64, u64) {
    let cell = &stored.cell;
    let (_, proto) = scn
        .resolve_protocol(&cell.algorithm)
        .expect("validated: every cell label resolves");
    let (mut secs, mut edges, mut bytes) = (0.0, 0u64, 0u64);
    for (t, want) in stored.trials.iter().enumerate() {
        let seed = sweep.trial_seed(idx, t);
        let start = Instant::now();
        let graphs = match proto {
            ProtocolSpec::MobileGossip {
                switch_every,
                gamma,
                tracked,
            } => {
                // The snapshot sequence `kernels::mobile_gossip_trial`
                // draws inside the kernel, which takes no graph; this
                // copy must follow that function.
                let sigma: f64 = cell
                    .algorithm
                    .split_once(":f=")
                    .and_then(|(_, v)| v.parse().ok())
                    .expect("validated: mobility labels carry :f=σ");
                let p_gnp = match cell.family {
                    GraphFamily::Geometric => (std::f64::consts::PI * cell.p * cell.p).min(1.0),
                    _ => cell.p,
                };
                let cfg = EeGossipConfig {
                    gamma: *gamma,
                    tracked: *tracked,
                    ..EeGossipConfig::for_gnp(cell.n, p_gnp)
                };
                let snapshots = (cfg.schedule_rounds() / switch_every + 2) as usize;
                mobile_geometric_sequence(
                    cell.n,
                    cell.p,
                    sigma,
                    snapshots,
                    &mut derive_rng(seed, b"e16-mob", 0),
                )
            }
            _ => {
                vec![cell
                    .family
                    .generate(cell.n, cell.p, &mut derive_rng(seed, b"sweep-graph", 0))]
            }
        };
        secs += start.elapsed().as_secs_f64();
        for g in &graphs {
            edges += g.m() as u64;
            bytes += [g.out_csr(), g.in_csr()]
                .iter()
                .map(|c| 4 * (c.offsets().len() + c.nnz()) as u64)
                .sum::<u64>();
        }
        let got = match *proto {
            ProtocolSpec::MobileGossip { .. } => continue,
            ProtocolSpec::FaultyBroadcast {
                crash_round,
                spare_source,
                d_hint,
            } => {
                let cfg = FaultyBroadcastCfg {
                    crash_round,
                    spare_source,
                    d_hint,
                };
                faulty_broadcast_trial(&cfg, cell, &graphs[0], seed, None)
            }
            ProtocolSpec::EnergyCrossover { flood_q, d_hint } => {
                let cfg = CrossoverCfg { flood_q, d_hint };
                energy_crossover_trial(&cfg, cell, &graphs[0], seed, None)
            }
            ProtocolSpec::EnergyLifetime {
                horizon,
                capacity,
                jitter,
                flood_q,
                d_hint,
            } => {
                let cfg = LifetimeCfg {
                    horizon,
                    capacity,
                    jitter,
                    flood_q,
                    d_hint,
                };
                energy_lifetime_trial(&cfg, cell, &graphs[0], seed, None)
            }
        };
        checks.require(
            got == *want,
            &format!(
                "{} cell {idx} trial {t}: the regenerated graph does not reproduce the trial",
                scn.name
            ),
        );
    }
    (secs, edges, bytes)
}

/// Total size of the regular files under `dir` and their count.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut acc = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                let (b, f) = dir_usage(&e.path());
                acc = (acc.0 + b, acc.1 + f);
            } else {
                acc = (acc.0 + meta.len(), acc.1 + 1);
            }
        }
    }
    acc
}

/// The per-layer probes of a traced pass, run after it over its
/// checkpoints: checkpoint reads and re-writes, the serial trial fan-out,
/// and graph regeneration.
fn traced(
    m: &mut Metrics,
    scenarios: &[Scenario],
    dir: &Path,
    trace_dir: &Path,
    pass: &Pass,
    setups: &[(f64, f64)],
    checks: &mut Checks,
) {
    let (rtrc_bytes, rtrc_files) = dir_usage(trace_dir);
    let (ckpt_bytes, _) = dir_usage(dir);
    let shadow = dir.join("shadow");
    let (mut read_s, mut write_s, mut busy_s, mut trials) = (0.0, 0.0, 0.0, 0u64);
    let (mut gen_s, mut edges, mut csr_bytes) = (0.0, 0u64, 0u64);
    for scn in scenarios {
        let compiled = Compiled::new(scn.clone());
        let ckpt = dir.join(&scn.name);
        let csr = scn.sweep.backend == Backend::Csr;
        checks.require(
            csr,
            &format!("{}: the graph probes expect the CSR backend", scn.name),
        );
        for (idx, cell) in compiled.sweep().cells().iter().enumerate() {
            let start = Instant::now();
            let stored = read_cell(&ckpt, idx, cell);
            read_s += start.elapsed().as_secs_f64();
            let Ok(stored) = stored else { continue };
            let start = Instant::now();
            let wrote = write_cell(&shadow, idx, &stored);
            write_s += start.elapsed().as_secs_f64();
            checks.require(wrote.is_ok(), "cannot re-write a checkpoint cell");
            let start = Instant::now();
            let serial: CellResults = compiled.run_cell_serial(idx, None);
            busy_s += start.elapsed().as_secs_f64();
            trials += serial.trials.len() as u64;
            checks.require(
                serial.trials == stored.trials,
                &format!(
                    "{} cell {idx}: serial run differs from the fan-out",
                    scn.name
                ),
            );
            if csr {
                let (s, e, b) = regenerate_cell(scn, compiled.sweep(), idx, &stored, checks);
                gen_s += s;
                edges += e;
                csr_bytes += b;
            }
        }
    }

    let workers = host::nproc() as f64;
    let cell_wall: f64 = pass.steps.iter().map(|s| s.1).sum();
    m.set(
        "campaign.parse_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        "s",
    );
    m.set(
        "campaign.compile_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    );
    let mut per_kind: BTreeMap<&str, f64> = KINDS.iter().map(|k| (*k, 0.0)).collect();
    for (kind, s) in &pass.steps {
        *per_kind.entry(kind).or_default() += s;
    }
    for kind in KINDS {
        m.set(&format!("campaign.cell_s.{kind}"), per_kind[kind], "s");
    }
    m.set("campaign.checkpoint_write_s", write_s, "s");
    m.set("campaign.checkpoint_read_s", read_s, "s");
    m.set("campaign.checkpoint_bytes", ckpt_bytes as f64, "B");
    m.set("campaign.report_s", pass.report_s, "s");
    m.set("sweep.trials", trials as f64, "count");
    m.set("sweep.trial_busy_s", busy_s, "s");
    m.set(
        "sweep.fanout_util",
        busy_s / ((cell_wall - write_s).max(f64::MIN_POSITIVE) * workers),
        "ratio",
    );
    m.set("graph.gen_s", gen_s, "s");
    m.set("graph.edges", edges as f64, "count");
    m.set("graph.csr_bytes", csr_bytes as f64, "B");
    m.set("trace.files", rtrc_files as f64, "count");
    m.set("trace.bytes", rtrc_bytes as f64, "B");
    let largest_n = scenarios
        .iter()
        .flat_map(|s| s.cells.iter().map(|c| c.n))
        .max()
        .unwrap_or(1);
    crate::chacha_metrics(m, 0, largest_n);
}
