//! Correctness bookkeeping: trials attempted and failed, plus run-level
//! checks (determinism, hygiene) whose failure makes the whole run
//! incorrect without being a trial.

/// Failure messages kept for the report; later ones are only counted.
const KEPT_NOTES: usize = 20;

/// Accumulates the outcome of every check a run makes.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    run_ok: bool,
    notes: Vec<String>,
}

impl Checks {
    /// No trials yet, no failures.
    pub fn new() -> Self {
        Checks {
            run_ok: true,
            ..Default::default()
        }
    }

    /// Count one attempted trial.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count `k` attempted trials.
    pub fn attempt_n(&mut self, k: u64) {
        self.attempted += k;
    }

    /// The trial just attempted failed.
    pub fn fail(&mut self, why: &str) {
        self.fail_n(1, why);
    }

    /// `k` of the trials attempted failed for one reason.
    pub fn fail_n(&mut self, k: u64, why: &str) {
        self.failed += k;
        self.note(why);
    }

    /// A run-level condition; the run is incorrect unless it holds.
    pub fn require(&mut self, ok: bool, why: &str) {
        if !ok {
            self.run_ok = false;
            self.note(why);
        }
    }

    fn note(&mut self, why: &str) {
        if self.notes.len() < KEPT_NOTES {
            self.notes.push(why.to_string());
        }
    }

    /// Trials attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Trials failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Every check held and no trial failed.
    pub fn correct(&self) -> bool {
        self.run_ok && self.failed == 0 && self.attempted > 0
    }

    /// The first failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}
