//! Order statistics and the result line.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Smallest of `xs`; 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The Harrell–Davis estimate of the `p` quantile of `xs`: a weighted
/// mean of all the order statistics, with the weights of the Beta
/// distribution of the sample `p` quantile. Where the samples are few
/// and unevenly spaced, as cell times are, a single order statistic
/// jumps from one cell to its neighbour when their times move a little;
/// this estimate moves with them. 0 when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b);
    let pdf = |t: f64| {
        if t <= 0.0 || t >= 1.0 {
            0.0
        } else {
            ((a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln() - ln_beta).exp()
        }
    };
    // Order statistic i weighs the Beta mass on [i/n, (i+1)/n], here
    // by Simpson's rule; dividing by the total absorbs its error.
    const STEPS: usize = 64;
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let lo = i as f64 / n as f64;
        let h = 1.0 / (n * STEPS) as f64;
        let w: f64 = (0..=STEPS)
            .map(|k| {
                let c = match k {
                    0 => 1.0,
                    k if k == STEPS => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                c * pdf(lo + k as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        sum += w * x;
        total += w;
    }
    sum / total
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    use std::f64::consts::PI;
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let a = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |a, (i, c)| a + c / (x + (i + 1) as f64));
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The tail of `xs`: the highest percentile that still has at least ten
/// samples above it, as its [`quantile`] estimate, with the percentile.
/// `None` below 21 samples, where that percentile would not lie above
/// the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = (n as f64 - 10.0) / n as f64;
    (n >= 21).then(|| (quantile(xs, p), 100.0 * p))
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    /// Record `name = value unit`; a later value for the same name
    /// replaces the earlier one.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(k, _, _)| k == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == name)
            .map(|(_, v, _)| *v)
    }

    /// Attach a line of context (sample counts, percentiles) that is
    /// printed with the metrics but is not one.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The attached context lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Human-readable `name = value unit` lines.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(k, v, u)| format!("{k} = {v} {u}"))
            .collect()
    }

    /// The one-line JSON result. Non-finite values cannot be carried by
    /// JSON and make the run incorrect.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.entries.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(min(&[2.0, 0.5, 6.0]), 0.5);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn quantile_estimates() {
        let xs: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert!((quantile(&xs, 0.5) - 5.0).abs() < 1e-9);
        assert!(quantile(&xs, 0.25) < quantile(&xs, 0.5));
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // ln Γ at integers is ln((x - 1)!).
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (t, pct) = tail(&xs).unwrap();
        assert_eq!(pct, 75.0);
        assert!((t - 30.75).abs() < 0.5, "{t}");
        assert_eq!(tail(&xs[..20]), None);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("run_s", 1.5, "s");
        m.set("run_s", 2.0, "s");
        let line = m.result_line(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        m.set("bad", f64::NAN, "s");
        assert!(m.result_line(true, 1, 0).starts_with("{\"correct\": false"));
    }
}
