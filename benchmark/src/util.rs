//! Small helpers: order statistics, peak memory, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of the `q`-quantile (0 < `q` < 1): a weighted
/// mean of every order statistic, the `i`-th of `n` weighted by the mass of
/// Beta(q(n+1), (1-q)(n+1)) on `[(i-1)/n, i/n]`. Unlike a single order
/// statistic it does not jump when a sparse tail reorders, which steadies
/// a p95 over a few hundred unit times. 0 for an empty slice.
pub fn hd_quantile(xs: &[f64], q: f64) -> f64 {
    let n = xs.len();
    if n < 2 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // Midpoint rule on the unnormalised log density; the weights are
    // normalised by their sum, so the Beta function never appears.
    const STEPS: usize = 16;
    let h = 1.0 / (n * STEPS) as f64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let t = (k as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_density
        .chunks(STEPS)
        .map(|c| c.iter().map(|l| (l - peak).exp()).sum())
        .collect();
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w / total).sum()
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_matches_reference_values() {
        // Symmetric sample: the median estimate is the centre.
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&xs, 0.5) - 5.0).abs() < 1e-9);
        // Reference values from an independent incomplete-beta
        // implementation of the same estimator.
        let ys: Vec<f64> = (1..=20).map(|i| f64::from(i * i)).collect();
        for (q, want) in [(0.5, 114.878_788), (0.95, 378.201_513)] {
            let got = hd_quantile(&ys, q);
            assert!((got - want).abs() / want < 1e-3, "q={q}: {got} vs {want}");
        }
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        assert_eq!(hd_quantile(&[4.0], 0.95), 4.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
