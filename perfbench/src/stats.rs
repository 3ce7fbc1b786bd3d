//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank; infinite values (failed
/// submissions) sort last. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `op` in batches of `per_batch` calls until `budget` has
/// passed (at least `min_batches`), and returns the median µs per call.
pub fn time_per_call(
    budget: std::time::Duration,
    min_batches: usize,
    per_batch: usize,
    mut op: impl FnMut(),
) -> f64 {
    let start = std::time::Instant::now();
    let mut batches = Vec::new();
    while batches.len() < min_batches || start.elapsed() < budget {
        let t = std::time::Instant::now();
        for _ in 0..per_batch {
            op();
        }
        batches.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    median(&batches)
}
