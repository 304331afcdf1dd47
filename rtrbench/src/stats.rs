//! Order statistics, computed the way Python's `statistics.quantiles`
//! (default `exclusive` method) computes them, so a spread reported here
//! matches one recomputed from the raw values with the standard library.

/// The `i`-th of the `n`-quantiles of `values` (e.g. `i = 9, n = 10` is the
/// 90th percentile). A single value is its own quantile; no values read
/// `0`, the value of a layer a workload does not exercise.
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        1 => data[0],
        len => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        }
    }
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [quantile(values, 1, 4), quantile(values, 2, 4), quantile(values, 3, 4)]
}

/// Geometric mean of positive values; `NaN` for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or `0` when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([...], n=10)[8]
        assert!((quantile(&v, 9, 10) - 9.9).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
