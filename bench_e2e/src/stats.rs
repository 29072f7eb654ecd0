//! Order statistics for the benchmark's timing metrics.
//!
//! A timed run is cut into short equal blocks and every timing metric is
//! the **best block's statistic**: the lowest block median for a latency,
//! the highest block rate for a throughput. This VM shares its host: the
//! same code runs at a handful of discrete speeds, the slower ones 15-30 %
//! (at times 3x, when the hypervisor steals whole cores) behind the
//! fastest, switching every few seconds to minutes. With one compute
//! thread the neighbours only ever add time, so the quietest block is the
//! closest a run gets to the program's own speed, and it needs the host to
//! be quiet for one block (60-100 ms), not for half the run. Measured on
//! sets of ten 18-second runs (IQR / median, then range / median, of
//! `paper_dd` F): best block 0.02-0.04 / 0.06, block p10 0.04 / 0.09,
//! median over blocks 0.04-0.07 / 0.14-0.21, mean over blocks 0.08 / 0.14;
//! every workload ranked them the same way.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted sample;
/// 0 for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Lowest of a sample (the quietest block's latency); 0 for an empty one.
pub fn lowest(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Highest of a sample (the fastest block's rate); 0 for an empty one.
pub fn highest(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Spread of a sample relative to its median: (p75 − p25) / p50. On the
/// block medians this is the workload's own noise within one run.
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ignore_input_order() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_block_shrugs_off_a_spoiled_majority() {
        // Five blocks at ~10 µs; three of them hit by a 3x slowdown, and
        // a spike inside the quietest one.
        let blocks = [
            vec![30.0, 30.2, 29.9],
            vec![30.0, 31.0, 29.0],
            vec![10.1, 10.0, 10.3],
            vec![9.8, 10.0, 900.0],
            vec![33.0, 30.0, 31.0],
        ];
        let p50s: Vec<f64> = blocks.iter().map(|b| median(b)).collect();
        assert_eq!(lowest(&p50s), 10.0);
        assert_eq!(highest(&p50s), 31.0);
        // The pooled median sits in the slow mode.
        let pooled: Vec<f64> = blocks.iter().flatten().copied().collect();
        assert!(median(&pooled) > 2.0 * lowest(&p50s));
        assert_eq!((lowest(&[]), highest(&[])), (0.0, 0.0));
    }

    #[test]
    fn iqr_ratio_is_spread_over_median() {
        assert_eq!(iqr_ratio(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(iqr_ratio(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(iqr_ratio(&[0.0, 0.0]), 0.0);
    }
}
