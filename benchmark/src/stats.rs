//! Order statistics. Medians and nearest-rank percentiles for the
//! metrics; Python-compatible quartiles for the repeatability report
//! (the acceptance rule is stated in terms of
//! `statistics.quantiles(values, n=4)`).

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lower quartile (nearest rank): the estimate every timing metric
/// is built from. The host this runs on flips between a fast and a slow
/// state many times a second (a busy sibling hyperthread, other
/// tenants) and the noise only ever adds time. The median follows
/// whichever state was more common during the run; the minimum is an
/// extreme value and needs a hundred samples to settle. The lower
/// quartile is right as long as a quarter of the samples were taken
/// undisturbed, and measured steadier than either on every workload
/// (see `README.md`, "Why the lower quartile").
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// The lower quartile's mirror image, for rates: higher is undisturbed.
pub fn upper_quartile(values: &[f64]) -> f64 {
    -lower_quartile(&values.iter().map(|v| -v).collect::<Vec<_>>())
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice:
/// always one of the samples, never an interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// `statistics.quantiles(values, n=4)` (the default exclusive method):
/// first quartile, median, third quartile. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule compares against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    }
}
