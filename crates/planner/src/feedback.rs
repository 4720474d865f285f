//! Cardinality feedback: estimated vs actual rows per box.
//!
//! After a query executes, the per-box row counts from the executor can
//! be compared against the planner's pre-execution estimates. The
//! resulting [`CardRow`]s power EXPLAIN ANALYZE's misestimation report
//! and the trace-JSON sink; the bucket histogram gives a one-line
//! summary of how far off the cost model was.
//!
//! The executor's counters arrive as plain data — a map from box id to
//! `(rows_out, evals)` — so this crate never depends on the executor.
//! For correlated boxes (evaluated once per outer binding) the actual
//! cardinality compared against the estimate is the *average* rows per
//! evaluation, matching what [`estimate_box_rows`] predicts for a
//! single evaluation.

use std::collections::BTreeMap;

use starmagic_catalog::Catalog;
use starmagic_qgm::{BoxId, Qgm};

use crate::cost::estimate_box_rows;

/// How far an estimate strayed from the observed cardinality, as a
/// symmetric ratio `max(est, act) / min(est, act)` (zeroes clamped to
/// one row so the ratio stays finite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MisestimateBucket {
    /// Ratio ≤ 2: the estimate was essentially right.
    Within2x,
    /// Ratio in (2, 10]: noticeable but rarely plan-changing.
    Within10x,
    /// Ratio in (10, 100]: likely to distort join ordering.
    Within100x,
    /// Ratio > 100: the cost model had no idea.
    Beyond100x,
}

impl MisestimateBucket {
    /// Classify a symmetric ratio.
    pub fn from_ratio(ratio: f64) -> MisestimateBucket {
        if ratio <= 2.0 {
            MisestimateBucket::Within2x
        } else if ratio <= 10.0 {
            MisestimateBucket::Within10x
        } else if ratio <= 100.0 {
            MisestimateBucket::Within100x
        } else {
            MisestimateBucket::Beyond100x
        }
    }

    /// Short label for reports (`<=2x`, `<=10x`, ...).
    pub fn label(self) -> &'static str {
        match self {
            MisestimateBucket::Within2x => "<=2x",
            MisestimateBucket::Within10x => "<=10x",
            MisestimateBucket::Within100x => "<=100x",
            MisestimateBucket::Beyond100x => ">100x",
        }
    }
}

/// One box's estimated-vs-actual comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardRow {
    pub box_id: BoxId,
    /// Planner estimate for one evaluation of the box.
    pub estimated: f64,
    /// Observed rows per evaluation (`rows_out / max(evals, 1)`).
    pub actual: f64,
    /// Evaluations observed (1 for set-oriented boxes, per-outer-row
    /// for correlated ones).
    pub evals: u64,
    /// Symmetric misestimation ratio, always ≥ 1.
    pub ratio: f64,
    pub bucket: MisestimateBucket,
}

/// Compare planner estimates against observed per-box counts.
///
/// `actuals` maps each evaluated box to `(rows_out, evals)` — the
/// executor's per-box profile reduced to plain data. Boxes that never
/// evaluated are skipped (there is nothing to compare), as are boxes
/// the estimator cannot price. Rows come back in box-id order.
pub fn cardinality_report(
    qgm: &Qgm,
    catalog: &Catalog,
    actuals: &BTreeMap<BoxId, (u64, u64)>,
) -> Vec<CardRow> {
    compare_cardinalities(|b| estimate_box_rows(qgm, catalog, b), actuals)
}

/// [`cardinality_report`] against estimates made beforehand: `estimate`
/// answers [`estimate_box_rows`] for every box of `actuals` (a cached
/// plan keeps its own, so a repeated execution estimates nothing).
pub fn compare_cardinalities(
    estimate: impl Fn(BoxId) -> f64,
    actuals: &BTreeMap<BoxId, (u64, u64)>,
) -> Vec<CardRow> {
    let mut rows = Vec::new();
    for (&b, &(rows_out, evals)) in actuals {
        let estimated = estimate(b);
        let actual = rows_out as f64 / evals.max(1) as f64;
        // Clamp both sides to one row: a predicted-empty box that is
        // in fact empty is a perfect estimate, not a 0/0.
        let e = estimated.max(1.0);
        let a = actual.max(1.0);
        let ratio = if e > a { e / a } else { a / e };
        rows.push(CardRow {
            box_id: b,
            estimated,
            actual,
            evals,
            ratio,
            bucket: MisestimateBucket::from_ratio(ratio),
        });
    }
    rows
}

/// Histogram of misestimation buckets, in bucket order
/// (`<=2x`, `<=10x`, `<=100x`, `>100x`).
pub fn bucket_histogram(rows: &[CardRow]) -> [(MisestimateBucket, usize); 4] {
    let mut hist = [
        (MisestimateBucket::Within2x, 0),
        (MisestimateBucket::Within10x, 0),
        (MisestimateBucket::Within100x, 0),
        (MisestimateBucket::Beyond100x, 0),
    ];
    for r in rows {
        let idx = match r.bucket {
            MisestimateBucket::Within2x => 0,
            MisestimateBucket::Within10x => 1,
            MisestimateBucket::Within100x => 2,
            MisestimateBucket::Beyond100x => 3,
        };
        hist[idx].1 += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_classify_ratios() {
        assert_eq!(
            MisestimateBucket::from_ratio(1.0),
            MisestimateBucket::Within2x
        );
        assert_eq!(
            MisestimateBucket::from_ratio(2.0),
            MisestimateBucket::Within2x
        );
        assert_eq!(
            MisestimateBucket::from_ratio(9.9),
            MisestimateBucket::Within10x
        );
        assert_eq!(
            MisestimateBucket::from_ratio(55.0),
            MisestimateBucket::Within100x
        );
        assert_eq!(
            MisestimateBucket::from_ratio(101.0),
            MisestimateBucket::Beyond100x
        );
    }

    #[test]
    fn histogram_counts_in_bucket_order() {
        let row = |ratio: f64| CardRow {
            box_id: BoxId(0),
            estimated: 1.0,
            actual: ratio,
            evals: 1,
            ratio,
            bucket: MisestimateBucket::from_ratio(ratio),
        };
        let rows = vec![row(1.0), row(1.5), row(3.0), row(200.0)];
        let hist = bucket_histogram(&rows);
        assert_eq!(hist[0], (MisestimateBucket::Within2x, 2));
        assert_eq!(hist[1], (MisestimateBucket::Within10x, 1));
        assert_eq!(hist[2], (MisestimateBucket::Within100x, 0));
        assert_eq!(hist[3], (MisestimateBucket::Beyond100x, 1));
    }
}
