//! Per-box execution profiles.
//!
//! The executor attributes every row it touches to the QGM box doing
//! the touching; [`ExecProfile`] is the resulting map. The old flat
//! [`Metrics`] survives as the aggregate view ([`ExecProfile::aggregate`])
//! so the benchmark work numbers stay byte-identical, while EXPLAIN
//! ANALYZE and the trace-JSON sink read the per-box breakdown.
//!
//! Elapsed time per box is *inclusive* (a parent's time contains its
//! children's) and is only collected when the profile was built with
//! timing on — row and eval counters are deterministic and always
//! collected, timings never are unless asked for.

use std::collections::BTreeMap;
use std::time::Duration;

use starmagic_qgm::BoxId;

use crate::boundary::BoxPath;
use crate::metrics::Metrics;

/// Counters for one QGM box across one execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoxProfile {
    /// Rows read from stored tables by this box (full scans and index
    /// probes alike; probes charge only the matched rows).
    pub rows_scanned: u64,
    /// Rows received from child boxes (join inputs, aggregate inputs,
    /// set-operation arms).
    pub rows_in: u64,
    /// Intermediate rows this box produced while evaluating — the
    /// component of the deterministic work metric (join combinations
    /// count here, so it can exceed `rows_out`).
    pub rows_produced: u64,
    /// Final output rows, summed across evaluations.
    pub rows_out: u64,
    /// Evaluations started (correlated boxes count once per
    /// re-evaluation; cache hits do not count).
    pub evals: u64,
    /// Inclusive wall time spent evaluating this box (zero unless the
    /// profile collects timings).
    pub elapsed: Duration,
}

/// Convergence record of one fixpoint (recursive union) box: how many
/// iterations the driver ran and how many new rows each one added.
/// Deterministic — no clocks — so the determinism suite can pin it
/// across the columnar toggle.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FixpointStats {
    /// Step iterations after the seed (a query whose step never fires
    /// records 1: the single round that proved the delta empty).
    pub iterations: u64,
    /// New rows admitted per round; index 0 is the seed (base arms).
    pub delta_rows: Vec<u64>,
    /// Candidate rows each round rejected as duplicates of rows already
    /// accumulated (the driver's `rows_in` minus what it admitted);
    /// index 0 is the seed. All zero under UNION ALL.
    pub rejected_rows: Vec<u64>,
    /// Rows in the accumulated total at convergence.
    pub total_rows: u64,
}

/// How the hash-join build sides of one step arm that lie outside the
/// recursion were served across its fixpoint's rounds: built on first
/// use, then reused by every later round's delta.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepBuilds {
    pub built: u64,
    pub reused: u64,
}

/// Per-box profile of one execution.
#[derive(Debug, Default, Clone)]
pub struct ExecProfile {
    pub boxes: BTreeMap<BoxId, BoxProfile>,
    /// Per-iteration convergence of each fixpoint-evaluated box. Kept
    /// beside [`ExecProfile::boxes`] so [`BoxProfile`] stays `Copy`.
    pub fixpoint: BTreeMap<BoxId, FixpointStats>,
    /// Whether elapsed times were collected. Off by default: the
    /// deterministic counters are free of clock reads.
    pub timing: bool,
    /// Which physical path evaluated each box: `batch`, or `row` with
    /// the reason the box left the batch path (the first one, for a
    /// box evaluated many times). An annotation for EXPLAIN ANALYZE,
    /// deliberately **not** part of `==`: equality is the contract that
    /// the two paths charge identical counters.
    pub paths: BTreeMap<BoxId, BoxPath>,
    /// Per step arm, its build-side reuse across fixpoint rounds. Also
    /// an annotation outside `==`: only the batch path reuses a build
    /// (the row path rebuilds every round), and the counters it charges
    /// are the same either way.
    pub builds: BTreeMap<BoxId, StepBuilds>,
}

impl PartialEq for ExecProfile {
    fn eq(&self, other: &ExecProfile) -> bool {
        self.boxes == other.boxes && self.fixpoint == other.fixpoint && self.timing == other.timing
    }
}

impl Eq for ExecProfile {}

impl ExecProfile {
    /// A profile that also collects per-box wall time.
    pub fn with_timing() -> ExecProfile {
        ExecProfile {
            timing: true,
            ..ExecProfile::default()
        }
    }

    /// Mutable counters for a box (created zeroed on first touch).
    pub fn entry(&mut self, b: BoxId) -> &mut BoxProfile {
        self.boxes.entry(b).or_default()
    }

    /// Counters for a box (zeroes when the box never evaluated).
    pub fn get(&self, b: BoxId) -> BoxProfile {
        self.boxes.get(&b).copied().unwrap_or_default()
    }

    /// Fold another profile's counters into this one. The columnar path
    /// charges a select's stages to a scratch profile and merges it only
    /// when the attempt succeeds, so a fallback to the row path charges
    /// nothing twice.
    pub fn merge(&mut self, other: &ExecProfile) {
        for (b, p) in &other.boxes {
            let e = self.entry(*b);
            e.rows_scanned += p.rows_scanned;
            e.rows_in += p.rows_in;
            e.rows_produced += p.rows_produced;
            e.rows_out += p.rows_out;
            e.evals += p.evals;
            e.elapsed += p.elapsed;
        }
        // A columnar scratch profile never records a fixpoint, so
        // entries cannot collide in practice; summing keeps merge
        // commutative anyway.
        for (b, fs) in &other.fixpoint {
            let e = self.fixpoint.entry(*b).or_default();
            e.iterations += fs.iterations;
            e.delta_rows.extend_from_slice(&fs.delta_rows);
            e.rejected_rows.extend_from_slice(&fs.rejected_rows);
            e.total_rows += fs.total_rows;
        }
    }

    /// The flat aggregate the benchmarks report: per-box counters
    /// summed back into the legacy [`Metrics`] triple.
    pub fn aggregate(&self) -> Metrics {
        let mut m = Metrics::default();
        for p in self.boxes.values() {
            m.rows_scanned += p.rows_scanned;
            m.rows_produced += p.rows_produced;
            m.box_evals += p.evals;
        }
        m
    }

    /// Total rows scanned from one conceptual source across all boxes
    /// selected by the caller's filter — used by tests comparing scan
    /// work per base table between plans.
    pub fn rows_scanned_where<F: Fn(BoxId) -> bool>(&self, f: F) -> u64 {
        self.boxes
            .iter()
            .filter(|(b, _)| f(**b))
            .map(|(_, p)| p.rows_scanned)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_per_box_counters() {
        let mut p = ExecProfile::default();
        p.entry(BoxId(1)).rows_scanned = 10;
        p.entry(BoxId(1)).evals = 1;
        p.entry(BoxId(2)).rows_produced = 5;
        p.entry(BoxId(2)).evals = 2;
        let m = p.aggregate();
        assert_eq!(m.rows_scanned, 10);
        assert_eq!(m.rows_produced, 5);
        assert_eq!(m.box_evals, 3);
        assert_eq!(m.work(), 15);
    }

    #[test]
    fn merge_sums_counters_per_box() {
        let mut a = ExecProfile::default();
        a.entry(BoxId(1)).rows_scanned = 10;
        a.entry(BoxId(1)).evals = 1;
        let mut b = ExecProfile::default();
        b.entry(BoxId(1)).rows_scanned = 5;
        b.entry(BoxId(2)).rows_produced = 3;
        b.entry(BoxId(2)).elapsed = Duration::from_nanos(7);
        a.merge(&b);
        assert_eq!(a.get(BoxId(1)).rows_scanned, 15);
        assert_eq!(a.get(BoxId(1)).evals, 1);
        assert_eq!(a.get(BoxId(2)).rows_produced, 3);
        assert_eq!(a.get(BoxId(2)).elapsed, Duration::from_nanos(7));
    }

    #[test]
    fn merge_is_commutative_on_counters() {
        let mut a = ExecProfile::default();
        a.entry(BoxId(1)).rows_in = 4;
        let mut b = ExecProfile::default();
        b.entry(BoxId(1)).rows_in = 9;
        b.entry(BoxId(3)).rows_out = 2;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn get_returns_zeroes_for_untouched_boxes() {
        let p = ExecProfile::default();
        assert_eq!(p.get(BoxId(9)), BoxProfile::default());
    }

    #[test]
    fn rows_scanned_where_filters() {
        let mut p = ExecProfile::default();
        p.entry(BoxId(1)).rows_scanned = 7;
        p.entry(BoxId(2)).rows_scanned = 3;
        assert_eq!(p.rows_scanned_where(|b| b == BoxId(1)), 7);
        assert_eq!(p.rows_scanned_where(|_| true), 10);
    }
}
