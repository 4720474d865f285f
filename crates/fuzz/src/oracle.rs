//! The differential oracle: three strategies, results compared as
//! bags.
//!
//! The three independent execution paths — Original (no EMST, so
//! subqueries stay correlated and run tuple-at-a-time), Magic (EMST
//! forced), and CostBased (the paper's heuristic, picking either) —
//! must agree on every query, row for row, duplicate for duplicate.
//! The rewrite engine lints at [`CheckLevel::PerFire`] during every
//! prepare, so a rule application that breaks a QGM invariant surfaces
//! as a divergence too (the secondary oracle).
//!
//! A further secondary oracle cross-checks execution against the
//! static analysis: the chosen plan's L2xx report must be
//! error-free, no column the nullability domain proves `NotNull` may
//! hold a NULL in the executed output, and the observed row count
//! must fall inside the proven multiplicity bounds. A disagreement
//! means either the executor or the analysis is wrong — both bugs.

use std::cell::RefCell;

use starmagic::analysis::Nullability;
use starmagic::{Engine, Optimized, PipelineOptions};
use starmagic_common::{Error, Row, Value};
use starmagic_rewrite::engine::CheckLevel;
use starmagic_server::{Client, Response};

/// The strategy axis. A separate enum (rather than
/// [`starmagic::Strategy`]) so the oracle controls the exact pipeline
/// options, PerFire lint included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// EMST disabled: subqueries evaluate correlated.
    Original,
    /// The cost-based heuristic (may or may not choose EMST).
    CostBased,
    /// EMST forced.
    Magic,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl StrategyKind {
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Original,
        StrategyKind::CostBased,
        StrategyKind::Magic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Original => "original",
            StrategyKind::CostBased => "cost",
            StrategyKind::Magic => "magic",
        }
    }

    fn options(self) -> PipelineOptions {
        let base = PipelineOptions {
            check: CheckLevel::PerFire,
            trace: false,
            ..PipelineOptions::default()
        };
        match self {
            StrategyKind::Original => PipelineOptions {
                enable_magic: false,
                ..base
            },
            StrategyKind::CostBased => base,
            StrategyKind::Magic => PipelineOptions {
                force_magic: true,
                ..base
            },
        }
    }
}

/// What the oracle concluded about one query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every configuration produced the same bag of rows.
    Agree { rows: usize },
    /// Every configuration failed identically with a user-level error
    /// (the generator strayed outside the supported subset); not a
    /// bug.
    Rejected { reason: String },
    /// Configurations disagreed — rows vs rows, rows vs error, error
    /// vs different error — or some configuration hit an internal /
    /// PerFire-lint error. Always a bug.
    Diverged(Divergence),
}

impl Outcome {
    pub fn is_divergence(&self) -> bool {
        matches!(self, Outcome::Diverged(_))
    }
}

/// A reproducible disagreement between two configurations.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The two configuration labels that disagree.
    pub left: String,
    pub right: String,
    /// Human-readable explanation with a row-level diff.
    pub detail: String,
}

/// The oracle over one engine.
pub struct Oracle<'a> {
    engine: &'a Engine,
    /// When set, the Magic strategy runs over the wire protocol
    /// against this connection instead of in-process, so the whole
    /// server stack (codec, session, shared plan cache) sits inside
    /// the differential loop. The remote database must be identical
    /// to `engine`'s (`starmagic-server --scale fuzz`).
    remote_magic: Option<RefCell<Client>>,
    /// Cross-check executed results against the static analysis
    /// (nullability, multiplicity bounds, L2xx cleanliness). On by
    /// default; the remote-magic path is exempt (no in-process
    /// [`Optimized`] record exists for it).
    analysis: bool,
}

impl<'a> Oracle<'a> {
    pub fn new(engine: &'a Engine) -> Oracle<'a> {
        Oracle {
            engine,
            remote_magic: None,
            analysis: true,
        }
    }

    /// Enable or disable the analysis secondary oracle.
    pub fn set_analysis(&mut self, on: bool) {
        self.analysis = on;
    }

    /// An oracle whose Magic strategy executes through `client`. Pins
    /// the session strategy to magic up front.
    pub fn with_remote_magic(engine: &'a Engine, mut client: Client) -> Result<Oracle<'a>, Error> {
        client.set_strategy("magic")?;
        Ok(Oracle {
            engine,
            remote_magic: Some(RefCell::new(client)),
            analysis: true,
        })
    }

    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Run `sql` under every configuration and classify.
    pub fn check(&self, sql: &str) -> Outcome {
        let mut runs: Vec<(StrategyKind, Result<Vec<Row>, Error>)> = Vec::new();
        for strategy in StrategyKind::ALL {
            if strategy == StrategyKind::Magic {
                if let Some(remote) = &self.remote_magic {
                    runs.push((strategy, remote_run(&mut remote.borrow_mut(), sql)));
                    continue;
                }
            }
            match self.engine.optimize_with_options(sql, strategy.options()) {
                Err(e) => runs.push((strategy, Err(e))),
                Ok(optimized) => {
                    let prepared = starmagic::prepared_from(&optimized);
                    let rows = self.engine.execute_prepared(&prepared).map(|r| {
                        let mut rows = r.rows;
                        rows.sort_by(Row::group_cmp);
                        rows
                    });
                    if self.analysis {
                        if let Ok(rows) = &rows {
                            if let Some(detail) = analysis_disagreement(&optimized, rows) {
                                return Outcome::Diverged(Divergence {
                                    left: strategy.to_string(),
                                    right: "analysis".to_string(),
                                    detail,
                                });
                            }
                        }
                    }
                    runs.push((strategy, rows));
                }
            }
        }
        classify(&runs)
    }
}

/// The analysis secondary oracle: executed results must respect the
/// static facts of the chosen graph. Returns the disagreement, if any.
/// Public so the corpus/suite agreement tests can replay the same
/// judgement outside a fuzz run.
pub fn analysis_disagreement(optimized: &Optimized, rows: &[Row]) -> Option<String> {
    let report = &optimized.analysis.report;
    if report.has_errors() {
        return Some(format!("static analysis flags the chosen plan:\n{report}"));
    }
    let top = optimized.chosen().top();
    let f = optimized.analysis.facts_for(top)?;
    if !f.card.contains(rows.len() as u64) {
        return Some(format!(
            "executed {} rows but the multiplicity domain proves {} for the top box",
            rows.len(),
            f.card
        ));
    }
    for (i, n) in f.nullability.iter().enumerate() {
        let nulls = rows
            .iter()
            .filter(|r| matches!(r.get(i), Value::Null))
            .count();
        match n {
            Nullability::NotNull if nulls > 0 => {
                return Some(format!(
                    "column {i} is proven NotNull but {nulls} of {} executed rows hold NULL",
                    rows.len()
                ));
            }
            Nullability::Null if nulls < rows.len() => {
                return Some(format!(
                    "column {i} is proven Null but {} of {} executed rows are non-NULL",
                    rows.len() - nulls,
                    rows.len()
                ));
            }
            _ => {}
        }
    }
    None
}

/// One wire-protocol execution: run the query, sort the bag. The codec
/// carries the error variant, so a server-side failure reconstructs as
/// the same [`Error`] the in-process run would produce and
/// error-vs-error comparison works unchanged; doubles travel as their
/// IEEE-754 bits, so row bags compare byte-identically.
fn remote_run(client: &mut Client, sql: &str) -> Result<Vec<Row>, Error> {
    match client.query(sql)? {
        Response::Rows { mut rows, .. } => {
            rows.sort_by(Row::group_cmp);
            Ok(rows)
        }
        other => Err(Error::internal(format!(
            "expected a result set over the wire, got {other:?}"
        ))),
    }
}

fn classify(runs: &[(StrategyKind, Result<Vec<Row>, Error>)]) -> Outcome {
    // Internal errors (and PerFire lint aborts, which surface as
    // internal) are bugs no matter how uniform.
    if let Some((cfg, Err(e))) = runs
        .iter()
        .find(|(_, r)| matches!(r, Err(Error::Internal(_))))
    {
        return Outcome::Diverged(Divergence {
            left: cfg.to_string(),
            right: cfg.to_string(),
            detail: format!("internal error under {cfg}: {e}"),
        });
    }

    let (base_cfg, base) = &runs[0];
    match base {
        Err(e) => {
            // The baseline rejected the query; every other
            // configuration must reject it the same way.
            for (cfg, r) in &runs[1..] {
                match r {
                    Err(e2) if e2.to_string() == e.to_string() => {}
                    Err(e2) => {
                        return Outcome::Diverged(Divergence {
                            left: base_cfg.to_string(),
                            right: cfg.to_string(),
                            detail: format!(
                                "different errors: {base_cfg} says {e:?}, {cfg} says {e2:?}"
                            ),
                        })
                    }
                    Ok(rows) => {
                        return Outcome::Diverged(Divergence {
                            left: base_cfg.to_string(),
                            right: cfg.to_string(),
                            detail: format!(
                                "{base_cfg} errors with {e:?} but {cfg} returns {} rows",
                                rows.len()
                            ),
                        })
                    }
                }
            }
            Outcome::Rejected {
                reason: e.to_string(),
            }
        }
        Ok(base_rows) => {
            for (cfg, r) in &runs[1..] {
                match r {
                    Err(e) => {
                        return Outcome::Diverged(Divergence {
                            left: base_cfg.to_string(),
                            right: cfg.to_string(),
                            detail: format!(
                                "{base_cfg} returns {} rows but {cfg} errors with {e:?}",
                                base_rows.len()
                            ),
                        })
                    }
                    Ok(rows) if rows != base_rows => {
                        return Outcome::Diverged(Divergence {
                            left: base_cfg.to_string(),
                            right: cfg.to_string(),
                            detail: bag_diff(base_cfg, base_rows, cfg, rows),
                        })
                    }
                    Ok(_) => {}
                }
            }
            Outcome::Agree {
                rows: base_rows.len(),
            }
        }
    }
}

/// Row-level diff of two sorted bags, capped for readability.
fn bag_diff(la: &StrategyKind, a: &[Row], lb: &StrategyKind, b: &[Row]) -> String {
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].group_cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                only_a.push(&a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_b.push(&b[j]);
                j += 1;
            }
        }
    }
    only_a.extend(&a[i..]);
    only_b.extend(&b[j..]);

    let mut s = format!("{la}: {} rows, {lb}: {} rows", a.len(), b.len());
    let show = |s: &mut String, label: &StrategyKind, rows: &[&Row]| {
        if rows.is_empty() {
            return;
        }
        s.push_str(&format!("; only in {label}:"));
        for r in rows.iter().take(5) {
            s.push_str(&format!(" {}", row_text(r)));
        }
        if rows.len() > 5 {
            s.push_str(&format!(" …(+{})", rows.len() - 5));
        }
    };
    show(&mut s, la, &only_a);
    show(&mut s, lb, &only_b);
    s
}

/// Render a row compactly for diffs and repro headers.
pub fn row_text(r: &Row) -> String {
    let cells: Vec<String> = r.values().iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}
