//! Differential query fuzzer for the starmagic engine.
//!
//! The paper's central claim is that EMST is semantics-preserving
//! under full SQL bag semantics (§6). This crate turns the engine's
//! three independent execution paths into an oracle for each other:
//!
//! 1. [`gen`] produces seeded, grammar-directed query ASTs over the
//!    benchmark catalog (NULL-rich, view-heavy, subquery-heavy);
//! 2. [`oracle`] runs each query under Original / CostBased / Magic,
//!    columnar path on and off, with PerFire rewrite linting, and
//!    compares results as sorted bags;
//! 3. on divergence, [`shrink`] minimizes the AST while the divergence
//!    keeps reproducing, and the run emits a self-contained repro —
//!    minimal SQL, seed, case, strategy pair, row-level diff — which
//!    `tests/fuzz_corpus.rs` replays forever after.

#![forbid(unsafe_code)]

pub mod gen;
pub mod oracle;
pub mod schema;
pub mod shrink;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use starmagic::Engine;
use starmagic_catalog::generator::Scale;
use starmagic_common::Result;
use starmagic_sql::query_sql;

use oracle::{Oracle, Outcome};

/// The scale the fuzzer runs at (re-exported from the bench crate so
/// `starmagic-server --scale fuzz` hosts the identical database).
pub fn fuzz_scale() -> Scale {
    starmagic_bench::fuzz_scale()
}

/// The engine every fuzz case runs against: the benchmark catalog and
/// views plus a NULL-rich employee tail (see
/// [`starmagic_bench::fuzz_engine`]).
pub fn fuzz_engine() -> Result<Engine> {
    starmagic_bench::fuzz_engine()
}

/// Fuzzer knobs (the `starmagic-fuzz` CLI maps onto this 1:1).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; case `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to generate.
    pub count: usize,
    /// Wall-clock budget; 0 = unlimited.
    pub budget_ms: u64,
    /// Where to persist minimized repros (one `.sql` file each).
    pub corpus_dir: Option<PathBuf>,
    /// Candidate-evaluation cap per shrink.
    pub shrink_checks: usize,
    /// When set, route the Magic strategy through a running
    /// `starmagic-server` at this address (`host:port`). The server
    /// must host the fuzz database (`starmagic-server --scale fuzz`).
    pub server: Option<String>,
    /// Cross-check every in-process execution against the static
    /// analysis (nullability / multiplicity-bounds agreement plus
    /// L2xx cleanliness). On by default.
    pub analysis: bool,
    /// Run every in-process configuration with the columnar batch
    /// path both on and off, so the vectorized and row-at-a-time
    /// executors cross-check each other. On by default;
    /// `--no-columnar-oracle` is the escape hatch.
    pub columnar: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            count: 100,
            budget_ms: 0,
            corpus_dir: None,
            shrink_checks: 600,
            server: None,
            analysis: true,
            columnar: true,
        }
    }
}

/// A minimized, reproducible divergence.
#[derive(Debug, Clone)]
pub struct Repro {
    pub case: u64,
    pub seed: u64,
    /// The generated query that first diverged.
    pub original_sql: String,
    /// After shrinking (still diverging).
    pub minimized_sql: String,
    /// Configuration pair and row-level diff of the *minimized*
    /// query.
    pub left: String,
    pub right: String,
    pub detail: String,
    /// Where the repro was written, when a corpus dir was configured.
    pub path: Option<PathBuf>,
}

/// What a fuzz run did.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    pub generated: usize,
    pub agreed: usize,
    /// Uniformly rejected by every configuration (generator strayed
    /// outside the supported subset) — not bugs.
    pub rejected: usize,
    pub repros: Vec<Repro>,
    /// True when the wall-clock budget cut the run short.
    pub out_of_budget: bool,
}

/// Run the fuzzer. Deterministic for a given `(engine, config)`.
///
/// With [`FuzzConfig::server`] set, the Magic strategy executes over
/// the wire protocol against that server; a connection failure is a
/// setup error, not a divergence, so it panics.
pub fn run_fuzz(engine: &Engine, cfg: &FuzzConfig) -> FuzzReport {
    let mut oracle = match &cfg.server {
        Some(addr) => {
            let client = starmagic_server::Client::connect(addr.as_str())
                .unwrap_or_else(|e| panic!("cannot connect to --server {addr}: {e}"));
            Oracle::with_remote_magic(engine, client)
                .unwrap_or_else(|e| panic!("cannot pin magic strategy on {addr}: {e}"))
        }
        None => Oracle::new(engine),
    };
    oracle.set_analysis(cfg.analysis);
    oracle.set_columnar(cfg.columnar);
    run_fuzz_with(&oracle, cfg)
}

/// Run the fuzzer against an already-constructed oracle.
pub fn run_fuzz_with(oracle: &Oracle<'_>, cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let budget = (cfg.budget_ms > 0).then(|| Duration::from_millis(cfg.budget_ms));
    let mut report = FuzzReport::default();

    for case in 0..cfg.count as u64 {
        if let Some(b) = budget {
            if start.elapsed() > b {
                report.out_of_budget = true;
                break;
            }
        }
        let query = gen::generate(cfg.seed, case);
        let sql = query_sql(&query);
        report.generated += 1;
        match oracle.check(&sql) {
            Outcome::Agree { .. } => report.agreed += 1,
            Outcome::Rejected { .. } => report.rejected += 1,
            Outcome::Diverged(_) => {
                let minimized = shrink::shrink(
                    &query,
                    |cand| oracle.check(&query_sql(cand)).is_divergence(),
                    cfg.shrink_checks,
                );
                let minimized_sql = query_sql(&minimized);
                let Outcome::Diverged(d) = oracle.check(&minimized_sql) else {
                    unreachable!("shrink preserved the divergence predicate");
                };
                let mut repro = Repro {
                    case,
                    seed: cfg.seed,
                    original_sql: sql,
                    minimized_sql,
                    left: d.left,
                    right: d.right,
                    detail: d.detail,
                    path: None,
                };
                if let Some(dir) = &cfg.corpus_dir {
                    match write_repro(dir, &repro) {
                        Ok(p) => repro.path = Some(p),
                        Err(e) => eprintln!("warning: could not write repro: {e}"),
                    }
                }
                report.repros.push(repro);
            }
        }
    }
    report
}

/// Persist one repro as a self-contained `.sql` file. The `--`
/// comment header survives replay (the lexer skips comments), so the
/// whole file is directly runnable.
fn write_repro(dir: &Path, repro: &Repro) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fuzz-seed{}-case{}.sql", repro.seed, repro.case));
    let text = format!(
        "-- starmagic-fuzz minimized repro\n\
         -- seed {}, case {}\n\
         -- divergence {} vs {}: {}\n\
         -- original: {}\n\
         {}\n",
        repro.seed,
        repro.case,
        repro.left,
        repro.right,
        repro.detail,
        repro.original_sql,
        repro.minimized_sql,
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_smoke_finds_no_divergence() {
        let engine = fuzz_engine().expect("fuzz engine builds");
        let cfg = FuzzConfig {
            seed: 11,
            count: 40,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&engine, &cfg);
        assert_eq!(report.generated, 40);
        assert!(
            report.repros.is_empty(),
            "divergences: {:#?}",
            report.repros
        );
        // The grammar must mostly stay inside the supported subset.
        assert!(
            report.agreed * 10 >= report.generated * 7,
            "too many rejects: {} agreed of {} ({} rejected)",
            report.agreed,
            report.generated,
            report.rejected
        );
    }

    #[test]
    fn fuzz_is_deterministic() {
        let engine = fuzz_engine().expect("fuzz engine builds");
        let cfg = FuzzConfig {
            seed: 3,
            count: 15,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&engine, &cfg);
        let b = run_fuzz(&engine, &cfg);
        assert_eq!(a.agreed, b.agreed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.repros.len(), b.repros.len());
    }
}
