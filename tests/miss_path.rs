//! What a plan-cache miss derives once per graph must equal what it
//! used to derive from scratch, on every graph of the `plan_cold`
//! benchmark corpus (the Table-1 suite, three closures over `edge`, 200
//! generated queries) at every pipeline stage; the corpus's rewrite
//! counts are pinned to the benchmark's; and the suite's fresh plans
//! carry no check errors.

use starmagic::lint::{passes, LintReport};
use starmagic::qgm::keys::{self, KeyTable};
use starmagic::qgm::{strata, DistinctMode, Qgm};
use starmagic::rewrite::{CheckLevel, RewriteStats};
use starmagic::{Engine, MetricsRegistry, PipelineOptions, Strategy};
use starmagic_catalog::Catalog;

/// The closures of the `plan_cold` corpus: source bound, source bound
/// inside the cycle, destination bound (grown magic).
const CLOSURES: [&str; 3] = [
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE src = 0",
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE src = 8",
    "WITH RECURSIVE tc (src, dst) AS (SELECT src, dst FROM edge UNION \
     SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst) \
     SELECT src, dst FROM tc WHERE dst = 4",
];

/// The generator seed and size of the corpus's fuzz part.
const FUZZ_SEED: u64 = 11;
const FUZZ_QUERIES: usize = 200;

/// The pipeline as a release build runs it.
fn release_options() -> PipelineOptions {
    PipelineOptions {
        check: CheckLevel::Off,
        trace: false,
        ..PipelineOptions::default()
    }
}

fn suite() -> Vec<String> {
    let mut out = Vec::new();
    for exp in starmagic_bench::experiments() {
        out.push(exp.original_sql.to_string());
        out.push(exp.correlated_sql.to_string());
    }
    out.extend(CLOSURES.iter().map(ToString::to_string));
    out
}

/// The `plan_cold` corpus: the suite, then the first generated queries
/// that prepare.
fn corpus(engine: &Engine) -> Vec<String> {
    let mut out = suite();
    let hand_written = out.len();
    let mut case = 0;
    while out.len() < hand_written + FUZZ_QUERIES {
        let sql = starmagic::sql::query_sql(&starmagic_fuzz::gen::generate(FUZZ_SEED, case));
        case += 1;
        if engine.prepare_with_options(&sql, release_options()).is_ok() {
            out.push(sql);
        }
    }
    out
}

/// The boxes the duplicates lint flags, re-derived the way it used to
/// be: each `Preserve` claim checked on a copy of the graph with that
/// one box set to `Permit`.
fn unprovable_claims_by_probe(g: &Qgm, catalog: &Catalog) -> Vec<starmagic::qgm::BoxId> {
    g.box_ids()
        .into_iter()
        .filter(|&b| g.boxed(b).distinct == DistinctMode::Preserve)
        .filter(|&b| {
            let mut probe = g.clone();
            probe.boxed_mut(b).distinct = DistinctMode::Permit;
            !keys::is_dup_free(&probe, catalog, b)
        })
        .collect()
}

#[test]
fn per_graph_facts_match_fresh_derivations() {
    let engine = starmagic_bench::fuzz_engine().unwrap();
    let catalog = engine.catalog();
    let (mut graphs, mut cyclic, mut claims) = (0, 0, 0);
    for sql in corpus(&engine) {
        let o = engine
            .optimize_with_options(&sql, release_options())
            .unwrap();
        for (stage, g) in [
            ("initial", &o.initial),
            ("phase 1", &o.phase1),
            ("phase 2", &o.phase2),
            ("phase 3", &o.phase3),
        ] {
            let at = || format!("{stage} graph of {sql}");
            graphs += 1;
            cyclic += usize::from(strata::is_recursive(g));

            // Keys: one table asked bottom-up, one top-down.
            let ids = g.box_ids();
            let (up, down) = (KeyTable::new(g, catalog), KeyTable::new(g, catalog));
            for &b in ids.iter().rev() {
                down.keys(b);
            }
            for &b in &ids {
                let fresh = keys::output_keys(g, catalog, b);
                assert_eq!(up.keys(b), fresh.as_slice(), "keys of {b}, {}", at());
                assert_eq!(down.keys(b), fresh.as_slice(), "keys of {b}, {}", at());
            }

            // Strata and SCCs from one pure pass.
            let computed = strata::compute(g);
            let mut copy = g.clone();
            assert_eq!(computed.strata, strata::assign(&mut copy), "{}", at());
            assert_eq!(computed.sccs, strata::sccs(g), "{}", at());

            // The duplicates lint without its per-claim graph copies.
            claims += ids
                .iter()
                .filter(|&&b| g.boxed(b).distinct == DistinctMode::Preserve)
                .count();
            let mut report = LintReport::default();
            passes::duplicates::run(g, catalog, &mut report);
            let flagged: Vec<_> = report
                .diagnostics
                .iter()
                .map(|d| d.box_id.expect("anchored at the claiming box"))
                .collect();
            assert_eq!(flagged, unprovable_claims_by_probe(g, catalog), "{}", at());
        }
    }
    assert_eq!(graphs, 4 * (suite().len() + FUZZ_QUERIES));
    assert!(
        cyclic > 0,
        "the closures must put cyclic graphs in the corpus"
    );
    assert!(
        claims > 0,
        "the corpus must make Preserve claims to re-prove"
    );
}

/// The exact counts the benchmark's traced run reports for the corpus
/// (`rewrite.noop_offers`, `rewrite.phase1_fires`,
/// `rewrite.phase3_fires`, `core.emst_fires`).
#[test]
fn corpus_rewrite_counts_match_the_benchmark() {
    let engine = starmagic_bench::fuzz_engine().unwrap();
    let noop = |s: &RewriteStats| s.no_op_offers.values().sum::<usize>();
    let (mut noop_offers, mut phase1, mut phase3, mut emst) = (0, 0, 0, 0);
    for sql in corpus(&engine) {
        let [s1, s2, s3] = engine
            .optimize_with_options(&sql, release_options())
            .unwrap()
            .stats;
        noop_offers += noop(&s1) + noop(&s3);
        phase1 += s1.total_fires();
        phase3 += s3.total_fires();
        emst += s2.count("emst");
    }
    assert_eq!((noop_offers, phase1, phase3, emst), (36_877, 396, 187, 278));
}

/// Every fresh plan of the suite is lint- and analysis-clean, on a
/// prepare and on a plan-cache miss alike.
#[test]
fn suite_plans_count_no_check_errors() {
    let mut engine = starmagic_bench::fuzz_engine().unwrap();
    engine.set_metrics(MetricsRegistry::enabled());
    let strategies = [Strategy::CostBased, Strategy::Original, Strategy::Magic];
    for sql in suite() {
        for strategy in strategies {
            engine.prepare(&sql, strategy).unwrap();
            engine.prepare_cached(&sql, strategy).unwrap();
        }
    }
    let snapshot = engine.metrics_registry().snapshot();
    for token in ["cost", "original", "magic"] {
        assert!(snapshot.counter(&format!("cache.miss.{token}")) > 0);
    }
    assert_eq!(snapshot.counter("engine.plan_check_errors"), 0);
}
