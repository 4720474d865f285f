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

            // The analysis's constant columns are key inference's.
            for (b, f) in starmagic::analysis::analyze(g, catalog).facts.iter() {
                assert_eq!(
                    &f.const_cols,
                    up.const_outputs(b),
                    "constants of {b}, {}",
                    at()
                );
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
            passes::duplicates::run(g, &KeyTable::new(g, catalog), &mut report);
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

/// FNV-1a, 64-bit: a digest that is the same on every platform and
/// build profile.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for &byte in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A column set as `{0,1}`.
fn set_text<T: std::fmt::Display>(cols: impl IntoIterator<Item = T>) -> String {
    let cols: Vec<String> = cols.into_iter().map(|c| format!("{c}")).collect();
    format!("{{{}}}", cols.join(","))
}

/// Every box's `output_keys`, in order, one line per box.
fn keys_text(g: &Qgm, catalog: &Catalog) -> String {
    let mut out = String::new();
    for b in g.box_ids() {
        out.push_str(&format!("{b}:"));
        for key in keys::output_keys(g, catalog, b) {
            out.push(' ');
            out.push_str(&set_text(&key));
        }
        out.push('\n');
    }
    out
}

/// What one graph's checks say about it: its printout, every box's
/// keys, the lint report and the rendered analysis.
fn graph_text(g: &Qgm, catalog: &Catalog) -> String {
    format!(
        "{}{}{}\n{}",
        starmagic::qgm::printer::print_graph(g),
        keys_text(g, catalog),
        starmagic::lint::lint(g, catalog),
        starmagic::analysis::analyze(g, catalog).render(g)
    )
}

/// The pipeline options of each strategy, as a release build runs them.
fn strategies() -> [(&'static str, PipelineOptions); 3] {
    let base = release_options();
    [
        ("cost", base),
        (
            "magic",
            PipelineOptions {
                force_magic: true,
                ..base
            },
        ),
        (
            "original",
            PipelineOptions {
                enable_magic: false,
                ..base
            },
        ),
    ]
}

/// Every fact a miss derives over the corpus, as text: a change to how
/// keys, strata or the analysis are represented must not move one byte
/// of it.
#[test]
fn corpus_facts_digest_is_pinned() {
    let engine = starmagic_bench::fuzz_engine().unwrap();
    let catalog = engine.catalog();
    let mut digest = Fnv::new();
    for sql in corpus(&engine) {
        for (name, opts) in strategies() {
            let o = engine.optimize_with_options(&sql, opts).unwrap();
            digest.add(&format!("{name}: {sql}"));
            for g in [&o.initial, &o.phase1, &o.phase2, &o.phase3] {
                digest.add(&graph_text(g, catalog));
            }
            digest.add(&o.lint.to_string());
            digest.add(&o.analysis.render(o.chosen()));
            digest.add(&format!(
                "{:x} {:x} {}",
                o.cost_without_magic.to_bits(),
                o.cost_with_magic.to_bits(),
                o.chose_magic
            ));
        }
    }
    assert_eq!(format!("{:016x}", digest.0), "07e235acfc0da5b5");
}

/// Tables `w70` and `w130` of 70 and 130 INT columns `c0, c1, ...`,
/// keyed on their last column, three rows each, and over each a view
/// `g70`/`g130` grouping the table on that key.
fn wide_engine() -> Engine {
    let mut engine = Engine::new(Catalog::new());
    for n in [70, 130] {
        let last = n - 1;
        let cols: Vec<String> = (0..n).map(|i| format!("c{i} INT")).collect();
        engine
            .run_sql(&format!(
                "CREATE TABLE w{n} ({}, PRIMARY KEY (c{last}))",
                cols.join(", ")
            ))
            .unwrap();
        for row in 0..3 {
            let values: Vec<String> = (0..n)
                .map(|i| if i == last { row } else { i % 4 }.to_string())
                .collect();
            engine
                .run_sql(&format!("INSERT INTO w{n} VALUES ({})", values.join(", ")))
                .unwrap();
        }
        engine
            .run_sql(&format!(
                "CREATE VIEW g{n} (k, cnt) AS SELECT c{last}, COUNT(*) FROM w{n} GROUP BY c{last}"
            ))
            .unwrap();
    }
    engine
}

/// The keys, constant columns and restricted columns of box `b`, as
/// `keys {..} const {..} restricted {..}`.
fn box_sets(g: &Qgm, catalog: &Catalog, b: starmagic::qgm::BoxId) -> String {
    let analysis = starmagic::analysis::analyze(g, catalog);
    let f = analysis.facts_for(b).expect("a reachable box");
    let keys: Vec<String> = keys::output_keys(g, catalog, b)
        .iter()
        .map(set_text)
        .collect();
    format!(
        "keys {} const {} restricted {}",
        keys.join(" "),
        set_text(&f.const_cols),
        set_text(&f.restricted)
    )
}

/// Boxes wider than one machine word of columns, and wider than two:
/// a select, a DISTINCT, a GROUP BY and a magic join over each carry
/// their keys, constant and restricted columns past the word boundary,
/// and every check reads them as it did before column sets became
/// bitsets (the digest was recorded then).
#[test]
fn boxes_wider_than_a_word_keep_their_facts() {
    let engine = wide_engine();
    let catalog = engine.catalog();
    let mut digest = Fnv::new();
    for n in [70usize, 130] {
        let (last, pinned) = (n - 1, n - 2);
        let queries = [
            format!("SELECT * FROM w{n} WHERE c{pinned} = 7"),
            format!("SELECT DISTINCT c0, c{last} FROM w{n}"),
            format!("SELECT DISTINCT * FROM w{n} WHERE c{pinned} = 7"),
            format!("SELECT c{last}, COUNT(*) FROM w{n} GROUP BY c{last}"),
            format!("SELECT t.c0, v.cnt FROM w{n} t, g{n} v WHERE t.c{last} = v.k AND t.c0 = 1"),
        ];
        for sql in &queries {
            for (name, opts) in strategies() {
                let o = engine.optimize_with_options(sql, opts).unwrap();
                for g in [&o.initial, &o.phase1, &o.phase2, &o.phase3] {
                    let text = graph_text(g, catalog);
                    for code in ["L030", "L201", "L202"] {
                        assert!(!text.contains(code), "{code} on {name}: {sql}\n{text}");
                    }
                    digest.add(&text);
                }
                digest.add(&o.analysis.render(o.chosen()));
            }
        }
        // The top box of the select: every column, keyed on the last,
        // the pinned one constant.
        let o = engine
            .optimize_with_options(&queries[0], release_options())
            .unwrap();
        let g = o.chosen();
        assert_eq!(
            box_sets(g, catalog, g.top()),
            format!("keys {{{last}}} const {{{pinned}}} restricted {{}}")
        );
        // The adorned copy of the view's select in the magic plan's
        // phase-2 graph: every column, bound (restricted) on the key.
        let (_, magic) = strategies()[1];
        let o = engine.optimize_with_options(&queries[4], magic).unwrap();
        let g = &o.phase2;
        let adorned = g
            .box_ids()
            .into_iter()
            .find(|&b| g.boxed(b).name.starts_with(&format!("G{n}_T1")))
            .expect("EMST adorns the view's select");
        assert_eq!(
            box_sets(g, catalog, adorned),
            format!("keys {{{last}}} const {{}} restricted {{{last}}}")
        );
    }
    assert_eq!(format!("{:016x}", digest.0), "49796e9c238b0c95");
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
    assert_eq!((noop_offers, phase1, phase3, emst), (37_122, 396, 192, 278));
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
