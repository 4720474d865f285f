//! Concurrency determinism over the wire: the corpus replayed from 8
//! concurrent server sessions, under all three strategies, must return
//! bags byte-identical to in-process single-shot execution.
//!
//! "Byte-identical" is literal: rows travel as protocol tokens whose
//! doubles are IEEE-754 bit patterns, and the comparison is on those
//! encoded strings. Attached to the fuzz crate for the shared fuzz
//! database; the server hosts its own copy of the same deterministic
//! catalog, so any disagreement is a server/cache/concurrency bug,
//! not data drift.

use std::collections::HashMap;
use std::sync::Arc;

use starmagic::Strategy;
use starmagic_fuzz::fuzz_engine;
use starmagic_server::protocol::{encode_row, Response};
use starmagic_server::{serve_engine, Client, ServerConfig};

const SESSIONS: usize = 8;
const STRATEGIES: [(&str, Strategy); 3] = [
    ("original", Strategy::Original),
    ("cost", Strategy::CostBased),
    ("magic", Strategy::Magic),
];

fn corpus_queries() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable corpus file"))
        .collect()
}

/// A run's observable outcome: the sorted bag of encoded row tokens,
/// or the error's display string.
type Bag = Result<Vec<String>, String>;

fn encoded_bag(rows: &[starmagic_common::Row]) -> Vec<String> {
    let mut bag: Vec<String> = rows.iter().map(encode_row).collect();
    bag.sort_unstable();
    bag
}

#[test]
fn concurrent_sessions_match_in_process_bags() {
    let suite = corpus_queries();
    assert!(!suite.is_empty(), "corpus must not be empty");

    // In-process single-shot baseline (fresh engine).
    let engine = fuzz_engine().expect("fuzz engine builds");
    let mut expected: HashMap<(usize, &str), Bag> = HashMap::new();
    for (i, sql) in suite.iter().enumerate() {
        for (name, strategy) in STRATEGIES {
            let bag = engine
                .query_with(sql, strategy)
                .map(|r| encoded_bag(&r.rows))
                .map_err(|e| e.to_string());
            expected.insert((i, name), bag);
        }
    }

    // A gate narrower than the session count, so admission (and the
    // clients' BUSY retries) is exercised under the same determinism
    // check: backpressure must never change a result bag.
    let handle = serve_engine(
        fuzz_engine().expect("fuzz engine builds"),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: SESSIONS / 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = handle.addr();

    let suite = Arc::new(suite);
    let expected = Arc::new(expected);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|w| {
            let suite = Arc::clone(&suite);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                // Each session pins one strategy (round-robin over the
                // workers, so all three run concurrently against the
                // shared cache) and replays the corpus.
                let (name, _) = STRATEGIES[w % STRATEGIES.len()];
                let mut client = Client::connect(addr).expect("connect");
                client.set_strategy(name).expect("SET STRATEGY");
                // Worker-specific rotation so the sessions hit the
                // shared cache in different orders.
                for k in 0..suite.len() {
                    let i = (k + w) % suite.len();
                    let got: Bag = match client.query_admitted(&suite[i]) {
                        Ok(Response::Rows { rows, .. }) => Ok(encoded_bag(&rows)),
                        Ok(other) => Err(format!("unexpected frame {other:?}")),
                        Err(e) => Err(e.to_string()),
                    };
                    assert_eq!(
                        &got,
                        &expected[&(i, name)],
                        "worker {w}: corpus query {i} under {name} \
                         diverged from in-process execution"
                    );
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker panicked");
    }
    handle.shutdown();
}
