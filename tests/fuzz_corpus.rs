//! Corpus replay: every `.sql` file under `tests/corpus/` runs under
//! all three strategies and must bag-agree.
//!
//! The corpus holds minimized repros from `starmagic-fuzz` plus
//! hand-written 3VL/set-op edge cases; each file's `--` header says
//! which divergence it once reproduced. A file that stops agreeing is
//! a regression in whichever strategy drifted. Attached to the fuzz
//! crate so it reuses the fuzzer's engine setup and oracle.

use starmagic_fuzz::fuzz_engine;
use starmagic_fuzz::oracle::{Oracle, Outcome};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_seeded() {
    assert!(
        corpus_files().len() >= 6,
        "tests/corpus should hold at least the six seeded repros"
    );
}

#[test]
fn corpus_replays_clean() {
    let engine = fuzz_engine().expect("fuzz engine builds");
    let oracle = Oracle::new(&engine);
    for path in corpus_files() {
        let sql = std::fs::read_to_string(&path).expect("readable corpus file");
        match oracle.check(&sql) {
            Outcome::Agree { .. } => {}
            Outcome::Rejected { reason } => {
                panic!("{}: engine rejects corpus entry: {reason}", path.display())
            }
            Outcome::Diverged(d) => panic!(
                "{}: {} vs {} diverged — {}",
                path.display(),
                d.left,
                d.right,
                d.detail
            ),
        }
    }
}
