//! `cargo test` runs the `--check` smoke mode: every workload at small
//! scale, twice with one seed and once with another.

#[test]
fn check_mode_passes() {
    match starmagic_benchmark::check::check() {
        Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
        Err(problem) => panic!("{problem}"),
    }
}
