//! Golden regression corpus snapshot tests.
//!
//! Recomputes the full benchmark × layout × policy golden grid (every
//! cell in checked mode — so this test also proves the invariant checker
//! finds zero violations across the whole grid) and compares it line by
//! line against the committed corpus under `results/golden/`.
//!
//! The same cells also pin the formatting-free digest kernels: every
//! cell's checkpoint digest and schedule digest must equal FNV-1a over
//! its `Debug` rendering, the definition they reproduce.
//!
//! On an *intended* behaviour change, regenerate with
//! `cargo run --release -p ccs-verify --bin regen_golden` and commit the
//! resulting diff alongside the change.

use ccs_trace::{fnv1a, fnv1a_extend, FNV_OFFSET};
use ccs_verify::golden::{corpus_cells, diff_lines, golden_dir, render_corpus, schedule_digest};
use std::fmt::Write as _;

#[test]
fn golden_corpus_matches_committed_snapshots() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let dir = golden_dir();
    let mut problems: Vec<String> = Vec::new();
    let cells = corpus_cells(threads);
    for cell in &cells {
        let result = &cell.expect_outcome().result;
        assert_eq!(
            ccs_sim::digest::result_digest(result),
            fnv1a(format!("{result:?}").as_bytes()),
            "{:?}: result digest differs from its Debug rendering's",
            cell.spec
        );
        // The corpus's original definition: each record's `Debug`
        // rendering hashed in turn.
        let mut h = FNV_OFFSET;
        let mut buf = String::new();
        for r in &result.records {
            buf.clear();
            let _ = write!(buf, "{r:?}");
            h = fnv1a_extend(h, buf.as_bytes());
        }
        assert_eq!(
            schedule_digest(&result.records),
            h,
            "{:?}: schedule digest differs from its Debug rendering's",
            cell.spec
        );
    }
    let files = render_corpus(&cells);
    assert!(!files.is_empty());
    for (name, computed) in &files {
        let path = dir.join(name);
        match std::fs::read_to_string(&path) {
            Ok(committed) => problems.extend(diff_lines(name, &committed, computed)),
            Err(_) => problems.push(format!(
                "{name}: missing under {} — run `cargo run --release -p ccs-verify --bin \
                 regen_golden` and commit results/golden/",
                dir.display()
            )),
        }
    }
    assert!(
        problems.is_empty(),
        "golden corpus drift ({} problems):\n{}\n\
         If this change is intended, regenerate the corpus with\n\
         `cargo run --release -p ccs-verify --bin regen_golden` and commit the diff.",
        problems.len(),
        problems.join("\n")
    );
}
