//! The golden regression corpus.
//!
//! A committed snapshot of the simulator's observable behaviour across
//! the full benchmark × layout × policy grid at a fixed (small) scale:
//! cycles, CPI, the aggregate event counters and the eight-way
//! critical-path breakdown of every cell, plus one rendered schedule
//! window. Snapshot tests compare freshly computed values against the
//! committed files and fail with a readable first-difference report, so
//! any change to simulator timing — intended or not — shows up in review
//! as a diff of `results/golden/`.
//!
//! Every golden cell runs in *checked* mode, so regenerating or
//! verifying the corpus also audits ~340 schedules against the
//! structural invariant checker.
//!
//! Regenerate after an intended behaviour change with:
//!
//! ```text
//! cargo run --release -p ccs-verify --bin regen_golden
//! ```

use ccs_core::{CellResult, GridRequest, RunOptions};
use ccs_critpath::CostCategory;
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_trace::Benchmark;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Dynamic instructions per golden trace. Small enough that verifying
/// the whole corpus stays inside the CI budget on one core, large
/// enough that every pipeline mechanism (mispredicts, cache misses,
/// steering stalls, window pressure) is exercised in every cell.
pub const GOLDEN_LEN: usize = 2_000;
/// Workload generation seed of the corpus.
pub const GOLDEN_SEED: u64 = 1;
/// Training + measurement epochs per cell.
pub const GOLDEN_EPOCHS: u32 = 2;

/// The steering policies covered by the corpus: the five-rung ladder
/// plus the two dynamic policies of the adaptive tier.
pub const GOLDEN_POLICIES: [ccs_core::PolicyKind; 7] = crate::campaign::ALL_POLICIES;

/// The committed location of the corpus: `results/golden/` at the
/// repository root.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// The evaluation options every golden cell uses.
pub fn golden_options() -> RunOptions {
    RunOptions::default()
        .with_epochs(GOLDEN_EPOCHS)
        .with_checked(true)
}

/// Computes the whole corpus: one `(file name, contents)` pair per
/// benchmark plus the rendered-schedule snapshot. Deterministic and
/// thread-count invariant; `threads` only changes wall-clock time.
///
/// # Panics
///
/// Panics if any cell fails to simulate (a checked-mode invariant
/// violation or a cycle-limit deadlock — both fatal for the corpus).
pub fn corpus_files(threads: usize) -> Vec<(String, String)> {
    render_corpus(&corpus_cells(threads))
}

/// Evaluates every golden cell, benchmark-major in [`Benchmark::ALL`]
/// order, as [`corpus_files`] renders them.
pub fn corpus_cells(threads: usize) -> Vec<CellResult> {
    GridRequest::new(MachineConfig::micro05_baseline(), GOLDEN_LEN)
        .benchmarks(Benchmark::ALL)
        .layouts(ClusterLayout::ALL)
        .policies(GOLDEN_POLICIES)
        .sample_seeds([GOLDEN_SEED])
        .options(golden_options())
        .run(threads)
}

/// Renders [`corpus_cells`]' results as the corpus files.
///
/// # Panics
///
/// Panics if any cell failed.
pub fn render_corpus(results: &[CellResult]) -> Vec<(String, String)> {
    let per_bench = ClusterLayout::ALL.len() * GOLDEN_POLICIES.len();
    let mut files = Vec::new();
    for (bench, cells) in Benchmark::ALL.iter().zip(results.chunks(per_bench)) {
        let mut out = String::new();
        let _ = writeln!(out, "# golden snapshot: {}", bench.name());
        let _ = writeln!(
            out,
            "# micro05 baseline machine; seed {GOLDEN_SEED}, {GOLDEN_LEN} instructions, \
             {GOLDEN_EPOCHS} epochs, checked mode"
        );
        let _ = writeln!(
            out,
            "# layout policy cycles cpi mispredicts cond_branches l1_misses l1_accesses \
             global_values steer_stalls | fwd contention execute window fetch memlat \
             brmispredict commit | schedule_digest cpi_bits"
        );
        for cell in cells {
            let o = cell.expect_outcome();
            let r = &o.result;
            let _ = write!(
                out,
                "{} {} {} {:.6} {} {} {} {} {} {} |",
                cell.spec.config.layout,
                cell.spec.policy.name(),
                r.cycles,
                r.cpi(),
                r.mispredicts,
                r.conditional_branches,
                r.l1_misses,
                r.l1_accesses,
                r.global_values,
                r.steer_stall_cycles,
            );
            for cat in CostCategory::ALL {
                let _ = write!(out, " {}", o.analysis.breakdown.get(cat));
            }
            let _ = write!(
                out,
                " | {:016x} {:016x}",
                schedule_digest(&r.records),
                r.cpi().to_bits()
            );
            out.push('\n');
        }
        files.push((format!("{}.txt", bench.name()), out));
    }
    files.push(("viz_schedule.txt".to_string(), viz_snapshot()));
    files
}

/// FNV-1a digest over the `Debug` rendering of every instruction
/// record, concatenated. [`ccs_sim::digest::records_digest`] emits that
/// byte stream directly, without formatting; the golden snapshot test
/// checks it against the formatted rendering on every corpus cell. The
/// six-decimal CPI and aggregate counters in the snapshot
/// line can stay unchanged while an individual instruction's schedule
/// (stage cycles, cluster assignment, bound attribution, memory
/// latency) silently shifts; the digest folds **every field of every
/// record** into one value, so any per-record drift fails the corpus
/// comparison even when the aggregates happen to agree.
pub fn schedule_digest(records: &[ccs_sim::InstRecord]) -> u64 {
    ccs_sim::digest::records_digest(records)
}

/// The rendered-schedule snapshot: a fixed window of a small
/// deterministic run, pinning the exact output format of
/// [`ccs_sim::viz::render_schedule`].
pub fn viz_snapshot() -> String {
    let trace = Benchmark::Gap.generate(1, 120);
    let config = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
    let result = ccs_sim::simulate(&config, &trace, &mut ccs_sim::policies::LeastLoaded)
        .expect("viz snapshot run cannot deadlock");
    let mut header = format!(
        "# golden snapshot: render_schedule, gap seed 1 len 120, C4x2w, least-loaded\n\
         # cycles {}\n",
        result.cycles
    );
    header.push_str(&ccs_sim::viz::render_schedule(&result, 0, 60, |i| {
        format!("{}", i.raw())
    }));
    header
}

/// Compares a computed snapshot against a committed one and reports the
/// first few differing lines (empty = identical).
pub fn diff_lines(name: &str, committed: &str, computed: &str) -> Vec<String> {
    let mut out = Vec::new();
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = computed.lines().collect();
    for i in 0..a.len().max(b.len()) {
        if a.get(i) != b.get(i) {
            out.push(format!(
                "{name}:{}: committed {:?} vs computed {:?}",
                i + 1,
                a.get(i).copied().unwrap_or("<missing>"),
                b.get(i).copied().unwrap_or("<missing>"),
            ));
            if out.len() >= 5 {
                out.push(format!("{name}: ... further differences suppressed"));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn viz_snapshot_is_deterministic_and_shaped() {
        let a = viz_snapshot();
        assert_eq!(a, viz_snapshot());
        assert!(a.contains("cl0"));
        assert!(a.contains("cl3"));
        assert!(a.lines().count() > 10);
    }

    #[test]
    fn schedule_digest_sees_single_field_drift() {
        let trace = Benchmark::Gap.generate(1, 200);
        let config = MachineConfig::micro05_baseline();
        let result = ccs_sim::simulate(&config, &trace, &mut ccs_sim::policies::LeastLoaded)
            .expect("digest run cannot deadlock");
        let base = schedule_digest(&result.records);
        assert_eq!(base, schedule_digest(&result.records), "digest is pure");
        let mut drifted = result.records.clone();
        drifted[137].issue += 1;
        assert_ne!(
            base,
            schedule_digest(&drifted),
            "a one-cycle shift in one record must change the digest"
        );
    }

    #[test]
    fn diff_lines_reports_first_divergence() {
        assert!(diff_lines("x", "a\nb\n", "a\nb\n").is_empty());
        let d = diff_lines("x", "a\nb\n", "a\nc\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("x:2"), "{d:?}");
        let d = diff_lines("x", "a\n", "a\nb\n");
        assert!(d[0].contains("<missing>"), "{d:?}");
    }
}
