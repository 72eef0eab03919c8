//! The checkpoint digest without formatting.
//!
//! `CheckpointRecord::digest` is defined as FNV-1a over the result's
//! `derive(Debug)` rendering; `ccs_sim::digest` emits that byte stream
//! directly. These cells run under both likelihood-of-criticality modes,
//! so `loc` takes the 16 quantized levels in one and arbitrary exact
//! ratios in the other, and each record's digest must equal the
//! formatted rendering's. The golden snapshot test makes the same check
//! on every corpus cell, and `ccs_sim::digest`'s unit tests cover every
//! enum variant and the integer and float extremes.

use ccs_core::checkpoint::CheckpointRecord;
use ccs_core::{GridRequest, RunOptions};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_trace::{fnv1a, Benchmark};
use ccs_verify::campaign::ALL_POLICIES;
use std::collections::HashSet;

#[test]
fn checkpoint_digest_equals_the_debug_rendering_under_both_loc_modes() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    for (mode, options) in [
        ("quantized16", RunOptions::default()),
        ("exact", RunOptions::default().exact_loc()),
    ] {
        let cells = GridRequest::new(MachineConfig::micro05_baseline(), 1_500)
            .benchmarks([Benchmark::Gcc, Benchmark::Mcf, Benchmark::Twolf])
            .layouts([ClusterLayout::C2x4w, ClusterLayout::C8x1w])
            .policies(ALL_POLICIES)
            .sample_seeds([3])
            .options(options)
            .run(threads);
        let mut locs = HashSet::new();
        for cell in &cells {
            let result = &cell.expect_outcome().result;
            locs.extend(result.records.iter().map(|r| r.loc.to_bits()));
            assert_eq!(
                CheckpointRecord::from_result(cell).digest,
                fnv1a(format!("{result:?}").as_bytes()),
                "{mode}: {:?}",
                cell.spec
            );
        }
        // Non-vacuous: the exact mode really renders values off the
        // quantized grid (0.0 plus 16 levels).
        if mode == "exact" {
            assert!(
                locs.len() > 17,
                "exact LoC produced only {} values",
                locs.len()
            );
        } else {
            assert!(
                locs.len() > 2,
                "quantized LoC produced only {} values",
                locs.len()
            );
        }
    }
}
