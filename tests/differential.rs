//! The differential verification campaign: the production engine versus
//! the naive reference oracle (`ccs_verify::reference_simulate`) across
//! random traces, workload-model traces, every cluster layout, the full
//! policy ladder, and varied forwarding latency/bandwidth.
//!
//! The case budget defaults to 200 and is tunable via `CCS_DIFF_CASES`
//! (CI sets it explicitly; see `ci.sh`). Cases are deterministic by id,
//! so a reported failure reproduces exactly.

use ccs_core::parallel_map;
use ccs_isa::ClusterLayout;
use ccs_verify::campaign::ALL_POLICIES;
use ccs_verify::{run_case, standard_campaign, CaseOutcome, DiffCase, TraceSource};

fn case_budget() -> usize {
    std::env::var("CCS_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

#[test]
fn engine_agrees_with_reference_oracle() {
    // At least 20 cases guarantees full layout × policy coverage.
    let cases = standard_campaign(case_budget().max(20));
    for layout in ClusterLayout::ALL {
        for policy in ALL_POLICIES {
            assert!(
                cases.iter().any(|c| c.layout == layout && c.policy == policy),
                "campaign must cover {layout} × {}",
                policy.name()
            );
        }
    }

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let outcomes = parallel_map(&cases, threads, run_case);
    let mut failures: Vec<String> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(CaseOutcome::Agreed) => {}
            Ok(CaseOutcome::Diverged(lines)) => failures.push(lines.join("\n  ")),
            Err(infra) => failures.push(infra),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} differential cases diverged:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

/// Long-trace differential cases: 100 000 instructions wrap the wakeup
/// wheel (horizon 512) hundreds of times, fill the parked-producer
/// lists at realistic window occupancy, and stress the broadcast
/// backlog — regimes the short campaign traces never reach. Bounded to
/// two hand-picked cases (one workload trace, one random trace with
/// bandwidth-1 broadcast) so the CI cost stays in seconds;
/// `CCS_DIFF_LONG=0` skips loudly.
#[test]
fn long_trace_cases_agree_end_to_end() {
    if std::env::var("CCS_DIFF_LONG").is_ok_and(|v| v == "0") {
        eprintln!("SKIPPED: long-trace differential cases disabled by CCS_DIFF_LONG=0");
        return;
    }
    let cases = [
        DiffCase {
            id: 100_000,
            layout: ClusterLayout::C4x2w,
            policy: ccs_core::PolicyKind::Focused,
            source: TraceSource::Bench {
                bench: ccs_trace::Benchmark::Gcc,
                seed: 1,
                len: 100_000,
            },
            forward_latency: 2,
            forward_bandwidth: None,
            epochs: 2,
        },
        DiffCase {
            id: 100_001,
            layout: ClusterLayout::C8x1w,
            policy: ccs_core::PolicyKind::Proactive,
            source: TraceSource::Random {
                seed: 0x00D1_FF10_0000,
                len: 100_000,
            },
            forward_latency: 1,
            forward_bandwidth: Some(1),
            epochs: 1,
        },
    ];
    for case in &cases {
        match run_case(case).unwrap() {
            CaseOutcome::Agreed => {}
            CaseOutcome::Diverged(lines) => panic!("{}", lines.join("\n  ")),
        }
    }
}

/// The adaptive switcher under the oracle, at the grid's 20 000
/// instructions on every benchmark and clustered layout. The switcher
/// re-scores its rung from the share of commits whose readiness was
/// bound by a forwarded operand, read from each record's `ready_bound`.
/// The oracle therefore has to reconstruct that attribution from its own
/// timing; with a blank one it sees a share of 0, switches differently,
/// and 16 of these 36 cells diverge.
#[test]
fn adaptive_cells_agree_at_grid_scale() {
    let layouts = [ClusterLayout::C2x4w, ClusterLayout::C4x2w, ClusterLayout::C8x1w];
    let cases: Vec<(ccs_trace::Benchmark, ClusterLayout)> = ccs_trace::Benchmark::ALL
        .into_iter()
        .flat_map(|b| layouts.map(|l| (b, l)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let outcomes = parallel_map(&cases, threads, |&(bench, layout)| {
        let trace = bench.generate(1, 20_000);
        let config = ccs_isa::MachineConfig::micro05_baseline().with_layout(layout);
        let describe = format!("{} {layout} adaptive", bench.name());
        ccs_verify::run_trace_case(&trace, &config, ccs_core::PolicyKind::Adaptive, 2, &describe)
    });
    let failures: Vec<String> = outcomes
        .into_iter()
        .filter_map(|o| match o {
            Ok(CaseOutcome::Agreed) => None,
            Ok(CaseOutcome::Diverged(lines)) => Some(lines.join("\n  ")),
            Err(infra) => Some(infra),
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} adaptive cells diverged:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}
