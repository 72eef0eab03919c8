//! The cell configurations the workloads sweep, and a traced replay of
//! one cell's evaluation through the layers' public calls.

use crate::spans::Tracer;
use ccs_core::checkpoint::CheckpointRecord;
use ccs_core::{
    fetch_cell_trace, CellOutcome, CellPolicy, CellResult, CellSpec, CellStatus, PolicyKind,
    PredictorBank, RunOptions, TrainingSource,
};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_scenario::Scenario;
use ccs_serve::{WireCellSpec, WIRE_POLICIES};
use ccs_trace::{Benchmark, SourceId, TraceStore};
use std::sync::Arc;

/// The clustered layouts every workload sweeps.
pub const LAYOUTS: [ClusterLayout; 3] = [
    ClusterLayout::C2x4w,
    ClusterLayout::C4x2w,
    ClusterLayout::C8x1w,
];

/// Gallery scenarios mixed into the served workload beside the 12
/// benchmarks.
pub const GALLERY_EXTRAS: [&str; 4] = ["phase_shift", "smt_roundrobin", "smt_block", "ilp_ladder"];

/// A workload model: a named benchmark or a registered scenario.
#[derive(Clone)]
pub enum Workload {
    /// One of the 12 benchmark models.
    Bench(Benchmark),
    /// A gallery scenario, registered in this process.
    Scenario(Arc<Scenario>, SourceId),
}

impl Workload {
    /// The 12 benchmarks.
    pub fn benchmarks() -> Vec<Workload> {
        Benchmark::ALL.iter().map(|&b| Workload::Bench(b)).collect()
    }

    /// The gallery scenarios named in [`GALLERY_EXTRAS`], registered.
    pub fn gallery_extras() -> Vec<Workload> {
        GALLERY_EXTRAS
            .iter()
            .map(|name| {
                let entry = ccs_scenario::gallery::GALLERY
                    .iter()
                    .find(|e| e.name == *name)
                    .expect("gallery extra is committed");
                let (scenario, id) = ccs_scenario::register_manifest(entry.text)
                    .expect("committed gallery manifests parse");
                Workload::Scenario(Arc::new(scenario), id)
            })
            .collect()
    }
}

/// One point of a sweep, without its sample seed.
#[derive(Clone)]
pub struct Config {
    /// The workload model.
    pub workload: Workload,
    /// The cluster layout.
    pub layout: ClusterLayout,
    /// The steering/scheduling policy.
    pub policy: PolicyKind,
}

impl Config {
    /// Every `workload × LAYOUTS × all 7 policies`, workloads outermost.
    pub fn sweep(workloads: &[Workload]) -> Vec<Config> {
        let mut out = Vec::new();
        for w in workloads {
            for &layout in &LAYOUTS {
                for &policy in &WIRE_POLICIES {
                    out.push(Config {
                        workload: w.clone(),
                        layout,
                        policy,
                    });
                }
            }
        }
        out
    }

    /// The in-process cell at `seed` and `len`, default run options.
    pub fn spec(&self, seed: u64, len: usize) -> CellSpec {
        let machine = MachineConfig::micro05_baseline().with_layout(self.layout);
        let options = RunOptions::default();
        match &self.workload {
            Workload::Bench(b) => CellSpec::new(machine, *b, seed, len, self.policy, options),
            Workload::Scenario(_, id) => {
                CellSpec::for_scenario(machine, *id, seed, len, self.policy, options)
            }
        }
    }

    /// The same cell in the wire vocabulary.
    pub fn wire(&self, seed: u64, len: usize) -> WireCellSpec {
        match &self.workload {
            Workload::Bench(b) => WireCellSpec::new(*b, seed, len, self.layout, self.policy),
            Workload::Scenario(s, _) => {
                WireCellSpec::for_scenario(s, seed, len, self.layout, self.policy)
            }
        }
    }
}

/// A 64-bit mix of the workload seed with a round index, so each round
/// runs its own sample seeds.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xC0FF_EE00);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// Whether `store` already holds the trace `spec` simulates.
fn store_holds(store: &TraceStore, spec: &CellSpec) -> bool {
    match spec.scenario {
        Some(id) => store.contains_custom(id.raw(), spec.sample_seed, spec.len),
        None => store.contains(spec.benchmark, spec.sample_seed, spec.len),
    }
}

/// Evaluates `spec` as `ccs_core::grid::evaluate_cell` does (fetch the
/// trace, then per epoch: simulate, analyze the critical path, train
/// the predictor bank), calling each layer's public function under a
/// span named after it, and adds the simulated cycles of every epoch to
/// `sim_cycles`. Only default run options are replayed: exact
/// critical-path training, no checked mode, no metrics, no budget.
pub fn traced_cell(
    t: &mut Tracer,
    cell: u64,
    spec: &CellSpec,
    store: &TraceStore,
    sim_cycles: &mut u64,
) -> Result<CellOutcome, String> {
    let o = &spec.options;
    if o.training != TrainingSource::ExactGraph
        || o.checked
        || o.metrics
        || o.cycle_budget.is_some()
    {
        return Err("traced replay covers default run options only".into());
    }
    t.span("cell", cell, |t| {
        let trace = if store_holds(store, spec) {
            t.span("trace.fetch", cell, |_| fetch_cell_trace(store, spec))
        } else {
            let trace = t.span("trace.generate", cell, |_| fetch_cell_trace(store, spec));
            t.span("trace.memdep", cell, |_| {
                let _ = trace.memory_deps();
            });
            trace
        };
        let config = spec.policy_config.unwrap_or_else(|| spec.policy.config());
        let mut bank = PredictorBank::new(o.loc_mode, o.seed);
        let mut last = None;
        for _ in 0..o.epochs.max(1) {
            let mut policy = CellPolicy::build(spec.policy, config, bank, spec.policy.name());
            let result = t
                .span("sim.epoch", cell, |_| {
                    ccs_sim::simulate(&spec.config, &trace, &mut policy)
                })
                .map_err(|e| format!("simulate: {e}"))?;
            *sim_cycles += result.cycles;
            let analysis = t.span("critpath.analyze", cell, |_| {
                ccs_critpath::analyze(&trace, &result)
            });
            bank = policy.into_bank();
            t.span("core.train", cell, |_| {
                bank.train_criticality(&trace, &analysis.e_critical)
            });
            last = Some((result, analysis));
        }
        let (result, analysis) = last.expect("at least one epoch ran");
        Ok(CellOutcome {
            kind: spec.policy,
            result,
            analysis,
            bank,
            metrics: None,
        })
    })
}

/// The checkpoint record of a completed cell.
pub fn record_of(spec: &CellSpec, outcome: CellOutcome) -> CheckpointRecord {
    CheckpointRecord::from_result(&CellResult {
        spec: *spec,
        status: CellStatus::Completed(Box::new(outcome)),
    })
}

/// Whether two records agree on every field a served answer carries:
/// key, status, cycles, CPI bits and schedule digest.
pub fn same_result(a: &CheckpointRecord, b: &CheckpointRecord) -> bool {
    a.key == b.key
        && a.status == b.status
        && a.cycles == b.cycles
        && a.cpi_bits == b.cpi_bits
        && a.digest == b.digest
}
