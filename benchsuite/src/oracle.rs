//! The grid workload's output check against `ccs-verify`'s reference
//! oracle.
//!
//! The check runs `ccs_verify::run_trace_case`'s steps on a cell:
//! training epochs, then the measured epoch through both the engine and
//! the reference oracle, the field-by-field timing diff, the schedule
//! invariants, critical-path conservation and the analytic bounds. It
//! differs in one place. The reference oracle reconstructs timing only:
//! the records it hands the policy at commit carry a blank `ready_bound`
//! (`ccs_verify::diff_results` documents that attribution is never
//! compared). `AdaptivePolicy` reads that field at every commit for its
//! forwarding-bound share, so under the unmodified oracle it sees a
//! share of 0 and can pick other rungs than under the engine; the two
//! runs then simulate different policies and their cycles diverge on
//! correct output. Here the oracle's policy sees a `ready_bound` derived
//! from the oracle's own timing by the engine's rule, and the derived
//! bound is also compared with the engine's record by record.

use ccs_core::{CellPolicy, CellSpec, LocMode, PredictorBank};
use ccs_critpath::analyze;
use ccs_isa::MachineConfig;
use ccs_sim::{Cycle, InstRecord, ReadyBound, SteerOutcome, SteerView, SteeringPolicy};
use ccs_trace::{DynIdx, DynInst, Trace, TraceStore};

/// Runs the reference-oracle check on `spec`'s cell. `Err` names what
/// failed.
pub fn oracle_agrees(store: &TraceStore, spec: &CellSpec) -> Result<(), String> {
    let trace = store.get(spec.benchmark, spec.sample_seed, spec.len);
    let config = &spec.config;
    if config.forward_bandwidth.is_some() {
        return Err("the oracle check covers unlimited broadcast bandwidth only".into());
    }
    let kind = spec.policy;
    let (cfg, name) = (kind.config(), kind.name());

    // The same training as `run_trace_case`.
    let mut bank = PredictorBank::new(LocMode::Quantized16, 0xC1A5);
    for _ in 1..spec.options.epochs.max(1) {
        let mut policy = CellPolicy::build(kind, cfg, bank, name);
        let result = ccs_sim::simulate(config, &trace, &mut policy)
            .map_err(|e| format!("training run failed: {e}"))?;
        let analysis = analyze(&trace, &result);
        bank = policy.into_bank();
        bank.train_criticality(&trace, &analysis.e_critical);
    }

    let mut engine_policy = CellPolicy::build(kind, cfg, bank.clone(), name);
    let engine = ccs_sim::simulate(config, &trace, &mut engine_policy)
        .map_err(|e| format!("engine failed: {e}"))?;
    let mut oracle_policy =
        Attributed::new(CellPolicy::build(kind, cfg, bank, name), &trace, config);
    let oracle = ccs_verify::reference_simulate(config, &trace, &mut oracle_policy)
        .map_err(|e| format!("oracle failed: {e}"))?;

    let mut problems = ccs_verify::diff_results(&engine, &oracle);
    for (i, (rec, derived)) in engine.records.iter().zip(&oracle_policy.bounds).enumerate() {
        if rec.ready_bound != *derived {
            problems.push(format!(
                "inst {i}: engine ready bound {:?}, oracle timing implies {derived:?}",
                rec.ready_bound
            ));
            break;
        }
    }
    for v in ccs_sim::check_invariants(config, &trace, &engine) {
        problems.push(format!("invariant: {v}"));
    }
    let analysis = analyze(&trace, &engine);
    if analysis.breakdown.total() != engine.cycles {
        problems.push(format!(
            "critical-path breakdown sums to {} but the run took {} cycles",
            analysis.breakdown.total(),
            engine.cycles
        ));
    }
    for v in ccs_verify::check_bounds(config, &trace, &engine) {
        problems.push(format!("bounds: {v}"));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// A policy under the reference oracle, handed at each commit the
/// `ready_bound` that the oracle's timing implies.
struct Attributed<'a> {
    inner: CellPolicy,
    trace: &'a Trace,
    config: &'a MachineConfig,
    /// Completion cycle and cluster of every committed instruction.
    done: Vec<(Cycle, u8)>,
    /// The derived bound of every committed instruction.
    bounds: Vec<ReadyBound>,
}

impl<'a> Attributed<'a> {
    fn new(inner: CellPolicy, trace: &'a Trace, config: &'a MachineConfig) -> Self {
        Attributed {
            inner,
            trace,
            config,
            done: Vec::with_capacity(trace.len()),
            bounds: Vec::with_capacity(trace.len()),
        }
    }

    /// The engine's rule (`ccs_sim`'s ready determination) under
    /// unlimited broadcast bandwidth: the latest-visible operand, the
    /// first in slot order on ties (register slots 0 and 1, then the
    /// memory dependence as slot 2), binds unless the dispatch floor is
    /// later, or equal and the operand is remote.
    fn ready_bound(&self, idx: usize, record: &InstRecord) -> ReadyBound {
        let inst = &self.trace.as_slice()[idx];
        let mem = self.trace.memory_deps()[idx].map(DynIdx::new);
        let mut best: Option<(Cycle, u8, DynIdx, u32)> = None;
        for (slot, dep) in inst.deps.iter().copied().chain([mem]).enumerate() {
            let Some(p) = dep else { continue };
            // Producers are older, so in-order commit has seen them.
            let (complete, cluster) = self.done[p.index()];
            let fwd = self
                .config
                .forwarding_between(cluster as usize, record.cluster as usize);
            let visible = complete + fwd as Cycle;
            if best.is_none_or(|(v, ..)| visible > v) {
                best = Some((visible, slot as u8, p, fwd));
            }
        }
        let floor = record.dispatch + 1;
        match best {
            Some((visible, slot, producer, fwd))
                if visible > floor || (visible == floor && fwd == 0) =>
            {
                ReadyBound::Operand {
                    slot,
                    producer,
                    fwd,
                }
            }
            _ => ReadyBound::Dispatch,
        }
    }
}

impl SteeringPolicy for Attributed<'_> {
    fn steer(&mut self, view: &SteerView<'_>) -> SteerOutcome {
        self.inner.steer(view)
    }

    fn priority(&mut self, idx: DynIdx, inst: &DynInst) -> i64 {
        self.inner.priority(idx, inst)
    }

    fn on_commit(&mut self, idx: DynIdx, inst: &DynInst, record: &InstRecord) {
        let i = idx.index();
        debug_assert_eq!(i, self.done.len(), "commit is in order");
        let mut record = *record;
        record.ready_bound = self.ready_bound(i, &record);
        self.done.push((record.complete, record.cluster));
        self.bounds.push(record.ready_bound);
        self.inner.on_commit(idx, inst, &record);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
