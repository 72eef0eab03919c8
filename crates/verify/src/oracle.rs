//! The reference oracle: a naive, obviously-correct re-implementation of
//! the machine semantics in `ccs-sim`.
//!
//! [`reference_simulate`] models exactly the machine of
//! [`ccs_sim::simulate`] — same stage order (commit, issue per cluster in
//! ascending order, dispatch/steer, fetch), same issue-width and port
//! caps, same forwarding and broadcast-bandwidth model, same perfect
//! memory disambiguation, same gshare/L1/L2 behaviour — but with none of
//! the engine's optimizations:
//!
//! * readiness is recomputed from scratch every cycle instead of cached
//!   in window entries;
//! * memory dependences come from a plain `HashMap` sweep;
//! * completion and broadcast times are `Option<Cycle>` instead of a
//!   `Cycle::MAX` sentinel;
//! * cross-cluster deliveries are tracked in a boolean matrix instead of
//!   a bitmask;
//! * no scratch-buffer reuse, no broadcast-table pruning.
//!
//! Of the binding-constraint attribution it reconstructs `ready_bound`
//! alone, from its own timing: the adaptive policy reads it at every
//! commit, so without it the two simulators would run different
//! policies.
//!
//! Every helper is a small function over plain data, structured for
//! auditability: the intended reading order is top to bottom, one
//! pipeline stage per function. Differential tests drive random traces,
//! layouts and policies through both simulators and require cycle-exact
//! agreement (see `ccs_verify::campaign`).

use ccs_isa::{BranchClass, MachineConfig, OpClass, PortKind};
use ccs_sim::{
    CommitBound, Cycle, DispatchBound, InstRecord, ProducerInfo, ReadyBound, SimError, SimResult,
    SteerCause, SteerDecision, SteerView, SteeringPolicy,
};
use ccs_trace::{DynIdx, Trace};
use ccs_uarch::{BranchPredictor, Gshare, SetAssocCache};
use std::collections::{HashMap, VecDeque};

/// A dispatched, not-yet-issued instruction in a cluster window.
#[derive(Debug, Clone, Copy)]
struct Pending {
    inst: usize,
    priority: i64,
}

/// The full simulation state, one field per architectural structure.
struct Machine<'a> {
    config: &'a MachineConfig,
    trace: &'a Trace,
    /// True memory dependence of each load, from the reference sweep.
    mem_dep: Vec<Option<u32>>,
    records: Vec<InstRecord>,
    /// Completion cycle of each issued instruction.
    complete: Vec<Option<Cycle>>,
    /// Cycle each issued instruction's value enters the bypass network.
    broadcast: Vec<Option<Cycle>>,
    /// `delivered[p][c]`: producer `p`'s value already delivered to
    /// cluster `c` (for the global-values count).
    delivered: Vec<[bool; 8]>,
    /// Per-cluster scheduling windows.
    windows: Vec<Vec<Pending>>,
    /// Fetched instructions waiting to dispatch (front of the queue is
    /// the dispatch head).
    fe_queue: VecDeque<usize>,
    branch_predictor: Gshare,
    l1: SetAssocCache,
    l2: Option<SetAssocCache>,
    /// Broadcast slots consumed per cluster per cycle, for machines with
    /// a finite broadcast bandwidth.
    bcast_used: Vec<HashMap<Cycle, u32>>,
    next_fetch: usize,
    next_commit: usize,
    dispatched: usize,
    /// The mispredicted branch fetch is waiting on, if any.
    fetch_blocked_on: Option<usize>,
    /// First cycle fetch may run again after a redirect.
    fetch_resume: Cycle,
    mispredicts: u64,
    conditional_branches: u64,
    global_values: u64,
    steer_stall_cycles: u64,
    ilp: ccs_sim::IlpCensus,
}

/// Runs `trace` through the reference model of the machine described by
/// `config` under `policy`. The result is cycle-exact against
/// [`ccs_sim::simulate`] for any deterministic policy driven through the
/// identical call sequence (steer and priority at dispatch, on-commit in
/// retirement order).
///
/// # Errors
///
/// Returns [`SimError::CycleLimitExceeded`] under the same cycle budget
/// as the engine (`64·n + 100 000`).
pub fn reference_simulate(
    config: &MachineConfig,
    trace: &Trace,
    policy: &mut dyn SteeringPolicy,
) -> Result<SimResult, SimError> {
    let n = trace.len();
    let clusters = config.cluster_count();
    let mut m = Machine {
        config,
        trace,
        mem_dep: reference_memory_deps(trace),
        records: vec![blank_record(); n],
        complete: vec![None; n],
        broadcast: vec![None; n],
        delivered: vec![[false; 8]; n],
        windows: vec![Vec::new(); clusters],
        fe_queue: VecDeque::new(),
        branch_predictor: Gshare::new(config.front_end.gshare_history_bits),
        l1: SetAssocCache::from_config(&config.memory),
        l2: config
            .memory
            .l2
            .map(|c| SetAssocCache::new(c.bytes, c.ways, c.line_bytes)),
        bcast_used: vec![HashMap::new(); clusters],
        next_fetch: 0,
        next_commit: 0,
        dispatched: 0,
        fetch_blocked_on: None,
        fetch_resume: 0,
        mispredicts: 0,
        conditional_branches: 0,
        global_values: 0,
        steer_stall_cycles: 0,
        ilp: ccs_sim::IlpCensus::default(),
    };

    let limit: Cycle = 64 * n as Cycle + 100_000;
    let mut t: Cycle = 0;
    while m.next_commit < n {
        if t > limit {
            return Err(SimError::CycleLimitExceeded {
                cycle: t,
                committed: m.next_commit,
                total: n,
            });
        }
        m.commit_stage(t, policy);
        m.issue_stage(t);
        m.dispatch_stage(t, policy);
        m.fetch_stage(t);
        t += 1;
    }

    Ok(SimResult {
        config: *config,
        cycles: t,
        records: m.records,
        mispredicts: m.mispredicts,
        conditional_branches: m.conditional_branches,
        l1_misses: m.l1.misses(),
        l1_accesses: m.l1.accesses(),
        global_values: m.global_values,
        ilp: m.ilp,
        steer_stall_cycles: m.steer_stall_cycles,
    })
}

impl Machine<'_> {
    /// In-order commit: up to `commit_width` instructions whose execution
    /// completed on an *earlier* cycle retire, oldest first.
    fn commit_stage(&mut self, t: Cycle, policy: &mut dyn SteeringPolicy) {
        let mut committed_this_cycle = 0;
        while self.next_commit < self.dispatched
            && committed_this_cycle < self.config.commit_width
            && self.complete[self.next_commit].is_some_and(|c| c < t)
        {
            let i = self.next_commit;
            self.records[i].commit = t;
            let record = self.records[i];
            policy.on_commit(DynIdx::new(i as u32), &self.trace.as_slice()[i], &record);
            self.next_commit += 1;
            committed_this_cycle += 1;
        }
    }

    /// The cycle an operand of `consumer` (placed on `cluster`) becomes
    /// usable, or `None` while its producer has not issued. A local
    /// producer bypasses directly at completion; a remote one is seen
    /// after its broadcast plus the forwarding latency.
    fn operand_visible(&self, producer: usize, cluster: usize) -> Option<Cycle> {
        let complete = self.complete[producer]?;
        let producer_cluster = self.records[producer].cluster as usize;
        let fwd = self.config.forwarding_between(producer_cluster, cluster);
        if fwd == 0 {
            Some(complete)
        } else {
            Some(self.broadcast[producer]? + fwd as Cycle)
        }
    }

    /// All dependences of instruction `i`: the register operands plus the
    /// true memory dependence.
    fn dependences(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.trace.as_slice()[i]
            .deps
            .iter()
            .filter_map(|d| d.map(|p| p.index()))
            .chain(self.mem_dep[i].map(|s| s as usize))
    }

    /// The cycle window entry `i` (on `cluster`) is ready to issue, or
    /// `None` while some dependence has not issued. Recomputed from
    /// scratch every cycle: readiness is a pure function of the
    /// producers' completion times, so no caching is needed.
    fn ready_cycle(&self, i: usize, cluster: usize) -> Option<Cycle> {
        let dispatch_floor = self.records[i].dispatch + 1;
        let mut ready = dispatch_floor;
        for p in self.dependences(i) {
            ready = ready.max(self.operand_visible(p, cluster)?);
        }
        Some(ready)
    }

    /// Which constraint set the ready cycle of instruction `i` (on
    /// `cluster`), once every dependence has issued. The engine's rule:
    /// the latest-visible operand binds, the first in slot order on ties
    /// (register slots 0 and 1, then the memory dependence as slot 2),
    /// unless the dispatch floor is later, or equal and the operand
    /// paid forwarding cycles. Policies read this at commit
    /// ([`InstRecord::forwarding_on_ready`]), so the oracle must supply
    /// it for a policy to make the same choices as under the engine.
    fn ready_bound(&self, i: usize, cluster: usize) -> ReadyBound {
        let operands = self.trace.as_slice()[i]
            .deps
            .iter()
            .copied()
            .chain([self.mem_dep[i].map(DynIdx::new)]);
        let mut best: Option<(Cycle, u8, DynIdx, u32)> = None;
        for (slot, dep) in operands.enumerate() {
            let Some(p) = dep else { continue };
            let visible = self
                .operand_visible(p.index(), cluster)
                .expect("an issuing instruction's producers have issued");
            let complete = self.complete[p.index()].expect("producers have issued");
            if best.is_none_or(|(v, ..)| visible > v) {
                best = Some((visible, slot as u8, p, (visible - complete) as u32));
            }
        }
        let floor = self.records[i].dispatch + 1;
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

    /// Per-cluster select and execute, clusters in ascending order.
    /// Within a cluster, ready entries issue in priority order (ties
    /// oldest first) until the issue width or a port class runs out;
    /// a full port skips the instruction without stopping younger ones.
    fn issue_stage(&mut self, t: Cycle) {
        let mut available_total = 0;
        let mut issued_total = 0;
        let mut any_in_window = false;
        for cluster in 0..self.config.cluster_count() {
            if self.windows[cluster].is_empty() {
                continue;
            }
            any_in_window = true;
            let mut candidates: Vec<Pending> = self.windows[cluster]
                .iter()
                .filter(|e| self.ready_cycle(e.inst, cluster).is_some_and(|r| r <= t))
                .copied()
                .collect();
            available_total += candidates.len();
            candidates.sort_by_key(|e| (std::cmp::Reverse(e.priority), e.inst));

            let mut width_used = 0;
            let mut port_used = [0usize; 3]; // int, fp, mem
            let mut issued: Vec<usize> = Vec::new();
            for e in candidates {
                if width_used >= self.config.cluster.issue_width {
                    break;
                }
                let port = match self.trace.as_slice()[e.inst].op().port() {
                    PortKind::Int => 0,
                    PortKind::Fp => 1,
                    PortKind::Mem => 2,
                };
                let cap = [
                    self.config.cluster.int_ports,
                    self.config.cluster.fp_ports,
                    self.config.cluster.mem_ports,
                ][port];
                if port_used[port] >= cap {
                    continue;
                }
                port_used[port] += 1;
                width_used += 1;
                self.execute(e.inst, cluster, t);
                issued.push(e.inst);
            }
            issued_total += issued.len();
            self.windows[cluster].retain(|e| !issued.contains(&e.inst));
        }
        if any_in_window {
            self.ilp.record(available_total, issued_total);
        }
    }

    /// Executes instruction `i` on `cluster` starting at cycle `t`:
    /// accesses the cache hierarchy for memory ops, fixes the completion
    /// time, schedules the broadcast, and counts cross-cluster
    /// deliveries of its register operands.
    fn execute(&mut self, i: usize, cluster: usize, t: Cycle) {
        let inst = &self.trace.as_slice()[i];
        let mut latency = inst.op().latency() as Cycle;
        if let Some(addr) = inst.mem_addr {
            if !self.l1.access(addr) {
                self.records[i].l1_miss = true;
                let mut extra = self.config.memory.l2_latency;
                if let (Some(l2), Some(l2cfg)) = (self.l2.as_mut(), self.config.memory.l2) {
                    if !l2.access(addr) {
                        extra += l2cfg.memory_latency;
                    }
                }
                self.records[i].mem_extra = extra;
                latency += extra as Cycle;
            }
        }
        self.records[i].issue = t;
        // Stamp the ready time for the record stream; by now every
        // dependence has issued, so it is fully determined.
        self.records[i].ready = self
            .ready_cycle(i, cluster)
            .expect("an issuing instruction has all operands determined");
        self.records[i].ready_bound = self.ready_bound(i, cluster);
        self.records[i].complete = t + latency;
        self.complete[i] = Some(t + latency);
        self.broadcast[i] = Some(self.broadcast_slot(cluster, t + latency));

        for dep in inst.producers() {
            let producer_cluster = self.records[dep.index()].cluster as usize;
            if producer_cluster != cluster && !self.delivered[dep.index()][cluster] {
                self.delivered[dep.index()][cluster] = true;
                self.global_values += 1;
            }
        }
    }

    /// When the value completing at `complete` actually enters the
    /// bypass network: immediately with unlimited bandwidth, else at the
    /// first cycle with a free egress slot on its cluster.
    fn broadcast_slot(&mut self, cluster: usize, complete: Cycle) -> Cycle {
        match self.config.forward_bandwidth {
            None => complete,
            Some(limit) => {
                let mut slot = complete;
                loop {
                    let used = self.bcast_used[cluster].entry(slot).or_insert(0);
                    if *used < limit {
                        *used += 1;
                        return slot;
                    }
                    slot += 1;
                }
            }
        }
    }

    /// In-order dispatch: up to `fetch_width` instructions leave the
    /// front-end queue, each steered by the policy; a stall (or a full
    /// target window) holds the head and everything behind it.
    fn dispatch_stage(&mut self, t: Cycle, policy: &mut dyn SteeringPolicy) {
        let depth = self.config.front_end.depth_to_dispatch as Cycle;
        let win_cap = self.config.cluster.window_entries;
        let mut dispatched_this_cycle = 0;
        while dispatched_this_cycle < self.config.front_end.fetch_width {
            let Some(&head) = self.fe_queue.front() else { break };
            if self.records[head].fetch + depth > t {
                break; // still inside the front-end pipe
            }
            if self.dispatched - self.next_commit >= self.config.rob_entries {
                break; // ROB full
            }
            let inst = &self.trace.as_slice()[head];
            let mut producers = [None, None];
            for (slot, dep) in inst.deps.iter().enumerate() {
                if let Some(p) = dep {
                    producers[slot] = Some(ProducerInfo {
                        idx: *p,
                        pc: self.trace.as_slice()[p.index()].pc(),
                        cluster: self.records[p.index()].cluster as usize,
                        completed: self.globally_visible(p.index(), t),
                    });
                }
            }
            let occupancy: Vec<usize> = self.windows.iter().map(Vec::len).collect();
            let view = SteerView {
                inst,
                idx: DynIdx::new(head as u32),
                now: t,
                occupancy: &occupancy,
                capacity: win_cap,
                producers,
            };
            let outcome = policy.steer(&view);
            let (cluster, cause) = match outcome.decision {
                SteerDecision::To { cluster, cause } if occupancy[cluster] < win_cap => {
                    (cluster, cause)
                }
                _ => {
                    self.steer_stall_cycles += 1;
                    break;
                }
            };
            let record = &mut self.records[head];
            record.dispatch = t;
            record.cluster = cluster as u8;
            record.steer_cause = cause;
            record.predicted_critical = outcome.predicted_critical;
            record.loc = outcome.loc;
            let priority = policy.priority(DynIdx::new(head as u32), inst);
            self.windows[cluster].push(Pending { inst: head, priority });
            self.fe_queue.pop_front();
            self.dispatched += 1;
            dispatched_this_cycle += 1;
        }
    }

    /// Whether producer `p`'s value is visible to *every* cluster at `t`
    /// (what [`ProducerInfo::completed`] reports to steering policies).
    fn globally_visible(&self, p: usize, t: Cycle) -> bool {
        self.complete[p].is_some()
            && self.broadcast[p].is_some_and(|b| b + self.config.forward_latency as Cycle <= t)
    }

    /// Fetch: blocked entirely while a mispredicted branch is in flight;
    /// resumes the cycle after it completes. Otherwise fetches up to
    /// `fetch_width` instructions into the skid buffer, predicting each
    /// conditional branch as it goes; a mispredict ends the cycle's
    /// fetch group and blocks fetch on the branch.
    fn fetch_stage(&mut self, t: Cycle) {
        if let Some(b) = self.fetch_blocked_on {
            if let Some(complete) = self.complete[b] {
                self.fetch_resume = complete + 1;
                self.fetch_blocked_on = None;
            }
        }
        if self.fetch_blocked_on.is_some() || t < self.fetch_resume {
            return;
        }
        let depth = self.config.front_end.depth_to_dispatch as Cycle;
        let fetch_width = self.config.front_end.fetch_width;
        let skid = self.config.front_end.skid_buffer;
        // Instructions that cleared the front-end pipe occupy skid-buffer
        // entries; those still in flight inside the pipe do not.
        let waiting = self
            .fe_queue
            .iter()
            .take_while(|&&i| self.records[i].fetch + depth <= t)
            .count();
        let in_pipe = self.fe_queue.len() - waiting;
        let mut fetched_this_cycle = 0;
        while fetched_this_cycle < fetch_width
            && self.next_fetch < self.trace.len()
            && waiting + in_pipe + fetched_this_cycle < skid + (depth as usize + 1) * fetch_width
            && waiting < skid
        {
            let i = self.next_fetch;
            let inst = &self.trace.as_slice()[i];
            self.records[i].fetch = t;
            self.fe_queue.push_back(i);
            self.next_fetch += 1;
            fetched_this_cycle += 1;

            if let Some(br) = inst.branch {
                if br.class == BranchClass::Conditional {
                    self.conditional_branches += 1;
                    let predicted = self.branch_predictor.predict(inst.pc());
                    self.branch_predictor.update(inst.pc(), br.taken);
                    if predicted != br.taken {
                        self.mispredicts += 1;
                        self.records[i].mispredicted = true;
                        self.fetch_blocked_on = Some(i);
                        break;
                    }
                }
                if br.taken && self.config.front_end.break_on_taken {
                    break;
                }
            }
        }
    }
}

/// A fresh record with every event at cycle 0 and neutral attribution.
/// The oracle fills event times, the policy-visible fields (`cluster`,
/// `steer_cause`, `predicted_critical`, `loc`, flags) and `ready_bound`,
/// which policies read at commit. `dispatch_bound` and `commit_bound`
/// are engine diagnostics no policy reads; the oracle does not
/// reconstruct them, and differential comparison ignores them.
fn blank_record() -> InstRecord {
    InstRecord {
        fetch: 0,
        dispatch: 0,
        ready: 0,
        issue: 0,
        complete: 0,
        commit: 0,
        cluster: 0,
        mispredicted: false,
        l1_miss: false,
        mem_extra: 0,
        dispatch_bound: DispatchBound::FrontEnd,
        ready_bound: ReadyBound::Dispatch,
        commit_bound: CommitBound::Complete,
        steer_cause: SteerCause::Only,
        predicted_critical: false,
        loc: 0.0,
    }
}

/// Memory dependences the obvious way: a map from 8-byte word to the
/// latest older store, swept once over the trace.
fn reference_memory_deps(trace: &Trace) -> Vec<Option<u32>> {
    let mut last_store: HashMap<u64, u32> = HashMap::new();
    trace
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, inst)| match (inst.op(), inst.mem_addr) {
            (OpClass::Store, Some(addr)) => {
                last_store.insert(addr >> 3, i as u32);
                None
            }
            (OpClass::Load, Some(addr)) => last_store.get(&(addr >> 3)).copied(),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_isa::ClusterLayout;
    use ccs_sim::policies::LeastLoaded;
    use ccs_trace::Benchmark;

    #[test]
    fn oracle_matches_engine_on_a_baseline_run() {
        let trace = Benchmark::Vpr.generate(1, 1_200);
        for layout in ClusterLayout::ALL {
            let cfg = ccs_isa::MachineConfig::micro05_baseline().with_layout(layout);
            let engine = ccs_sim::simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
            let oracle = reference_simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
            assert_eq!(engine.cycles, oracle.cycles, "{layout}");
            assert_eq!(engine.global_values, oracle.global_values, "{layout}");
            assert_eq!(engine.steer_stall_cycles, oracle.steer_stall_cycles, "{layout}");
        }
    }

    #[test]
    fn empty_trace_takes_zero_cycles() {
        let trace = ccs_trace::TraceBuilder::new().finish();
        let cfg = ccs_isa::MachineConfig::micro05_baseline();
        let r = reference_simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        assert_eq!(r.cycles, 0);
        assert!(r.records.is_empty());
    }
}
