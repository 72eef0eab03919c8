//! `grid_sweep`: the in-process grid executor over the paper's sweep.
//!
//! 12 benchmarks × {2x4w, 4x2w, 8x1w} × all 7 policies, about 20k
//! instructions per trace, default run options, one thread. Each round
//! runs the whole sweep through `run_cells` with `evaluate_cell` (the
//! body of `run_grid`) on its own sample seeds. Each round starts from
//! an empty trace store; its set-up generates and memory-disambiguates
//! the round's 12 traces, as the executor's prewarm does.

use crate::cells::{round_seed, traced_cell, Config, Workload};
use crate::oracle::oracle_agrees;
use crate::spans::Tracer;
use crate::stats::{EndToEnd, MinTimes};
use crate::{Opts, Outcome};
use ccs_core::grid::{evaluate_cell, run_cells};
use ccs_core::{CellSpec, Resilience};
use ccs_trace::{Benchmark, TraceStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Host seconds one round takes at 20k instructions on the reference
/// host (a 2-core Xeon VM); fixes the round count for a given
/// `--seconds`, so the round count never depends on the host's speed.
const NOMINAL_ROUND_S: f64 = 2.0;

/// Cells checked against the reference oracle per run.
const ORACLE_SAMPLE: usize = 2;

/// The measured cycles and CPI bits of one completed grid cell.
type Answer = Option<(u64, u64)>;

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let len = if opts.smoke { 1_000 } else { 20_000 };
    let rounds = ((opts.seconds / NOMINAL_ROUND_S).round() as usize).max(3);
    let configs = Config::sweep(&Workload::benchmarks());
    let seeds: Vec<u64> = (0..rounds).map(|r| round_seed(opts.seed, r)).collect();
    let round_specs: Vec<Vec<CellSpec>> = seeds
        .iter()
        .map(|&s| configs.iter().map(|c| c.spec(s, len)).collect())
        .collect();
    let mut tracer = Tracer::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let store = TraceStore::global();

    // Each round: set-up, the round's traces generated and disambiguated
    // into the emptied global store the executor reads; then the timed
    // sweep. A cell's time runs from the previous cell's result (or the
    // call into the executor) to its own result. The checks and the
    // traced pass below use the last round, whose traces stay stored.
    let mut setups = Vec::new();
    let mut lat = MinTimes::new(configs.len());
    let mut answers: Vec<Answer> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut grid_wall_ms = 0.0;
    let mut body_ms = 0.0;
    for (round, specs) in round_specs.iter().enumerate() {
        let last = round + 1 == rounds;
        store.clear();
        let traced = (opts.trace && last).then_some(&mut tracer);
        setups.push(set_up(store, seeds[round], len, traced));
        let body_ns = AtomicU64::new(0);
        let started = Instant::now();
        let times = Mutex::new((started, Vec::with_capacity(specs.len())));
        let results = run_cells(
            specs,
            1,
            &Resilience::default(),
            |_, spec, cancel| {
                let t = Instant::now();
                let out = evaluate_cell(spec, cancel);
                body_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            },
            |_, _| {
                let now = Instant::now();
                let mut g = times.lock().expect("timer lock");
                let dt = now.duration_since(g.0).as_secs_f64();
                g.0 = now;
                g.1.push(dt);
            },
        );
        let dts = times.into_inner().expect("timer lock").1;
        for (i, dt) in dts.iter().enumerate() {
            lat.record(i, *dt);
        }
        if last {
            grid_wall_ms = started.elapsed().as_secs_f64() * 1e3;
            body_ms = body_ns.load(Ordering::Relaxed) as f64 / 1e6;
        }
        attempted += results.len() as u64;
        answers = results
            .iter()
            .map(|r| {
                r.status
                    .outcome()
                    .map(|o| (o.result.cycles, o.cpi().to_bits()))
            })
            .collect();
        failed += answers.iter().filter(|a| a.is_none()).count() as u64;
    }

    let store_hits = store.hits() as f64;
    let store_misses = store.misses() as f64;
    let last_specs = &round_specs[rounds - 1];

    // Checks, outside the timed rounds, on a seed-chosen sample of the
    // last round: the grid's answer equals a fresh engine evaluation,
    // and engine and reference oracle agree on the cell.
    let mut wrong = 0u64;
    let mut notes = Vec::new();
    for k in 0..ORACLE_SAMPLE {
        let i = (round_seed(opts.seed ^ 0x0AC1E, k) as usize) % configs.len();
        let spec = &last_specs[i];
        let engine = evaluate_cell(spec, None)
            .ok()
            .map(|o| (o.result.cycles, o.cpi().to_bits()));
        if answers[i].is_none() || answers[i] != engine {
            wrong += 1;
            notes.push(format!("cell {i}: grid {:?} engine {engine:?}", answers[i]));
        }
        if let Err(why) = oracle_agrees(store, spec) {
            wrong += 1;
            notes.push(format!("oracle check on cell {i}: {why}"));
        }
    }
    attempted += 2 * ORACLE_SAMPLE as u64;

    if opts.trace {
        // The last round again, cell by cell without the executor: each
        // cell untraced, then under spans. Their ratio is the tracing
        // overhead.
        let mut sim_cycles = 0u64;
        let mut untraced_ms = 0.0;
        for (i, spec) in last_specs.iter().enumerate() {
            let started = Instant::now();
            let _ = evaluate_cell(spec, None);
            untraced_ms += started.elapsed().as_secs_f64() * 1e3;
            match traced_cell(&mut tracer, i as u64, spec, store, &mut sim_cycles) {
                Ok(o) if Some((o.result.cycles, o.cpi().to_bits())) == answers[i] => {}
                _ => {
                    wrong += 1;
                    notes.push(format!("traced replay of cell {i} disagrees with the grid"));
                }
            }
        }
        let stats = tracer.layers();
        let stat = |n: &str| stats.get(n).copied().unwrap_or_default();
        let cells = configs.len() as f64;
        let spans_per_cell = (stat("sim.epoch").self_ns
            + stat("critpath.analyze").self_ns
            + stat("core.train").self_ns) as f64
            / 1e6
            / cells;
        layers.insert(
            "trace.store_hit_ratio",
            store_hits / (store_hits + store_misses).max(1.0),
        );
        layers.insert("sim.cycles", sim_cycles as f64);
        layers.insert("core.grid_overhead_ms", grid_wall_ms - body_ms);
        layers.insert("bench.cell_ms", lat.total() / cells * 1e3);
        layers.insert(
            "bench.unattributed_ms_per_cell",
            untraced_ms / cells - spans_per_cell,
        );
        layers.insert(
            "bench.trace_overhead",
            tracer.inclusive_ms("cell") / untraced_ms - 1.0,
        );
        notes.push(
            "core.record_ms is 0: the in-process grid never builds checkpoint records".into(),
        );
    }

    Outcome {
        e2e: EndToEnd::new(configs.len(), &lat, &lat, &setups),
        attempted,
        failed: failed + wrong,
        layers,
        notes,
        tracer: opts.trace.then_some(tracer),
    }
}

/// Generates and disambiguates the 12 benchmark traces of sample seed
/// `seed` into `store`, under spans when a tracer is given. Returns the
/// seconds it took.
fn set_up(store: &TraceStore, seed: u64, len: usize, mut tracer: Option<&mut Tracer>) -> f64 {
    let started = Instant::now();
    for (i, &bench) in Benchmark::ALL.iter().enumerate() {
        match tracer.as_deref_mut() {
            Some(t) => {
                let trace = t.span("trace.generate", i as u64, |_| store.get(bench, seed, len));
                t.span("trace.memdep", i as u64, |_| {
                    let _ = trace.memory_deps();
                });
            }
            None => {
                let _ = store.get(bench, seed, len).memory_deps();
            }
        }
    }
    started.elapsed().as_secs_f64()
}
