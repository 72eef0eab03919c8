//! `serve_fresh` and `serve_repeat`: one in-process `ccs-serve` daemon
//! (one worker, journal on) and one client connection in a closed loop.

use crate::cells::{record_of, round_seed, same_result, traced_cell, Config, Workload};
use crate::spans::Tracer;
use crate::stats::{mean, EndToEnd, MinTimes};
use crate::{Opts, Outcome};
use ccs_client::Client;
use ccs_core::checkpoint::{cell_key, CheckpointRecord};
use ccs_core::grid::evaluate_cell;
use ccs_serve::{
    replay_journal, KillSwitch, Request, Response, ServeConfig, Server, StatusReply,
    WireCellRecord, WireCellSpec,
};
use ccs_trace::{SourceRegistry, TraceStore};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Host seconds one `serve_fresh` round takes on the reference host.
const NOMINAL_FRESH_ROUND_S: f64 = 1.7;

/// Host seconds one `serve_repeat` round takes on the reference host.
const NOMINAL_REPEAT_ROUND_S: f64 = 0.28;

/// `status` round trips timed per traced run.
const STATUS_PROBES: usize = 50;

/// A daemon running on its own thread, with the benchmark's client
/// connection to it.
struct Daemon {
    client: Client,
    kill: KillSwitch,
    handle: JoinHandle<Result<(), ccs_core::CcsError>>,
}

impl Daemon {
    /// Binds a daemon with one worker, a result cache of
    /// `cache_capacity` cells and a journal at `journal` (replayed first
    /// when `recover`), connects, and waits for the first `status`
    /// reply. Returns the daemon, the seconds from bind to that reply,
    /// and the reply.
    fn start(
        journal: &Path,
        recover: bool,
        cache_capacity: usize,
    ) -> Result<(Daemon, f64, StatusReply), String> {
        let config = ServeConfig {
            workers: 1,
            cache_capacity,
            journal: Some(journal.to_path_buf()),
            recover,
            ..ServeConfig::default()
        };
        let started = Instant::now();
        let server = Server::bind(config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let kill = server.kill_switch();
        // The connection is queued on the bound socket before the
        // daemon thread starts, so its first accept finds it at once.
        let client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let handle = std::thread::spawn(move || server.run());
        let mut daemon = Daemon {
            client: client.with_reply_timeout(Duration::from_secs(60)),
            kill,
            handle,
        };
        match daemon.client.status() {
            Ok(status) => Ok((daemon, started.elapsed().as_secs_f64(), status)),
            Err(e) => {
                daemon.abort();
                Err(format!("first status: {e}"))
            }
        }
    }

    /// Drains the daemon and waits for its thread.
    fn stop(mut self) -> Result<(), String> {
        if let Err(e) = self.client.drain() {
            self.abort();
            return Err(format!("drain: {e}"));
        }
        drop(self.client);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }

    /// Kills the daemon (crash semantics) and waits for its thread.
    fn abort(self) {
        self.kill.kill();
        drop(self.client);
        let _ = self.handle.join();
    }

    /// The daemon's cache hit ratio and peak queue depth, from its
    /// `metrics` frame.
    fn queue_and_cache(&mut self) -> (f64, f64) {
        let Ok(json) = self.client.metrics_json() else {
            return (f64::NAN, f64::NAN);
        };
        let field = |name| ccs_serve::json::u64_field(&json, name).map_or(f64::NAN, |v| v as f64);
        let (hits, misses) = (field("cache_hits"), field("cache_misses"));
        (hits / (hits + misses).max(1.0), field("queue_depth_peak"))
    }

    /// Times `STATUS_PROBES` `status` round trips under spans.
    fn probe_status(&mut self, t: &mut Tracer) {
        for i in 0..STATUS_PROBES {
            let _ = t.span("client.status", i as u64, |_| self.client.status());
        }
    }
}

/// Encodes and decodes a request frame under `serve.wire_encode` /
/// `serve.wire_decode` spans; whether it survived the round trip.
fn request_round_trip(t: &mut Tracer, cell: u64, req: &Request) -> bool {
    let payload = t.span("serve.wire_encode", cell, |_| req.encode());
    t.span("serve.wire_decode", cell, |_| Request::decode(&payload))
        .ok()
        .as_ref()
        == Some(req)
}

/// [`request_round_trip`] for a response frame.
fn response_round_trip(t: &mut Tracer, cell: u64, resp: &Response) -> bool {
    let payload = t.span("serve.wire_encode", cell, |_| resp.encode());
    t.span("serve.wire_decode", cell, |_| Response::decode(&payload))
        .ok()
        .as_ref()
        == Some(resp)
}

/// Runs `serve_fresh`: every cell is new to the daemon. Each round
/// starts a fresh daemon and submits 16 workloads (the 12 benchmarks
/// and four gallery scenarios) × 3 layouts × 7 policies, one cell at a
/// time, on the round's own sample seed, ~2k instructions per trace.
pub fn fresh(opts: &Opts) -> Outcome {
    let len = if opts.smoke { 300 } else { 2_000 };
    let rounds = ((opts.seconds / NOMINAL_FRESH_ROUND_S).round() as usize).max(3);
    let mut workloads = Workload::benchmarks();
    workloads.extend(Workload::gallery_extras());
    let configs = Config::sweep(&workloads);
    let journal = opts.work.join("fresh.jsonl");
    let mut lat = MinTimes::new(configs.len());
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut tracer = Tracer::new();
    let mut layers = BTreeMap::new();
    let mut inproc = MinTimes::new(configs.len());
    let mut sim_cycles = 0u64;
    let mut untraced_ms = 0.0;
    for round in 0..rounds {
        // A traced run traces its last round.
        let traced = opts.trace && round + 1 == rounds;
        let seed = round_seed(opts.seed, round);
        let wires: Vec<WireCellSpec> = configs.iter().map(|c| c.wire(seed, len)).collect();
        let (mut daemon, setup, _) =
            match Daemon::start(&journal, false, ServeConfig::default().cache_capacity) {
                Ok(d) => d,
                Err(e) => return Outcome::broken(format!("serve_fresh start: {e}")),
            };
        setups.push(setup);
        let mut answers: Vec<Option<WireCellRecord>> = Vec::with_capacity(wires.len());
        for (i, wire) in wires.iter().enumerate() {
            let started = Instant::now();
            let answer = daemon.client.submit_cell(wire);
            let secs = started.elapsed().as_secs_f64();
            attempted += 1;
            match answer {
                Ok(record) => {
                    lat.record(i, secs);
                    answers.push(Some(record));
                }
                Err(e) => {
                    failed += 1;
                    notes.push(format!("cell {i} refused: {e}"));
                    answers.push(None);
                }
            }
        }
        if traced {
            let (hit_ratio, depth) = daemon.queue_and_cache();
            layers.insert("serve.cache_hit_ratio", hit_ratio);
            layers.insert("serve.queue_depth_peak", depth);
            daemon.probe_status(&mut tracer);
        }
        if let Err(e) = daemon.stop() {
            return Outcome::broken(format!("serve_fresh stop: {e}"));
        }

        // Check, outside the timed loop: every answer equals an
        // in-process evaluation of the same cell. In the traced round
        // each cell is evaluated once more under spans, on a cold
        // private trace store so generation is measured.
        let store = TraceStore::new();
        for (i, config) in configs.iter().enumerate() {
            let spec = config.spec(seed, len);
            let started = Instant::now();
            let want = evaluate_cell(&spec, None).map(|o| record_of(&spec, o));
            let secs = started.elapsed().as_secs_f64();
            inproc.record(i, secs);
            let Some(got) = &answers[i] else { continue };
            let mut agrees =
                matches!(&want, Ok(w) if !got.cached && same_result(&got.to_checkpoint(), w));
            if traced {
                untraced_ms += secs * 1e3;
                agrees &= traced_fresh_cell(
                    &mut tracer,
                    i as u64,
                    &spec,
                    &wires[i],
                    got,
                    &store,
                    &mut sim_cycles,
                );
            }
            if !agrees {
                failed += 1;
                notes.push(format!(
                    "cell {i} answer differs from in-process evaluation"
                ));
            }
        }
        if traced {
            let (hits, misses) = (store.hits() as f64, store.misses() as f64);
            layers.insert("trace.store_hit_ratio", hits / (hits + misses).max(1.0));
        }
    }
    if opts.trace {
        let client = mean(lat.minima()) * 1e3;
        fresh_layers(
            &tracer,
            &mut layers,
            sim_cycles,
            client,
            mean(inproc.minima()) * 1e3,
            untraced_ms,
        );
        notes.push(format!(
            "core.record_ms is {:.1}% of the client-observed {client:.3} ms per cell",
            100.0 * layers["core.record_share"]
        ));
    }
    let _ = std::fs::remove_file(&journal);
    Outcome {
        e2e: EndToEnd::new(configs.len(), &lat, &lat, &setups),
        attempted,
        failed,
        layers,
        notes,
        tracer: opts.trace.then_some(tracer),
    }
}

/// Evaluates one `serve_fresh` cell in-process under spans: scenario
/// registration, cell key, the cell body, its record, and the cell's
/// request and response frames. Whether everything agrees with the
/// daemon's answer `got`.
fn traced_fresh_cell(
    t: &mut Tracer,
    cell: u64,
    spec: &ccs_core::CellSpec,
    wire: &WireCellSpec,
    got: &WireCellRecord,
    store: &TraceStore,
    sim_cycles: &mut u64,
) -> bool {
    if let Some(manifest) = spec
        .scenario
        .and_then(|id| SourceRegistry::global().manifest(id))
    {
        let _ = t.span("scenario.register", cell, |_| {
            ccs_scenario::register_manifest(&manifest)
        });
    }
    let _ = t.span("core.cell_key", cell, |_| cell_key(spec));
    let Ok(outcome) = traced_cell(t, cell, spec, store, sim_cycles) else {
        return false;
    };
    let record = t.span("core.record", cell, |_| record_of(spec, outcome));
    let request = Request::SubmitCell {
        id: cell,
        approx: false,
        cell: wire.clone(),
    };
    let response = Response::Cell {
        id: cell,
        record: got.clone(),
    };
    same_result(&got.to_checkpoint(), &record)
        && request_round_trip(t, cell, &request)
        && response_round_trip(t, cell, &response)
}

/// The per-layer figures of a traced `serve_fresh` run. `client` and
/// `inproc` are mean per-cell minima (ms) of the served and in-process
/// evaluations; `untraced_ms` is the traced round's untraced in-process
/// time (`evaluate_cell` + `from_result`), measured cell by cell beside
/// the traced replay.
fn fresh_layers(
    t: &Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
    sim_cycles: u64,
    client: f64,
    inproc: f64,
    untraced_ms: f64,
) {
    let stats = t.layers();
    let stat = |n: &str| stats.get(n).copied().unwrap_or_default();
    let cells = stat("cell").calls.max(1) as f64;
    let attributed: u64 = [
        "trace.fetch",
        "trace.generate",
        "trace.memdep",
        "sim.epoch",
        "critpath.analyze",
        "core.train",
        "core.record",
    ]
    .iter()
    .map(|n| stat(n).self_ns)
    .sum();
    let traced_body = t.inclusive_ms("cell") + stat("core.record").total_ms();
    layers.insert("sim.cycles", sim_cycles as f64);
    layers.insert("core.record_share", stat("core.record").mean_ms() / client);
    layers.insert("serve.overhead_ms_per_cell", client - inproc);
    layers.insert("bench.cell_ms", client);
    layers.insert(
        "bench.unattributed_ms_per_cell",
        (untraced_ms - attributed as f64 / 1e6) / cells,
    );
    layers.insert("bench.trace_overhead", traced_body / untraced_ms - 1.0);
}

/// Grids of 252 cells the prepared `serve_repeat` journal holds. Sized
/// so journal replay, not the daemon's fixed start-up cost, makes up
/// `setup_s`: 16,128 records replay in tens of milliseconds.
const JOURNAL_GRIDS: usize = 64;

/// Runs `serve_repeat`: a daemon restarted with `recover` on a journal
/// written in untimed preparation answers whole-grid resubmissions of
/// every journaled cell, every answer a cache hit. Each round restarts
/// the daemon on a fresh copy of the prepared journal, with a result
/// cache large enough to hold all of it.
pub fn repeat(opts: &Opts) -> Outcome {
    // A record's size does not depend on trace length, so the
    // preparation simulates very short traces.
    let len = 64;
    let grids = if opts.smoke { 2 } else { JOURNAL_GRIDS };
    let rounds = ((opts.seconds / NOMINAL_REPEAT_ROUND_S).round() as usize).max(3);
    let configs = Config::sweep(&Workload::benchmarks());
    let grid_cells: Vec<Vec<WireCellSpec>> = (0..grids)
        .map(|g| {
            let seed = round_seed(opts.seed, g);
            configs.iter().map(|c| c.wire(seed, len)).collect()
        })
        .collect();
    let per_grid = configs.len();
    let cache_capacity = grids * per_grid;
    let prepared = opts.work.join("prepared.jsonl");
    let expected = match prepare(&prepared, &grid_cells, cache_capacity) {
        Ok(e) => e,
        Err(e) => return Outcome::broken(format!("serve_repeat preparation: {e}")),
    };
    let journal = opts.work.join("repeat.jsonl");
    let mut thr = MinTimes::new(grids);
    let mut lat = MinTimes::new(grids * per_grid);
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut tracer = Tracer::new();
    let mut layers = BTreeMap::new();
    for round in 0..rounds {
        let traced = opts.trace && round + 1 == rounds;
        if let Err(e) = std::fs::copy(&prepared, &journal) {
            return Outcome::broken(format!("copy journal: {e}"));
        }
        let (mut daemon, setup, status) = match Daemon::start(&journal, true, cache_capacity) {
            Ok(d) => d,
            Err(e) => return Outcome::broken(format!("serve_repeat start: {e}")),
        };
        setups.push(setup);
        if status.recovered != expected.len() as u64 {
            failed += 1;
            notes.push(format!(
                "recovered {} records, journal holds {}",
                status.recovered,
                expected.len()
            ));
        }
        for (g, cells) in grid_cells.iter().enumerate() {
            let mut arrivals = vec![f64::INFINITY; cells.len()];
            let started = Instant::now();
            let answer = daemon.client.submit_grid(cells, |rec| {
                if let Some(slot) = arrivals.get_mut(rec.index) {
                    *slot = started.elapsed().as_secs_f64();
                }
            });
            let secs = started.elapsed().as_secs_f64();
            attempted += cells.len() as u64;
            let outcome = match answer {
                Ok(o) => o,
                Err(e) => {
                    failed += cells.len() as u64;
                    notes.push(format!("grid {g} refused: {e}"));
                    continue;
                }
            };
            thr.record(g, secs);
            for (i, at) in arrivals.iter().enumerate() {
                lat.record(g * per_grid + i, *at);
            }
            for (i, rec) in outcome.records.iter().enumerate() {
                let agrees = rec.as_ref().is_some_and(|r| {
                    r.cached
                        && expected
                            .get(&r.key)
                            .is_some_and(|want| same_result(&r.to_checkpoint(), want))
                });
                if !agrees {
                    failed += 1;
                    notes.push(format!("grid {g} cell {i} is not its journaled record"));
                }
            }
        }
        if traced {
            let (hit_ratio, depth) = daemon.queue_and_cache();
            layers.insert("serve.cache_hit_ratio", hit_ratio);
            layers.insert("serve.queue_depth_peak", depth);
            daemon.probe_status(&mut tracer);
        }
        if let Err(e) = daemon.stop() {
            return Outcome::broken(format!("serve_repeat stop: {e}"));
        }
    }

    if opts.trace {
        layers.insert(
            "bench.cell_ms",
            thr.total() / (grids * per_grid) as f64 * 1e3,
        );
        let wrong = repeat_layers(&mut tracer, &mut layers, &prepared, &grid_cells, &expected);
        if wrong > 0 {
            failed += wrong;
            notes.push(format!(
                "{wrong} traced layer calls disagree with the journal"
            ));
        }
    }
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&prepared);
    Outcome {
        e2e: EndToEnd::new(grids * per_grid, &thr, &lat, &setups),
        attempted,
        failed,
        layers,
        notes,
        tracer: opts.trace.then_some(tracer),
    }
}

/// Writes the journal `serve_repeat` replays: a daemon evaluates every
/// grid once and drains. Returns the journaled records by key.
fn prepare(
    path: &Path,
    grids: &[Vec<WireCellSpec>],
    cache_capacity: usize,
) -> Result<HashMap<String, CheckpointRecord>, String> {
    let (mut daemon, _, _) = Daemon::start(path, false, cache_capacity)?;
    for cells in grids {
        match daemon.client.submit_grid(cells, |_| {}) {
            Ok(o) if o.ok == cells.len() => {}
            Ok(o) => {
                daemon.abort();
                return Err(format!("{} of {} cells ok", o.ok, cells.len()));
            }
            Err(e) => {
                daemon.abort();
                return Err(e.to_string());
            }
        }
    }
    daemon.stop()?;
    let state = replay_journal(path).map_err(|e| e.to_string())?;
    let cells: usize = grids.iter().map(Vec::len).sum();
    if state.records.len() != cells {
        return Err(format!(
            "journal holds {} records for {cells} cells",
            state.records.len()
        ));
    }
    Ok(state
        .records
        .into_iter()
        .map(|r| (r.key.clone(), r))
        .collect())
}

/// Journal replays timed per traced `serve_repeat` pass.
const REPLAYS: usize = 5;

/// Alternating untraced and traced passes of `serve_repeat`'s layer
/// calls.
const OVERHEAD_PASSES: usize = 3;

/// The traced half of `serve_repeat`: journal replay, cell keys, record
/// JSON and the workload's own wire frames, each call under a span. The
/// same calls also run untraced; the ratio of the two passes' wall
/// times is the tracing overhead.
fn repeat_layers(
    t: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
    prepared: &Path,
    grids: &[Vec<WireCellSpec>],
    expected: &HashMap<String, CheckpointRecord>,
) -> u64 {
    let specs: Vec<_> = grids
        .iter()
        .flatten()
        .filter_map(|w| w.to_cell().ok())
        .collect();
    let records: Vec<CheckpointRecord> = specs
        .iter()
        .filter_map(|s| expected.get(&cell_key(s)).cloned())
        .collect();
    let requests: Vec<Request> = grids
        .iter()
        .enumerate()
        .map(|(g, cells)| Request::SubmitGrid {
            id: g as u64,
            cells: cells.clone(),
        })
        .collect();
    let per_grid = grids.first().map_or(1, Vec::len).max(1);
    let responses: Vec<Response> = records
        .iter()
        .enumerate()
        .map(|(i, r)| Response::Cell {
            id: (i / per_grid) as u64,
            record: WireCellRecord::from_checkpoint(i % per_grid, r, true),
        })
        .collect();

    let plain_pass = || {
        let started = Instant::now();
        for _ in 0..REPLAYS {
            black_box(replay_journal(prepared).ok());
        }
        for spec in &specs {
            black_box(cell_key(spec));
        }
        for rec in &records {
            black_box(CheckpointRecord::from_json_line(&rec.to_json_line()));
        }
        for req in &requests {
            black_box(Request::decode(&req.encode()).ok());
        }
        for resp in &responses {
            black_box(Response::decode(&resp.encode()).ok());
        }
        started.elapsed().as_secs_f64()
    };
    let traced_pass = |t: &mut Tracer| {
        let started = Instant::now();
        let mut wrong = 0u64;
        for i in 0..REPLAYS {
            let state = t.span("serve.replay", i as u64, |_| replay_journal(prepared));
            if state.map_or(true, |s| s.records.len() != expected.len()) {
                wrong += 1;
            }
        }
        for (i, spec) in specs.iter().enumerate() {
            black_box(t.span("core.cell_key", i as u64, |_| cell_key(spec)));
        }
        for (i, rec) in records.iter().enumerate() {
            let back = t.span("core.record_json", i as u64, |_| {
                CheckpointRecord::from_json_line(&rec.to_json_line())
            });
            wrong += u64::from(back.as_ref() != Some(rec));
        }
        for (i, req) in requests.iter().enumerate() {
            wrong += u64::from(!request_round_trip(t, i as u64, req));
        }
        for (i, resp) in responses.iter().enumerate() {
            wrong += u64::from(!response_round_trip(t, i as u64, resp));
        }
        (started.elapsed().as_secs_f64(), wrong)
    };
    // The passes alternate, and each side keeps its fastest time; only
    // the last traced pass is recorded.
    plain_pass();
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut wrong = 0;
    for pass in 0..OVERHEAD_PASSES {
        untraced = untraced.min(plain_pass());
        let (secs, w) = if pass + 1 == OVERHEAD_PASSES {
            traced_pass(t)
        } else {
            traced_pass(&mut Tracer::new())
        };
        traced = traced.min(secs);
        wrong += w;
    }

    let stat = |n: &str| t.layer(n);
    layers.insert("bench.trace_overhead", traced / untraced - 1.0);
    let cells = specs.len().max(1) as f64;
    let per_cell_ms = (stat("core.cell_key").self_ns
        + stat("serve.wire_encode").self_ns
        + stat("serve.wire_decode").self_ns) as f64
        / 1e6
        / cells;
    let client = layers.get("bench.cell_ms").copied().unwrap_or(0.0);
    layers.insert("bench.unattributed_ms_per_cell", client - per_cell_ms);
    wrong
}
