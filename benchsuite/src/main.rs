//! Host-time benchmark of the clustercrit workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchsuite/Cargo.toml -- \
//!     --workload grid_sweep|serve_fresh|serve_repeat --seed N \
//!     --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` adds a
//! traced pass and reports the per-layer metrics, with spans written to
//! the build directory. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `benchsuite/README.md`.

mod cells;
mod grid;
mod host;
mod oracle;
mod serve;
mod spans;
mod stats;

use spans::Tracer;
use stats::EndToEnd;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["grid_sweep", "serve_fresh", "serve_repeat"];

/// Every per-layer metric of a traced run, with its unit. A workload
/// that never calls a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 44] = [
    ("trace.generate_ms", "ms"),
    ("trace.generate_calls", "count"),
    ("trace.memdep_ms", "ms"),
    ("trace.memdep_calls", "count"),
    ("trace.store_hit_ratio", "ratio"),
    ("scenario.register_ms", "ms"),
    ("scenario.register_calls", "count"),
    ("sim.epoch_ms", "ms"),
    ("sim.epochs", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "cycles"),
    ("critpath.analyze_ms", "ms"),
    ("critpath.analyze_calls", "count"),
    ("core.train_ms", "ms"),
    ("core.train_calls", "count"),
    ("core.grid_overhead_ms", "ms"),
    ("core.record_ms", "ms"),
    ("core.record_calls", "count"),
    ("core.record_share", "ratio"),
    ("core.cell_key_us", "us"),
    ("core.cell_key_calls", "count"),
    ("core.record_json_us", "us"),
    ("core.record_json_calls", "count"),
    ("serve.wire_encode_us", "us"),
    ("serve.wire_encode_calls", "count"),
    ("serve.wire_decode_us", "us"),
    ("serve.wire_decode_calls", "count"),
    ("serve.replay_ms", "ms"),
    ("serve.replay_calls", "count"),
    ("serve.overhead_ms_per_cell", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_peak", "count"),
    ("client.status_rtt_ms", "ms"),
    ("client.status_calls", "count"),
    ("bench.cell_ms", "ms"),
    ("bench.unattributed_ms_per_cell", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.cells", "count"),
    ("bench.fail_ratio", "ratio"),
    ("host.calib_start_ms", "ms"),
    ("host.calib_end_ms", "ms"),
    ("host.peak_rss_mb", "MB"),
    ("host.setups", "count"),
    ("host.nproc", "count"),
];

/// Per-layer metrics read off the spans: span name, the metric holding
/// its mean self time per call, that metric's scale from ms, and the
/// metric holding its call count.
const SPAN_METRICS: [(&str, &str, f64, &str); 13] = [
    (
        "trace.generate",
        "trace.generate_ms",
        1.0,
        "trace.generate_calls",
    ),
    ("trace.memdep", "trace.memdep_ms", 1.0, "trace.memdep_calls"),
    (
        "scenario.register",
        "scenario.register_ms",
        1.0,
        "scenario.register_calls",
    ),
    ("sim.epoch", "sim.epoch_ms", 1.0, "sim.epochs"),
    (
        "critpath.analyze",
        "critpath.analyze_ms",
        1.0,
        "critpath.analyze_calls",
    ),
    ("core.train", "core.train_ms", 1.0, "core.train_calls"),
    ("core.record", "core.record_ms", 1.0, "core.record_calls"),
    (
        "core.cell_key",
        "core.cell_key_us",
        1e3,
        "core.cell_key_calls",
    ),
    (
        "core.record_json",
        "core.record_json_us",
        1e3,
        "core.record_json_calls",
    ),
    (
        "serve.wire_encode",
        "serve.wire_encode_us",
        1e3,
        "serve.wire_encode_calls",
    ),
    (
        "serve.wire_decode",
        "serve.wire_decode_us",
        1e3,
        "serve.wire_decode_calls",
    ),
    ("serve.replay", "serve.replay_ms", 1.0, "serve.replay_calls"),
    (
        "client.status",
        "client.status_rtt_ms",
        1.0,
        "client.status_calls",
    ),
];

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement length, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Minimum sizes, for the smoke test.
    pub smoke: bool,
    /// Scratch directory for journals.
    pub work: PathBuf,
}

/// What a workload measured and checked.
pub struct Outcome {
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Cells attempted (plus checks made).
    pub attempted: u64,
    /// Failed, refused and wrong answers.
    pub failed: u64,
    /// Per-layer figures of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable findings.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// A workload that could not run at all.
    pub fn broken(why: String) -> Outcome {
        Outcome {
            e2e: EndToEnd {
                cells_per_s: 0.0,
                cell_p50_ms: 0.0,
                cell_p95_ms: 0.0,
                setup_s: 0.0,
                samples: 0,
                setups: 0,
            },
            attempted: 1,
            failed: 1,
            layers: BTreeMap::new(),
            notes: vec![why],
            tracer: None,
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
        work: host::work_dir().map_err(|e| format!("scratch directory: {e}"))?,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchsuite: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::fingerprint());
    let calib_start = host::calib_ms();
    println!("host.calib_ms start {calib_start:.3}");
    let outcome = match opts.workload.as_str() {
        "grid_sweep" => grid::run(&opts),
        "serve_fresh" => serve::fresh(&opts),
        _ => serve::repeat(&opts),
    };
    let calib_end = host::calib_ms();
    println!("host.calib_ms end {calib_end:.3}");
    let _ = std::fs::remove_dir_all(&opts.work);

    let e = outcome.e2e;
    let rss = host::peak_rss_mb();
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "samples: {} cells behind the percentiles (min over rounds per cell), {} set-ups",
        e.samples, e.setups
    );
    let end_to_end = [
        ("cells_per_s", e.cells_per_s, "1/s"),
        ("cell_p50_ms", e.cell_p50_ms, "ms"),
        ("cell_p95_ms", e.cell_p95_ms, "ms"),
        ("setup_s", e.setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
    ];
    for (name, value, unit) in end_to_end {
        println!("metric {name} = {value} {unit}");
    }
    println!("metric fail_ratio = {fail_ratio} fraction");

    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        let mut layers = outcome.layers.clone();
        layers.insert("bench.cells", e.samples as f64);
        layers.insert("bench.fail_ratio", fail_ratio);
        layers.insert("host.calib_start_ms", calib_start);
        layers.insert("host.calib_end_ms", calib_end);
        layers.insert("host.peak_rss_mb", rss);
        layers.insert("host.setups", e.setups as f64);
        layers.insert(
            "host.nproc",
            std::thread::available_parallelism().map_or(0, usize::from) as f64,
        );
        if let Some(tracer) = &outcome.tracer {
            let stats = tracer.layers();
            for (span, mean_metric, scale, calls_metric) in SPAN_METRICS {
                let stat = stats.get(span).copied().unwrap_or_default();
                layers.insert(mean_metric, stat.mean_ms() * scale);
                layers.insert(calls_metric, stat.calls as f64);
            }
            if let Some(&cycles) = layers.get("sim.cycles") {
                let sim_ns = stats.get("sim.epoch").map_or(0, |s| s.self_ns) as f64;
                layers.insert("sim.ns_per_cycle", sim_ns / cycles.max(1.0));
            }
            let path = opts
                .work
                .with_file_name(format!("spans-{}.jsonl", opts.workload));
            match tracer.write_jsonl(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(err) => println!("note: spans not written: {err}"),
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers.get(name).copied().unwrap_or(0.0);
                println!("layer {name} = {v} {unit}");
                (name, v, unit)
            })
            .collect()
    } else {
        end_to_end.to_vec()
    };

    let correct = outcome.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut json = String::from("{\"correct\":");
    let _ = write!(
        json,
        "{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
