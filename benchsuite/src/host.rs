//! Host fingerprint, host-speed calibration, peak memory and the
//! run's scratch directory.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// `nproc`, `rustc -V` and the CPU model, on one line.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\"")
}

/// Times a fixed integer loop, ms. A diagnostic of host speed at the
/// moment it runs; never used to rescale a metric.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh scratch directory beside the benchmark's executable (inside
/// the build directory), unique to this process.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let dir = base
        .join("benchsuite-work")
        .join(std::process::id().to_string());
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
