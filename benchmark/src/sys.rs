//! What the host tells us: memory high-water mark, load, CPU, toolchain.

use std::process::Command;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().trim_start_matches(':').trim().to_string())
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPU seconds the hypervisor gave to someone else while this VM wanted
/// them, since boot, summed over cores (`steal` of `/proc/stat`, in the
/// usual 100 Hz ticks). Two reads around a region tell whether a
/// neighbour disturbed it.
pub fn steal_seconds() -> f64 {
    proc_field("/proc/stat", "cpu ")
        .and_then(|v| v.split_whitespace().nth(7)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The commit of the tree this benchmark sits in; "unknown" when it was
/// exported without its history.
pub fn git_commit(dir: &std::path::Path) -> String {
    let dir = dir.to_string_lossy();
    command_line("git", &["-C", &dir, "rev-parse", "HEAD"])
}

/// Names of the `AXONN_*` variables present, which are then removed so
/// that the program runs at the defaults its users get. Must be called
/// before any thread is started.
pub fn scrub_axonn_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AXONN_"))
        .collect();
    names.sort();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// Single-thread copy bandwidth of a 64 MiB buffer in GB/s, the ceiling
/// the collective transport's bandwidth is set against.
pub fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / 1e9
}
