//! Process and machine facts read from `/proc`, and the machine
//! descriptor printed with every result.

use std::fmt::Write as _;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process CPU time so far: `(user, system)` seconds, summed over every
/// thread the process has run.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            / USER_HZ
    };
    (field(14), field(15))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON line describing the machine and build a result came from,
/// plus the workload, seed, routed engine and warm-job sample count.
pub fn descriptor(
    workload: &str,
    seed: u64,
    trace: bool,
    engine: &str,
    warm_jobs: usize,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let batch_env = std::env::var("PTSBE_BATCH_KERNELS").ok();
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"target_cpu_native\": {}, \
         \"rustflags\": {}, \"kernel_impl\": {}, \"ptsbe_batch_kernels_set\": {}, \
         \"rayon_threads\": {}}}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"engine\": {}, \"warm_jobs\": {warm_jobs}}}",
        json_str(&cpu_model()),
        flags.contains("target-cpu=native"),
        json_str(flags),
        json_str(ptsbe_statevector::KernelImpl::auto().label()),
        batch_env.is_some(),
        rayon::current_num_threads(),
        json_str(workload),
        json_str(engine),
    )
}
