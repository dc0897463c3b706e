//! Benchmark entry point.
//!
//! ```text
//! ptsbe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! Prints a machine descriptor line, then (as the last line) the result:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when
//! any job or correctness check failed.

use ptsbe_perfbench::run;
use ptsbe_perfbench::sys;
use ptsbe_perfbench::workload::{Size, Workload, NAMES};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ptsbe_perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size tiny]",
        NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, 1u64, 10.0f64, false, Size::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = parse(flag, value),
            "--seconds" => seconds = parse(flag, value),
            "--trace" => trace = parse::<u8>(flag, value) != 0,
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage(&format!("unknown size {value}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let w = Workload::new(&name, size, seed)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let out = if trace {
        run::traced(&w, seconds)
    } else {
        run::end_to_end(&w, seconds)
    };
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    for m in &out.metrics {
        eprintln!("{:>30} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        sys::descriptor(w.name, seed, trace, &out.engine, out.warm_jobs)
    );
    println!("{}", out.json());
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
