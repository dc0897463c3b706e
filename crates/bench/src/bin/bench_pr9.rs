//! PR 9 perf snapshot: what does telemetry cost, and where does the
//! wall time go?
//!
//! Two questions, two builds:
//!
//! 1. **Overhead** — the default build with telemetry *off* (mode check
//!    = one relaxed atomic load per hook) is priced against a build
//!    where the hooks never existed (`--features telemetry-baseline`,
//!    which compiles `ptsbe_telemetry/no-hooks` into the workspace).
//!    Run the baseline build first; it writes its warm timings to
//!    `PTSBE_PR9_BASELINE` (default `target/BENCH_pr9_baseline.json`)
//!    and exits. The normal build reads that file and asserts the
//!    telemetry-off overhead stays within `PTSBE_PR9_TOL` on the summed
//!    best-of-reps warm walls. No baseline file → the comparison is
//!    skipped with a note, never silently.
//!
//!    Both sides take the same minimum twice over: best-of-`warm_reps`
//!    warm walls within a service, then best-of-`PTSBE_PR9_MEASURE_REPS`
//!    (default 2) across fresh services. The double minimum is the
//!    noise floor of each build — PR 9's raw measurement once read −3%
//!    "overhead" (the *instrumented* build faster than no-hooks), which
//!    is physically meaningless and was pure run-to-run scatter from
//!    single-service sampling.
//!
//!    `PTSBE_PR9_TOL` is the one-sided overhead ceiling as a fraction
//!    (`0.02` = 2%). The default holds the module-documented ≤2%
//!    contract for quiet machines; CI sets `0.10` because shared
//!    runners jitter more than the hooks could ever cost — the check
//!    there guards against regressions an order of magnitude above the
//!    contract, not the contract itself. Negative overhead always
//!    passes: the assert is one-sided by design.
//! 2. **Decomposition** — with spans mode on, each engine's warm job is
//!    broken down per stage (queue-wait/route/compile/prep/sample/sink)
//!    and the breakdown lands in `BENCH_pr9.json` alongside the span
//!    coverage of the measured wall.
//!
//! Engines covered: frame, sv-tree, sv-batch-major, mps-tree — the
//! same frame/statevector workloads as the committed service snapshots
//! before it (apples-to-apples across the history), with the MPS engine
//! forced onto the statevector workload (default `MpsConfig` is
//! cap-driven: no budget probe, no refusal).
//!
//! Knobs: `PTSBE_PR9_QUBITS`, `PTSBE_PR9_DEPTH`, `PTSBE_PR9_TRAJ`,
//! `PTSBE_PR9_SHOTS`, `PTSBE_PR9_FRAME_SHOTS`, `PTSBE_PR9_WARM_REPS`,
//! `PTSBE_PR9_MEASURE_REPS`, `PTSBE_PR9_WORKERS`, `PTSBE_PR9_OUT`,
//! `PTSBE_PR9_BASELINE`, `PTSBE_PR9_TOL`.

use ptsbe_bench::{env_usize, msd_like, with_entangler_depolarizing};
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsSampler};
use ptsbe_dataset::MemorySink;
use ptsbe_rng::PhiloxRng;
#[cfg(not(feature = "telemetry-baseline"))]
use ptsbe_service::Stage;
use ptsbe_service::{
    EngineKind, EnginePolicy, JobSpec, ServiceConfig, ShotService, TelemetryConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

#[cfg(not(feature = "telemetry-baseline"))]
const ENGINES: [&str; 4] = ["frame", "sv-tree", "sv-batch-major", "mps-tree"];

/// The six stages the acceptance criterion sums for a warm job. (Plan
/// and compile nest inside route on cold jobs; warm jobs have neither.)
#[cfg(not(feature = "telemetry-baseline"))]
const WARM_STAGES: [Stage; 6] = [
    Stage::QueueWait,
    Stage::Route,
    Stage::Compile,
    Stage::Prep,
    Stage::Sample,
    Stage::SinkWrite,
];

struct WarmTiming {
    label: &'static str,
    cold_ms: f64,
    /// Best-of-reps warm wall — the noise-robust number the overhead
    /// comparison uses.
    warm_best_ms: f64,
    warm_mean_ms: f64,
    #[cfg_attr(feature = "telemetry-baseline", allow(dead_code))]
    shots_per_job: u64,
}

/// One cold + `warm_reps` warm submissions on a fresh service with the
/// given telemetry mode; warm path asserted compile/plan-free.
fn measure(
    label: &'static str,
    spec: &JobSpec,
    expect: EngineKind,
    warm_reps: usize,
    telemetry: TelemetryConfig,
) -> WarmTiming {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: env_usize("PTSBE_PR9_WORKERS", 0),
        telemetry: Some(telemetry),
        ..ServiceConfig::default()
    });
    let submit = |spec: JobSpec| {
        let (sink, _) = MemorySink::new();
        let report = service.submit(spec, Box::new(sink)).expect("submit").wait();
        assert!(report.status.is_success(), "{label}: {report:?}");
        assert_eq!(report.engine, Some(expect), "{label}: misrouted");
        report
    };
    let t0 = Instant::now();
    let cold = submit(spec.clone());
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after_cold = service.cache_stats();

    let mut walls = Vec::with_capacity(warm_reps);
    for _ in 0..warm_reps {
        let t0 = Instant::now();
        submit(spec.clone());
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let after_warm = service.cache_stats();
    assert_eq!(
        after_warm.compile_misses() + after_warm.tree_misses,
        after_cold.compile_misses() + after_cold.tree_misses,
        "{label}: warm repeats must not compile or plan"
    );
    WarmTiming {
        label,
        cold_ms,
        warm_best_ms: walls.iter().copied().fold(f64::INFINITY, f64::min),
        warm_mean_ms: walls.iter().sum::<f64>() / walls.len() as f64,
        shots_per_job: cold.shots,
    }
}

/// Best-of-`outer_reps` independent services: each rep is a full
/// `measure` (fresh service, cold submit, best-of-`warm_reps` warm
/// submits), and the overhead comparison keeps the minimum warm wall
/// across reps. Run symmetrically on the no-hooks baseline and the
/// telemetry-off build so the contract compares noise floors, not one
/// lucky/unlucky service instance against another.
fn measure_best(
    label: &'static str,
    spec: &JobSpec,
    expect: EngineKind,
    warm_reps: usize,
    outer_reps: usize,
    telemetry: TelemetryConfig,
) -> WarmTiming {
    let mut best: Option<WarmTiming> = None;
    for _ in 0..outer_reps.max(1) {
        let t = measure(label, spec, expect, warm_reps, telemetry.clone());
        best = Some(match best {
            None => t,
            Some(b) => WarmTiming {
                label,
                cold_ms: b.cold_ms.min(t.cold_ms),
                warm_best_ms: b.warm_best_ms.min(t.warm_best_ms),
                warm_mean_ms: b.warm_mean_ms.min(t.warm_mean_ms),
                shots_per_job: b.shots_per_job,
            },
        });
    }
    best.expect("outer_reps >= 1")
}

/// Pull `"key": <number>` out of a flat JSON string (the baseline file
/// this binary itself writes — not a general parser).
#[cfg(not(feature = "telemetry-baseline"))]
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let n = env_usize("PTSBE_PR9_QUBITS", 10);
    let depth = env_usize("PTSBE_PR9_DEPTH", 10);
    let n_traj = env_usize("PTSBE_PR9_TRAJ", 200);
    let shots = env_usize("PTSBE_PR9_SHOTS", 20);
    let frame_shots = env_usize("PTSBE_PR9_FRAME_SHOTS", 2_000_000);
    let warm_reps = env_usize("PTSBE_PR9_WARM_REPS", 5);
    let measure_reps = env_usize("PTSBE_PR9_MEASURE_REPS", 2);
    let baseline_path = std::env::var("PTSBE_PR9_BASELINE")
        .unwrap_or_else(|_| "target/BENCH_pr9_baseline.json".to_string());

    // Workloads identical to the earlier committed service snapshots.
    let mut c = Circuit::new(n);
    for layer in 0..depth {
        for q in 0..n - 1 {
            if (q + layer) % 2 == 0 {
                c.cx(q, q + 1);
            }
        }
    }
    c.measure_all();
    let frame_nc = NoiseModel::new()
        .with_default_2q(channels::depolarizing2(1e-2))
        .apply(&c);
    let mut rng = PhiloxRng::new(0x9124, 0);
    let frame_plan = ProbabilisticPts {
        n_samples: 1,
        shots_per_trajectory: frame_shots,
        dedup: true,
    }
    .sample_plan(&frame_nc, &mut rng);
    let frame_spec = JobSpec::new("bench-frame", Arc::new(frame_nc), Arc::new(frame_plan), 17);

    let sv_nc: NoisyCircuit = with_entangler_depolarizing(&msd_like(n, depth), 1e-3);
    let mut rng = PhiloxRng::new(0x9125, 0);
    let sv_plan = ProbabilisticPts {
        n_samples: n_traj,
        shots_per_trajectory: shots,
        dedup: false,
    }
    .sample_plan(&sv_nc, &mut rng);
    let sv_nc = Arc::new(sv_nc);
    let sv_plan = Arc::new(sv_plan);
    let forced = |name: &str, kind: EngineKind| {
        JobSpec::new(name, Arc::clone(&sv_nc), Arc::clone(&sv_plan), 17)
            .with_engine(EnginePolicy::Force(kind))
    };
    let specs: [(&'static str, JobSpec, EngineKind); 4] = [
        ("frame", frame_spec, EngineKind::Frame),
        (
            "sv-tree",
            forced("bench-tree", EngineKind::Tree),
            EngineKind::Tree,
        ),
        (
            "sv-batch-major",
            forced("bench-batch", EngineKind::BatchMajor),
            EngineKind::BatchMajor,
        ),
        (
            "mps-tree",
            forced("bench-mps", EngineKind::MpsTree),
            EngineKind::MpsTree,
        ),
    ];

    // ------------------------------------------------------------------
    // Baseline build: hooks compiled out. Time, record, exit — the
    // normal build does the comparison.
    #[cfg(feature = "telemetry-baseline")]
    {
        let rows: Vec<WarmTiming> = specs
            .iter()
            .map(|(label, spec, kind)| {
                measure_best(
                    label,
                    spec,
                    *kind,
                    warm_reps,
                    measure_reps,
                    TelemetryConfig::off(),
                )
            })
            .collect();
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"build\": \"no-hooks\",");
        for (i, r) in rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "  \"{}\": {:.3}{}",
                r.label,
                r.warm_best_ms,
                if i + 1 == rows.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "}}");
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&baseline_path, &json).expect("write baseline json");
        println!("{json}");
        println!("# no-hooks baseline written to {baseline_path}; now run the default build");
        for r in &rows {
            println!(
                "# {:<15} cold {:>8.1} ms | warm best {:>8.2} ms (mean {:.2})",
                r.label, r.cold_ms, r.warm_best_ms, r.warm_mean_ms
            );
        }
        return;
    }

    // ------------------------------------------------------------------
    // Normal build, phase 1: telemetry off vs the no-hooks baseline.
    #[cfg(not(feature = "telemetry-baseline"))]
    {
        let out_path =
            std::env::var("PTSBE_PR9_OUT").unwrap_or_else(|_| "BENCH_pr9.json".to_string());
        let tol: f64 = std::env::var("PTSBE_PR9_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.02);
        let off_rows: Vec<WarmTiming> = specs
            .iter()
            .map(|(label, spec, kind)| {
                measure_best(
                    label,
                    spec,
                    *kind,
                    warm_reps,
                    measure_reps,
                    TelemetryConfig::off(),
                )
            })
            .collect();

        let baseline = std::fs::read_to_string(&baseline_path).ok();
        let baseline_ms: Vec<Option<f64>> = ENGINES
            .iter()
            .map(|label| baseline.as_deref().and_then(|j| extract_f64(j, label)))
            .collect();
        let off_total: f64 = off_rows.iter().map(|r| r.warm_best_ms).sum();
        let overhead = if baseline_ms.iter().all(|b| b.is_some()) {
            let base_total: f64 = baseline_ms.iter().map(|b| b.unwrap()).sum();
            let overhead = off_total / base_total - 1.0;
            println!(
                "# telemetry-off {off_total:.2} ms vs no-hooks {base_total:.2} ms \
                 (summed best warm walls): overhead {:+.2}%",
                overhead * 100.0
            );
            assert!(
                overhead <= tol,
                "telemetry-off overhead {:.2}% exceeds the {:.0}% contract \
                 ({off_total:.2} ms vs no-hooks {base_total:.2} ms)",
                overhead * 100.0,
                tol * 100.0
            );
            Some(overhead)
        } else {
            println!(
                "# no baseline at {baseline_path} — overhead contract NOT checked. \
                 Run `cargo run --release --features telemetry-baseline --bin bench_pr9` first."
            );
            None
        };

        // Phase 2: spans mode, one cold + one warm job per engine; the
        // warm job (id 2 on each fresh service) decomposes per stage.
        struct Breakdown {
            warm_ms: f64,
            stages: Vec<(&'static str, u64)>,
            coverage: f64,
        }
        let breakdowns: Vec<Breakdown> = specs
            .iter()
            .map(|(label, spec, kind)| {
                ptsbe_telemetry::reset();
                let t = measure(label, spec, *kind, 1, TelemetryConfig::spans());
                let snap = ptsbe_telemetry::snapshot();
                let stages: Vec<(&'static str, u64)> = Stage::ALL
                    .iter()
                    .map(|s| (s.label(), snap.job_stage_nanos(2, *s)))
                    .filter(|(_, ns)| *ns > 0)
                    .collect();
                let sum: u64 = WARM_STAGES
                    .iter()
                    .map(|s| snap.job_stage_nanos(2, *s))
                    .sum();
                Breakdown {
                    warm_ms: t.warm_best_ms,
                    stages,
                    coverage: sum as f64 / (t.warm_best_ms * 1e6),
                }
            })
            .collect();

        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"pr\": 9,");
        let _ = writeln!(
            json,
            "  \"bench\": \"telemetry_overhead_and_stage_breakdown\","
        );
        let _ = writeln!(
            json,
            "  \"workload\": {{ \"n_qubits\": {n}, \"depth\": {depth}, \"trajectories\": {n_traj}, \
             \"shots_per_trajectory\": {shots}, \"frame_shots\": {frame_shots}, \
             \"warm_reps\": {warm_reps}, \"measure_reps\": {measure_reps} }},"
        );
        match overhead {
            Some(o) => {
                let _ = writeln!(json, "  \"telemetry_off_overhead\": {o:.4},");
                let _ = writeln!(json, "  \"overhead_tolerance\": {tol},");
            }
            None => {
                let _ = writeln!(json, "  \"telemetry_off_overhead\": null,");
            }
        }
        let _ = writeln!(json, "  \"engines\": {{");
        for (i, ((r, b), base)) in off_rows
            .iter()
            .zip(&breakdowns)
            .zip(&baseline_ms)
            .enumerate()
        {
            let _ = writeln!(json, "    \"{}\": {{", r.label);
            let _ = writeln!(json, "      \"cold_ms\": {:.3},", r.cold_ms);
            let _ = writeln!(json, "      \"warm_ms_off\": {:.3},", r.warm_best_ms);
            let _ = writeln!(json, "      \"warm_ms_off_mean\": {:.3},", r.warm_mean_ms);
            if let Some(base) = base {
                let _ = writeln!(json, "      \"warm_ms_no_hooks\": {base:.3},");
            }
            let _ = writeln!(json, "      \"warm_ms_spans\": {:.3},", b.warm_ms);
            let _ = writeln!(json, "      \"shots_per_job\": {},", r.shots_per_job);
            let _ = writeln!(
                json,
                "      \"warm_shots_per_sec\": {:.0},",
                r.shots_per_job as f64 / (r.warm_best_ms / 1e3)
            );
            let _ = writeln!(
                json,
                "      \"span_coverage_of_warm_wall\": {:.3},",
                b.coverage
            );
            let _ = writeln!(json, "      \"warm_stage_nanos\": {{");
            for (j, (stage, ns)) in b.stages.iter().enumerate() {
                let _ = writeln!(
                    json,
                    "        \"{stage}\": {ns}{}",
                    if j + 1 == b.stages.len() { "" } else { "," }
                );
            }
            let _ = writeln!(json, "      }}");
            let _ = writeln!(
                json,
                "    }}{}",
                if i + 1 == off_rows.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  }},");
        let _ = writeln!(json, "  \"warm_path_zero_compile_plan_work\": true");
        let _ = writeln!(json, "}}");
        std::fs::write(&out_path, &json).expect("write bench json");
        println!("{json}");
        println!("# wrote {out_path}");
        for (r, b) in off_rows.iter().zip(&breakdowns) {
            println!(
                "# {:<15} cold {:>8.1} ms | warm off {:>8.2} ms | warm spans {:>8.2} ms \
                 (span coverage {:.0}%)",
                r.label,
                r.cold_ms,
                r.warm_best_ms,
                b.warm_ms,
                b.coverage * 100.0
            );
        }
    }
}
