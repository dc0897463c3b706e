//! One benchmark run: cold set-up, the correctness gate, then either the
//! untraced end-to-end measurement or the traced per-layer split.
//!
//! Load model: closed loop, one client with one job in flight, against a
//! two-worker service whose fault injection and telemetry are pinned in
//! its config (the `PTSBE_FAULTS`/`PTSBE_TELEMETRY` environment cannot
//! change what is measured). Sinks write to in-memory buffers.

use crate::gate;
use crate::sys;
use crate::workload::{Oracle, Workload};
use ptsbe_core::backend::{MpsBackend, MpsSampleMode};
use ptsbe_core::{
    BatchConfig, BatchMajorExecutor, BatchResult, BatchedExecutor, ProbabilisticPts, PtsPlan,
    PtsPlanTree, PtsSampler, StatePool, SvBackend, TreeExecutor,
};
use ptsbe_dataset::record::{hex_shots, records_from_batch};
use ptsbe_dataset::TrajectoryRecord;
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{
    EngineKind, EnginePolicy, FaultConfig, JobReport, JobSpec, JobStatus, ServiceConfig,
    ShotService, Stage, TelemetryConfig, TelemetrySnapshot,
};
use ptsbe_stabilizer::FrameSampler;
use ptsbe_statevector::SamplingStrategy;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Service worker threads (the measurement machine has two cores).
pub const WORKERS: usize = 2;
/// Fresh cold starts per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm jobs a run measures at least, however short `--seconds` is.
const MIN_WARM: usize = 3;
/// Direct-call repetitions for the fast layers (median reported).
const LAYER_REPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Engine the workload's cold job was routed to.
    pub engine: String,
    /// Warm jobs the run's medians are taken over.
    pub warm_jobs: usize,
    /// Jobs attempted.
    pub attempted: u64,
    /// Every job that did not finish `Done` on its engine and every
    /// failed correctness check, as a reason.
    pub failures: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Failed jobs plus failed checks (capped at `attempted`).
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed()
        )
    }

    fn job(&mut self, job: &JobRun, engine: EngineKind, what: &str) {
        self.attempted += 1;
        let r = &job.report;
        if r.status != JobStatus::Done || r.engine != Some(engine) {
            self.failures.push(format!(
                "{what} job ended {} on {:?} (expected done on {}): {}",
                r.status,
                r.engine.map(EngineKind::label),
                engine.label(),
                r.error.clone().unwrap_or_else(|| r.route_reason.clone())
            ));
        }
    }

    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// A finished service job and the bytes its sink received.
pub struct JobRun {
    /// The service's terminal report.
    pub report: JobReport,
    /// Dataset bytes.
    pub bytes: Vec<u8>,
    /// Client-side wall time, submission to report.
    pub client_s: f64,
}

/// Start a service with pinned faults (off), pinned telemetry, and
/// [`WORKERS`] workers.
pub fn service(telemetry: TelemetryConfig) -> ShotService {
    ShotService::start(ServiceConfig {
        workers: WORKERS,
        faults: Some(FaultConfig::default()),
        telemetry: Some(telemetry),
        ..ServiceConfig::default()
    })
}

/// Submit one job and wait for its report.
///
/// # Errors
/// When the service refuses the submission.
pub fn run_job(svc: &ShotService, w: &Workload, spec: JobSpec) -> Result<JobRun, String> {
    let (sink, buf) = w.sink();
    let t0 = Instant::now();
    let handle = svc
        .submit(spec, sink)
        .map_err(|e| format!("submit refused: {e}"))?;
    let report = handle.wait();
    let client_s = t0.elapsed().as_secs_f64();
    Ok(JobRun {
        report,
        bytes: buf.bytes(),
        client_s,
    })
}

/// A cold start: plan sampling, a fresh service, and its first job.
pub struct Cold {
    /// The service, warm after its first job.
    pub svc: ShotService,
    /// The sampled plan every job of the run uses.
    pub plan: Arc<PtsPlan>,
    /// The cold job.
    pub job: JobRun,
    /// Time to first dataset.
    pub secs: f64,
}

/// Time to first dataset: PTS plan sampling, `ShotService::start`, and
/// the cold job (compile, plan-tree build, probe, pool warm-up).
///
/// # Errors
/// When the cold job cannot be submitted.
pub fn cold_start(w: &Workload, telemetry: TelemetryConfig) -> Result<Cold, String> {
    let t0 = Instant::now();
    let plan = Arc::new(w.sample_plan());
    let svc = service(telemetry);
    let job = run_job(&svc, w, w.spec(Arc::clone(&plan)))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(Cold {
        svc,
        plan,
        job,
        secs,
    })
}

fn prefix_plan(plan: &PtsPlan, k: usize) -> Arc<PtsPlan> {
    Arc::new(PtsPlan {
        trajectories: plan.trajectories[..k.min(plan.trajectories.len())].to_vec(),
    })
}

/// The correctness gate over a cold dataset: it decodes through the
/// public reader to exactly the planned records and shots, and agrees
/// with the workload's oracle. Returns the decoded records.
pub fn gate(
    w: &Workload,
    svc: &ShotService,
    plan: &PtsPlan,
    cold: &[u8],
    out: &mut Outcome,
) -> Vec<TrajectoryRecord> {
    let n_measured = w.circuit.measured_qubits().len();
    let (header, records) = match gate::decode(cold, w.binary) {
        Ok(d) => d,
        Err(e) => {
            out.check("cold dataset", Err(e));
            return Vec::new();
        }
    };
    let per_trajectory = w.engine != EngineKind::Frame;
    out.check(
        "cold dataset",
        gate::check_planned(&header, &records, plan, n_measured, per_trajectory),
    );
    let oracle: Result<(), String> = match w.oracle {
        Oracle::FlatPrefix { k } => {
            let spec = w
                .spec(prefix_plan(plan, k))
                .with_engine(EnginePolicy::Force(EngineKind::Flat));
            run_job(svc, w, spec).and_then(|job| {
                out.job(&job, EngineKind::Flat, "flat oracle");
                let (_, want) = gate::decode(&job.bytes, w.binary)?;
                gate::check_prefix(&records, &want)
            })
        }
        Oracle::MpsPrefix { k } => {
            let prefix = prefix_plan(plan, k);
            let spec = w.spec(Arc::clone(&prefix));
            MpsBackend::<f64>::new(&w.circuit, spec.mps, MpsSampleMode::default())
                .map_err(|e| format!("mps compile failed: {e}"))
                .and_then(|backend| {
                    let ex = BatchedExecutor {
                        seed: w.job_seed(),
                        parallel: false,
                    };
                    let want = records_from_batch(&ex.execute(&backend, &w.circuit, &prefix));
                    gate::check_prefix(&records, &want)
                })
        }
        Oracle::MpsRates { trajectories } => {
            let sampler = ProbabilisticPts {
                n_samples: trajectories,
                shots_per_trajectory: 1,
                dedup: false,
            };
            let mut rng = PhiloxRng::new(w.seed, 0x4D50_5352);
            let small = Arc::new(sampler.sample_plan(&w.circuit, &mut rng));
            let spec = w
                .spec(small)
                .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
            run_job(svc, w, spec).and_then(|job| {
                out.job(&job, EngineKind::MpsTree, "mps oracle");
                let (_, want) = gate::decode(&job.bytes, w.binary)?;
                gate::check_rates(&records, &want, n_measured)
            })
        }
    };
    out.check("oracle", oracle);
    records
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn cache_misses(svc: &ShotService) -> u64 {
    let s = svc.cache_stats();
    s.compile_misses() + s.tree_misses
}

/// Count cache misses since `before`; any is a failed check, because a
/// warm job must do no compile or plan work.
fn check_warm_cache(out: &mut Outcome, svc: &ShotService, before: u64) -> u64 {
    let misses = cache_misses(svc) - before;
    if misses > 0 {
        out.check(
            "warm cache",
            Err(format!("warm jobs recompiled or re-planned {misses} times")),
        );
    }
    misses
}

/// The untraced run: a cold start and the gate on its dataset, warm
/// jobs on its service for `seconds`, then `SETUPS - 1` more cold starts
/// for the set-up median. Reports every end-to-end metric.
///
/// Peak memory is read before the extra cold starts: a service started
/// after another one has stopped can land on allocator arenas that still
/// hold the old service's freed states, which measured as a bimodal
/// 165/230 MiB peak on `sv-shared`.
pub fn end_to_end(w: &Workload, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cold = match cold_start(w, TelemetryConfig::off()) {
        Ok(c) => c,
        Err(e) => {
            out.check("cold start", Err(e));
            return out;
        }
    };
    out.job(&cold.job, w.engine, "cold");
    out.engine = cold
        .job
        .report
        .engine
        .map_or("none", EngineKind::label)
        .to_string();
    let reference = &cold.job.bytes;
    gate(w, &cold.svc, &cold.plan, reference, &mut out);

    let misses = cache_misses(&cold.svc);
    // Per-job throughput and wall time, summarised by their medians over
    // the warm jobs. CPU time is summed over all of them instead: the
    // kernel counts it in 10 ms ticks, too coarse for one job.
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let (mut cpu, mut shots) = (0.0, 0u64);
    let start = Instant::now();
    while walls.len() < MIN_WARM || start.elapsed().as_secs_f64() < seconds {
        let (u0, s0) = sys::cpu_times();
        let job = match run_job(&cold.svc, w, w.spec(Arc::clone(&cold.plan))) {
            Ok(j) => j,
            Err(e) => {
                out.check("warm job", Err(e));
                break;
            }
        };
        let (u1, s1) = sys::cpu_times();
        out.job(&job, w.engine, "warm");
        out.check("warm dataset", gate::check_identical(reference, &job.bytes));
        rates.push(job.report.shots as f64 / job.client_s.max(1e-9));
        cpu += (u1 - u0) + (s1 - s0);
        shots += job.report.shots;
        walls.push(job.report.wall.as_secs_f64());
    }
    check_warm_cache(&mut out, &cold.svc, misses);
    out.warm_jobs = walls.len();
    let peak_rss = sys::peak_rss_mb();

    let mut setup = vec![cold.secs];
    let Cold {
        svc, job: cold_job, ..
    } = cold;
    // Stop the measured service before the next cold start.
    drop(svc);
    for _ in 1..SETUPS {
        match cold_start(w, TelemetryConfig::off()) {
            Ok(again) => {
                out.job(&again.job, w.engine, "cold");
                out.check(
                    "repeated cold dataset",
                    gate::check_identical(&cold_job.bytes, &again.job.bytes),
                );
                setup.push(again.secs);
            }
            Err(e) => out.check("cold start", Err(e)),
        }
    }
    out.push("shots_per_s", median(rates), "1/s");
    out.push("job_wall_s", median(walls), "s");
    out.push("setup_s", median(setup), "s");
    out.push("cpu_s_per_mshot", cpu / shots.max(1) as f64 * 1e6, "s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    out.push(
        "dataset_bytes_per_shot",
        cold_job.bytes.len() as f64 / cold_job.report.shots.max(1) as f64,
        "B",
    );
    out
}

// ---------------------------------------------------------------------------
// The traced run.

/// Time `f` `reps` times; the last result and the median seconds.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("reps >= 1"), median(times))
}

fn secs(snap: &TelemetrySnapshot, stage: Stage) -> f64 {
    snap.stage_total(stage).as_secs_f64()
}

/// What the direct (service-free) calls into each layer measured.
#[derive(Default)]
struct Layers {
    compile_s: f64,
    ops_after_fusion: f64,
    wall_s: f64,
    prep_s: f64,
    sample_s: f64,
    svd_s: f64,
    svd_calls: f64,
    sample_batch_s: f64,
    fresh_forks: f64,
    lanes: f64,
    frame_sample_s: f64,
    encode_s: f64,
    records: Vec<TrajectoryRecord>,
}

/// Run an executor twice: once untraced to warm its state pool, then
/// under counter telemetry for the wall time, the prep/sample/SVD
/// split and the fresh forks of a warm walk; then encode the result
/// into records.
fn executor_layers(layers: &mut Layers, run: impl Fn() -> BatchResult, fresh: impl Fn() -> usize) {
    let _ = run();
    let fresh0 = fresh();
    ptsbe_telemetry::configure(&TelemetryConfig::counters());
    ptsbe_telemetry::reset();
    let t0 = Instant::now();
    let batch = run();
    layers.wall_s = t0.elapsed().as_secs_f64();
    let snap = ptsbe_telemetry::snapshot();
    ptsbe_telemetry::configure(&TelemetryConfig::off());
    layers.fresh_forks = (fresh() - fresh0) as f64;
    layers.prep_s = secs(&snap, Stage::Prep);
    layers.sample_s = secs(&snap, Stage::Sample);
    layers.svd_s = secs(&snap, Stage::MpsSvd);
    layers.svd_calls = snap.stage(Stage::MpsSvd).count as f64;
    layers.sample_batch_s = secs(&snap, Stage::SampleBatch);
    let t0 = Instant::now();
    layers.records = records_from_batch(&batch);
    layers.encode_s = t0.elapsed().as_secs_f64();
}

/// Direct calls into compile, executor and encoding for `w`'s engine.
/// Frame jobs reuse the cold dataset's shot blocks (`cold`), so the
/// direct sampler draws exactly the chunks the service drew.
fn direct_layers(
    w: &Workload,
    plan: &PtsPlan,
    tree: &PtsPlanTree,
    cold: &[TrajectoryRecord],
) -> Result<Layers, String> {
    let nc = w.circuit.as_ref();
    let seed = w.job_seed();
    let mut layers = Layers::default();
    match w.engine {
        EngineKind::Tree | EngineKind::BatchMajor | EngineKind::Flat => {
            let (backend, compile_s) = median_time(LAYER_REPS, || {
                SvBackend::<f64>::new_with_fusion(nc, SamplingStrategy::Auto, true)
            });
            let backend = backend.map_err(|e| format!("statevector compile failed: {e}"))?;
            layers.compile_s = compile_s;
            layers.ops_after_fusion = backend.fusion_stats().ops_after as f64;
            if w.engine == EngineKind::Tree {
                let ex = TreeExecutor {
                    seed,
                    parallel: false,
                };
                let pool = StatePool::new();
                layers.lanes = 1.0;
                executor_layers(
                    &mut layers,
                    || ex.execute_tree_pooled(&backend, nc, plan, tree, &pool),
                    || pool.stats().fresh,
                );
            } else {
                let cfg = BatchConfig::default();
                let ex = BatchMajorExecutor {
                    seed,
                    parallel: false,
                    lanes: 0,
                    cfg,
                };
                let pool = StatePool::new();
                layers.lanes = cfg.lanes_for::<f64>(nc.n_qubits()) as f64;
                executor_layers(
                    &mut layers,
                    || {
                        ex.execute_slice_pooled(
                            &backend,
                            nc,
                            plan,
                            0..plan.trajectories.len(),
                            &pool,
                        )
                    },
                    || pool.stats().fresh,
                );
            }
        }
        EngineKind::MpsTree => {
            let config = w.spec(Arc::new(PtsPlan::default())).mps;
            let (backend, compile_s) = median_time(LAYER_REPS, || {
                MpsBackend::<f64>::new(nc, config, MpsSampleMode::default())
            });
            let backend = backend.map_err(|e| format!("mps compile failed: {e}"))?;
            layers.compile_s = compile_s;
            layers.ops_after_fusion = backend.fusion_stats().ops_after as f64;
            let ex = TreeExecutor {
                seed,
                parallel: false,
            };
            let pool = StatePool::new();
            executor_layers(
                &mut layers,
                || ex.execute_tree_pooled(&backend, nc, plan, tree, &pool),
                || pool.stats().fresh,
            );
        }
        EngineKind::Frame => {
            let (sampler, compile_s) = median_time(LAYER_REPS, || {
                FrameSampler::new(nc, &mut PhiloxRng::new(nc.content_hash(), 0))
            });
            let sampler = sampler.map_err(|e| format!("frame lowering failed: {e}"))?;
            layers.compile_s = compile_s;
            layers.ops_after_fusion = sampler.program().ops.len() as f64;
            let mut results = Vec::with_capacity(cold.len());
            let t0 = Instant::now();
            for r in cold {
                let mut rng = PhiloxRng::for_trajectory(seed, r.meta.traj_id as u64);
                results.push(sampler.sample(r.shots.len(), &mut rng).shots);
            }
            layers.frame_sample_s = t0.elapsed().as_secs_f64();
            layers.wall_s = layers.frame_sample_s;
            layers.sample_s = layers.frame_sample_s;
            let t0 = Instant::now();
            layers.records = cold
                .iter()
                .zip(&results)
                .map(|(r, shots)| TrajectoryRecord {
                    meta: r.meta.clone(),
                    shots: hex_shots(shots),
                })
                .collect();
            layers.encode_s = t0.elapsed().as_secs_f64();
        }
    }
    Ok(layers)
}

/// Length of the union of `[start, start + len)` intervals (µs).
fn union_micros(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for (s, len) in iv {
        let e = s + len;
        if e > end {
            total += e - s.max(end);
            end = e;
        }
    }
    total
}

/// Per-job stage split of one traced warm job.
struct TracedJob {
    wall: f64,
    stages: Vec<f64>,
    chunks: f64,
    overhead: f64,
    coverage: f64,
}

/// Stages read back from spans-mode telemetry, by metric name. The
/// `queue-wait` and `route` stages are reported as `service.*`.
const STAGES: [(&str, Stage); 7] = [
    ("stage.prep_s", Stage::Prep),
    ("stage.sample_s", Stage::Sample),
    ("stage.mps-svd_s", Stage::MpsSvd),
    ("stage.sample-batch_s", Stage::SampleBatch),
    ("stage.sink_s", Stage::SinkWrite),
    ("service.queue_wait_s", Stage::QueueWait),
    ("service.route_s", Stage::Route),
];

fn traced_job(report: &JobReport, snap: &TelemetrySnapshot) -> TracedJob {
    let wall = report.wall.as_secs_f64();
    let chunks: Vec<(u64, u64)> = snap
        .job_spans(report.job_id)
        .filter(|s| s.stage == Stage::Chunk)
        .map(|s| (s.start_micros, s.dur_nanos / 1000))
        .collect();
    let chunk_sum: u64 = chunks.iter().map(|c| c.1).sum();
    let n_chunks = chunks.len() as f64;
    let busy = union_micros(chunks) as f64 * 1e-6;
    // Chunk-internal layers scale by the parallelism the chunks achieved,
    // so the covered share stays a share of the job's wall time.
    let inside = secs(snap, Stage::Prep) + secs(snap, Stage::Sample) + secs(snap, Stage::SinkWrite);
    let parallel_share = if chunk_sum == 0 {
        0.0
    } else {
        busy / (chunk_sum as f64 * 1e-6)
    };
    let covered = secs(snap, Stage::QueueWait) + secs(snap, Stage::Route) + inside * parallel_share;
    TracedJob {
        wall,
        stages: STAGES.iter().map(|&(_, s)| secs(snap, s)).collect(),
        chunks: n_chunks,
        overhead: wall - busy,
        coverage: covered / wall.max(1e-12),
    }
}

/// The traced run: a spans-mode cold start, the gate, direct calls into
/// every layer, then warm jobs alternating untraced and traced for
/// `seconds`. Reports every per-layer metric.
pub fn traced(w: &Workload, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    ptsbe_telemetry::reset();
    let cold = match cold_start(w, TelemetryConfig::spans()) {
        Ok(c) => c,
        Err(e) => {
            out.check("cold start", Err(e));
            return out;
        }
    };
    let cold_snap = ptsbe_telemetry::snapshot();
    ptsbe_telemetry::configure(&TelemetryConfig::off());
    out.job(&cold.job, w.engine, "cold");
    out.engine = cold
        .job
        .report
        .engine
        .map_or("none", EngineKind::label)
        .to_string();
    let records = gate(w, &cold.svc, &cold.plan, &cold.job.bytes, &mut out);
    let plan = cold.plan.as_ref();

    // Direct calls, service-free.
    let (_, pts_s) = median_time(LAYER_REPS, || w.sample_plan());
    let (tree, tree_s) = median_time(LAYER_REPS, || PtsPlanTree::from_plan(plan));
    let layers = match direct_layers(w, plan, &tree, &records) {
        Ok(l) => l,
        Err(e) => {
            out.check("direct layers", Err(e));
            Layers::default()
        }
    };
    let (mut sink, buf) = w.sink();
    let header = gate::decode(&cold.job.bytes, w.binary).map(|(h, _)| h);
    let t0 = Instant::now();
    let written = header.and_then(|h| {
        sink.begin(&h)
            .and_then(|()| layers.records.iter().try_for_each(|r| sink.write(r)))
            .and_then(|()| sink.finish())
            .map_err(|e| format!("sink write failed: {e}"))
    });
    let sink_s = t0.elapsed().as_secs_f64();
    let direct = buf.bytes();
    out.check("direct sink", written);
    if w.engine != EngineKind::Frame {
        // Executors are bitwise identical to the service's chunked runs.
        out.check(
            "direct executor dataset",
            gate::check_identical(&cold.job.bytes, &direct),
        );
    }
    let (max_bond, trunc_error) = layers
        .records
        .iter()
        .filter_map(|r| r.meta.truncation)
        .fold((0usize, 0f64), |(b, e), t| {
            (b.max(t.max_bond_reached), e.max(t.trunc_error))
        });

    // Warm service jobs, alternating untraced and traced.
    let misses = cache_misses(&cold.svc);
    let (mut user, mut sys_s) = (0.0, 0.0);
    let mut untraced_walls = Vec::new();
    let mut traced_jobs: Vec<TracedJob> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while untraced_walls.len() < 2
        || traced_jobs.len() < 2
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = i % 2 == 1;
        i += 1;
        if tracing {
            ptsbe_telemetry::configure(&TelemetryConfig::spans());
            ptsbe_telemetry::reset();
        }
        let (u0, s0) = sys::cpu_times();
        let job = run_job(&cold.svc, w, w.spec(Arc::clone(&cold.plan)));
        let (u1, s1) = sys::cpu_times();
        let snap = tracing.then(ptsbe_telemetry::snapshot);
        ptsbe_telemetry::configure(&TelemetryConfig::off());
        let job = match job {
            Ok(j) => j,
            Err(e) => {
                out.check("warm job", Err(e));
                break;
            }
        };
        out.job(&job, w.engine, "warm");
        out.check(
            "warm dataset",
            gate::check_identical(&cold.job.bytes, &job.bytes),
        );
        match snap {
            Some(snap) => traced_jobs.push(traced_job(&job.report, &snap)),
            None => {
                user += u1 - u0;
                sys_s += s1 - s0;
                untraced_walls.push(job.report.wall.as_secs_f64());
            }
        }
    }
    let warm_misses = check_warm_cache(&mut out, &cold.svc, misses);
    out.warm_jobs = untraced_walls.len() + traced_jobs.len();

    let n_traj = plan.trajectories.len().max(1) as f64;
    let n_shots = plan.total_shots().max(1) as f64;
    let untraced_jobs = untraced_walls.len().max(1) as f64;
    let traced_med = |f: &dyn Fn(&TracedJob) -> f64| median(traced_jobs.iter().map(f).collect());
    out.push("pts.sample_plan_s", pts_s, "s");
    out.push("plan.tree_build_s", tree_s, "s");
    out.push("plan.sharing_ratio", tree.sharing_ratio(), "ratio");
    out.push("plan.prep_ops_saved", tree.prep_ops_saved() as f64, "count");
    out.push("compile.backend_s", layers.compile_s, "s");
    out.push("compile.ops_after_fusion", layers.ops_after_fusion, "count");
    out.push("executor.wall_s", layers.wall_s, "s");
    out.push("executor.prep_s", layers.prep_s, "s");
    out.push("executor.sample_s", layers.sample_s, "s");
    out.push(
        "executor.prep_ms_per_traj",
        layers.prep_s * 1e3 / n_traj,
        "ms",
    );
    out.push(
        "executor.sample_us_per_shot",
        layers.sample_s * 1e6 / n_shots,
        "us",
    );
    out.push("pool.fresh_forks", layers.fresh_forks, "count");
    out.push("statevector.lanes", layers.lanes, "count");
    out.push("math.svd_s", layers.svd_s, "s");
    out.push("math.svd_calls", layers.svd_calls, "count");
    out.push("tensornet.sample_batch_s", layers.sample_batch_s, "s");
    out.push("tensornet.max_bond", max_bond as f64, "count");
    out.push("tensornet.trunc_error", trunc_error, "ratio");
    out.push("stabilizer.frame_sample_s", layers.frame_sample_s, "s");
    out.push("dataset.encode_s", layers.encode_s, "s");
    out.push("dataset.sink_s", sink_s, "s");
    out.push("dataset.bytes", direct.len() as f64, "B");
    out.push("service.chunks", traced_med(&|t| t.chunks), "count");
    out.push("service.warm_cache_misses", warm_misses as f64, "count");
    out.push("service.overhead_s", traced_med(&|t| t.overhead), "s");
    out.push(
        "runtime.sys_cpu_frac",
        sys_s / (user + sys_s).max(1e-9),
        "ratio",
    );
    out.push("runtime.user_cpu_s", user / untraced_jobs, "s");
    for (k, &(name, _)) in STAGES.iter().enumerate() {
        out.push(name, traced_med(&|t| t.stages[k]), "s");
    }
    out.push("stage.compile_s", secs(&cold_snap, Stage::Compile), "s");
    out.push("stage.plan_s", secs(&cold_snap, Stage::Plan), "s");
    out.push("trace.coverage", traced_med(&|t| t.coverage), "ratio");
    out.push(
        "trace.overhead_frac",
        traced_med(&|t| t.wall) / median(untraced_walls).max(1e-12) - 1.0,
        "ratio",
    );
    out
}
