//! The four benchmark workloads: one per engine the service router
//! auto-selects, each built deterministically from the workload seed.

use ptsbe_bench::{msd_like, with_depolarizing, with_entangler_depolarizing};
use ptsbe_circuit::NoisyCircuit;
use ptsbe_core::{ProbabilisticPts, PtsPlan, PtsSampler};
use ptsbe_dataset::{BinarySink, JsonlSink, RecordSink, SharedBuffer};
use ptsbe_qec::{codes, memory::MemoryExperiment};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{EngineKind, JobSpec};
use std::sync::Arc;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["sv-shared", "sv-diverse", "mps-wide", "qec-frame"];

/// Problem size: `Full` is what the benchmark measures; `Tiny` keeps the
/// same engines and code paths at a size the benchmark's own tests can
/// run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// Which oracle the correctness gate compares a workload against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// A forced-`Flat` service job on the plan's first `k` trajectories.
    FlatPrefix {
        /// Trajectories compared.
        k: usize,
    },
    /// `BatchedExecutor` over `MpsBackend`, called directly on the plan's
    /// first `k` trajectories.
    MpsPrefix {
        /// Trajectories compared.
        k: usize,
    },
    /// Per-bit firing rates of a forced-`MpsTree` job on a small plan.
    MpsRates {
        /// Trajectories in the oracle plan (one shot each).
        trajectories: usize,
    },
}

/// One fully specified workload.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The engine the router must pick.
    pub engine: EngineKind,
    /// The noisy circuit every job runs.
    pub circuit: Arc<NoisyCircuit>,
    /// The PTS sampler that draws each job's plan.
    pub sampler: ProbabilisticPts,
    /// Binary (`true`) or JSONL sink.
    pub binary: bool,
    /// Correctness oracle.
    pub oracle: Oracle,
    /// Draw the plan from a fixed seed instead of `seed`. At low noise
    /// a plan's prep work scales with its Poisson count of erroneous
    /// trajectories: across seeds it spreads by 13% (`sv-shared`) and
    /// 25% (`mps-wide`) between quartiles, which would use up most of
    /// the benchmark's 0.25 bounds. Those workloads pin the plan; `seed`
    /// still drives every job's execution streams.
    pub pin_plan: bool,
    /// Workload seed (`--seed`).
    pub seed: u64,
}

/// Plan seed of the workloads that pin their plan.
const PINNED_PLAN_SEED: u64 = 0x5054_5342;

impl Workload {
    /// Build workload `name` at `size` from `seed`; `None` for an
    /// unknown name.
    pub fn new(name: &str, size: Size, seed: u64) -> Option<Self> {
        let tiny = size == Size::Tiny;
        let sampler = |n_samples: usize, shots: usize| ProbabilisticPts {
            n_samples,
            shots_per_trajectory: shots,
            dedup: false,
        };
        let w = match name {
            "sv-shared" => {
                let (n, d, traj) = if tiny { (8, 4, 60) } else { (16, 12, 2000) };
                Workload {
                    name: "sv-shared",
                    engine: EngineKind::Tree,
                    circuit: Arc::new(with_entangler_depolarizing(&msd_like(n, d), 1e-3)),
                    sampler: sampler(traj, 100),
                    binary: true,
                    oracle: Oracle::FlatPrefix { k: 64 },
                    pin_plan: true,
                    seed,
                }
            }
            "sv-diverse" => {
                let (n, d, traj) = if tiny { (8, 12, 60) } else { (12, 12, 2000) };
                Workload {
                    name: "sv-diverse",
                    engine: EngineKind::BatchMajor,
                    circuit: Arc::new(with_entangler_depolarizing(&msd_like(n, d), 6e-2)),
                    sampler: sampler(traj, 10),
                    binary: false,
                    oracle: Oracle::FlatPrefix { k: 64 },
                    pin_plan: false,
                    seed,
                }
            }
            "mps-wide" => {
                let (n, d, traj) = if tiny { (30, 4, 20) } else { (36, 14, 200) };
                Workload {
                    name: "mps-wide",
                    engine: EngineKind::MpsTree,
                    circuit: Arc::new(with_entangler_depolarizing(&msd_like(n, d), 1e-3)),
                    sampler: sampler(traj, 100),
                    binary: false,
                    oracle: Oracle::MpsPrefix { k: 8 },
                    pin_plan: true,
                    seed,
                }
            }
            "qec-frame" => {
                let (d, rounds, shots, oracle) = if tiny {
                    (3, 2, 20_000, 2_000)
                } else {
                    (9, 8, 2_000_000, 4_000)
                };
                let exp = MemoryExperiment::new(&codes::repetition(d), rounds, false);
                Workload {
                    name: "qec-frame",
                    engine: EngineKind::Frame,
                    circuit: Arc::new(with_depolarizing(&exp.circuit, 1e-3)),
                    // The frame engine consumes only the plan's shot
                    // budget: 20 trajectories carry the total.
                    sampler: sampler(20, shots / 20),
                    binary: false,
                    oracle: Oracle::MpsRates {
                        trajectories: oracle,
                    },
                    pin_plan: false,
                    seed,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Draw the job plan (PTS pre-sampling).
    pub fn sample_plan(&self) -> PtsPlan {
        let plan_seed = if self.pin_plan {
            PINNED_PLAN_SEED
        } else {
            self.seed
        };
        let mut rng = PhiloxRng::new(plan_seed, 0x5054_5342);
        self.sampler.sample_plan(&self.circuit, &mut rng)
    }

    /// The execution seed of every job of this workload.
    pub fn job_seed(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }

    /// Job spec with production defaults (auto routing, fusion on).
    pub fn spec(&self, plan: Arc<PtsPlan>) -> JobSpec {
        JobSpec::new(self.name, Arc::clone(&self.circuit), plan, self.job_seed())
    }

    /// A fresh in-memory sink of this workload's format, plus the handle
    /// its bytes are read back through.
    pub fn sink(&self) -> (Box<dyn RecordSink>, SharedBuffer) {
        let buf = SharedBuffer::new();
        let sink: Box<dyn RecordSink> = if self.binary {
            Box::new(BinarySink::new(buf.clone()))
        } else {
            Box::new(JsonlSink::new(buf.clone()))
        };
        (sink, buf)
    }
}
