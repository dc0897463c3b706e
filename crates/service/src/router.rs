//! Adaptive executor routing.
//!
//! The router inspects the circuit and the (cached) plan tree and picks
//! the fastest engine whose validity domain contains the job:
//!
//! | order | engine       | precondition                                   | why it wins                          |
//! |-------|--------------|------------------------------------------------|--------------------------------------|
//! | 1     | `Frame`      | Clifford gates, Pauli-mixture channels, no     | bit-packed frames: 64 shots/word,    |
//! |       |              | reset, ≤128 measured bits, deterministic       | MHz-class bulk sampling (Stim's      |
//! |       |              | noiseless reference                            | domain, rebuilt in `ptsbe_stabilizer`)|
//! | 2     | `MpsTree`    | register at/above the MPS qubit threshold      | statevector memory is 2^n; MPS is not|
//! | 3     | `Tree`       | plan-tree `sharing_ratio` ≥ threshold          | prep work collapses to trie edges    |
//! | 4     | `BatchMajor` | everything else                                | lane-contiguous sweeps amortize      |
//! |       |              |                                                | dispatch across trajectories         |
//!
//! The frame engine samples noise per shot instead of consuming the
//! plan's assignments: it trades per-trajectory Kraus provenance for raw
//! throughput (exactly Stim's trade). Jobs that need assignment-exact
//! provenance force a statevector engine via [`EnginePolicy::Force`].

use crate::cache::{CompileCache, FrameEntry, MpsEntry, SvEntry, TreeEntry};
use crate::job::JobSpec;
use crate::service::ServiceConfig;
use ptsbe_math::Scalar;
use std::sync::Arc;

/// The engines the service can run a job on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bit-packed Pauli-frame bulk sampler (stabilizer stack).
    Frame,
    /// Prefix-sharing tree executor over the pooled statevector backend.
    Tree,
    /// Batch-major (lane-swept) statevector executor.
    BatchMajor,
    /// Flat batched executor (one preparation per trajectory) — never
    /// auto-routed; available for baselines via `Force`.
    Flat,
    /// Prefix-sharing tree executor over the MPS backend.
    MpsTree,
}

impl EngineKind {
    /// Stable label (dataset headers, metrics).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Frame => "frame",
            EngineKind::Tree => "sv-tree",
            EngineKind::BatchMajor => "sv-batch-major",
            EngineKind::Flat => "sv-flat",
            EngineKind::MpsTree => "mps-tree",
        }
    }

    pub(crate) const COUNT: usize = 5;

    pub(crate) fn index(self) -> usize {
        match self {
            EngineKind::Frame => 0,
            EngineKind::Tree => 1,
            EngineKind::BatchMajor => 2,
            EngineKind::Flat => 3,
            EngineKind::MpsTree => 4,
        }
    }
}

/// How a job chooses its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePolicy {
    /// Let the router decide (the table above).
    #[default]
    Auto,
    /// Require a specific engine; the job fails if the circuit is
    /// outside its validity domain.
    Force(EngineKind),
}

/// Why the router picked what it picked.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteReason {
    /// Caller forced the engine.
    Forced,
    /// Clifford + Pauli noise + deterministic reference: frame domain.
    CliffordPauliDeterministic,
    /// Register too wide for a dense statevector.
    WideRegister {
        /// Qubit count that crossed the threshold.
        n_qubits: usize,
    },
    /// Plan tree shares enough prep work to prefer the tree walk.
    HighSharing {
        /// The tree's sharing ratio.
        sharing_ratio: f64,
    },
    /// Too little prefix sharing; lane sweeps win.
    LowSharing {
        /// The tree's sharing ratio.
        sharing_ratio: f64,
    },
    /// The MPS identity-assignment probe blew the job's cumulative
    /// truncation budget, so the job was re-routed to a dense engine.
    TruncationBudgetBlown {
        /// The probe's cumulative truncation error.
        trunc_error: f64,
        /// The budget it exceeded.
        budget: f64,
    },
    /// The job's own bond cap was binding when its probe blew the
    /// truncation budget, so the router routed MPS at the service's
    /// honest bond ceiling instead of refusing or shrinking — a tighter
    /// cap is slower *and* wrong (every over-cap update truncates, and
    /// the discarded weight compounds).
    HonestCeiling {
        /// The bond cap the job asked for.
        requested: usize,
        /// The ceiling the job actually ran at.
        raised: usize,
    },
    /// The originally routed engine failed fatally at runtime (retry
    /// budget exhausted before any output was committed), and the job
    /// gracefully degraded to a dense fallback.
    EngineFallback {
        /// The engine that failed.
        from: EngineKind,
    },
}

impl std::fmt::Display for RouteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteReason::Forced => write!(f, "forced by job policy"),
            RouteReason::CliffordPauliDeterministic => write!(
                f,
                "Clifford gates + Pauli channels + deterministic reference"
            ),
            RouteReason::WideRegister { n_qubits } => {
                write!(
                    f,
                    "register of {n_qubits} qubits exceeds statevector budget"
                )
            }
            RouteReason::HighSharing { sharing_ratio } => {
                write!(
                    f,
                    "plan tree shares {:.1}% of prep work",
                    sharing_ratio * 100.0
                )
            }
            RouteReason::LowSharing { sharing_ratio } => {
                write!(
                    f,
                    "plan tree shares only {:.1}% of prep work",
                    sharing_ratio * 100.0
                )
            }
            RouteReason::TruncationBudgetBlown {
                trunc_error,
                budget,
            } => {
                write!(
                    f,
                    "mps probe truncation {trunc_error:.3e} exceeds budget {budget:.3e}; \
                     re-routed to a dense engine"
                )
            }
            RouteReason::HonestCeiling { requested, raised } => {
                write!(
                    f,
                    "bond cap {requested} was binding when the mps probe blew the truncation \
                     budget; routed at the honest ceiling {raised}"
                )
            }
            RouteReason::EngineFallback { from } => {
                write!(
                    f,
                    "engine {} failed fatally at runtime; degraded to a dense fallback",
                    from.label()
                )
            }
        }
    }
}

/// Chosen batch-major lane geometry, recorded on the route decision so
/// operators can see how the split-plane working set was sized against
/// the L2 target. Present only for the batch-major and flat engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchGeometry {
    /// Lanes per `StateBatch` group (auto-sized from the working set).
    pub lanes: usize,
    /// Trajectories per scheduler chunk.
    pub trajs_per_chunk: usize,
    /// Bytes of one lane's split re/im planes (`2 · 2^n · size_of::<T>`).
    pub state_bytes: usize,
    /// The cache budget the lane count was fitted to.
    pub l2_target_bytes: usize,
    /// Resolved batch-kernel dispatch label (`scalar`/`soa`/`simd`).
    pub kernels: &'static str,
}

impl std::fmt::Display for BatchGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lanes × {} B split-plane state ({} kernels, L2 target {} B, {} traj/chunk)",
            self.lanes, self.state_bytes, self.kernels, self.l2_target_bytes, self.trajs_per_chunk
        )
    }
}

/// The routing verdict recorded on the job.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// Chosen engine.
    pub engine: EngineKind,
    /// Rationale.
    pub reason: RouteReason,
    /// Lane geometry, when a lane-swept engine was chosen.
    pub geometry: Option<BatchGeometry>,
    /// Identity-assignment truncation probe result, when the MPS engine
    /// was considered under a finite cumulative truncation budget.
    pub truncation: Option<ptsbe_core::backend::TruncationStats>,
}

/// Everything a worker needs to execute chunks of a routed job, built
/// from cached artifacts.
pub(crate) enum EngineExec<T: Scalar> {
    Frame(Arc<FrameEntry>),
    Tree {
        entry: Arc<SvEntry<T>>,
        tree: Arc<TreeEntry>,
    },
    BatchMajor(Arc<SvEntry<T>>),
    Flat(Arc<SvEntry<T>>),
    MpsTree {
        entry: Arc<MpsEntry<T>>,
        tree: Arc<TreeEntry>,
    },
}

impl<T: Scalar> EngineExec<T> {
    /// Measured bits per record (dataset header field).
    pub(crate) fn n_measured(&self) -> usize {
        match self {
            EngineExec::Frame(e) => e.sampler.n_measured(),
            EngineExec::Tree { entry, .. }
            | EngineExec::BatchMajor(entry)
            | EngineExec::Flat(entry) => ptsbe_core::Backend::measured_qubits(&entry.backend).len(),
            EngineExec::MpsTree { entry, .. } => {
                ptsbe_core::Backend::measured_qubits(&entry.backend).len()
            }
        }
    }
}

/// Lane geometry for lane-swept (batch-major / flat) engines: the same
/// arithmetic [`split_chunks`](crate::service) uses, captured once so
/// the decision metadata and the scheduler can never disagree.
pub(crate) fn batch_geometry<T: Scalar>(
    cfg: &ServiceConfig,
    spec: &JobSpec,
    exec: &EngineExec<T>,
) -> Option<BatchGeometry> {
    let entry = match exec {
        EngineExec::BatchMajor(entry) | EngineExec::Flat(entry) => entry,
        _ => return None,
    };
    let n_qubits = ptsbe_core::Backend::n_qubits(&entry.backend);
    let state_bytes = (2usize << n_qubits) * std::mem::size_of::<T>();
    let lanes = cfg.batch.lanes_for_bytes(state_bytes);
    let trajs_per_chunk = if spec.chunk_trajectories == 0 {
        // A few lane groups per chunk: enough work to amortize
        // scheduling, enough chunks to stream and cancel.
        (lanes * 8).clamp(16, 512)
    } else {
        spec.chunk_trajectories
    };
    Some(BatchGeometry {
        lanes,
        trajs_per_chunk,
        state_bytes,
        l2_target_bytes: cfg.batch.l2_target_bytes,
        kernels: ptsbe_statevector::KernelImpl::auto().label(),
    })
}

/// Error prefix marking a truncation-budget refusal, so the service can
/// count refusals without a structured error type.
pub(crate) const MPS_REFUSAL_PREFIX: &str = "mps engine refused:";

/// Dense-statevector feasibility ceiling for truncation-budget
/// re-routing: 2^26 f64 amplitudes ≈ 1 GiB, the most a fallback may
/// silently allocate.
const DENSE_FEASIBLE_MAX_QUBITS: usize = 26;

/// Run (or reuse) the identity-assignment truncation probe on a
/// compiled MPS entry: prepare the noise-free trajectory once under the
/// job's config and record what truncation the gate structure alone
/// costs. Cached on the entry, so repeat jobs pay nothing; `None` when
/// the circuit has no identity assignment to probe.
fn mps_probe<T: Scalar>(
    entry: &MpsEntry<T>,
    nc: &ptsbe_circuit::NoisyCircuit,
) -> Option<ptsbe_core::backend::TruncationStats> {
    *entry.probe.get_or_init(|| {
        let choices = nc.identity_assignment()?;
        let (state, _) = ptsbe_core::Backend::prepare(&entry.backend, &choices);
        ptsbe_core::Backend::truncation_stats(&entry.backend, &state)
    })
}

/// Honest-ceiling retry: when a probe blows the budget *because the
/// job's bond cap was binding* (`max_bond_reached` hit the cap), the
/// truncation is an artifact of the cap, not the circuit — rebuild the
/// MPS entry at the service ceiling and re-probe. Returns the raised
/// route when the probe passes there; `None` when the cap was not the
/// problem, the ceiling is no higher, or the budget is blown even at
/// the ceiling (the caller falls through to refusal/dense logic).
#[allow(clippy::type_complexity)]
fn raise_to_honest_ceiling<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    probe: &ptsbe_core::backend::TruncationStats,
) -> Option<(RouteDecision, EngineExec<T>)> {
    if probe.max_bond_reached < spec.mps.max_bond || cfg.mps_bond_ceiling <= spec.mps.max_bond {
        return None;
    }
    let raised_cfg = spec.mps.with_max_bond(cfg.mps_bond_ceiling);
    let nc = spec.circuit.as_ref();
    // Cache keys hash every MpsConfig field, so the raised compile is a
    // separate (warm-reusable) entry from the refused one.
    let entry = cache.mps(nc, circuit_hash, raised_cfg, spec.fuse).ok()?;
    let raised_probe = mps_probe(&entry, nc)?;
    if raised_probe.budget_exhausted {
        return None;
    }
    let tree = cache.plan_tree(circuit_hash, &spec.plan);
    Some((
        RouteDecision {
            engine: EngineKind::MpsTree,
            reason: RouteReason::HonestCeiling {
                requested: spec.mps.max_bond,
                raised: cfg.mps_bond_ceiling,
            },
            geometry: None,
            truncation: Some(raised_probe),
        },
        EngineExec::MpsTree { entry, tree },
    ))
}

/// Route `spec` and materialize its engine from `cache`.
///
/// # Errors
/// A human-readable reason when the (possibly forced) engine cannot
/// accept the circuit — including a truncation-budget refusal
/// ([`MPS_REFUSAL_PREFIX`]) when the MPS probe blows the job's
/// cumulative budget and no dense fallback is feasible.
pub(crate) fn route_job<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
) -> Result<(RouteDecision, EngineExec<T>), String> {
    let nc = spec.circuit.as_ref();
    match spec.engine {
        EnginePolicy::Force(engine) => {
            let exec = build_engine(cache, spec, circuit_hash, engine)?;
            let truncation = match (&exec, spec.mps.trunc_budget > 0.0) {
                (EngineExec::MpsTree { entry, .. }, true) => {
                    let probe = mps_probe(entry, nc);
                    if let Some(p) = probe {
                        if p.budget_exhausted {
                            // Raising the bond ceiling still honors
                            // `Force` — the job stays on MPS, just at
                            // an honest cap.
                            if let Some(raised) =
                                raise_to_honest_ceiling(cache, cfg, spec, circuit_hash, &p)
                            {
                                return Ok(raised);
                            }
                            // The caller demanded MPS; silently handing
                            // the job to another engine would violate
                            // `Force`, so refuse outright.
                            return Err(format!(
                                "{MPS_REFUSAL_PREFIX} identity-assignment probe truncation \
                                 {:.3e} exceeds the cumulative budget {:.3e} (bond ceiling \
                                 {} reached: {})",
                                p.trunc_error,
                                spec.mps.trunc_budget,
                                spec.mps.max_bond,
                                p.max_bond_reached >= spec.mps.max_bond,
                            ));
                        }
                    }
                    probe
                }
                _ => None,
            };
            Ok((
                RouteDecision {
                    engine,
                    reason: RouteReason::Forced,
                    geometry: batch_geometry(cfg, spec, &exec),
                    truncation,
                },
                exec,
            ))
        }
        EnginePolicy::Auto => {
            // 1. Frame domain: structural pre-checks (the circuit-crate
            //    helpers, memoized by content hash — Pauli-mixture
            //    detection walks every channel branch, which a warm
            //    repeat job must not redo), then the cached lowering's
            //    determinism flag.
            let traits = cache.traits(nc, circuit_hash);
            if traits.is_clifford
                && traits.all_pauli_channels
                && !traits.has_reset
                && traits.n_measured <= 128
            {
                let entry = cache.frame(nc, circuit_hash)?;
                if entry.deterministic {
                    return Ok((
                        RouteDecision {
                            engine: EngineKind::Frame,
                            reason: RouteReason::CliffordPauliDeterministic,
                            geometry: None,
                            truncation: None,
                        },
                        EngineExec::Frame(entry),
                    ));
                }
            }
            // 2. Wide registers: dense amplitudes are off the table —
            //    unless the job carries a cumulative truncation budget
            //    and the identity-assignment probe blows it, in which
            //    case an accurate-but-slow dense fallback (when one
            //    fits) beats delivering out-of-budget MPS data.
            if nc.n_qubits() >= cfg.mps_qubit_threshold {
                let engine = EngineKind::MpsTree;
                let exec = build_engine(cache, spec, circuit_hash, engine)?;
                let truncation = match (&exec, spec.mps.trunc_budget > 0.0) {
                    (EngineExec::MpsTree { entry, .. }, true) => mps_probe(entry, nc),
                    _ => None,
                };
                if let Some(p) = truncation {
                    if p.budget_exhausted {
                        // Prefer keeping the job on MPS at an honest
                        // ceiling over any dense fallback: when the
                        // job's own cap caused the blowout, the raised
                        // route is both faster and accurate.
                        if let Some(raised) =
                            raise_to_honest_ceiling(cache, cfg, spec, circuit_hash, &p)
                        {
                            return Ok(raised);
                        }
                        if nc.n_qubits() > DENSE_FEASIBLE_MAX_QUBITS {
                            return Err(format!(
                                "{MPS_REFUSAL_PREFIX} identity-assignment probe truncation \
                                 {:.3e} exceeds the cumulative budget {:.3e}, and {} qubits \
                                 is too wide for a dense fallback — raise max_bond (ceiling \
                                 {} reached: {}) or the budget",
                                p.trunc_error,
                                spec.mps.trunc_budget,
                                nc.n_qubits(),
                                spec.mps.max_bond,
                                p.max_bond_reached >= spec.mps.max_bond,
                            ));
                        }
                        let reason = RouteReason::TruncationBudgetBlown {
                            trunc_error: p.trunc_error,
                            budget: spec.mps.trunc_budget,
                        };
                        return route_dense(cache, cfg, spec, circuit_hash, reason, truncation);
                    }
                }
                return Ok((
                    RouteDecision {
                        engine,
                        reason: RouteReason::WideRegister {
                            n_qubits: nc.n_qubits(),
                        },
                        geometry: None,
                        truncation,
                    },
                    exec,
                ));
            }
            // 3. Sharing decides between the tree walk and lane sweeps.
            let tree = cache.plan_tree(circuit_hash, &spec.plan);
            let sharing_ratio = tree.tree.sharing_ratio();
            let entry = cache.sv(nc, circuit_hash, spec.fuse)?;
            if sharing_ratio >= cfg.sharing_threshold {
                Ok((
                    RouteDecision {
                        engine: EngineKind::Tree,
                        reason: RouteReason::HighSharing { sharing_ratio },
                        geometry: None,
                        truncation: None,
                    },
                    EngineExec::Tree { entry, tree },
                ))
            } else {
                let exec = EngineExec::BatchMajor(entry);
                Ok((
                    RouteDecision {
                        engine: EngineKind::BatchMajor,
                        reason: RouteReason::LowSharing { sharing_ratio },
                        geometry: batch_geometry(cfg, spec, &exec),
                        truncation: None,
                    },
                    exec,
                ))
            }
        }
    }
}

/// Build a dense (statevector) route for a job the MPS probe rejected:
/// the usual sharing split decides between the tree walk and lane
/// sweeps, but the recorded reason and probe stats carry the re-route's
/// provenance.
fn route_dense<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    reason: RouteReason,
    truncation: Option<ptsbe_core::backend::TruncationStats>,
) -> Result<(RouteDecision, EngineExec<T>), String> {
    let nc = spec.circuit.as_ref();
    let tree = cache.plan_tree(circuit_hash, &spec.plan);
    let entry = cache.sv(nc, circuit_hash, spec.fuse)?;
    if tree.tree.sharing_ratio() >= cfg.sharing_threshold {
        Ok((
            RouteDecision {
                engine: EngineKind::Tree,
                reason,
                geometry: None,
                truncation,
            },
            EngineExec::Tree { entry, tree },
        ))
    } else {
        let exec = EngineExec::BatchMajor(entry);
        Ok((
            RouteDecision {
                engine: EngineKind::BatchMajor,
                reason,
                geometry: batch_geometry(cfg, spec, &exec),
                truncation,
            },
            exec,
        ))
    }
}

/// Graceful degradation: re-route a job whose engine failed fatally at
/// runtime onto a dense fallback. Only meaningful before any output was
/// committed (the caller checks), and only when a dense statevector
/// fits the register.
///
/// # Errors
/// A human-readable reason when no dense fallback is feasible.
pub(crate) fn degrade_route<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    from: EngineKind,
) -> Result<(RouteDecision, EngineExec<T>), String> {
    let n_qubits = spec.circuit.n_qubits();
    if n_qubits > DENSE_FEASIBLE_MAX_QUBITS {
        return Err(format!(
            "engine {} failed fatally and {n_qubits} qubits is too wide for a dense fallback",
            from.label()
        ));
    }
    route_dense(
        cache,
        cfg,
        spec,
        circuit_hash,
        RouteReason::EngineFallback { from },
        None,
    )
}

fn build_engine<T: Scalar>(
    cache: &CompileCache<T>,
    spec: &JobSpec,
    circuit_hash: u64,
    engine: EngineKind,
) -> Result<EngineExec<T>, String> {
    let nc = spec.circuit.as_ref();
    match engine {
        EngineKind::Frame => {
            let entry = cache.frame(nc, circuit_hash)?;
            if !entry.deterministic {
                return Err(
                    "frame engine refused: the noiseless reference has random measurements, \
                     so bulk frame samples would not be iid"
                        .to_string(),
                );
            }
            Ok(EngineExec::Frame(entry))
        }
        EngineKind::Tree => Ok(EngineExec::Tree {
            entry: cache.sv(nc, circuit_hash, spec.fuse)?,
            tree: cache.plan_tree(circuit_hash, &spec.plan),
        }),
        EngineKind::BatchMajor => Ok(EngineExec::BatchMajor(cache.sv(
            nc,
            circuit_hash,
            spec.fuse,
        )?)),
        EngineKind::Flat => Ok(EngineExec::Flat(cache.sv(nc, circuit_hash, spec.fuse)?)),
        EngineKind::MpsTree => Ok(EngineExec::MpsTree {
            entry: cache.mps(nc, circuit_hash, spec.mps, spec.fuse)?,
            tree: cache.plan_tree(circuit_hash, &spec.plan),
        }),
    }
}
