//! Multi-threaded statevector simulator — the CPU stand-in for CUDA-Q's
//! `nvidia` backend.
//!
//! Everything PTSBE needs from a statevector backend is here:
//!
//! - [`state::StateVector`] — `2^n` complex amplitudes (generic over
//!   `f32`/`f64`; the paper uses `complex64`, i.e. `f32` pairs) with
//!   rayon-parallel 1-/2-/k-qubit gate kernels and permutation fast paths
//!   for CX/CZ/SWAP;
//! - [`batch::StateBatch`] — batch-major execution: `B` trajectory states
//!   in split re/im amplitude planes (structure-of-arrays), each fused
//!   kernel swept across all `B` lanes at once with lane-contiguous
//!   shuffle-free inner loops, bit-identical per lane to the scalar
//!   kernels;
//! - [`kernels`] — the split-plane (SoA) run loops behind the batch
//!   sweeps, written for the autovectorizer; the only batch-kernel
//!   implementation ([`KernelImpl`] names it);
//! - [`sampling`] — the *bulk* shot sampler: O(2^n + m) sorted-uniform
//!   merge or O(1)-per-shot alias table, the polynomial-cost step whose
//!   amortization over `m_α` shots is the entire point of Batched
//!   Execution (paper §3: "sampling all m_α desired quantum bitstrings at
//!   once, a task of mere polynomial complexity");
//! - [`kraus`] — one-pass evaluation of state-dependent Kraus branch
//!   probabilities `⟨ψ|K†K|ψ⟩` (Algorithm 1, line 9) and normalized
//!   application of a chosen branch;
//! - [`exec`] — circuit execution: pure circuits, and noisy circuits under
//!   a *fixed* trajectory assignment (the BE half of PTSBE).
//!
//! Parallelism: kernels switch to rayon data-parallel loops above
//! [`PARALLEL_THRESHOLD_QUBITS`]; the caller controls the thread budget by
//! running inside a configured `rayon::ThreadPool` (this substitutes for
//! the paper's intra-trajectory multi-GPU distribution). The data-
//! collection service is that caller: each of its workers runs under a
//! one-thread budget, so the kernels run inline and the worker pool
//! supplies the parallelism. The budget changes only scheduling, never
//! results: the rayon paths fold per-chunk results in input order, and
//! where a sweep reads the budget to choose its path (`StateBatch`), the
//! serial and parallel paths are bitwise identical.

pub mod batch;
pub mod exec;
pub mod kernels;
pub mod kraus;
pub mod sampling;
pub mod state;

pub use batch::{advance_batch, StateBatch};
pub use exec::{prepare_with_assignment, run_pure, ExecError};
pub use kernels::KernelImpl;
pub use sampling::SamplingStrategy;
pub use state::StateVector;

/// Below this many qubits the gate kernels stay serial: thread fan-out
/// costs more than the whole sweep. At or above it they take their rayon
/// paths, which fan out only as far as the caller's thread budget allows;
/// the service's workers set a one-thread budget (see the crate docs).
pub const PARALLEL_THRESHOLD_QUBITS: usize = 14;
