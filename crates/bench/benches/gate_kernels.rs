//! Statevector gate-kernel microbenchmarks: dense 1q/2q application vs.
//! the permutation fast paths, f32 vs. f64, and the batch-major lane
//! sweeps against an equal number of per-state sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_math::gates;
use ptsbe_statevector::{StateBatch, StateVector};
use std::hint::black_box;

fn bench_gates(c: &mut Criterion) {
    let n = 16;
    let mut group = c.benchmark_group("gate_kernels_n16");
    group.sample_size(20);

    let h64 = gates::h::<f64>();
    let cx64 = gates::cx::<f64>();
    group.bench_function("apply_1q_f64_low", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h64), 0));
    });
    group.bench_function("apply_1q_f64_high", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h64), n - 1));
    });
    group.bench_function("apply_2q_dense_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_2q(black_box(&cx64), 3, 11));
    });
    group.bench_function("apply_cx_fastpath_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_cx(black_box(3), 11));
    });
    group.bench_function("apply_cz_fastpath_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_cz(black_box(3), 11));
    });

    let h32 = gates::h::<f32>();
    group.bench_function("apply_1q_f32_low", |b| {
        let mut sv = StateVector::<f32>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h32), 0));
    });
    group.finish();
}

/// Batch-major lane sweep vs. the same op applied to `B` separate
/// states: the constant-factor the amplitude-major layout buys.
fn bench_batch_vs_per_state(c: &mut Criterion) {
    let n = 10;
    let b = 8;
    let mut group = c.benchmark_group("batch_vs_per_state_n10x8");
    group.sample_size(20);

    let h = gates::h::<f64>();
    let cx_mat = gates::cx::<f64>();
    group.bench_function("per_state_1q", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_1q(black_box(&h), 4);
            }
        });
    });
    group.bench_function("batch_1q", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_1q(black_box(&h), 4));
    });
    group.bench_function("per_state_2q_dense", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_2q(black_box(&cx_mat), 2, 7);
            }
        });
    });
    group.bench_function("batch_2q_dense", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_2q(black_box(&cx_mat), 2, 7));
    });
    group.bench_function("per_state_cx", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_cx(black_box(2), 7);
            }
        });
    });
    group.bench_function("batch_cx", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_cx(black_box(2), 7));
    });
    group.bench_function("per_state_norm_sqr", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        svs.iter_mut().for_each(|s| s.apply_1q(&h, 4));
        let mut out = vec![0.0f64; b];
        bch.iter(|| {
            for (o, s) in out.iter_mut().zip(&svs) {
                *o = black_box(s).norm_sqr();
            }
        });
    });
    group.bench_function("batch_norm_sqr", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        batch.apply_1q(&h, 4);
        let mut out = vec![0.0f64; b];
        bch.iter(|| batch.norm_sqr_lanes(black_box(&mut out)));
    });
    group.finish();
}

criterion_group!(benches, bench_gates, bench_batch_vs_per_state);
criterion_main!(benches);
