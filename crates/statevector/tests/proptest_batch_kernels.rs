//! Property suite for the batch kernels: the split-plane (SoA) sweeps of
//! [`StateBatch`] must be **bitwise** identical, per lane, to the scalar
//! [`StateVector`] kernels — on random states, at both precisions, for
//! non-adjacent qubit pairs, top/bottom qubits, masked per-lane Kraus
//! sweeps, and the norm/normalize path. There is no pinned-tolerance
//! fallback: the SoA sweeps are reassociation-free by construction, so
//! bit equality is the contract.

use proptest::prelude::*;
use ptsbe_math::random::haar_unitary;
use ptsbe_math::{Complex, Matrix, Scalar};
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::batch::{localize_2q, StateBatch};
use ptsbe_statevector::{KernelImpl, StateVector};

/// Distinct random entangled states, one per lane, mirrored into a
/// batch and per-lane scalar vectors.
fn mirrored<T: Scalar>(n: usize, lanes: usize, seed: u64) -> (StateBatch<T>, Vec<StateVector<T>>) {
    let mut rng = PhiloxRng::new(seed, 77);
    let mut batch = StateBatch::zero_states(n, lanes);
    let mut svs = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut sv = StateVector::<T>::zero_state(n);
        for q in 0..n {
            let u = haar_unitary::<T>(2, &mut rng);
            sv.apply_1q(&u, q);
        }
        for q in 0..n.saturating_sub(1) {
            sv.apply_cx(q, q + 1);
        }
        batch.load_lane(lane, &sv);
        svs.push(sv);
    }
    (batch, svs)
}

/// Bit-level lane comparison (exact for f32 too: the f64 image of an
/// f32 is injective, so equal images mean equal bits).
fn assert_lanes_bitwise<T: Scalar>(batch: &StateBatch<T>, svs: &[StateVector<T>], label: &str) {
    let mut scratch = StateVector::<T>::zero_state(0);
    for (lane, sv) in svs.iter().enumerate() {
        batch.extract_lane_into(lane, &mut scratch);
        for (i, (a, b)) in scratch.amplitudes().iter().zip(sv.amplitudes()).enumerate() {
            assert_eq!(
                (a.re.to_f64().to_bits(), a.im.to_f64().to_bits()),
                (b.re.to_f64().to_bits(), b.im.to_f64().to_bits()),
                "{label}: lane {lane} amp {i}"
            );
        }
    }
}

/// One scripted sweep over every kernel class, hitting the bottom qubit,
/// the top qubit, and a non-adjacent pair whenever the register allows.
fn exercise_all_kernels<T: Scalar>(n: usize, lanes: usize, seed: u64) {
    let mut rng = PhiloxRng::new(seed, 78);
    let u1 = haar_unitary::<T>(2, &mut rng);
    let u2 = haar_unitary::<T>(4, &mut rng);
    let d1 = [Complex::<T>::cis(0.37), Complex::cis(-1.21)];
    let d2 = [
        Complex::<T>::cis(0.11),
        Complex::cis(0.5),
        Complex::cis(-0.9),
        Complex::cis(2.2),
    ];
    let (mut batch, mut svs) = mirrored::<T>(n, lanes, seed);
    let top = n - 1;
    // The same script drives both sides; closures keep them in lockstep.
    macro_rules! step {
        ($b:expr, $s:expr) => {
            $b(&mut batch);
            for sv in svs.iter_mut() {
                $s(sv);
            }
        };
    }
    step!(
        |b: &mut StateBatch<T>| b.apply_1q(&u1, 0),
        |s: &mut StateVector<T>| s.apply_1q(&u1, 0)
    );
    step!(
        |b: &mut StateBatch<T>| b.apply_1q(&u1, top),
        |s: &mut StateVector<T>| s.apply_1q(&u1, top)
    );
    step!(
        |b: &mut StateBatch<T>| b.apply_diag_1q(&d1, top / 2),
        |s: &mut StateVector<T>| s.apply_diag_1q(&d1, top / 2)
    );
    if n >= 2 {
        // (top, 0) is the most non-adjacent pair the register has, in
        // swapped order to exercise the hi/lo mapping.
        step!(
            |b: &mut StateBatch<T>| b.apply_2q(&u2, top, 0),
            |s: &mut StateVector<T>| s.apply_2q(&u2, top, 0)
        );
        step!(
            |b: &mut StateBatch<T>| b.apply_diag_2q(&d2, 0, top),
            |s: &mut StateVector<T>| s.apply_diag_2q(&d2, 0, top)
        );
        step!(
            |b: &mut StateBatch<T>| b.apply_cx(top, 0),
            |s: &mut StateVector<T>| s.apply_cx(top, 0)
        );
        step!(
            |b: &mut StateBatch<T>| b.apply_cz(0, top),
            |s: &mut StateVector<T>| s.apply_cz(0, top)
        );
        step!(
            |b: &mut StateBatch<T>| b.apply_swap(0, top),
            |s: &mut StateVector<T>| s.apply_swap(0, top)
        );
    }
    if n >= 3 {
        let u3 = haar_unitary::<T>(8, &mut rng);
        let qs = [0, n / 2, top];
        step!(
            |b: &mut StateBatch<T>| b.apply_kq(&u3, &qs),
            |s: &mut StateVector<T>| s.apply_kq(&u3, &qs)
        );
    }
    assert_lanes_bitwise(&batch, &svs, KernelImpl::auto().label());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The batch kernels match the scalar kernels bitwise at f64.
    #[test]
    fn impls_bitwise_match_scalar_f64(seed in 0u64..5_000, n in 1usize..6, lanes in 1usize..10) {
        exercise_all_kernels::<f64>(n, lanes, seed);
    }

    /// Same contract at f32 (the paper's `complex64` working precision).
    #[test]
    fn impls_bitwise_match_scalar_f32(seed in 0u64..5_000, n in 1usize..6, lanes in 1usize..12) {
        exercise_all_kernels::<f32>(n, lanes, seed);
    }

    /// Masked per-lane Kraus sweeps: active lanes match the scalar
    /// application of their own matrix bitwise; skipped lanes keep their
    /// exact pre-sweep bits (the identity-skip contract).
    #[test]
    fn masked_lane_kraus_bitwise(seed in 0u64..5_000, n in 2usize..6, lanes in 2usize..9, mask in 0u32..512) {
        let mut rng = PhiloxRng::new(seed, 79);
        let (mut batch, mut svs) = mirrored::<f64>(n, lanes, seed);
        let skip: Vec<bool> = (0..lanes).map(|l| mask >> (l % 9) & 1 == 1).collect();
        let top = n - 1;

        // Per-lane 1q matrices on the top qubit.
        let mats1: Vec<Matrix<f64>> =
            (0..lanes).map(|_| haar_unitary::<f64>(2, &mut rng)).collect();
        let es: Vec<[Complex<f64>; 4]> = mats1
            .iter()
            .map(|m| [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]])
            .collect();
        batch.apply_1q_lanes_masked(&es, &skip, top);
        for (lane, sv) in svs.iter_mut().enumerate() {
            if !skip[lane] {
                sv.apply_1q(&mats1[lane], top);
            }
        }
        assert_lanes_bitwise(&batch, &svs, "masked-1q");

        // Per-lane 2q matrices on the widest pair.
        let mats2: Vec<Matrix<f64>> =
            (0..lanes).map(|_| haar_unitary::<f64>(4, &mut rng)).collect();
        let mms: Vec<[[Complex<f64>; 4]; 4]> =
            mats2.iter().map(|m| localize_2q(m, top, 0)).collect();
        batch.apply_2q_lanes_masked(&mms, &skip, top, 0);
        for (lane, sv) in svs.iter_mut().enumerate() {
            if !skip[lane] {
                sv.apply_2q(&mats2[lane], top, 0);
            }
        }
        assert_lanes_bitwise(&batch, &svs, "masked-2q");
    }

    /// The norm/normalize path (general-channel Kraus branches) agrees
    /// bitwise with the scalar reduction.
    #[test]
    fn norm_and_normalize_bitwise(seed in 0u64..5_000, n in 1usize..6, lanes in 1usize..8) {
        let mut rng = PhiloxRng::new(seed, 80);
        let (mut batch, mut svs) = mirrored::<f64>(n, lanes, seed);
        // A non-unitary contraction so the norm is interesting.
        let k = haar_unitary::<f64>(2, &mut rng).scaled(Complex::new(0.6, 0.0));
        batch.apply_1q(&k, 0);
        svs.iter_mut().for_each(|s| s.apply_1q(&k, 0));

        let mut n2 = vec![0.0f64; lanes];
        batch.norm_sqr_lanes(&mut n2);
        for (lane, sv) in svs.iter().enumerate() {
            prop_assert_eq!(
                n2[lane].to_bits(),
                sv.norm_sqr().to_bits(),
                "{}: lane {} norm", KernelImpl::auto().label(), lane
            );
        }
        batch.normalize_lanes(&n2);
        for sv in svs.iter_mut() {
            sv.normalize();
        }
        assert_lanes_bitwise(&batch, &svs, "normalize");
    }

    /// Recycled batches never leak stale amplitudes: a `reinit` to any
    /// geometry is bitwise indistinguishable from a fresh allocation,
    /// even after the recycled buffers held a larger dirty state.
    #[test]
    fn reinit_is_bitwise_fresh(seed in 0u64..5_000, n1 in 1usize..6, l1 in 1usize..9, n2 in 1usize..6, l2 in 1usize..9) {
        // Dirty a batch with random amplitudes...
        let (mut recycled, _) = mirrored::<f64>(n1, l1, seed);
        // ...then recycle it into a new geometry.
        recycled.reinit(n2, l2);
        let fresh = StateBatch::<f64>::zero_states(n2, l2);
        let (rr, ri) = recycled.planes();
        let (fr, fi) = fresh.planes();
        prop_assert_eq!(rr.len(), fr.len());
        for i in 0..rr.len() {
            prop_assert_eq!(rr[i].to_bits(), fr[i].to_bits(), "re plane idx {}", i);
            prop_assert_eq!(ri[i].to_bits(), fi[i].to_bits(), "im plane idx {}", i);
        }
        // And it behaves identically afterwards.
        let mut rng = PhiloxRng::new(seed, 81);
        let u = haar_unitary::<f64>(2, &mut rng);
        let mut a = recycled;
        let mut b = fresh;
        a.apply_1q(&u, n2 - 1);
        b.apply_1q(&u, n2 - 1);
        let (ar, ai) = a.planes();
        let (br, bi) = b.planes();
        for i in 0..ar.len() {
            prop_assert_eq!(ar[i].to_bits(), br[i].to_bits());
            prop_assert_eq!(ai[i].to_bits(), bi[i].to_bits());
        }
    }
}
