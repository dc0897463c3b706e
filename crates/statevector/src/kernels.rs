//! The run-level arithmetic behind [`crate::batch`]'s sweeps.
//!
//! [`crate::batch::StateBatch`] owns *where* the work is (split re/im
//! amplitude planes, chunk/run decomposition, rayon fan-out); the loops
//! here own *how* each contiguous run is processed. They are explicit
//! wide loops over split planes — shuffle-free mul/`mul_add` chains the
//! compiler lowers to packed FMA on its own (uniform-matrix sweeps call
//! the [`ptsbe_math::vec_ops`] plane kernels directly).
//!
//! Bitwise contract: every loop composes the same parts-level primitives
//! ([`ptsbe_math::cplx_mul_parts`] / [`ptsbe_math::cplx_mul_add_parts`])
//! that the [`Complex`] operators route through, so a batch lane is
//! bit-identical to the scalar [`crate::state::StateVector`] kernels.

use ptsbe_math::{cplx_mul_add_parts, cplx_mul_parts, cplx_norm_sqr_parts, Complex, Scalar};

/// One contiguous run of a split-plane pair: `(re, im)` slices of equal
/// length.
pub(crate) type Run<'a, T> = (&'a mut [T], &'a mut [T]);

/// Names the batch-kernel implementation (surfaced in route-decision
/// geometry and bench machine descriptors). There is one: the SoA loops
/// in this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelImpl;

impl KernelImpl {
    /// The implementation every batch runs.
    pub fn auto() -> Self {
        KernelImpl
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        "soa-autovec"
    }
}

// ---------------------------------------------------------------------------
// Per-lane matrix containers (entry-major SoA)

/// Per-lane 2×2 matrices in entry-major split planes:
/// `re[e * b + lane]` is the real part of entry `e` (row-major
/// `[m00, m01, m10, m11]`) of lane `lane`'s matrix — so a wide loop over
/// lanes loads every operand contiguously.
pub(crate) struct LaneMats2<T> {
    /// Lane count.
    pub b: usize,
    /// Real entry planes, `4 * b` values.
    pub re: Vec<T>,
    /// Imaginary entry planes, `4 * b` values.
    pub im: Vec<T>,
}

impl<T: Scalar> LaneMats2<T> {
    /// Transpose row-major per-lane entries into entry-major planes.
    pub fn from_entries(es: &[[Complex<T>; 4]]) -> Self {
        let b = es.len();
        let mut re = vec![T::ZERO; 4 * b];
        let mut im = vec![T::ZERO; 4 * b];
        for (lane, e) in es.iter().enumerate() {
            for (k, z) in e.iter().enumerate() {
                re[k * b + lane] = z.re;
                im[k * b + lane] = z.im;
            }
        }
        Self { b, re, im }
    }
}

/// Per-lane 4×4 matrices in entry-major split planes:
/// `re[(r * 4 + c) * b + lane]` (matrices already in local `[hl]` order).
pub(crate) struct LaneMats4<T> {
    /// Lane count.
    pub b: usize,
    /// Real entry planes, `16 * b` values.
    pub re: Vec<T>,
    /// Imaginary entry planes, `16 * b` values.
    pub im: Vec<T>,
}

impl<T: Scalar> LaneMats4<T> {
    /// Transpose per-lane localized matrices into entry-major planes.
    pub fn from_mats(mms: &[[[Complex<T>; 4]; 4]]) -> Self {
        let b = mms.len();
        let mut re = vec![T::ZERO; 16 * b];
        let mut im = vec![T::ZERO; 16 * b];
        for (lane, mm) in mms.iter().enumerate() {
            for (r, row) in mm.iter().enumerate() {
                for (c, z) in row.iter().enumerate() {
                    re[(r * 4 + c) * b + lane] = z.re;
                    im[(r * 4 + c) * b + lane] = z.im;
                }
            }
        }
        Self { b, re, im }
    }
}

// ---------------------------------------------------------------------------
// Run kernels

/// 1q permutation: `out[r] = phase[r] · x[perm[r]]` elementwise over a
/// run pair.
pub(crate) fn perm2_run<T: Scalar>(
    perm: &[usize; 2],
    phr: &[T; 2],
    phi: &[T; 2],
    lo: Run<'_, T>,
    hi: Run<'_, T>,
) {
    let (lo_re, lo_im) = lo;
    let (hi_re, hi_im) = hi;
    let n = lo_re.len();
    let (lo_re, lo_im) = (&mut lo_re[..n], &mut lo_im[..n]);
    let (hi_re, hi_im) = (&mut hi_re[..n], &mut hi_im[..n]);
    for j in 0..n {
        let xr = [lo_re[j], hi_re[j]];
        let xi = [lo_im[j], hi_im[j]];
        let (y0r, y0i) = cplx_mul_parts(phr[0], phi[0], xr[perm[0]], xi[perm[0]]);
        let (y1r, y1i) = cplx_mul_parts(phr[1], phi[1], xr[perm[1]], xi[perm[1]]);
        lo_re[j] = y0r;
        lo_im[j] = y0i;
        hi_re[j] = y1r;
        hi_im[j] = y1i;
    }
}

/// 2q permutation over a quad of runs (already localized).
pub(crate) fn perm4_run<T: Scalar>(
    perm: &[usize; 4],
    phr: &[T; 4],
    phi: &[T; 4],
    rows: [Run<'_, T>; 4],
) {
    let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
    let n = r0.len();
    let (r0, r1, r2, r3) = (&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]);
    let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
    for j in 0..n {
        let xr = [r0[j], r1[j], r2[j], r3[j]];
        let xi = [i0[j], i1[j], i2[j], i3[j]];
        let mut yr = [T::ZERO; 4];
        let mut yi = [T::ZERO; 4];
        for r in 0..4 {
            let (a, bq) = cplx_mul_parts(phr[r], phi[r], xr[perm[r]], xi[perm[r]]);
            yr[r] = a;
            yi[r] = bq;
        }
        r0[j] = yr[0];
        r1[j] = yr[1];
        r2[j] = yr[2];
        r3[j] = yr[3];
        i0[j] = yi[0];
        i1[j] = yi[1];
        i2[j] = yi[2];
        i3[j] = yi[3];
    }
}

/// Per-lane dense 1q over a run pair whose rows are `m.b` lanes wide;
/// lanes whose `skip` flag is set keep their exact bits.
pub(crate) fn mat2_lanes_run<T: Scalar>(
    m: &LaneMats2<T>,
    skip: Option<&[bool]>,
    lo: Run<'_, T>,
    hi: Run<'_, T>,
) {
    let b = m.b;
    let (lo_re, lo_im) = lo;
    let (hi_re, hi_im) = hi;
    let (e0r, rest) = m.re.split_at(b);
    let (e1r, rest) = rest.split_at(b);
    let (e2r, e3r) = rest.split_at(b);
    let (e0i, rest) = m.im.split_at(b);
    let (e1i, rest) = rest.split_at(b);
    let (e2i, e3i) = rest.split_at(b);
    for row in 0..lo_re.len() / b {
        let off = row * b;
        let (lr, li) = (&mut lo_re[off..off + b], &mut lo_im[off..off + b]);
        let (hr, hi_) = (&mut hi_re[off..off + b], &mut hi_im[off..off + b]);
        for j in 0..b {
            if skip.is_some_and(|s| s[j]) {
                continue;
            }
            let (x0r, x0i, x1r, x1i) = (lr[j], li[j], hr[j], hi_[j]);
            let (t0r, t0i) = cplx_mul_parts(e1r[j], e1i[j], x1r, x1i);
            let (y0r, y0i) = cplx_mul_add_parts(e0r[j], e0i[j], x0r, x0i, t0r, t0i);
            let (t1r, t1i) = cplx_mul_parts(e3r[j], e3i[j], x1r, x1i);
            let (y1r, y1i) = cplx_mul_add_parts(e2r[j], e2i[j], x0r, x0i, t1r, t1i);
            lr[j] = y0r;
            li[j] = y0i;
            hr[j] = y1r;
            hi_[j] = y1i;
        }
    }
}

/// Per-lane dense 2q over a quad of runs (see [`mat2_lanes_run`]).
pub(crate) fn mat4_lanes_run<T: Scalar>(
    m: &LaneMats4<T>,
    skip: Option<&[bool]>,
    rows: [Run<'_, T>; 4],
) {
    let b = m.b;
    let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
    for row in 0..r0.len() / b {
        let off = row * b;
        for j in 0..b {
            if skip.is_some_and(|s| s[j]) {
                continue;
            }
            let k = off + j;
            let xr = [r0[k], r1[k], r2[k], r3[k]];
            let xi = [i0[k], i1[k], i2[k], i3[k]];
            let mut yr = [T::ZERO; 4];
            let mut yi = [T::ZERO; 4];
            for r in 0..4 {
                let e = |c: usize| (m.re[(r * 4 + c) * b + j], m.im[(r * 4 + c) * b + j]);
                let (m0r, m0i) = e(0);
                let (m1r, m1i) = e(1);
                let (m2r, m2i) = e(2);
                let (m3r, m3i) = e(3);
                let (tr, ti) = cplx_mul_parts(m1r, m1i, xr[1], xi[1]);
                let (ar, ai) = cplx_mul_add_parts(m0r, m0i, xr[0], xi[0], tr, ti);
                let (ar, ai) = cplx_mul_add_parts(m2r, m2i, xr[2], xi[2], ar, ai);
                let (fr, fi) = cplx_mul_add_parts(m3r, m3i, xr[3], xi[3], ar, ai);
                yr[r] = fr;
                yi[r] = fi;
            }
            r0[k] = yr[0];
            r1[k] = yr[1];
            r2[k] = yr[2];
            r3[k] = yr[3];
            i0[k] = yi[0];
            i1[k] = yi[1];
            i2[k] = yi[2];
            i3[k] = yi[3];
        }
    }
}

/// Accumulate per-lane `|z|²` over a block of `b`-wide rows:
/// `block_sum[lane] += re² + im²` in row order (the caller owns the
/// scalar path's 4096-amplitude block grouping).
pub(crate) fn norm_acc_rows<T: Scalar>(re: &[T], im: &[T], b: usize, block_sum: &mut [T]) {
    for (row_re, row_im) in re.chunks_exact(b).zip(im.chunks_exact(b)) {
        for (s, (r, i)) in block_sum.iter_mut().zip(row_re.iter().zip(row_im)) {
            *s += cplx_norm_sqr_parts(*r, *i);
        }
    }
}

/// Per-lane real scale over `b`-wide rows: `z[lane] *= s[lane]`.
pub(crate) fn scale_rows<T: Scalar>(run: Run<'_, T>, b: usize, s: &[T]) {
    let (re, im) = run;
    for (row_re, row_im) in re.chunks_exact_mut(b).zip(im.chunks_exact_mut(b)) {
        for ((r, i), f) in row_re.iter_mut().zip(row_im.iter_mut()).zip(s) {
            *r *= *f;
            *i *= *f;
        }
    }
}
