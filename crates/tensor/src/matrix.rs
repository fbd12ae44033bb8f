//! Row-major `f32` matrices with the small set of operations the training
//! stack needs: construction, random fills, elementwise arithmetic,
//! transposition, and comparison helpers for tests.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Deterministic uniform random fill in `[-scale, scale]`, seeded.
    /// All model initialisation in the stack goes through this so runs are
    /// reproducible.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new_inclusive(-scale, scale);
        let data = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (rows, cols).
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// An explicit transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self *= s` elementwise.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// `self += s * other` (axpy).
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Quantize every element to the bf16 grid (mixed-precision operand
    /// preparation).
    pub fn round_bf16(&mut self) {
        crate::bf16::round_slice(&mut self.data);
    }

    /// A bf16-rounded copy.
    pub fn to_bf16(&self) -> Matrix {
        let mut m = self.clone();
        m.round_bf16();
        m
    }

    /// Largest absolute elementwise difference; `f32::INFINITY` on shape
    /// mismatch would hide bugs, so shapes must match.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|x| (*x as f64).powi(2))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// FNV-1a hash over the shape and the exact bit patterns of every
    /// element. Used for checkpoint integrity checks: any single bit flip
    /// in shape or data changes the digest.
    pub fn fnv1a64(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(&(self.rows as u64).to_le_bytes());
        mix(&(self.cols as u64).to_le_bytes());
        for x in &self.data {
            mix(&x.to_bits().to_le_bytes());
        }
        h
    }

    /// The shape and every element's bit pattern: what a bitwise proof
    /// compares, since `==` on `f32` takes `-0.0` for `+0.0` (and NaN
    /// for unequal to itself).
    pub fn to_bits(&self) -> (usize, usize, Vec<u32>) {
        let bits = self.data.iter().map(|x| x.to_bits()).collect();
        (self.rows, self.cols, bits)
    }

    /// True if all elements are within `tol` of `other`, scaled by
    /// magnitude (mixed absolute/relative comparison for tests).
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let scale = 1.0f32.max(a.abs()).max(b.abs());
            (a - b).abs() <= tol * scale
        })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn eye_is_identity_under_indexing() {
        let m = Matrix::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::random(37, 53, 1.0, 7);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_correct() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (2, 3));
        for r in 0..3 {
            for c in 0..2 {
                assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Matrix::random(8, 8, 0.5, 42);
        let b = Matrix::random(8, 8, 0.5, 42);
        let c = Matrix::random(8, 8, 0.5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn arithmetic_ops() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a, Matrix::full(2, 2, 3.0));
        a.sub_assign(&b);
        assert_eq!(a, Matrix::full(2, 2, 1.0));
        a.scale(4.0);
        assert_eq!(a, Matrix::full(2, 2, 4.0));
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::full(2, 2, 5.0));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::full(2, 2, 100.0);
        let mut b = a.clone();
        b[(0, 0)] = 100.5;
        assert!(a.approx_eq(&b, 0.01));
        assert!(!a.approx_eq(&b, 0.001));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn bf16_rounding_on_matrix() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 1.0 + 2f32.powi(-10)]);
        m.round_bf16();
        assert_eq!(m.as_slice(), &[1.0, 1.0]);
    }
}
