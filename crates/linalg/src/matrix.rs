use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is deliberately small and purpose-built: the noisy PULL model
/// only needs `d × d` matrices where `d = |Σ|` is the message-alphabet size
/// (2 for Algorithm SF, 4 for Algorithm SSF), so no effort is spent on
/// blocking or SIMD. All constructors validate their input shape.
///
/// # Example
///
/// ```
/// use np_linalg::Matrix;
///
/// let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let i = Matrix::identity(2);
/// assert_eq!(a.mul_checked(&i)?, a);
/// # Ok::<(), np_linalg::LinalgError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`; zero-dimensional matrices are
    /// never meaningful in this crate.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a vector of rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::BadShape`] if `rows` is empty, any row is
    /// empty, rows have inconsistent lengths, or any entry is non-finite.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::BadShape {
                detail: "no rows".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::BadShape {
                detail: "empty rows".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::BadShape {
                    detail: format!("row {i} has length {} but row 0 has {cols}", row.len()),
                });
            }
            for (j, &x) in row.iter().enumerate() {
                if !x.is_finite() {
                    return Err(LinalgError::BadShape {
                        detail: format!("non-finite entry at ({i}, {j}): {x}"),
                    });
                }
                data.push(x);
            }
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::BadShape`] if `data.len() != rows * cols`, the
    /// dimensions are zero, or any entry is non-finite.
    pub fn from_flat(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::BadShape {
                detail: "zero dimension".into(),
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::BadShape {
                detail: format!("expected {} entries, got {}", rows * cols, data.len()),
            });
        }
        if let Some(x) = data.iter().find(|x| !x.is_finite()) {
            return Err(LinalgError::BadShape {
                detail: format!("non-finite entry: {x}"),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of range {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over the rows of the matrix as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product, validating dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != other.rows()`.
    pub fn mul_checked(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // Exact-zero skip exploiting sparsity; a tolerance here
                // would change results.
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Returns the element-wise maximum absolute difference to `other`, or
    /// `None` if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Returns `true` if every entry differs from `other` by at most `tol`.
    ///
    /// Shapes must match exactly; mismatched shapes return `false`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.max_abs_diff(other).is_some_and(|d| d <= tol)
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            write!(f, "  [")?;
            for (j, x) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x:.6}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "dimension mismatch in matrix addition"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on dimension mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "dimension mismatch in matrix subtraction"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on dimension mismatch; use [`Matrix::mul_checked`] for a
    /// fallible version.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: `Mul` is the panicking variant of mul_checked"
    )]
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_checked(rhs).expect("dimension mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::BadShape { .. }));
    }

    #[test]
    fn from_rows_rejects_empty_and_nan() {
        assert!(Matrix::from_rows(vec![]).is_err());
        assert!(Matrix::from_rows(vec![vec![]]).is_err());
        assert!(Matrix::from_rows(vec![vec![f64::NAN]]).is_err());
        assert!(Matrix::from_rows(vec![vec![f64::INFINITY]]).is_err());
    }

    #[test]
    fn from_flat_validates_length() {
        assert!(Matrix::from_flat(2, 2, &[1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_flat(0, 2, &[]).is_err());
        let m = Matrix::from_flat(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn indexing_and_rows() {
        let m = sample();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn product_against_identity() {
        let m = sample();
        let i = Matrix::identity(2);
        assert_eq!(m.mul_checked(&i).unwrap(), m);
        assert_eq!(i.mul_checked(&m).unwrap(), m);
        assert_eq!(&m * &i, m);
    }

    #[test]
    fn product_known_value() {
        let a = sample();
        let b = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let ab = a.mul_checked(&b).unwrap();
        assert_eq!(
            ab,
            Matrix::from_rows(vec![vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
    }

    #[test]
    fn product_dimension_mismatch() {
        let a = sample();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.mul_checked(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mul_vec_known_value() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = sample();
        let b = Matrix::identity(2);
        let c = &(&a + &b) - &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = sample();
        let mut b = a.clone();
        b[(1, 1)] += 1e-7;
        assert!(a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&b, 1e-8));
        assert!(a.max_abs_diff(&Matrix::zeros(3, 3)).is_none());
        assert!(!a.approx_eq(&Matrix::zeros(3, 3), 100.0));
    }

    #[test]
    fn scale_scales_everything() {
        let m = sample().scale(2.0);
        assert_eq!(m.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn debug_output_is_nonempty() {
        assert!(format!("{:?}", sample()).contains("Matrix 2x2"));
    }
}
