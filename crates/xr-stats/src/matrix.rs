//! A small dense row-major matrix with just enough linear algebra for
//! ordinary least squares: solving linear systems by Gaussian elimination
//! with partial pivoting, inversion, and matrix–vector products.
//!
//! The designs in this workspace are tall and thin (hundreds of thousands of
//! rows, fewer than ten columns), so the normal-equations approach
//! `(XᵀX)β = Xᵀy` with an O(k³) dense solve is entirely adequate. The
//! regression streams its rows into `XᵀX` and `Xᵀy` itself; a [`Matrix`]
//! only ever holds the `k × k` normal equations and their inverse.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};
use xr_types::{Error, Result};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Returns one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Solves `A · x = b` for `x` using Gaussian elimination with partial
    /// pivoting, where `A` is this (square) matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularDesignMatrix`] when the matrix is singular
    /// (a pivot smaller than `1e-12` is encountered) or not square, or when
    /// `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.rows;
        if self.rows != self.cols {
            return Err(Error::SingularDesignMatrix {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != n {
            return Err(Error::invalid_parameter(
                "b",
                format!("expected length {n}, got {}", b.len()),
            ));
        }

        // Augmented working copies.
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivoting: find the row with the largest magnitude in
            // this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-12 {
                return Err(Error::SingularDesignMatrix {
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }

            // Eliminate below the pivot.
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }

        // Back substitution.
        let mut solution = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = x[row];
            for k in (row + 1)..n {
                acc -= a[row * n + k] * solution[k];
            }
            solution[row] = acc / a[row * n + row];
        }
        Ok(solution)
    }

    /// Computes the matrix inverse via repeated solves against the identity.
    ///
    /// Only used for the small `k × k` matrices arising in regression
    /// standard-error computations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularDesignMatrix`] when the matrix is singular or
    /// not square.
    pub fn inverse(&self) -> Result<Self> {
        let n = self.rows;
        if self.rows != self.cols {
            return Err(Error::SingularDesignMatrix {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut out = Self::zeros(n, n);
        for col in 0..n {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let x = self.solve(&e)?;
            for row in 0..n {
                out[(row, col)] = x[row];
            }
        }
        Ok(out)
    }

    /// Multiplies this matrix by a vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the column count.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *slot = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.5} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix<const C: usize>(rows: &[[f64; C]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), C);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let x = identity(3).solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
        let a = matrix(&[[2.0, 1.0], [1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = matrix(&[[0.0, 1.0], [1.0, 0.0]]);
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = matrix(&[[1.0, 2.0], [2.0, 4.0]]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(Error::SingularDesignMatrix { .. })
        ));
    }

    #[test]
    fn non_square_solve_rejected() {
        let a = matrix(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        assert!(identity(3).solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = matrix(&[[4.0, 7.0], [2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        for j in 0..2 {
            let column = a.mul_vec(&[inv[(0, j)], inv[(1, j)]]);
            for (i, v) in column.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((v - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", identity(2)).contains("1.00000"));
    }
}
