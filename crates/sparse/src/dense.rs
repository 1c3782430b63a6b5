//! Tiny dense matrix, the brute-force oracle of this crate's unit tests
//! (compiled only for them). Column-major, `f64`-like generic.

use crate::csc::Csc;
use crate::semiring::Semiring;
use crate::types::Vidx;

/// Column-major dense matrix; the reference implementation for correctness
/// checks (never used on performance paths).
#[derive(Clone, Debug, PartialEq)]
pub struct Dense<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>, // column-major
}

impl<T: Copy> Dense<T> {
    pub fn filled(nrows: usize, ncols: usize, fill: T) -> Self {
        Dense {
            nrows,
            ncols,
            data: vec![fill; nrows * ncols],
        }
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[j * self.nrows + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[j * self.nrows + i] = v;
    }
}

impl<T: Copy + Send + Sync> Dense<T> {
    /// Densify a CSC matrix over a semiring (structural zeros become
    /// `S::zero()`).
    pub fn from_csc<S: Semiring<T = T>>(m: &Csc<T>) -> Self {
        let mut d = Dense::filled(m.nrows(), m.ncols(), S::zero());
        for (r, c, v) in m.iter() {
            d.set(r as usize, c as usize, v);
        }
        d
    }

    /// Dense triple-loop semiring product — the oracle.
    pub fn matmul<S: Semiring<T = T>>(&self, other: &Dense<T>) -> Dense<T> {
        assert_eq!(self.ncols, other.nrows);
        let mut c = Dense::filled(self.nrows, other.ncols, S::zero());
        for j in 0..other.ncols {
            for k in 0..self.ncols {
                let b = other.get(k, j);
                if S::is_zero(&b) {
                    continue;
                }
                for i in 0..self.nrows {
                    let a = self.get(i, k);
                    if S::is_zero(&a) {
                        continue;
                    }
                    c.set(i, j, S::add(c.get(i, j), S::mul(a, b)));
                }
            }
        }
        c
    }

    /// Sparsify, dropping semiring zeros.
    pub fn to_csc<S: Semiring<T = T>>(&self) -> Csc<T> {
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::new();
        let mut vals = Vec::new();
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                let v = self.get(i, j);
                if !S::is_zero(&v) {
                    rowidx.push(i as Vidx);
                    vals.push(v);
                }
            }
            colptr[j + 1] = rowidx.len();
        }
        Csc::from_parts(self.nrows, self.ncols, colptr, rowidx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::semiring::PlusTimes;

    #[test]
    fn dense_roundtrip() {
        let mut m = Coo::new(3, 2);
        m.push(0, 0, 1.5);
        m.push(2, 1, -2.0);
        let c = m.to_csc();
        let d = Dense::from_csc::<PlusTimes<f64>>(&c);
        assert_eq!(d.to_csc::<PlusTimes<f64>>(), c);
    }

    #[test]
    fn known_product() {
        // [1 2]   [0 1]   [2 1]
        // [0 3] x [1 0] = [3 0]
        let mut a = Dense::filled(2, 2, 0.0);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 1, 3.0);
        let mut b = Dense::filled(2, 2, 0.0);
        b.set(0, 1, 1.0);
        b.set(1, 0, 1.0);
        let c = a.matmul::<PlusTimes<f64>>(&b);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 3.0);
        assert_eq!(c.get(1, 1), 0.0);
    }
}
