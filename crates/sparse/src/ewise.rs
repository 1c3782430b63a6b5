//! Elementwise operations on CSC matrices: union add (semiring ⊕) and
//! intersection multiply — the building blocks of the 2D/3D partial-result
//! merges and triangle counting.

use crate::csc::Csc;
use crate::semiring::Semiring;
use crate::types::Vidx;

/// `C = A ⊕ B` on the union of patterns.
pub fn ewise_add<S: Semiring>(a: &Csc<S::T>, b: &Csc<S::T>) -> Csc<S::T> {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let mut colptr = vec![0usize; a.ncols() + 1];
    let mut rowidx: Vec<Vidx> = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals: Vec<S::T> = Vec::with_capacity(a.nnz() + b.nnz());
    for j in 0..a.ncols() {
        let (ra, va) = a.col(j);
        let (rb, vb) = b.col(j);
        let (mut i, mut k) = (0usize, 0usize);
        while i < ra.len() || k < rb.len() {
            let r1 = ra.get(i).copied().unwrap_or(Vidx::MAX);
            let r2 = rb.get(k).copied().unwrap_or(Vidx::MAX);
            let (r, v) = if r1 < r2 {
                i += 1;
                (r1, va[i - 1])
            } else if r2 < r1 {
                k += 1;
                (r2, vb[k - 1])
            } else {
                i += 1;
                k += 1;
                (r1, S::add(va[i - 1], vb[k - 1]))
            };
            if !S::is_zero(&v) {
                rowidx.push(r);
                vals.push(v);
            }
        }
        colptr[j + 1] = rowidx.len();
    }
    Csc::from_parts(a.nrows(), a.ncols(), colptr, rowidx, vals)
}

/// `C = A ⊗ B` on the intersection of patterns (Hadamard product under the
/// semiring's multiply).
pub fn ewise_mul<S: Semiring>(a: &Csc<S::T>, b: &Csc<S::T>) -> Csc<S::T> {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let mut colptr = vec![0usize; a.ncols() + 1];
    let mut rowidx: Vec<Vidx> = Vec::new();
    let mut vals: Vec<S::T> = Vec::new();
    for j in 0..a.ncols() {
        let (ra, va) = a.col(j);
        let (rb, vb) = b.col(j);
        let (mut i, mut k) = (0usize, 0usize);
        while i < ra.len() && k < rb.len() {
            if ra[i] < rb[k] {
                i += 1;
            } else if rb[k] < ra[i] {
                k += 1;
            } else {
                let v = S::mul(va[i], vb[k]);
                if !S::is_zero(&v) {
                    rowidx.push(ra[i]);
                    vals.push(v);
                }
                i += 1;
                k += 1;
            }
        }
        colptr[j + 1] = rowidx.len();
    }
    Csc::from_parts(a.nrows(), a.ncols(), colptr, rowidx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::semiring::PlusTimes;

    fn m(entries: &[(Vidx, Vidx, f64)]) -> Csc<f64> {
        let mut c = Coo::new(3, 3);
        for &(r, cc, v) in entries {
            c.push(r, cc, v);
        }
        c.to_csc()
    }

    #[test]
    fn add_union() {
        let a = m(&[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = m(&[(1, 1, 3.0), (2, 2, 4.0)]);
        let c = ewise_add::<PlusTimes<f64>>(&a, &b);
        assert_eq!(c.get(0, 0), Some(1.0));
        assert_eq!(c.get(1, 1), Some(5.0));
        assert_eq!(c.get(2, 2), Some(4.0));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn add_cancellation_drops_zero() {
        let a = m(&[(0, 0, 1.0)]);
        let b = m(&[(0, 0, -1.0)]);
        let c = ewise_add::<PlusTimes<f64>>(&a, &b);
        assert_eq!(c.nnz(), 0, "exact cancellation leaves no stored entry");
    }

    #[test]
    fn mul_intersection() {
        let a = m(&[(0, 0, 2.0), (1, 1, 2.0)]);
        let b = m(&[(1, 1, 3.0), (2, 2, 4.0)]);
        let c = ewise_mul::<PlusTimes<f64>>(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 1), Some(6.0));
    }

    #[test]
    fn add_is_commutative() {
        let a = m(&[(0, 0, 1.0), (2, 1, -3.5), (1, 2, 0.25)]);
        let b = m(&[(0, 0, 4.0), (2, 2, 2.0)]);
        assert_eq!(
            ewise_add::<PlusTimes<f64>>(&a, &b),
            ewise_add::<PlusTimes<f64>>(&b, &a)
        );
    }
}
