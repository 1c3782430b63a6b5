//! Typed operand-shape validation at the distributed entry points.
//!
//! The multiply kernels index unchecked once data starts moving, so a
//! dimension disagreement caught late surfaces as an opaque index panic
//! deep inside a rank. The entry points therefore validate up front —
//! *before any communication* — so either every rank proceeds or every
//! rank reports the same [`ShapeError`] (the operands' global shapes are
//! replicated, so the check is collective-free and agrees by construction).
//!
//! The two `try_*` entry points ([`try_spgemm_1d`](crate::try_spgemm_1d),
//! [`try_spgemm_summa_2d_sa`](crate::try_spgemm_summa_2d_sa)) return the
//! error; their panicking wrappers ([`spgemm_1d`](crate::spgemm_1d),
//! [`spgemm_summa_2d_sa`](crate::spgemm_summa_2d_sa)) unwrap it with the
//! same message they always had. The baselines and the 3D split
//! ([`spgemm_summa_2d`](crate::spgemm_summa_2d),
//! [`spgemm_split_3d`](crate::spgemm_split_3d),
//! [`spgemm_split_3d_sa`](crate::spgemm_split_3d_sa),
//! [`spgemm_outer_1d`](crate::spgemm_outer_1d)) assert their shapes and
//! panic.

/// Why a distributed multiply's operands cannot be multiplied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// `A`'s column count does not match `B`'s row count.
    NotConformal {
        a_rows: usize,
        a_cols: usize,
        b_rows: usize,
        b_cols: usize,
    },
    /// A 2D operand's blocking does not match the process grid it is
    /// being multiplied on.
    BlockingMismatch {
        /// Which operand ("A" or "B").
        matrix: &'static str,
        /// Which axis ("row" or "col").
        axis: &'static str,
        /// Blocks the operand actually has along that axis.
        blocks: usize,
        /// Blocks the grid requires along that axis.
        grid: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::NotConformal {
                a_rows,
                a_cols,
                b_rows,
                b_cols,
            } => write!(
                f,
                "dimension mismatch: A is {a_rows}x{a_cols}, B is {b_rows}x{b_cols}"
            ),
            ShapeError::BlockingMismatch {
                matrix,
                axis,
                blocks,
                grid,
            } => write!(
                f,
                "blocking mismatch: {matrix} has {blocks} {axis} block(s), grid needs {grid}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Validate `A (a_rows x a_cols) · B (b_rows x b_cols)`.
pub(crate) fn conformal(
    (a_rows, a_cols): (usize, usize),
    (b_rows, b_cols): (usize, usize),
) -> Result<(), ShapeError> {
    if a_cols == b_rows {
        Ok(())
    } else {
        Err(ShapeError::NotConformal {
            a_rows,
            a_cols,
            b_rows,
            b_cols,
        })
    }
}

/// Validate one operand's block count along one axis against the grid's.
pub(crate) fn blocking(
    matrix: &'static str,
    axis: &'static str,
    blocks: usize,
    grid: usize,
) -> Result<(), ShapeError> {
    if blocks == grid {
        Ok(())
    } else {
        Err(ShapeError::BlockingMismatch {
            matrix,
            axis,
            blocks,
            grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformal_accepts_and_rejects() {
        assert!(conformal((3, 4), (4, 5)).is_ok());
        let err = conformal((10, 12), (10, 12)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "dimension mismatch: A is 10x12, B is 10x12"
        );
    }

    #[test]
    fn blocking_reports_coordinates() {
        assert!(blocking("A", "row", 2, 2).is_ok());
        let err = blocking("B", "col", 3, 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "blocking mismatch: B has 3 col block(s), grid needs 2"
        );
    }
}
