//! Order-independent checksum of a sparse matrix's entries.
//!
//! Each `(row, col, value bits)` triple is mixed to 64 bits and the mixes
//! are summed with wrapping addition, so any enumeration order — by rank,
//! by column, by merge order — gives the same sum, while one flipped
//! mantissa bit changes it. Rank checksums add up to the checksum of the
//! gathered matrix, which is how a distributed product is compared across
//! backends without gathering it.

/// splitmix64's finalizer: a bijection on `u64` with full avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checksum contribution of one entry.
pub fn entry(row: u64, col: u64, value: f64) -> u64 {
    mix(mix(mix(row) ^ col) ^ value.to_bits())
}

/// Checksum of a set of entries (wrapping sum of [`entry`]).
pub fn of_entries(entries: impl IntoIterator<Item = (u64, u64, f64)>) -> u64 {
    entries
        .into_iter()
        .fold(0u64, |acc, (r, c, v)| acc.wrapping_add(entry(r, c, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(u64, u64, f64)> {
        (0..200u64)
            .map(|i| (i % 17, i / 3, 0.25 + i as f64 * 1.5))
            .collect()
    }

    #[test]
    fn permutation_invariant() {
        let mut e = sample();
        let a = of_entries(e.clone());
        e.reverse();
        assert_eq!(of_entries(e.clone()), a);
        e.rotate_left(71);
        assert_eq!(of_entries(e.clone()), a);
        // splitting across "ranks" and adding the parts gives the same sum
        let (x, y) = e.split_at(90);
        assert_eq!(
            of_entries(x.to_vec()).wrapping_add(of_entries(y.to_vec())),
            a
        );
    }

    #[test]
    fn value_bit_sensitive() {
        let e = sample();
        let a = of_entries(e.clone());
        let mut f = e.clone();
        f[5].2 = f64::from_bits(f[5].2.to_bits() ^ 1);
        assert_ne!(of_entries(f), a);
        // -0.0 == 0.0 numerically, but the bits differ
        assert_ne!(entry(1, 2, 0.0), entry(1, 2, -0.0));
    }

    #[test]
    fn position_sensitive() {
        assert_ne!(entry(1, 2, 3.0), entry(2, 1, 3.0));
        let e = sample();
        let a = of_entries(e.clone());
        let mut f = e;
        f[9].0 += 1;
        assert_ne!(of_entries(f), a);
    }
}
