//! Factorial tables used by ranking, partition arithmetic and bound
//! calculators.

/// Factorials `0! ..= 20!` as `u64` (20! is the largest factorial that fits
/// in a `u64`).
pub const FACTORIALS: [u64; 21] = {
    let mut t = [1u64; 21];
    let mut i = 1;
    while i < 21 {
        t[i] = t[i - 1] * i as u64;
        i += 1;
    }
    t
};

/// `n!` for `n <= 20`.
///
/// # Panics
/// Panics if `n > 20` (the result would overflow a `u64`).
#[inline]
pub fn factorial(n: usize) -> u64 {
    FACTORIALS[n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_iterative_product() {
        let mut acc = 1u64;
        for i in 0..=20usize {
            if i > 0 {
                acc *= i as u64;
            }
            assert_eq!(factorial(i), acc, "factorial({i})");
        }
    }
}
