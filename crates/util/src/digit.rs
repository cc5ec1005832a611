//! Mixed-radix digit extraction for index decodes on hot paths.

/// One mixed-radix digit: splits a value into `(v % size, v / size)`.
/// Simulated geometries (DRAM dimensions, cache set counts) are almost
/// always powers of two, where that is a mask and a shift; any other
/// size keeps the exact division.
///
/// ```
/// use oram_util::Digit;
/// assert_eq!(Digit::new(8).peel(43), (3, 5));
/// assert_eq!(Digit::new(6).peel(43), (1, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digit {
    size: u64,
    /// `log2(size)` when `size` is a power of two.
    shift: Option<u32>,
}

impl Digit {
    /// A digit of radix `size` (`peel` panics on a zero radix, as the
    /// division it replaces would).
    pub fn new(size: usize) -> Self {
        let size = size as u64;
        Digit { size, shift: size.is_power_of_two().then(|| size.trailing_zeros()) }
    }

    /// The radix.
    pub fn size(self) -> u64 {
        self.size
    }

    /// Splits `a` into `(a % size, a / size)`.
    #[inline]
    pub fn peel(self, a: u64) -> (u64, u64) {
        match self.shift {
            Some(shift) => (a & (self.size - 1), a >> shift),
            None => (a % self.size, a / self.size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peel_is_exact_division_for_every_radix() {
        for size in 1..=70usize {
            let d = Digit::new(size);
            assert_eq!(d.size(), size as u64);
            for a in (0..300u64).chain([u64::MAX - 1, u64::MAX]) {
                assert_eq!(d.peel(a), (a % size as u64, a / size as u64), "size {size} a {a}");
            }
        }
    }
}
