//! Collection strategies (`collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// Length specification for [`vec()`]: an exact length or a half-open range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        let (lo, hi) = r.into_inner();
        SizeRange { lo, hi: hi + 1 }
    }
}

/// Strategy producing `Vec`s of values drawn from `element`.
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = if self.size.lo + 1 >= self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    /// Prefix shrinking first (the minimum length, half the length, one
    /// element fewer — all valid lengths), then element-wise shrinking of
    /// each position in turn.
    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // The candidate lengths are ascending after filtering, so `dedup`
        // removes all duplicates.
        let mut lens: Vec<usize> = [self.size.lo, len / 2, len.saturating_sub(1)]
            .into_iter()
            .filter(|&l| l >= self.size.lo && l < len)
            .collect();
        lens.dedup();
        for candidate_len in lens {
            out.push(value[..candidate_len].to_vec());
        }
        for (i, element) in value.iter().enumerate() {
            for candidate in self.element.shrink(element) {
                let mut next = value.clone();
                next[i] = candidate;
                out.push(next);
            }
        }
        out
    }
}

/// Builds a strategy for vectors of `element` values with lengths drawn
/// from `size` (an exact `usize` or a `Range<usize>`).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_shrink_by_prefix_first() {
        let strategy = vec(0usize..10, 1..6);
        let value = vec![4, 5, 6, 7];
        let candidates = strategy.shrink(&value);
        // Prefixes (aggressive first), respecting the minimum length.
        assert_eq!(candidates[0], vec![4]);
        assert_eq!(candidates[1], vec![4, 5]);
        assert_eq!(candidates[2], vec![4, 5, 6]);
        // Then element-wise shrinks that keep the length.
        assert!(candidates[3..].iter().all(|c| c.len() == 4));
        assert!(candidates.contains(&vec![0, 5, 6, 7]));
        assert!(candidates.contains(&vec![4, 5, 6, 0]));
    }

    #[test]
    fn exact_length_vectors_never_shrink_below_it() {
        let strategy = vec(0usize..10, 3);
        let value = vec![9, 9, 9];
        assert!(strategy.shrink(&value).iter().all(|c| c.len() == 3));
    }

    #[test]
    fn minimal_vector_has_no_prefix_candidates() {
        let strategy = vec(0usize..10, 2..5);
        let value = vec![0, 0];
        assert!(strategy.shrink(&value).is_empty());
    }
}
