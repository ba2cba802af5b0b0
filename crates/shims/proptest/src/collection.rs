//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`]: a fixed `usize` or a
/// `Range<usize>`.
pub trait IntoLenRange {
    /// Lower bound (inclusive) and upper bound (exclusive).
    fn bounds(&self) -> (usize, usize);
}

impl IntoLenRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

impl IntoLenRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max_exclusive: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.max_exclusive - self.min;
        let len = if span <= 1 {
            self.min
        } else {
            self.min + rng.below(span)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for vectors whose elements come from `element` and whose
/// length satisfies `len`.
pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
    let (min, max_exclusive) = len.bounds();
    assert!(min < max_exclusive, "empty length range");
    VecStrategy {
        element,
        min,
        max_exclusive,
    }
}
