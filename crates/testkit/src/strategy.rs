//! Input strategies for the [`prop!`](crate::prop!) harness.
//!
//! A [`Strategy`] knows how to *sample* a value from a seeded
//! [`Rng`] and how to *shrink* a failing value toward
//! simpler counterexamples. Plain range expressions (`1usize..40`,
//! `-25.0..-10.0f64`), tuples of strategies, [`vec_of`], [`one_of`] and
//! [`just`] cover the shapes the workspace's property tests use.

use std::fmt::Debug;

use crate::rng::Rng;

/// A generator + shrinker of test inputs.
pub trait Strategy {
    /// The produced value type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Proposes strictly "simpler" candidates for a failing value,
    /// simplest first. Returning an empty vector stops shrinking.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;
}

macro_rules! impl_int_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = self.start;
                let v = *value;
                if v == lo {
                    return Vec::new();
                }
                let mid = lo + (v - lo) / 2;
                let mut out = vec![lo];
                if mid != lo && mid != v {
                    out.push(mid);
                }
                out.push(v - 1);
                out.dedup();
                out
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = *self.start();
                let v = *value;
                if v == lo {
                    return Vec::new();
                }
                let mid = lo + (v - lo) / 2;
                let mut out = vec![lo];
                if mid != lo && mid != v {
                    out.push(mid);
                }
                out.push(v - 1);
                out.dedup();
                out
            }
        }
    )+};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                float_shrink(self.start, *value)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                float_shrink(*self.start(), *value)
            }
        }
    )+};
}

impl_float_strategy!(f32, f64);

/// Halves the distance to the lower bound; also tries zero when the
/// range straddles it (the classic "simplest float").
fn float_shrink<T>(lo: T, v: T) -> Vec<T>
where
    T: Copy
        + PartialOrd
        + core::ops::Sub<Output = T>
        + core::ops::Add<Output = T>
        + core::ops::Div<Output = T>
        + From<u8>
        + PartialEq,
{
    let zero: T = 0u8.into();
    let two: T = 2u8.into();
    if v == lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    if lo < zero && zero < v {
        out.push(zero);
    }
    let mid = lo + (v - lo) / two;
    if mid != lo && mid != v {
        out.push(mid);
    }
    out
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9),
);

/// Strategy producing a `Vec` of `elem` samples with a length drawn from
/// `len` — the replacement for `proptest::collection::vec`.
pub fn vec_of<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { elem, len }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: core::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut Rng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let min = self.len.start;
        let mut out: Vec<Self::Value> = Vec::new();
        // Structural shrinks first: shorter vectors are simpler than
        // vectors of simpler elements.
        if value.len() > min {
            out.push(value[..min].to_vec());
            let half = min.max(value.len() / 2);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
            // Dropping a single interior element (bounded).
            for i in (0..value.len()).take(8) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Element-wise shrinks (bounded so the candidate list stays small).
        for i in (0..value.len()).take(8) {
            for cand in self.elem.shrink(&value[i]).into_iter().take(2) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// Strategy choosing uniformly among the given values; shrinks toward
/// the first — the replacement for `prop_oneof![Just(..), ..]`.
pub fn one_of<T: Clone + Debug, const N: usize>(choices: [T; N]) -> OneOf<T> {
    assert!(N > 0, "one_of needs at least one choice");
    OneOf {
        choices: choices.to_vec(),
    }
}

/// See [`one_of`].
#[derive(Debug, Clone)]
pub struct OneOf<T> {
    choices: Vec<T>,
}

impl<T: Clone + Debug + PartialEq> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut Rng) -> T {
        self.choices[rng.gen_range(0..self.choices.len())].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        match self.choices.iter().position(|c| c == value) {
            Some(0) | None => Vec::new(),
            Some(_) => vec![self.choices[0].clone()],
        }
    }
}

/// Constant strategy: always yields `value`, never shrinks.
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just { value }
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T> {
    value: T,
}

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut Rng) -> T {
        self.value.clone()
    }

    fn shrink(&self, _value: &T) -> Vec<T> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_samples_and_shrinks_toward_lo() {
        let s = 3usize..40;
        let mut rng = Rng::seed_from_u64(0);
        for _ in 0..200 {
            assert!((3..40).contains(&s.sample(&mut rng)));
        }
        let cands = s.shrink(&20);
        assert!(cands.contains(&3));
        assert!(cands.iter().all(|&c| c < 20));
        assert!(s.shrink(&3).is_empty());
    }

    #[test]
    fn float_range_shrinks_toward_lo_and_zero() {
        let s = -10.0..10.0f64;
        let cands = s.shrink(&7.5);
        assert!(cands.contains(&-10.0));
        assert!(cands.contains(&0.0));
        assert!(s.shrink(&-10.0).is_empty());
    }

    #[test]
    fn tuple_shrinks_one_coordinate_at_a_time() {
        let s = (0usize..10, 0usize..10);
        for cand in s.shrink(&(4, 7)) {
            let changed = usize::from(cand.0 != 4) + usize::from(cand.1 != 7);
            assert_eq!(changed, 1, "candidate {cand:?} changed both coordinates");
        }
    }

    #[test]
    fn vec_of_respects_length_and_shrinks_shorter() {
        let s = vec_of(0usize..5, 2..6);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 5));
        }
        let v = s.sample(&mut rng);
        if v.len() > 2 {
            assert!(s.shrink(&v).iter().any(|c| c.len() < v.len()));
        }
    }

    #[test]
    fn one_of_only_yields_choices() {
        let s = one_of([300.0, 500.0, 800.0]);
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..50 {
            assert!([300.0, 500.0, 800.0].contains(&s.sample(&mut rng)));
        }
        assert_eq!(s.shrink(&800.0), vec![300.0]);
        assert!(s.shrink(&300.0).is_empty());
    }

    #[test]
    fn just_is_constant() {
        let s = just(17u8);
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(s.sample(&mut rng), 17);
        assert!(s.shrink(&17).is_empty());
    }
}
