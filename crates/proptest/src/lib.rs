//! Offline in-tree shim for the subset of `proptest` the fastmon test
//! suites use: value-producing [`Strategy`] objects, the [`proptest!`]
//! test macro and the `prop_assert*` macros.
//!
//! Compared to the real proptest there is no persisted failure corpus:
//! each property runs a fixed number of deterministic cases (seeded from
//! the test name). A failing case is greedily shrunk via
//! [`Strategy::shrink`] (bounded by [`MAX_SHRINK_EVALS`] re-executions)
//! and both the original and the minimized failing input are printed with
//! `Debug` before the original panic is re-raised. Strategies built with
//! [`Strategy::prop_map`] cannot shrink through the mapping (the closure
//! is not invertible), so their minimized input equals the original.

use std::ops::Range;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Cases generated per property.
pub const NUM_CASES: u32 = 128;

/// The deterministic case generator handed to strategies.
pub struct TestRng {
    inner: ChaCha8Rng,
}

impl TestRng {
    /// A generator seeded from the property name, so every property gets a
    /// stable but distinct stream.
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            inner: ChaCha8Rng::seed_from_u64(h),
        }
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Cap on property re-executions spent minimizing one failing input.
pub const MAX_SHRINK_EVALS: usize = 256;

/// A recipe for producing random values of one type.
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. The default
    /// is no candidates (the value is already minimal or the strategy
    /// cannot shrink, e.g. through a `prop_map` closure).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps produced values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Greedily minimizes a failing input: repeatedly replaces `value` with
/// the first [`Strategy::shrink`] candidate on which `fails` still
/// returns `true`, until no candidate fails or [`MAX_SHRINK_EVALS`]
/// re-executions are spent.
///
/// The process-global panic hook is silenced while candidates run, so the
/// (expected) panics of still-failing candidates do not spam the test
/// output; the hook is restored before returning.
pub fn minimize<S: Strategy>(
    strat: &S,
    mut value: S::Value,
    fails: impl Fn(&S::Value) -> bool,
) -> S::Value {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut evals = 0usize;
    'outer: while evals < MAX_SHRINK_EVALS {
        for cand in strat.shrink(&value) {
            evals += 1;
            if fails(&cand) {
                value = cand;
                continue 'outer;
            }
            if evals >= MAX_SHRINK_EVALS {
                break;
            }
        }
        break;
    }
    std::panic::set_hook(hook);
    value
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_strategy_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                // toward the range start: the start itself, then halfway
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2.0;
                    if mid > self.start && mid < *value {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}
impl_strategy_float_range!(f32, f64);

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                // toward the range start: start, halfway, predecessor
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2;
                    if mid > self.start && mid < *value {
                        out.push(mid);
                    }
                    if *value - 1 > mid {
                        out.push(*value - 1);
                    }
                }
                out
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_tuple {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone),+
        {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                // shrink one component at a time, keeping the rest fixed
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Marker for types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Produces one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;

    /// Candidate simplifications, simplest first (default: none).
    fn simplify(&self) -> Vec<Self> {
        Vec::new()
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen()
    }

    fn simplify(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }

            fn simplify(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self > 0 {
                    out.push(0);
                    if *self / 2 > 0 {
                        out.push(*self / 2);
                    }
                    out.push(*self - 1);
                    out.dedup();
                }
                out
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

/// The canonical strategy of an [`Arbitrary`] type: `any::<bool>()`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.simplify()
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// A strategy producing `Vec`s whose length is uniform in `len` and
    /// whose elements come from `element`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // shorter first: halve toward the minimum length, then drop
            // the last element
            if value.len() > self.len.start {
                let half = self.len.start.max(value.len() / 2);
                if half < value.len() {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            // then element-wise shrinks at each position
            for i in 0..value.len() {
                for cand in self.element.shrink(&value[i]) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

pub mod prelude {
    //! The usual glob-import surface: `use proptest::prelude::*;`.
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Declares property tests: each function binds its arguments from
/// strategies and runs [`NUM_CASES`] deterministic cases. A failing case
/// is minimized with [`minimize`] and both the original and the minimized
/// input are printed (`Debug`) before the panic is re-raised — argument
/// values must therefore be `Clone + Debug`.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strat = ($($strat,)+);
                // pins the closure's parameter to the strategy's value type
                fn annotate<S: $crate::Strategy, F: Fn(&S::Value)>(_: &S, f: F) -> F {
                    f
                }
                let check = annotate(&strat, |vals| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(vals);
                    $body
                });
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..$crate::NUM_CASES {
                    let vals = $crate::Strategy::generate(&strat, &mut rng);
                    let result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| check(&vals)),
                    );
                    if let Err(panic) = result {
                        let minimized = $crate::minimize(
                            &strat,
                            ::std::clone::Clone::clone(&vals),
                            |cand| {
                                ::std::panic::catch_unwind(
                                    ::std::panic::AssertUnwindSafe(|| check(cand)),
                                )
                                .is_err()
                            },
                        );
                        eprintln!(
                            "property {} failed at case {case}/{}\n  \
                             failing input: {:?}\n  \
                             minimized input: {:?}",
                            stringify!($name),
                            $crate::NUM_CASES,
                            vals,
                            minimized,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (f64, bool)> {
        (0.0..10.0f64, any::<bool>())
    }

    proptest! {
        #[test]
        fn ranges_respected(x in 1.0..2.0f64, n in 0..5u32) {
            prop_assert!((1.0..2.0).contains(&x));
            prop_assert!(n < 5);
        }

        #[test]
        fn mapped_strategy_applies(v in arb_pair().prop_map(|(f, b)| if b { f } else { -f })) {
            prop_assert!(v.abs() < 10.0);
        }

        #[test]
        fn vec_strategy_len_in_range(v in crate::collection::vec(0.0..1.0f64, 2..6)) {
            prop_assert!((2..6).contains(&v.len()), "len {}", v.len());
            for x in v {
                prop_assert!((0.0..1.0).contains(&x));
            }
        }
    }

    #[test]
    fn minimize_descends_toward_the_failure_boundary() {
        // property "value < 100" fails for 700; the minimizer must walk
        // down close to the boundary without crossing it
        let strat = (0..1000u32,);
        let min = crate::minimize(&strat, (700,), |v| v.0 >= 100);
        assert!(min.0 >= 100, "minimized input must still fail");
        assert!(min.0 < 700, "minimized input must be simpler");
    }

    #[test]
    fn minimize_restores_the_panic_hook() {
        let strat = 0..10u32;
        let _ = crate::minimize(&strat, 5, |_| {
            std::panic::catch_unwind(|| panic!("candidate panics silently")).is_err()
        });
        // the default hook is back: a captured panic still unwinds normally
        assert!(std::panic::catch_unwind(|| panic!("after")).is_err());
    }

    #[test]
    fn tuple_shrink_varies_one_component_at_a_time() {
        let strat = (0..10u32, 0.0..1.0f64);
        let cands = crate::Strategy::shrink(&strat, &(4, 0.5));
        assert!(!cands.is_empty());
        for (a, b) in &cands {
            let int_changed = *a != 4;
            let float_changed = (*b - 0.5).abs() > f64::EPSILON;
            assert!(int_changed ^ float_changed, "candidate ({a}, {b})");
        }
    }

    #[test]
    fn vec_shrink_offers_shorter_vectors_first() {
        let strat = crate::collection::vec(0..100u32, 1..8);
        let cands = crate::Strategy::shrink(&strat, &vec![9, 9, 9, 9]);
        assert!(cands[0].len() < 4, "first candidate should be shorter");
        assert!(cands.iter().all(|c| !c.is_empty()), "min length respected");
    }

    #[test]
    fn already_minimal_values_do_not_shrink() {
        assert!(crate::Strategy::shrink(&(3..10u32), &3).is_empty());
        assert!(crate::Strategy::shrink(&(0.0..1.0f64), &0.0).is_empty());
        assert!(crate::Strategy::shrink(&crate::any::<bool>(), &false).is_empty());
    }

    #[test]
    fn deterministic_rng_stable_per_name() {
        use rand::RngCore;
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
