//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The [`proptest!`] macro expands each `fn name(pat in strategy, ...)`
//! into an ordinary test that draws [`CASES`] random inputs from the
//! strategies using a deterministic per-test RNG (seeded from the test
//! name) and runs the body for each. `prop_assert!`/`prop_assert_eq!`
//! forward to the std assertions; `prop_assume!` skips the current case.
//! There is no shrinking — a failing case panics with its assertion
//! message, and determinism makes the failure reproducible.
//!
//! A failing case also prints the test's name, the case's index and the
//! RNG state the case started from. Setting `PROPTEST_REPLAY` to that
//! state (decimal or `0x` hex) runs only that case, in every property test
//! the run selects — so name the test as well:
//!
//! ```text
//! PROPTEST_REPLAY=0x1f2e3d4c5b6a7988 cargo test -q --test agg_properties fused_float_sums
//! ```
//!
//! Supported strategies: half-open integer ranges, 2-tuples of
//! strategies, [`prop::collection::vec`], [`prop::option::of`] and
//! [`any`] for `bool` / `u64`.

use std::ops::Range;

/// Cases drawn per property test.
pub const CASES: usize = 64;

/// Deterministic RNG driving value generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded from a test name, so every test draws its own fixed stream.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// An RNG continuing from `state` (one a failing case printed).
    pub fn from_state(state: u64) -> TestRng {
        TestRng { state }
    }

    /// Where the stream stands: what [`from_state`](Self::from_state)
    /// resumes from.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The RNG and case count of the property test `name`: its own stream
    /// for [`CASES`] cases, or the one case `PROPTEST_REPLAY` names.
    pub fn for_test(name: &str) -> (TestRng, usize) {
        match std::env::var("PROPTEST_REPLAY") {
            Ok(v) => {
                let hex = v.strip_prefix("0x");
                let state = hex.map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16));
                let state = state.unwrap_or_else(|e| panic!("PROPTEST_REPLAY={v}: {e}"));
                (TestRng::from_state(state), 1)
            }
            Err(_) => (TestRng::deterministic(name), CASES),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A generator of random values.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

/// Types with a canonical "anything" strategy ([`any`]).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Combinator namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::ops::Range;

        /// Vec of values from `element`, with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty size range");
            VecStrategy { element, size }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.clone().generate(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::{Strategy, TestRng};

        /// `None` or `Some(inner)` with equal probability.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64() & 1 == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{Arbitrary, Strategy, TestRng};
}

/// Reports a failing case when dropped during its panic: the test, the
/// case's index and the RNG state to replay it from (see crate docs).
pub struct CaseGuard {
    name: &'static str,
    case: usize,
    state: u64,
}

impl CaseGuard {
    /// Case `case` of test `name`, about to draw its inputs from `rng`.
    pub fn new(name: &'static str, case: usize, rng: &TestRng) -> CaseGuard {
        CaseGuard { name, case, state: rng.state() }
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (name, case, state) = (self.name, self.case, self.state);
            eprintln!(
                "proptest: {name} failed at case {case}; replay it alone with \
                 PROPTEST_REPLAY={state:#x}"
            );
        }
    }
}

/// Expand property tests into case-loop tests (see crate docs).
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let (mut __rng, __cases) = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..__cases {
                    let _guard = $crate::CaseGuard::new(stringify!($name), __case, &__rng);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    // The closure gives `prop_assume!` an early-exit scope.
                    (move || { $body })();
                }
            }
        )*
    };
}

/// Assertion inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vectors(
            v in prop::collection::vec(-5i64..5, 1..10),
            flag in any::<bool>(),
            opt in prop::option::of(0usize..3),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&x| (-5..5).contains(&x)));
            let _ = flag;
            if let Some(o) = opt {
                prop_assert!(o < 3);
            }
        }

        #[test]
        fn assume_skips_cases(x in 0i64..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::deterministic("t");
        let mut b = TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn a_case_replays_from_its_starting_state() {
        // Case 5 of a stream, and the same case drawn from the state it
        // started from.
        let strategy = (prop::collection::vec(0u64..1000, 1..20), any::<bool>());
        let mut rng = TestRng::deterministic("replay");
        for _ in 0..5 {
            strategy.generate(&mut rng);
        }
        let state = rng.state();
        let case = strategy.generate(&mut rng);
        assert_eq!(strategy.generate(&mut TestRng::from_state(state)), case);
    }
}
