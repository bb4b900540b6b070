//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the slice of proptest it uses: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`boxed`,
//! integer-range / tuple / `Just` / `any::<T>()` strategies,
//! `collection::vec`, the `proptest!`, `prop_oneof!`, and `prop_assert*`
//! macros, and `ProptestConfig`.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case prints its generated inputs, the
//!   test's deterministic seed, and the case index, then panics. (The
//!   repo's `hastm-check` harness does its own shrinking for the cases
//!   that matter.)
//! * **Deterministic seeding.** Each test's RNG is seeded from a hash of
//!   the test name and case index, so failures reproduce exactly across
//!   runs and machines with no persistence files.

pub mod test_runner {
    /// Error raised by `prop_assert*` from inside a test case.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "assertion failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Per-test configuration; only `cases` is honored by the shim.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }

    /// The RNG handed to strategies. Deterministic per (test, case).
    pub struct TestRng(pub(crate) rand::rngs::StdRng);

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            use rand::SeedableRng;
            TestRng(rand::rngs::StdRng::seed_from_u64(seed))
        }

        pub fn next_u64(&mut self) -> u64 {
            use rand::RngCore;
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy, as returned by [`Strategy::boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of its payload.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.0.gen_range(self.start..self.end)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    let (lo, hi) = (*self.start(), *self.end());
                    if hi < <$t>::MAX {
                        rng.0.gen_range(lo..hi + 1)
                    } else if lo > <$t>::MIN {
                        // Sample [lo-1, MAX) and shift up to cover MAX.
                        rng.0.gen_range(lo - 1..hi) + 1
                    } else {
                        // Full domain.
                        rng.0.gen_range(<$t>::MIN..<$t>::MAX)
                    }
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// Strategy behind [`crate::arbitrary::any`].
    pub struct Any<T>(pub(crate) PhantomData<T>);

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Weighted choice among same-valued strategies (`prop_oneof!`).
    pub struct OneOf<V> {
        branches: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V: Debug> OneOf<V> {
        pub fn new(branches: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(
                !branches.is_empty(),
                "prop_oneof! needs at least one branch"
            );
            let total = branches.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            OneOf { branches, total }
        }
    }

    impl<V: Debug> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.next_u64() % self.total;
            for (w, s) in &self.branches {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod arbitrary {
    use super::strategy::Any;
    use std::marker::PhantomData;

    /// `any::<T>()`: the canonical whole-domain strategy for `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: super::strategy::Strategy,
    {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Element-count bounds for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        pub min: usize,
        /// Exclusive upper bound.
        pub max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Support code invoked by the `proptest!` macro expansion (public, but
/// not part of the emulated proptest API).
pub mod sugar {
    use super::test_runner::{Config, TestCaseError};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// FNV-1a, for deterministic per-test seeds.
    pub fn seed_for(test_name: &str, case: u32) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ (((case as u64) << 32) | case as u64)
    }

    /// Runs `config.cases` cases. `body(seed)` generates its inputs from a
    /// seed-derived RNG and returns `(inputs-debug-string, result)`.
    pub fn run_cases(
        config: &Config,
        test_name: &str,
        body: impl Fn(u64) -> (String, Result<(), TestCaseError>),
    ) {
        for case in 0..config.cases {
            let seed = seed_for(test_name, case);
            let outcome = catch_unwind(AssertUnwindSafe(|| body(seed)));
            let (inputs, failure) = match outcome {
                Ok((_, Ok(()))) => continue,
                Ok((inputs, Err(e))) => (inputs, e.to_string()),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    // Inputs are unknown when the body panicked before
                    // returning; regenerate nothing, just report the seed.
                    (String::from("<see seed>"), format!("panic: {msg}"))
                }
            };
            panic!(
                "proptest case failed: {test_name} case {case}/{} seed {seed:#x}\n  inputs: {inputs}\n  cause: {failure}\n  (shim has no shrinking; rerun reproduces deterministically)",
                config.cases
            );
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{:?} != {:?} ({} != {})",
                l, r,
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{:?} != {:?}: {}",
                l, r,
                format!($($fmt)*)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{:?} == {:?} but expected inequality",
                l, r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@tests ($config) $($rest)*);
    };
    (
        @tests ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                $crate::sugar::run_cases(&config, stringify!($name), |seed| {
                    let mut rng = $crate::test_runner::TestRng::from_seed(seed);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = {
                        let mut s = String::new();
                        $(s.push_str(&format!(concat!(stringify!($arg), " = {:?}; "), $arg));)+
                        s
                    };
                    let result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            let _: () = $body;
                            ::core::result::Result::Ok(())
                        })();
                    (inputs, result)
                });
            }
        )*
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@tests ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        A(u8),
        B(u64),
        C,
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 3..9u8, y in 0..100u64, z in 0..4usize) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 100);
            prop_assert!(z < 4);
        }

        #[test]
        fn vec_and_oneof_compose(
            ops in collection::vec(prop_oneof![
                3 => any::<u8>().prop_map(Op::A),
                1 => any::<u64>().prop_map(Op::B),
                1 => Just(Op::C),
            ], 1..20),
            flip in any::<bool>(),
        ) {
            prop_assert!(!ops.is_empty() && ops.len() < 20);
            let _ = flip;
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0..1000u64, 5..10);
        let mut r1 = crate::test_runner::TestRng::from_seed(99);
        let mut r2 = crate::test_runner::TestRng::from_seed(99);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn failures_report_seed_and_inputs() {
        crate::sugar::run_cases(
            &crate::test_runner::Config {
                cases: 1,
                ..Default::default()
            },
            "demo",
            |_seed| {
                (
                    "x = 1".to_string(),
                    Err(crate::test_runner::TestCaseError::fail("nope")),
                )
            },
        );
    }
}
