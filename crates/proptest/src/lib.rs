//! A vendored, API-compatible stand-in for [proptest].
//!
//! The build image has no crates.io access, so the workspace ships this
//! minimal shim covering the subset `resin`'s property tests use: string
//! strategies written as `"[a-z]{1,16}"`-style patterns, integer ranges,
//! tuples, `prop::collection::vec`, `any::<bool>()`, and the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros. Generation is a deterministic
//! xorshift PRNG (seeded per test from the test name), 96 cases per
//! property, and there is **no shrinking** — a failing case reports its
//! inputs via the assertion message instead. Swap in the real proptest crate
//! for full shrinking and configuration.
//!
//! [proptest]: https://github.com/proptest-rs/proptest

#![warn(unreachable_pub)]

use std::ops::Range;

/// Deterministic xorshift64* PRNG.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator; test macros derive the seed from the test name.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed | 1, // never zero
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// An error signalled by `prop_assert!`-style macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator.
///
/// Unlike real proptest there is no value tree or shrinking: a strategy is
/// just a function from RNG state to a value.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// String patterns: a simplified `[class]{lo,hi}` regex subset.
///
/// Supports one bracketed character class (with `a-z` ranges and literal
/// characters) followed by a `{lo,hi}` or `{n}` repetition. A pattern
/// without brackets generates itself literally.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) = parse_pattern(self)
            .unwrap_or_else(|| panic!("unsupported proptest-shim pattern: {self:?}"));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class_src: Vec<char> = rest[..close].chars().collect();
    let mut class = Vec::new();
    let mut i = 0;
    while i < class_src.len() {
        if i + 2 < class_src.len() && class_src[i + 1] == '-' {
            let (a, b) = (class_src[i], class_src[i + 2]);
            for c in a..=b {
                class.push(c);
            }
            i += 3;
        } else {
            class.push(class_src[i]);
            i += 1;
        }
    }
    if class.is_empty() {
        return None;
    }
    let rep = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match rep.split_once(',') {
        Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
        None => {
            let n = rep.parse().ok()?;
            (n, n)
        }
    };
    Some((class, lo, hi))
}

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy returned by [`any`].
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for [`any`]`::<bool>()`.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;

    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The canonical strategy for any [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// The `prop::` namespace (collection strategies).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy producing `Vec`s of `element` with a length in `len`.
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// Generates vectors whose elements come from `element`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.generate(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, Strategy, TestCaseError,
        TestRng,
    };
}

/// Number of cases generated per property.
pub const CASES: usize = 96;

/// Derives a stable seed from a test's name.
pub fn seed_from_name(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` that runs the body over [`CASES`] generated inputs.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
                for case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                    // The body may consume the inputs; render them first.
                    let inputs =
                        [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ");
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = outcome {
                        panic!(
                            "property `{}` failed on case {case}: {e}\n  inputs: {inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside `proptest!`, reporting generated inputs on
/// failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {l:?}\n  right: {r:?}",
            stringify!($left),
            stringify!($right)
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_parsing() {
        let mut rng = TestRng::new(7);
        for _ in 0..50 {
            let s = "[a-z]{1,8}".generate(&mut rng);
            assert!((1..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
        let s = "[ -~]{0,24}".generate(&mut rng);
        assert!(s.len() <= 24);
        assert!(s.chars().all(|c| (' '..='~').contains(&c)));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TestRng::new(3);
        let mut b = TestRng::new(3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn shim_self_test(x in 0usize..10, v in prop::collection::vec("[0-9]{1,3}", 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 4);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
