//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses. The build environment has no registry access, so the real crate
//! cannot be vendored.
//!
//! Supported surface: the [`proptest!`] macro (with an optional leading
//! `#![proptest_config(..)]`), [`Strategy`] with `prop_map`, ranges and
//! tuples as strategies, `any::<T>()` for primitives, `Just`,
//! [`prop_oneof!`] with weights, `prop::collection::{vec, btree_set}`, and
//! the `prop_assert*` macros.
//!
//! Semantics differ from real proptest in one deliberate way: failing cases
//! are **not shrunk** — the macro simply panics with the failing assertion,
//! which is enough for CI. Generation is deterministic per test name, so a
//! failure reproduces on re-run.
//!
//! Like real proptest, a **regression corpus** is honored: the macro reads
//! `proptest-regressions/<source file stem>.txt` under the calling crate's
//! manifest dir and replays every `cc <test_name> <hex-seed>` line *before*
//! the random sweep, so once a failing seed is checked in the bug stays
//! fixed. Each random case runs from its own pinnable seed; on failure the
//! exact `cc` line to check in is printed alongside the panic.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// Deterministic generator.
// ---------------------------------------------------------------------

/// The generator handed to strategies (xoshiro256++ seeded via splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A generator seeded deterministically from a label (the test name).
    pub fn deterministic(label: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Self::from_seed(h)
    }

    /// A generator from a numeric seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform usize in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Strategy.
// ---------------------------------------------------------------------

/// A recipe for generating values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `f` (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
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

/// The [`Strategy::prop_filter`] adapter.
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Ranges.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// Tuples.
macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, G)
);

// ---------------------------------------------------------------------
// any::<T>().
// ---------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary {
    /// Draws a uniform value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------
// Weighted unions (prop_oneof!).
// ---------------------------------------------------------------------

/// One weighted arm of a [`OneOf`] union: a weight and a generator.
pub type OneOfArm<V> = (u32, Box<dyn Fn(&mut TestRng) -> V>);

/// A weighted union of same-valued strategies, built by [`prop_oneof!`].
pub struct OneOf<V> {
    arms: Vec<OneOfArm<V>>,
    total: u64,
}

impl<V> OneOf<V> {
    /// Builds the union; weights must not all be zero.
    pub fn new(arms: Vec<OneOfArm<V>>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof: weights sum to zero");
        OneOf { arms, total }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.next_u64() % self.total;
        for (w, f) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return f(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick out of range")
    }
}

// ---------------------------------------------------------------------
// Collections.
// ---------------------------------------------------------------------

/// Collection strategies (`prop::collection` in real proptest).
pub mod collection {
    use super::*;

    /// A `Vec` strategy with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` strategy; like proptest it treats `size` as a target,
    /// so duplicate draws can make the set smaller than requested.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates ordered sets of elements drawn from `element`.
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Config + macros.
// ---------------------------------------------------------------------

/// A failed test case (bodies may `?` these like in real proptest).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with a reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }

    /// Accepted for compatibility; rejection is treated as failure here.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for TestCaseError {}

// ---------------------------------------------------------------------
// Regression corpus.
// ---------------------------------------------------------------------

/// Reads the pinned regression seeds for `test_name` from
/// `<manifest_dir>/proptest-regressions/<stem of source_file>.txt`.
///
/// The file format is one case per line, `cc <test_name> <hex-seed>`
/// (the seed without a `0x` prefix); blank lines and `#` comments are
/// ignored. A missing file means an empty corpus. The [`proptest!`] macro
/// replays these seeds before its random sweep; hand-rolled harnesses can
/// call this directly with `env!("CARGO_MANIFEST_DIR")` and `file!()`.
pub fn corpus_seeds(manifest_dir: &str, source_file: &str, test_name: &str) -> Vec<u64> {
    let stem = std::path::Path::new(source_file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unknown");
    let path = std::path::Path::new(manifest_dir)
        .join("proptest-regressions")
        .join(format!("{stem}.txt"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("cc") || parts.next() != Some(test_name) {
                return None;
            }
            u64::from_str_radix(parts.next()?, 16).ok()
        })
        .collect()
}

/// Prints the corpus line for a failing case while the panic unwinds, so
/// the seed survives even when the failure is an `assert!` (which bypasses
/// the macro's own error path). Used by [`proptest!`]; not public API in
/// real proptest.
#[doc(hidden)]
pub struct SeedReporter {
    name: &'static str,
    seed: u64,
    armed: bool,
}

impl SeedReporter {
    /// Arms the reporter for one case.
    pub fn new(name: &'static str, seed: u64) -> Self {
        SeedReporter {
            name,
            seed,
            armed: true,
        }
    }

    /// The case finished cleanly; stay silent.
    pub fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for SeedReporter {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest shim: pin this failure in proptest-regressions/ with: cc {} {:016x}",
                self.name, self.seed
            );
        }
    }
}

/// Per-test configuration (`cases` is the only honored knob).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for source compatibility; ignored (no shrinking here).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Accepts an optional leading `#![proptest_config(expr)]`. Each function
/// body runs `config.cases` times with freshly generated inputs; a panic
/// (from `prop_assert!` or anything else) fails the test and prints the
/// case number via the panic message of the harness.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
///
/// Each property goes through [`__proptest_fn!`](crate::__proptest_fn),
/// which registers it as a test exactly once: callers may write their own
/// `#[test]` (as with the real crate) or leave it to the macro.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$($attr:tt)*])* fn $name:ident $args:tt $body:block)*) => {
        $(
            $crate::__proptest_fn! { ($cfg) [] $(#[$($attr)*])* fn $name $args $body }
        )*
    };
}

/// One property of [`__proptest_impl!`]: munches the caller's attributes
/// into the bracket, minus any `#[test]` (a second one would register the
/// property twice), then emits the test with exactly one. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fn {
    (($cfg:expr) [$($kept:tt)*] #[test] $($rest:tt)*) => {
        $crate::__proptest_fn! { ($cfg) [$($kept)*] $($rest)* }
    };
    (($cfg:expr) [$($kept:tt)*] #[$($attr:tt)*] $($rest:tt)*) => {
        $crate::__proptest_fn! { ($cfg) [$($kept)* #[$($attr)*]] $($rest)* }
    };
    (($cfg:expr) [$($kept:tt)*] fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block) => {
        $($kept)*
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            // Replay the checked-in regression corpus first: a pinned
            // seed that ever failed must keep passing forever.
            let __corpus = $crate::corpus_seeds(
                env!("CARGO_MANIFEST_DIR"),
                file!(),
                stringify!($name),
            );
            let mut __label_rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let __seeds = __corpus
                .into_iter()
                .chain((0..config.cases).map(|_| __label_rng.next_u64()));
            for (__case, __seed) in __seeds.enumerate() {
                let mut __reporter = $crate::SeedReporter::new(stringify!($name), __seed);
                let mut __rng = $crate::TestRng::from_seed(__seed);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                // The IIFE gives `?` (prop_assert!) somewhere to land.
                #[allow(clippy::redundant_closure_call)]
                let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = __result {
                    panic!(
                        "proptest case {} failed (pin with: cc {} {:016x}): {e}",
                        __case + 1,
                        stringify!($name),
                        __seed,
                    );
                }
                __reporter.disarm();
            }
        }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// A weighted union of strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(
                (($weight) as u32, {
                    let __s = $strat;
                    ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                        $crate::Strategy::generate(&__s, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>
                })
            ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

/// The `proptest::prelude`-compatible namespace.
pub mod prelude {
    pub use crate::{
        any, corpus_seeds, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// The `prop::` namespace (`prop::collection::vec` etc.).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_tuples_and_maps_generate() {
        let mut rng = TestRng::deterministic("t1");
        let s = (0u64..10, any::<bool>()).prop_map(|(n, b)| if b { n } else { n + 100 });
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 10 || (100..110).contains(&v));
        }
    }

    #[test]
    fn oneof_respects_zero_weightless_arms() {
        let mut rng = TestRng::deterministic("t2");
        let s = prop_oneof![
            3 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut seen = [0u32; 3];
        for _ in 0..1000 {
            seen[s.generate(&mut rng) as usize] += 1;
        }
        assert_eq!(seen[0], 0);
        assert!(seen[1] > seen[2]);
        assert!(seen[2] > 0);
    }

    #[test]
    fn collections_honor_size_bounds() {
        let mut rng = TestRng::deterministic("t3");
        let vs = crate::collection::vec(any::<u8>(), 1..40);
        let ss = crate::collection::btree_set(0u64..5, 0..60);
        for _ in 0..50 {
            let v = vs.generate(&mut rng);
            assert!((1..40).contains(&v.len()));
            let s = ss.generate(&mut rng);
            assert!(s.len() <= 5, "only five distinct candidates exist");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        fn the_macro_itself_runs(x in 0u32..100, mut v in crate::collection::vec(any::<u8>(), 0..8)) {
            v.push(x as u8);
            prop_assert!(v.len() <= 8);
            prop_assert_eq!(*v.last().unwrap(), x as u8);
            prop_assert_ne!(v.len(), 0);
        }
    }

    proptest! {
        /// Written the way the real crate requires: with its own `#[test]`.
        #[test]
        fn a_property_with_its_own_test_attribute(x in 0u8..10) {
            prop_assert!(x < 10);
        }
    }

    /// Both spellings register exactly once: the macro adds `#[test]` only
    /// when the caller did not write one. Lists this very test binary.
    #[test]
    fn each_property_registers_exactly_once() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .arg("--list")
            .output()
            .unwrap();
        assert!(out.status.success());
        let listing = String::from_utf8(out.stdout).unwrap();
        for name in [
            "tests::the_macro_itself_runs: test",
            "tests::a_property_with_its_own_test_attribute: test",
        ] {
            let n = listing.lines().filter(|l| *l == name).count();
            assert_eq!(n, 1, "{name} registered {n} times in:\n{listing}");
        }
    }

    #[test]
    fn corpus_parser_reads_matching_cc_lines_only() {
        let dir = std::env::temp_dir().join(format!("proptest-shim-corpus-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("proptest-regressions")).unwrap();
        std::fs::write(
            dir.join("proptest-regressions/my_suite.txt"),
            "# pinned regressions\n\
             cc my_test 00000000000000ff\n\
             cc other_test 0000000000000001\n\
             cc my_test dead_not_hex\n\
             \n\
             cc my_test 1a2b\n",
        )
        .unwrap();
        let seeds = crate::corpus_seeds(dir.to_str().unwrap(), "some/path/my_suite.rs", "my_test");
        assert_eq!(seeds, vec![0xff, 0x1a2b]);
        assert!(crate::corpus_seeds(dir.to_str().unwrap(), "missing.rs", "my_test").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
