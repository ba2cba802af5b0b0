//! Offline, API-compatible stand-in for the `proptest` crate.
//!
//! Covers exactly the surface this workspace uses (see
//! `crates/shims/README.md`): deterministic random-case generation with a
//! per-test seed, no shrinking. The point is that property tests written
//! against real proptest compile and run unchanged in a container without
//! registry access.

pub mod arbitrary;
pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Asserts a condition inside a `proptest!` body, failing the case with a
/// message instead of panicking (so the runner can report the case index).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right` (left: `{:?}`, right: `{:?}`)",
            left,
            right
        );
    }};
}

/// Asserts two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `left != right` (both: `{:?}`)",
            left
        );
    }};
}

/// Discards the current case (it is skipped, not counted as a failure)
/// when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject());
        }
    };
}

/// Picks one of several (possibly differently-typed) strategies with a
/// common value type, uniformly per case.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` that runs the body over
/// [`test_runner::CASES`] generated inputs (or the count given by an
/// optional leading `#![proptest_config(...)]`). A `prop_assume!`
/// rejection regenerates the case (bounded by
/// [`test_runner::MAX_REJECTS_PER_CASE`]) rather than consuming the
/// case budget, matching real proptest's behaviour.
///
/// A failing case names its inputs: the runner keeps a copy of the
/// generator from before the case, and when an assertion fails or the
/// body panics it regenerates the case's values from that copy and
/// prints each with `Debug` (inside the failure message, or on stderr
/// before the panic is re-raised). Passing cases pay one generator copy.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(
            { $crate::test_runner::ProptestConfig::from($config).cases },
            $($rest)*
        );
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::CASES, $($rest)*);
    };
}

/// Shared expansion behind [`proptest!`] — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cases:expr,
     $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                // The case's inputs, regenerated from the generator as it
                // stood before the case.
                let inputs = |mut rng: $crate::test_runner::TestRng| {
                    let mut listed = ::std::string::String::new();
                    $(
                        listed.push_str(&format!(
                            "\n    {} = {:?}",
                            stringify!($pat),
                            $crate::strategy::Strategy::generate(&($strat), &mut rng),
                        ));
                    )+
                    listed
                };
                let cases: u32 = $cases;
                for case in 0..cases {
                    let mut rejects = 0u32;
                    loop {
                        let before = rng.clone();
                        $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                        let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                            move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                                $body;
                                ::std::result::Result::Ok(())
                            },
                        ));
                        match outcome {
                            ::std::result::Result::Ok(::std::result::Result::Ok(())) => break,
                            ::std::result::Result::Ok(::std::result::Result::Err(e))
                                if e.is_rejection() =>
                            {
                                rejects += 1;
                                assert!(
                                    rejects <= $crate::test_runner::MAX_REJECTS_PER_CASE,
                                    "proptest case {case} of {}: {} prop_assume! rejections \
                                     without an accepted input",
                                    stringify!($name),
                                    rejects,
                                );
                            }
                            ::std::result::Result::Ok(::std::result::Result::Err(e)) => panic!(
                                "proptest case {case} of {}: {}\n  inputs:{}",
                                stringify!($name),
                                e,
                                inputs(before),
                            ),
                            ::std::result::Result::Err(payload) => {
                                eprintln!(
                                    "proptest case {case} of {} panicked\n  inputs:{}",
                                    stringify!($name),
                                    inputs(before),
                                );
                                ::std::panic::resume_unwind(payload)
                            }
                        }
                    }
                }
            }
        )*
    };
}
