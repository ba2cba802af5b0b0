//! A failing property names the inputs that broke it.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Not a `#[test]`: the tests below run it and read its failure.
    fn fails_on_large_inputs(x in 0u32..1_000, label in Just("tag")) {
        prop_assert!(x < 900 || label.is_empty(), "{x} is too large");
    }

    fn panics_on_large_inputs(x in 0u32..1_000) {
        assert!(x < 900, "{x} is too large");
    }
}

fn failure_of(property: fn()) -> Box<dyn std::any::Any + Send> {
    std::panic::catch_unwind(property).expect_err("some case is at least 900")
}

#[test]
fn an_assertion_failure_reports_its_inputs() {
    let payload = failure_of(fails_on_large_inputs);
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    let x: u32 = message
        .split(" is too large")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|x| x.parse().ok())
        .expect("the failure names x");
    assert!(message.contains("proptest case "), "{message}");
    assert!(message.contains(&format!("\n    x = {x}\n")), "{message}");
    assert!(message.ends_with("\n    label = \"tag\""), "{message}");
}

#[test]
fn a_panicking_body_is_re_raised_unchanged() {
    let payload = failure_of(panics_on_large_inputs);
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(message.ends_with(" is too large"), "{message}");
}
