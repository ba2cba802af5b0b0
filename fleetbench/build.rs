//! Records the target triple and build profile for the result stamp.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    for (var, name) in [
        ("TARGET", "FLEETBENCH_TARGET"),
        ("PROFILE", "FLEETBENCH_PROFILE"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_string());
        println!("cargo:rustc-env={name}={value}");
    }
}
