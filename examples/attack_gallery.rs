//! The full attack matrix of the paper's threat model, run against both
//! machines: code injection (plaintext and CTR-malleability), block
//! relocation, cross-version splicing, and control-flow hijack by data
//! poisoning and by PC fault injection.
//!
//! ```text
//! cargo run --release --example attack_gallery
//! ```

use std::fmt::Display;

use sofia::attacks::{forgery, hijack, injection, relocation};
use sofia::core::SofiaConfig;
use sofia::crypto::KeySet;

fn show(name: &str, machine: &str, v: &impl Display) {
    println!("  {name:<34} {machine:<8} {v}");
}

fn main() {
    let keys = KeySet::from_seed(0xA77AC);
    let sofia = SofiaConfig::default();
    let cfi_only = SofiaConfig {
        enforce_si: false,
        ..SofiaConfig::default()
    };
    println!("attack                             target   verdict");
    println!("{}", "-".repeat(78));

    show(
        "code injection (imm rewrite)",
        "vanilla",
        &injection::inject_vanilla(),
    );
    show(
        "code injection (plaintext write)",
        "sofia",
        &injection::inject_sofia(&keys, &sofia, true),
    );
    show(
        "code injection (CTR malleability)",
        "sofia",
        &injection::inject_sofia(&keys, &sofia, false),
    );
    show(
        "code injection (CTR malleability)",
        "cfi-only",
        &injection::inject_sofia(&keys, &cfi_only, false),
    );

    show(
        "instruction reorder",
        "vanilla",
        &relocation::swap_code_vanilla(),
    );
    show(
        "block relocation (swap 0,1)",
        "sofia",
        &relocation::swap_blocks_sofia(&keys, &sofia, 0, 1),
    );
    show(
        "cross-version splice (nonce)",
        "sofia",
        &relocation::cross_version_splice(&keys, &sofia),
    );

    show(
        "ROP-style data poisoning",
        "vanilla",
        &hijack::poison_vanilla(),
    );
    show(
        "ROP-style data poisoning",
        "sofia",
        &hijack::poison_sofia(&keys, &sofia),
    );
    show(
        "PC fault injection",
        "vanilla",
        &hijack::fault_inject_vanilla(),
    );
    show(
        "PC fault injection (block 2)",
        "sofia",
        &hijack::fault_inject_sofia(&keys, &sofia, 2),
    );
    show(
        "PC fault injection (block 4)",
        "sofia",
        &hijack::fault_inject_sofia(&keys, &sofia, 4),
    );

    println!("\nonline MAC forgery (Monte-Carlo on truncated MACs, 2^15 trials):");
    println!("  bits  accepted  expected  measured-rate");
    for c in forgery::scaling_series(&keys, &[4, 8, 12], 1 << 15, 7) {
        println!(
            "  {:>4}  {:>8}  {:>8.1}  {:.6}",
            c.mac_bits,
            c.accepted,
            c.expected,
            c.measured_rate()
        );
    }
    println!(
        "  extrapolated to 64 bits: {:.0} expected years online (paper: 46,795)",
        sofia::core::security::paper_si_attack_years()
    );
}
