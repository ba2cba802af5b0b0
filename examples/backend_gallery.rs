//! The pluggable integrity backends side by side: the same workload on
//! SOFIA (MAC-then-Encrypt blocks), the sponge-CFP fetch unit (implicit
//! integrity via decrypt-absorb) and the FIPAC-style fetch unit (keyed
//! CFI state, checked at signature points) — then the same tamper, to
//! show *when* each scheme detects, and the cross-backend attack matrix.
//! All three are the one `Machine<F>` around a different fetch unit, so
//! one helper drives them.
//!
//! ```text
//! cargo run --example backend_gallery --release
//! ```

use sofia::attacks::xbackend;
use sofia::backends::{BackendConfig, FipacFetch, SpongeFetch};
use sofia::core::machine::Machine;
use sofia::cpu::FetchUnit;
use sofia::crypto::{KeySet, Nonce};
use sofia::prelude::*;
use sofia_workloads::kernels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let keys = KeySet::from_seed(0x5EC6);
    let workload = kernels::crc32(64);
    let module = workload.module();

    // Baseline.
    let mut vm = VanillaMachine::new(&workload.assembly());
    vm.run(100_000_000)?;
    let vanilla_cycles = vm.stats().cycles;
    println!(
        "workload {} — vanilla: {vanilla_cycles} cycles\n",
        workload.name
    );

    // The three protected machines, clean.
    let image = Transformer::new(keys.clone()).transform(&module)?;
    let mut sofia_m = SofiaMachine::new(&image, &keys);
    sofia_m.run(100_000_000)?;

    let sponge_img = seal_sponge(&module, &keys, Nonce::new(1))?;
    let config = BackendConfig::default();
    let mut sponge_m = SpongeFetch::machine(&sponge_img, &keys, &config);
    sponge_m.run(100_000_000)?;

    let fipac_img = install_fipac(&module, &keys, Nonce::new(1))?;
    let mut fipac_m = FipacFetch::machine(&fipac_img, &keys, &config);
    fipac_m.run(100_000_000)?;

    let pct = |c: u64| (c as f64 / vanilla_cycles as f64 - 1.0) * 100.0;
    println!("  backend   cycles      overhead   slices   clock");
    for (label, cycles, hw) in [
        (
            "sofia",
            sofia_m.exec_stats().cycles,
            sofia::hwmodel::sofia(sofia::hwmodel::PAPER_UNROLL),
        ),
        (
            "sponge",
            sponge_m.exec_stats().cycles,
            sofia::hwmodel::sponge_cfp(),
        ),
        (
            "fipac",
            fipac_m.exec_stats().cycles,
            sofia::hwmodel::fipac(),
        ),
    ] {
        println!(
            "  {label:<8} {cycles:>9}   {:>+8.1}%   {:>6.0}   {:>5.1} MHz",
            pct(cycles),
            hw.slices,
            hw.clock_mhz()
        );
    }

    // The same tamper against each backend: flip a bit mid-program and
    // watch *when* the schemes notice.
    println!("\nbit-flip in the stored image, word 4:");

    println!(
        "  sofia:  {} (block refused pre-execution)",
        flip_word_4(SofiaMachine::new(&image, &keys))
    );
    println!(
        "  sponge: {} (chain desynchronises; only garbage follows)",
        flip_word_4(SpongeFetch::machine(&sponge_img, &keys, &config))
    );
    println!(
        "  fipac:  {} (runs until the next signature point)",
        flip_word_4(FipacFetch::machine(&fipac_img, &keys, &config))
    );

    // The discriminating rows.
    println!("\nattack matrix:");
    println!(
        "  {:<16} {:<22} {:<22} {:<22}",
        "attack", "sofia", "sponge", "fipac"
    );
    for row in xbackend::matrix(&keys) {
        println!(
            "  {:<16} {:<22} {:<22} {:<22}",
            row.attack,
            row.sofia.label(),
            row.sponge.label(),
            row.fipac.label()
        );
    }
    Ok(())
}

/// Flips bit 0 of stored word 4, runs, and describes the outcome and
/// how many instructions retired before it.
fn flip_word_4<F: FetchUnit>(mut m: Machine<F>) -> String {
    m.mem_mut().rom_mut()[4] ^= 1;
    let outcome = match m.run(100_000_000) {
        Ok(o) => format!("{o:?}"),
        // A trap is a contained outcome too: the garbled word executed
        // briefly and crashed before achieving anything.
        Err(t) => format!("trap {t:?}"),
    };
    format!("{outcome} after {} instructions", m.exec_stats().instret)
}
