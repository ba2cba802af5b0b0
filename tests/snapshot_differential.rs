//! The snapshot/restore differential harness — the executable form of
//! the migration invariant:
//!
//! > suspend → serialise → drop everything → restore → resume is
//! > **bit-for-bit identical** to the uninterrupted run — results,
//! > traps, violation reports, simulated cycles, statistics.
//!
//! In the style `vcache_differential.rs` set: every workload in the
//! suite, a family of verified-block-cache geometries, and a snapshot
//! taken at **every** slice boundary of the sliced run. At each
//! boundary the suspended machine is serialised to bytes, decoded back,
//! rebuilt over nothing but the sealed image + device keys, and run to
//! completion; the final machine state must equal the uninterrupted
//! reference in every observable — including cycles, per-counter stats,
//! I-cache and verified-block-cache counters, registers and the parked
//! [`ResumeEdge`]. Trap, violation, out-of-fuel and reboot-loop
//! endings are pinned alongside clean halts.

mod common;

use sofia::core::snapshot::{MachineSnapshot, RAM_PAGE};
use sofia::core::{SofiaStats, VCacheStats};
use sofia::cpu::icache::ICacheStats;
use sofia::crypto::KeySet;
use sofia::prelude::*;
use sofia_core::machine::ResetPolicy;
use sofia_core::SliceOutcome;
use sofia_workloads::{suite, Scale};

fn keys() -> KeySet {
    KeySet::from_seed(0x54AF_5407)
}

/// The vcache geometries the harness sweeps (disabled reference plus
/// three enabled shapes bracketing residency behaviours).
fn geometries() -> Vec<(&'static str, VCacheConfig)> {
    vec![
        ("vcache-off", VCacheConfig::default()),
        ("vcache-1x1", VCacheConfig::enabled(1, 1)),
        ("vcache-16x4", VCacheConfig::enabled(16, 4)),
        ("vcache-256x8", VCacheConfig::enabled(256, 8)),
    ]
}

/// Every machine observable the invariant quantifies over. Unlike the
/// vcache harness's `ArchResult`, cycles and every counter are **in**:
/// a restored machine may not drift by a single simulated cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FullState {
    outcome: String,
    out_words: Vec<u32>,
    out_bytes: Vec<u8>,
    actuators: Vec<u32>,
    regs: [u32; 32],
    stats: SofiaStats,
    icache: ICacheStats,
    vcache: VCacheStats,
    violations: Vec<Violation>,
    edge: ResumeEdge,
}

fn capture(outcome: String, m: &SofiaMachine) -> FullState {
    FullState {
        outcome,
        out_words: m.mem().mmio.out_words.clone(),
        out_bytes: m.mem().mmio.out_bytes.clone(),
        actuators: m.mem().mmio.actuator_writes.clone(),
        regs: m.regs().words(),
        stats: m.stats(),
        icache: m.icache_stats(),
        vcache: m.vcache_stats(),
        violations: m.violations().to_vec(),
        edge: m.edge(),
    }
}

fn run_to_end(m: &mut SofiaMachine, fuel: u64) -> FullState {
    let outcome = match m.run(fuel) {
        Ok(o) => format!("{o:?}"),
        Err(t) => format!("trap: {t:?}"),
    };
    capture(outcome, m)
}

/// Drives one `(image, config, budget)` through the whole protocol:
/// reference run, then a sliced run snapshotting at **every** boundary,
/// each snapshot round-tripped through bytes and resumed on a machine
/// rebuilt from scratch. Returns how many boundaries were exercised.
fn assert_snapshot_transparent(
    what: &str,
    image: &SecureImage,
    keys: &KeySet,
    config: &SofiaConfig,
    budget: u64,
) -> u32 {
    let mut whole = SofiaMachine::with_config(image, keys, config);
    let reference = run_to_end(&mut whole, budget);

    // Slice so every run yields a healthy number of boundaries without
    // quadratic blow-up on the bigger workloads.
    let slice = (reference.stats.exec.instret / 12).max(24);
    let mut driver = SofiaMachine::with_config(image, keys, config);
    let mut remaining = budget;
    let mut boundaries = 0u32;
    loop {
        let step = match driver.run_slice(slice.min(remaining.max(1))) {
            Ok(s) => s,
            Err(t) => {
                // The driver trapped: its terminal state must equal the
                // reference's.
                let got = capture(format!("trap: {t:?}"), &driver);
                assert_eq!(got, reference, "{what}: sliced trap diverged");
                return boundaries;
            }
        };
        remaining = remaining.saturating_sub(step.consumed);
        match step.outcome {
            SliceOutcome::Done(o) => {
                let got = capture(format!("{o:?}"), &driver);
                assert_eq!(got, reference, "{what}: sliced completion diverged");
                return boundaries;
            }
            SliceOutcome::Preempted => {
                boundaries += 1;
                // Suspend → serialise → decode — the bytes are the only
                // thing that survives besides image + keys.
                let snap = driver.snapshot(remaining);
                let bytes = snap.to_bytes();
                let decoded = MachineSnapshot::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{what}: boundary {boundaries}: decode: {e}"));
                assert_eq!(decoded, snap, "{what}: boundary {boundaries} roundtrip");
                // Restore on a fresh machine and run it to the end.
                let mut resumed = SofiaMachine::restore(image, keys, &decoded)
                    .unwrap_or_else(|e| panic!("{what}: boundary {boundaries}: restore: {e}"));
                let got = run_to_end(&mut resumed, decoded.fuel_remaining);
                assert_eq!(
                    got, reference,
                    "{what}: resume from boundary {boundaries} diverged"
                );
                if remaining == 0 {
                    // The sliced driver is itself out of fuel; its state
                    // must equal the reference's out-of-fuel ending.
                    let got = capture("OutOfFuel".into(), &driver);
                    assert_eq!(got, reference, "{what}: out-of-fuel state diverged");
                    return boundaries;
                }
            }
        }
    }
}

/// FNV-64 of `MachineSnapshot::to_bytes()` at each suite workload's
/// first three slice boundaries (default configuration, the sweep's
/// slice rule). Pins the `SOFS1` wire format byte for byte: how RAM is
/// held in memory may change, what a snapshot serialises may not.
#[rustfmt::skip]
const SOFS1_DIGESTS: &[(&str, [u64; 3])] = &[
    ("adpcm", [0xe40c_ea03_e1d2_4565, 0x0cbf_e75e_56db_6ca6, 0x62e7_feec_2ff2_0b8c]),
    ("fib", [0x7965_dc7d_be01_d750, 0x2773_6928_bec6_02ee, 0x22d6_e773_f6e4_b78e]),
    ("crc32", [0x19b7_4984_3dd4_d209, 0xebd4_9ec9_6de5_6536, 0x9c1b_27ca_63b3_b9b9]),
    ("bubble_sort", [0x2c27_3324_0113_561e, 0xe9d3_fee8_5c02_284d, 0x81eb_bd75_290e_e63b]),
    ("fir", [0x080c_003e_6b84_b2f8, 0xd6dc_c0f9_b8e8_267f, 0x07c9_6c65_e4f2_f2d0]),
    ("matmul", [0x4b8f_ad16_b1c6_adb8, 0x329b_02d2_330d_90fc, 0xfb78_c6b1_f1cc_c9d7]),
    ("memcpy", [0x21f8_a2d1_6975_f0da, 0xc523_56f1_cc7c_6035, 0x04de_8b7a_8a47_2359]),
    ("dispatch", [0x1050_9106_35ce_f79a, 0x341d_1c03_d6d8_85b5, 0xb184_d0dd_17c8_a301]),
    ("quicksort", [0x8afe_96bd_1ab5_cce8, 0x5295_9d47_13a1_af5c, 0x10ff_887e_8b0d_2c3c]),
    ("strsearch", [0xc76a_c98f_6ded_4b19, 0xf6e5_9c1e_1984_2aa1, 0x9387_d432_cc8c_76e4]),
];

/// The serialised snapshots at the first three slice boundaries of a
/// default-configured run, digested.
fn first_boundary_digests(image: &SecureImage, keys: &KeySet) -> [u64; 3] {
    let config = SofiaConfig::default();
    let mut whole = SofiaMachine::with_config(image, keys, &config);
    let instret = run_to_end(&mut whole, common::FUEL).stats.exec.instret;
    let slice = (instret / 12).max(24);
    let mut m = SofiaMachine::with_config(image, keys, &config);
    let mut remaining = common::FUEL;
    let mut digests = [0u64; 3];
    for d in &mut digests {
        let step = m.run_slice(slice).expect("workloads do not trap");
        assert_eq!(step.outcome, SliceOutcome::Preempted);
        remaining -= step.consumed;
        *d = sofia::transform::decode::fnv64(&m.snapshot(remaining).to_bytes());
    }
    digests
}

#[test]
fn sofs1_bytes_are_pinned_per_workload() {
    let keys = keys();
    let got: Vec<(String, [u64; 3])> = suite(Scale::Test)
        .iter()
        .map(|w| {
            (
                w.name.to_string(),
                first_boundary_digests(&w.secure_image(&keys), &keys),
            )
        })
        .collect();
    let want: Vec<(String, [u64; 3])> = SOFS1_DIGESTS
        .iter()
        .map(|(n, d)| (n.to_string(), *d))
        .collect();
    assert_eq!(got, want, "SOFS1 snapshot bytes moved");
}

/// A decoded snapshot may carry a page that is all zero (capture never
/// writes one, but the format allows it). It restores, and the restored
/// machine snapshots to the original bytes, without that page.
#[test]
fn an_explicit_all_zero_page_restores_and_drops_out() {
    let keys = keys();
    let image = sofia_workloads::kernels::crc32(48).secure_image(&keys);
    let mut m = SofiaMachine::new(&image, &keys);
    assert_eq!(m.run_slice(200).unwrap().outcome, SliceOutcome::Preempted);
    let snap = m.snapshot(1_000);
    let mut padded = snap.clone();
    let at = padded.ram_pages.partition_point(|(idx, _)| *idx < 100);
    assert!(padded.ram_pages.get(at).is_none_or(|(idx, _)| *idx != 100));
    padded.ram_pages.insert(at, (100, vec![0; RAM_PAGE]));
    let decoded = MachineSnapshot::from_bytes(&padded.to_bytes()).unwrap();
    assert_eq!(decoded, padded);
    let restored = SofiaMachine::restore(&image, &keys, &decoded).unwrap();
    assert_eq!(restored.snapshot(1_000).to_bytes(), snap.to_bytes());
}

/// Top-of-RAM pages the suite's stacks may touch (the deepest, recursive
/// quicksort, stays inside one).
const STACK_PAGES: u32 = 1;

/// Resident memory is what a program touches, not its configured RAM. A
/// freshly built default machine holds exactly its data-section pages;
/// while it runs, the only other resident pages are the top pages its
/// stack pushes reached; and a snapshot → restore round trip never grows
/// residency (all-zero pages do not travel).
#[test]
fn residency_is_the_data_section_plus_the_stack_top() {
    let keys = keys();
    let total = (SofiaConfig::default().machine.ram_size as usize).div_ceil(RAM_PAGE) as u32;
    for w in suite(Scale::Test) {
        let image = w.secure_image(&keys);
        let data_pages = image.data.len().div_ceil(RAM_PAGE) as u32;
        let mut m = SofiaMachine::new(&image, &keys);
        assert_eq!(
            m.mem().resident_pages(),
            data_pages as usize,
            "{}: fresh",
            w.name
        );
        let mut remaining = common::FUEL;
        loop {
            let step = m.run_slice(500).expect("workloads do not trap");
            remaining -= step.consumed;
            let stray: Vec<u32> = m
                .mem()
                .ram_pages()
                .map(|(idx, _)| idx)
                .filter(|&idx| idx >= data_pages && idx < total - STACK_PAGES)
                .collect();
            assert!(stray.is_empty(), "{}: pages {stray:?} resident", w.name);
            let restored = SofiaMachine::restore(&image, &keys, &m.snapshot(remaining)).unwrap();
            assert!(
                restored.mem().resident_pages() <= m.mem().resident_pages(),
                "{}: restore grew residency",
                w.name
            );
            if step.outcome != SliceOutcome::Preempted {
                break;
            }
        }
    }
}

/// The acceptance sweep: every workload in the suite × every geometry,
/// snapshots at every slice boundary — zero divergence anywhere.
#[test]
fn workload_suite_resumes_bit_for_bit_from_every_boundary() {
    let keys = keys();
    for w in suite(Scale::Test) {
        let image = w.secure_image(&keys);
        for (label, vcache) in geometries() {
            let config = SofiaConfig {
                vcache,
                ..Default::default()
            };
            let boundaries = assert_snapshot_transparent(
                &format!("{}@{}", w.name, label),
                &image,
                &keys,
                &config,
                common::FUEL,
            );
            assert!(
                boundaries >= 8,
                "{}@{}: only {} boundaries exercised",
                w.name,
                label,
                boundaries
            );
        }
    }
}

/// A run that ends in a **violation** restores identically from every
/// boundary before the tampered block is reached: same violation report,
/// same detection point, same cycle count.
#[test]
fn violation_endings_survive_migration() {
    let keys = keys();
    let src = "main: li t0, 120
               li t1, 0
         loop: add t1, t1, t0
               subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t1, 0(a0)
               halt";
    let image = sofia::transform::Transformer::new(keys.clone())
        .transform(&asm::parse(src).unwrap())
        .unwrap();
    // Tamper the *last* block (store + halt epilogue): the loop runs
    // many slices before detection fires.
    let mut tampered = image.clone();
    let last = tampered.ctext.len() - 2;
    tampered.ctext[last] ^= 0x10;
    for (label, vcache) in geometries() {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        let boundaries = assert_snapshot_transparent(
            &format!("tampered-epilogue@{label}"),
            &tampered,
            &keys,
            &config,
            common::FUEL,
        );
        assert!(boundaries >= 3, "{label}: {boundaries} boundaries");
    }
}

/// A run that ends in an architectural **trap** restores identically:
/// the resumed machine faults at the same pc with the same trap.
#[test]
fn trap_endings_survive_migration() {
    let keys = keys();
    let src = "main: li t0, 90
         loop: subi t0, t0, 1
               bnez t0, loop
               li a1, 3
               lw t2, 0(a1)
               halt";
    let image = sofia::transform::Transformer::new(keys.clone())
        .transform(&asm::parse(src).unwrap())
        .unwrap();
    for (label, vcache) in geometries() {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        let boundaries = assert_snapshot_transparent(
            &format!("misaligned-load@{label}"),
            &image,
            &keys,
            &config,
            common::FUEL,
        );
        assert!(boundaries >= 3, "{label}: {boundaries} boundaries");
    }
}

/// A job that runs **out of fuel** reaches the identical starved state
/// through any suspend/restore point, down to the parked edge.
#[test]
fn out_of_fuel_endings_survive_migration() {
    let keys = keys();
    let src = "main: li t0, 100000
         loop: subi t0, t0, 1
               bnez t0, loop
               halt";
    let image = sofia::transform::Transformer::new(keys.clone())
        .transform(&asm::parse(src).unwrap())
        .unwrap();
    for (label, vcache) in geometries() {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        // A budget that lands mid-loop, prime so it never aligns with
        // block shapes.
        assert_snapshot_transparent(&format!("starved@{label}"), &image, &keys, &config, 997);
    }
}

/// A machine mid **reboot loop** (persistent tamper under
/// [`ResetPolicy::Reboot`]) migrates too: resets performed, reboot
/// cycles charged and the final abandonment verdict all match — and the
/// restored verified-block cache replays the reset flushes identically.
#[test]
fn reboot_loop_endings_survive_migration() {
    let keys = keys();
    // A loop long enough that every reboot replays it across several
    // slices before hitting the tampered epilogue again: snapshots land
    // *inside* the reset loop, with resets already performed, reboot
    // cycles already charged, and (when enabled) a vcache already
    // flushed by the reset line.
    let src = "main: li t0, 60
         loop: subi t0, t0, 1
               bnez t0, loop
               li t1, 7
               halt";
    let image = sofia::transform::Transformer::new(keys.clone())
        .transform(&asm::parse(src).unwrap())
        .unwrap();
    let mut tampered = image.clone();
    let last = tampered.ctext.len() - 2;
    tampered.ctext[last] ^= 0x4000;
    for (label, vcache) in geometries() {
        let config = SofiaConfig {
            vcache,
            reset_policy: ResetPolicy::Reboot { max_resets: 3 },
            ..Default::default()
        };
        let boundaries = assert_snapshot_transparent(
            &format!("reset-loop@{label}"),
            &tampered,
            &keys,
            &config,
            common::FUEL,
        );
        assert!(boundaries >= 3, "{label}: {boundaries} boundaries");
    }
}

/// The CFI-only ablation (`enforce_si = false`) snapshots and restores
/// like the full machine — the seam must not depend on the SI unit.
#[test]
fn cfi_only_ablation_survives_migration() {
    let keys = keys();
    let w = sofia_workloads::kernels::crc32(48);
    let image = w.secure_image(&keys);
    let config = SofiaConfig {
        enforce_si: false,
        vcache: VCacheConfig::enabled(16, 4),
        ..Default::default()
    };
    let boundaries =
        assert_snapshot_transparent("crc32@si-off", &image, &keys, &config, common::FUEL);
    assert!(boundaries >= 8, "{boundaries} boundaries");
}
