//! Integration: each headline claim of the paper, as an executable
//! assertion. README, *Reproducing the paper*, lists the experiments
//! that print the measured values.

use sofia::core::security;
use sofia::crypto::KeySet;
use sofia::hwmodel;
use sofia::prelude::*;
use sofia_workloads::adpcm;

/// Table I: area +28.2 %, clock 84.6 % slower.
#[test]
fn claim_table1() {
    let (v, s) = hwmodel::table1();
    assert!((s.area_overhead_vs(&v) - 28.2).abs() < 0.5);
    assert!((s.clock_slowdown_vs(&v) - 84.6).abs() < 1.0);
}

/// §IV-A: 46,795 / 93,590 years of online brute force.
#[test]
fn claim_security_years() {
    assert!((security::paper_si_attack_years() - 46_795.0).abs() < 50.0);
    assert!((security::paper_cfi_attack_years() - 93_590.0).abs() < 100.0);
}

/// §IV-B shape: code expansion in the 2-4x regime (paper 2.41x), cycle
/// overhead well below the expansion factor (slots are cheaper than
/// bytes), wall-clock overhead dominated by the clock degradation.
#[test]
fn claim_adpcm_shape() {
    let keys = KeySet::from_seed(0xC1A1);
    let w = adpcm::workload(600);
    let vanilla = w.verify_on_vanilla().unwrap();
    let (sofia, report) = w.verify_on_sofia(&keys).unwrap();

    let expansion = report.expansion();
    assert!((2.0..4.0).contains(&expansion), "expansion {expansion}");

    let cycle_factor = sofia.exec.cycles as f64 / vanilla.cycles as f64;
    assert!(
        cycle_factor < expansion,
        "cycle factor {cycle_factor} must undercut static expansion {expansion}"
    );

    let (vhw, shw) = hwmodel::table1();
    let time_factor = cycle_factor * shw.period_ns / vhw.period_ns;
    // Paper: 2.1x total. Ours is higher (faster baseline memory), but the
    // structure holds: time overhead ≈ cycle overhead × 1.84.
    assert!(
        (time_factor / cycle_factor - shw.period_ns / vhw.period_ns).abs() < 1e-9,
        "clock degradation must multiply in"
    );
    assert!(time_factor > 2.0, "protection at least doubles wall-clock");
}

/// §III: one shared cipher alternating CTR/CBC keeps up with fetch — no
/// cipher back-pressure under the paper schedule.
#[test]
fn claim_single_cipher_suffices() {
    let keys = KeySet::from_seed(0xC1A2);
    let (stats, _) = adpcm::workload(200).verify_on_sofia(&keys).unwrap();
    assert_eq!(stats.cipher_stall_cycles, 0);
    // Alternation really happened: both op kinds were issued.
    assert!(stats.ctr_ops > 0 && stats.cbc_ops > 0);
}

/// §II-B.2: with the default format, the store gate never stalls a
/// legal store (the restriction absorbs the latency).
#[test]
fn claim_store_gate_free_with_restriction() {
    let keys = KeySet::from_seed(0xC1A3);
    // bubble_sort is the most store-dense workload in the suite.
    let (stats, _) = sofia_workloads::kernels::bubble_sort(48)
        .verify_on_sofia(&keys)
        .unwrap();
    assert_eq!(stats.store_gate_stall_cycles, 0);
    assert!(stats.exec.stores > 400, "workload must be store-dense");
}

/// Verified-block cache claim: caching verified plaintext by sealed
/// edge recovers a large share of the fetch-path overhead — cached
/// SOFIA runs strictly between vanilla and uncached SOFIA, and at least
/// 25 % below uncached on both the branch-dominated microkernel and the
/// paper's ADPCM benchmark — without giving up a single detection (the
/// differential + fault-injection suites pin that half of the claim).
///
/// Measurement caveat, on the record: the uncached baseline here uses
/// `SofiaTiming::default()` *including* the `redirect_setup` cycle this
/// same PR introduced (redirects pay one cycle to form the
/// `{ω ‖ prevPC ‖ PC}` counter before the cipher refill). Under the
/// previous model (`redirect_setup: 0`) the fib(20) reduction is
/// ≈ 23.9 %, i.e. the 25 % bar on the micro-kernel is partly carried by
/// the refined redirect model; ADPCM clears 25 % under either model.
#[test]
fn claim_vcache_recovers_fetch_overhead() {
    let keys = KeySet::from_seed(0xC1A5);
    for w in [sofia_workloads::kernels::fib(20), adpcm::workload(600)] {
        let vanilla = w.verify_on_vanilla().unwrap().cycles;
        let image = w.secure_image(&keys);

        let mut uncached = SofiaMachine::new(&image, &keys);
        assert!(uncached.run(500_000_000).unwrap().is_halted());
        let u = uncached.stats().exec.cycles;

        let config = SofiaConfig {
            vcache: VCacheConfig::enabled(256, 8),
            ..Default::default()
        };
        let mut cached = SofiaMachine::with_config(&image, &keys, &config);
        assert!(cached.run(500_000_000).unwrap().is_halted());
        assert_eq!(cached.mem().mmio.out_words, w.expected);
        let c = cached.stats().exec.cycles;

        assert!(
            c > vanilla,
            "{}: protection is never free ({c} vs {vanilla})",
            w.name
        );
        assert!(
            c < u,
            "{}: the cache must pay for itself ({c} vs {u})",
            w.name
        );

        // Companion pin, decoupled from this PR's redirect-model
        // refinement: under the pre-PR timing (`redirect_setup: 0`) the
        // cache still recovers >= 25 % on ADPCM and >= 20 % on fib(20),
        // so the claim does not live or die by the baseline change.
        let old_timing = sofia::core::SofiaTiming {
            redirect_setup: 0,
            ..Default::default()
        };
        let old_uncached_cfg = SofiaConfig {
            timing: old_timing,
            ..Default::default()
        };
        let mut ou = SofiaMachine::with_config(&image, &keys, &old_uncached_cfg);
        assert!(ou.run(500_000_000).unwrap().is_halted());
        let old_cached_cfg = SofiaConfig {
            timing: old_timing,
            vcache: VCacheConfig::enabled(256, 8),
            ..Default::default()
        };
        let mut oc = SofiaMachine::with_config(&image, &keys, &old_cached_cfg);
        assert!(oc.run(500_000_000).unwrap().is_halted());
        let old_reduction = 1.0 - oc.stats().exec.cycles as f64 / ou.stats().exec.cycles as f64;
        let old_bar = if w.name == "adpcm" { 0.25 } else { 0.20 };
        assert!(
            old_reduction >= old_bar,
            "{}: under redirect_setup 0, reduction {:.3} fell below {old_bar}",
            w.name,
            old_reduction
        );
        let reduction = 1.0 - c as f64 / u as f64;
        assert!(
            reduction >= 0.25,
            "{}: cached must undercut uncached by >= 25% (got {:.1}%: {c} vs {u})",
            w.name,
            reduction * 100.0
        );
    }
}

/// Fig. 9: k callers need exactly k-2 tree trampolines.
#[test]
fn claim_mux_tree_scaling() {
    let keys = KeySet::from_seed(0xC1A4);
    for k in 3..10usize {
        let mut src = String::from("main:\n");
        for _ in 0..k {
            src.push_str("    jal f\n");
        }
        src.push_str("    halt\nf:  ret\n");
        let module = sofia::isa::asm::parse(&src).unwrap();
        let image = sofia::transform::Transformer::new(keys.clone())
            .transform(&module)
            .unwrap();
        assert_eq!(image.report.tree_blocks, k - 2, "k = {k}");
    }
}
