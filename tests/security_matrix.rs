//! Integration: the attack matrix — every attack class against every
//! machine configuration, asserting the paper's security claims.

use sofia::attacks::xbackend::{self, XVerdict};
use sofia::attacks::{forgery, hijack, injection, migration, relocation};
use sofia::crypto::KeySet;
use sofia::prelude::*;

#[test]
fn unprotected_machines_fall_to_every_attack() {
    assert!(injection::inject_vanilla().is_compromised());
    assert!(relocation::swap_code_vanilla().is_compromised());
    assert!(hijack::poison_vanilla().is_compromised());
    assert!(hijack::fault_inject_vanilla().is_compromised());
}

#[test]
fn sofia_stops_every_attack() {
    let keys = KeySet::from_seed(0x5EC1);
    // Image tampering: always *detected* (MAC mismatch).
    assert!(injection::inject_sofia(&keys, true, true).is_detected());
    assert!(injection::inject_sofia(&keys, true, false).is_detected());
    assert!(relocation::swap_blocks_sofia(&keys, 0, 1).is_detected());
    assert!(relocation::cross_version_splice(&keys).is_detected());
    // Control-flow attacks: never compromised (detected or neutralized).
    assert!(!hijack::poison_sofia(&keys).is_compromised());
    for block in 1..5 {
        assert!(!hijack::fault_inject_sofia(&keys, block).is_compromised());
    }
}

#[test]
fn sofia_with_vcache_stops_every_attack() {
    // The verified-block cache rows of the matrix: caching verified
    // plaintext must not reopen a single attack class. Two geometries —
    // a thrashing direct-mapped entry and a comfortable 64-entry cache —
    // bracket the residency behaviours.
    let keys = KeySet::from_seed(0x5EC1);
    for vcache in [VCacheConfig::enabled(1, 1), VCacheConfig::enabled(64, 4)] {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        assert!(injection::inject_sofia_with(&keys, &config, true).is_detected());
        assert!(injection::inject_sofia_with(&keys, &config, false).is_detected());
        assert!(relocation::swap_blocks_sofia_with(&keys, &config, 0, 1).is_detected());
        assert!(relocation::cross_version_splice_with(&keys, &config).is_detected());
        assert!(!hijack::poison_sofia_with(&keys, &config).is_compromised());
        for block in 1..5 {
            assert!(!hijack::fault_inject_sofia_with(&keys, &config, block).is_compromised());
        }
    }
}

#[test]
fn snapshots_add_no_forgery_surface() {
    // The migration rows of the matrix: a restored snapshot's resume
    // point is just another transfer the hardware verifies. A forged
    // `prevPC`, a stale edge replayed from an earlier slice boundary,
    // and an out-of-image redirect are all caught by edge verification
    // on the *first* resumed fetch — with the verified-block cache off,
    // warm-capable, or thrashing (a forged edge is a different cache
    // key, so it can never replay a verified line).
    let keys = KeySet::from_seed(0x5EC5);
    for vcache in [
        VCacheConfig::default(),
        VCacheConfig::enabled(1, 1),
        VCacheConfig::enabled(64, 4),
    ] {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        let forged = migration::forge_resume_prev_pc_with(&keys, &config);
        assert!(forged.is_detected(), "forged prevPC: {forged}");
        // A source no sealed edge can carry: unaligned, or past the
        // 24-bit word space of the counter block.
        for mask in [1, 1 << 26] {
            let v = migration::forge_resume_prev_pc_bits_with(&keys, &config, mask);
            assert!(v.is_detected(), "prevPC ^ {mask:#x}: {v}");
        }
        let stale = migration::replay_stale_resume_edge_with(&keys, &config);
        assert!(stale.is_detected(), "stale edge replay: {stale}");
        let redirect = migration::redirect_resume_out_of_image_with(&keys, &config);
        assert!(redirect.is_detected(), "out-of-image resume: {redirect}");
    }
}

#[test]
fn cfi_without_si_is_insufficient() {
    // The paper's §II-A argument, demonstrated: CTR malleability defeats
    // a decryption-only defence; the full architecture detects it.
    let keys = KeySet::from_seed(0x5EC2);
    assert!(injection::inject_sofia(&keys, false, false).is_compromised());
    assert!(injection::inject_sofia(&keys, true, false).is_detected());
}

#[test]
fn forgery_acceptance_scales_as_two_to_minus_n() {
    let keys = KeySet::from_seed(0x5EC3);
    let series = forgery::scaling_series(&keys, &[6, 10, 14], 1 << 15, 11);
    // Each +4 bits should cut acceptance by ~16x; allow a wide band.
    let r6 = series[0].measured_rate();
    let r10 = series[1].measured_rate();
    assert!(r6 > 0.0, "6-bit forgeries must land in 32k trials");
    let ratio = r6 / r10.max(1e-9);
    assert!(
        (4.0..80.0).contains(&ratio),
        "scaling ratio {ratio} (expected ~16)"
    );
    // And the full 64-bit MAC never accepts.
    let full = forgery::run_campaign(&keys, 64, 1 << 12, 5);
    assert_eq!(full.accepted, 0);
}

#[test]
fn backend_matrix_rows_discriminate_the_schemes() {
    // The cross-backend rows: the same adversary against SOFIA, the
    // sponge-CFP backend and the FIPAC backend. The schemes must NOT
    // produce identical rows — their detection models genuinely differ,
    // and the matrix is the executable record of how.
    let keys = KeySet::from_seed(0x5EC6);
    let rows = xbackend::matrix(&keys);
    assert_eq!(rows.len(), 3);

    let tamper = &rows[0];
    assert_eq!(tamper.attack, "word-tamper");
    // SOFIA refuses the block before execution.
    assert!(
        matches!(tamper.sofia, XVerdict::Detected(_)),
        "{}",
        tamper.sofia
    );
    // The sponge flags it (garbage decode) without the effect landing.
    assert!(
        tamper.sponge.is_flagged() && !tamper.sponge.is_compromised(),
        "{}",
        tamper.sponge
    );
    // FIPAC executes the tampered word — the effect lands — and flags
    // at the next signature point: deferred, not silent.
    assert!(
        matches!(tamper.fipac, XVerdict::CompromisedFlagged(_)),
        "{}",
        tamper.fipac
    );

    let hijack_row = &rows[1];
    assert_eq!(hijack_row.attack, "gadget-hijack");
    assert!(!hijack_row.sofia.is_compromised(), "{}", hijack_row.sofia);
    assert!(
        hijack_row.sponge.is_flagged() && !hijack_row.sponge.is_compromised(),
        "{}",
        hijack_row.sponge
    );
    assert!(hijack_row.fipac.is_flagged(), "{}", hijack_row.fipac);

    let elision = &rows[2];
    assert_eq!(elision.attack, "check-elision");
    // Faulting the comparator defeats SOFIA (the SI compare) and FIPAC
    // (the signature compare) — but the sponge has no comparator to
    // fault: detection is implicit in decode, and it still fires.
    assert!(
        matches!(elision.sofia, XVerdict::CompromisedSilent(_)),
        "{}",
        elision.sofia
    );
    assert!(
        elision.sponge.is_flagged() && !elision.sponge.is_compromised(),
        "{}",
        elision.sponge
    );
    assert!(
        matches!(elision.fipac, XVerdict::CompromisedSilent(_)),
        "{}",
        elision.fipac
    );

    // Non-identical rows: every row separates at least two backends.
    for row in &rows {
        assert!(
            !(row.sofia == row.sponge && row.sponge == row.fipac),
            "{}: all three backends produced the identical verdict",
            row.attack
        );
    }
}

#[test]
fn detection_is_immediate_not_eventual() {
    // A tampered block must be detected before *any* of its architectural
    // effects land: the actuator log of a detected run contains only the
    // safe writes that preceded the tampered block.
    use sofia::attacks::victims::{control_loop_victim, EVIL_VALUE};
    use sofia::prelude::*;

    let keys = KeySet::from_seed(0x5EC4);
    let module = asm::parse(&control_loop_victim(8)).unwrap();
    let image = Transformer::new(keys.clone()).transform(&module).unwrap();
    for word in 0..image.ctext.len() {
        let mut m = SofiaMachine::new(&image, &keys);
        m.mem_mut().rom_mut()[word] ^= 0x8000_0001;
        let _ = m.run(1_000_000).unwrap();
        assert!(
            !m.mem().mmio.actuator_writes.contains(&EVIL_VALUE),
            "word {word}: evil value reached the actuator"
        );
    }
}
