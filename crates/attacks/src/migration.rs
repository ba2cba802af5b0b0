//! Migration-surface attacks: tampering with the resume point of a
//! restored snapshot.
//!
//! A serialised job snapshot travels outside the device, so the threat
//! model must assume an attacker can rewrite it in transit (the
//! container checksum detects corruption, not adversaries — an attacker
//! recomputes it). The architecture's answer is the same one it gives
//! for images at rest: the snapshot carries no code, only a
//! [`sofia_core::ResumeEdge`] naming where in the MAC-protected image
//! to continue — and a forged or stale edge is, to the hardware, just
//! another transfer on no sealed CFG edge. These experiments pin that
//! claim: every spliced resume point is caught by edge verification on
//! the **first resumed fetch**, with the verified-block cache on or
//! off, so snapshots add no new forgery surface.

use sofia_core::machine::SofiaMachine;
use sofia_core::snapshot::MachineSnapshot;
use sofia_core::{SliceOutcome, SofiaConfig};
use sofia_crypto::KeySet;
use sofia_transform::{SecureImage, Transformer};

use crate::victims::{seal, two_phase_expected, two_phase_victim};
use crate::{judge, Verdict, FUEL};

/// Seals the two-phase victim and drives it 60-slot fuel slices until
/// `parked` accepts the suspended machine, returning its snapshot.
///
/// # Panics
///
/// Panics if the victim finishes first — an experiment-setup bug, not an
/// attack outcome.
fn suspend_when(
    keys: &KeySet,
    config: &SofiaConfig,
    mut parked: impl FnMut(&SofiaMachine) -> bool,
) -> (SecureImage, MachineSnapshot) {
    let image = seal(Transformer::new(keys.clone()), &two_phase_victim());
    let mut m = SofiaMachine::with_config(&image, keys, config);
    let mut spent = 0;
    loop {
        let s = m.run_slice(60).expect("victim runs");
        spent += s.consumed;
        assert_eq!(
            s.outcome,
            SliceOutcome::Preempted,
            "victim finished before its suspension point"
        );
        if parked(&m) {
            return (image, m.snapshot(FUEL - spent));
        }
    }
}

/// Restores `snap` over `image` and judges what the resumed run
/// achieves: the attacker's effect is any output but the honest one.
fn resume(image: &SecureImage, keys: &KeySet, snap: &MachineSnapshot) -> Verdict {
    let mut m = match SofiaMachine::restore(image, keys, snap) {
        Ok(m) => m,
        // Restore itself refusing the snapshot is detection too (a
        // tampered warm cache line, say) — but these experiments forge
        // only the resume point, which restore cannot judge; it is the
        // first fetch that must. A refused snapshot never ran.
        Err(e) => {
            return Verdict::Neutralized {
                detail: format!("restore refused: {e}"),
            }
        }
    };
    let ran = m.run(snap.fuel_remaining);
    let out = &m.mem().mmio.out_words;
    let landed = (*out != two_phase_expected())
        .then(|| format!("forged resume ran to completion with output {out:?}"));
    judge(ran, m.violations(), landed)
}

/// **Forged `prevPC`**: the attacker flips `mask` in the snapshot's
/// resume source, leaving the target intact. A neighbouring word (mask
/// 4) is on no sealed edge, so the control-flow-bound counter decrypts
/// the target block to noise and the SI unit resets the core on the
/// first resumed fetch. Masks outside the 24-bit word space — the low
/// two bits (an unaligned source) or bit 26 and above (a source past
/// 64 MiB) — forge a `prevPC` no sealed edge can carry, so the first
/// resumed fetch must reject it exactly like any other off-CFG edge.
/// The verified-block cache must change nothing: a forged edge is a
/// different cache key, so it can never hit a verified line.
pub fn forge_resume_prev_pc(keys: &KeySet, config: &SofiaConfig, mask: u32) -> Verdict {
    let (image, mut snap) = suspend_when(keys, config, |_| true);
    snap.prev_pc ^= mask;
    resume(&image, keys, &snap)
}

/// **Stale-edge replay**: the attacker splices the resume source from
/// an *earlier* slice boundary (parked in phase 1 of the victim) into
/// the current snapshot (parked in phase 2) — the migration analogue of
/// replaying an old CFI context after an interrupt. The spliced pair
/// `(prevPC₁, target₂)` crosses the two phases and is on no sealed
/// edge, so the first resumed fetch fails MAC verification.
pub fn replay_stale_resume_edge(keys: &KeySet, config: &SofiaConfig) -> Verdict {
    // One 60-slot slice parks in phase 1 of the victim…
    let (image, stale) = suspend_when(keys, config, |_| true);
    // …then a fresh run is driven until it parks at least two blocks
    // later (the phase-2 loop, past the spacer), so the spliced pair
    // crosses a region with no sealed edge between its halves.
    let min_prev = stale.prev_pc + 2 * image.format.block_bytes();
    let (_, mut snap) = suspend_when(keys, config, |m| m.edge().prev_pc >= min_prev);
    snap.prev_pc = stale.prev_pc;
    resume(&image, keys, &snap)
}

/// **Redirected resume**: the attacker points the snapshot's transfer
/// target outside the secure image entirely — caught by the fetch
/// bounds check before any word is read.
pub fn redirect_resume_out_of_image(keys: &KeySet, config: &SofiaConfig) -> Verdict {
    let (image, mut snap) = suspend_when(keys, config, |_| true);
    snap.next_target = 0xDEAD_BEEC;
    resume(&image, keys, &snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_core::Violation;

    #[test]
    fn honest_snapshot_resumes_clean() {
        let keys = KeySet::from_seed(0x4D16);
        let mut slices = 0;
        let (image, snap) = suspend_when(&keys, &SofiaConfig::default(), |_| {
            slices += 1;
            slices == 3
        });
        let v = resume(&image, &keys, &snap);
        assert!(
            matches!(v, Verdict::Neutralized { ref detail } if detail.contains("halted")),
            "{v}"
        );
    }

    #[test]
    fn forged_prev_pc_is_a_mac_mismatch() {
        let keys = KeySet::from_seed(0x516);
        let v = forge_resume_prev_pc(&keys, &SofiaConfig::default(), 4);
        assert!(
            matches!(
                v,
                Verdict::Detected {
                    violation: Violation::MacMismatch { .. }
                }
            ),
            "{v}"
        );
    }

    #[test]
    fn unrepresentable_prev_pc_is_a_mac_mismatch() {
        let keys = KeySet::from_seed(0x516);
        for mask in [1, 1 << 26] {
            let v = forge_resume_prev_pc(&keys, &SofiaConfig::default(), mask);
            assert!(
                matches!(
                    v,
                    Verdict::Detected {
                        violation: Violation::MacMismatch { .. }
                    }
                ),
                "mask {mask:#x}: {v}"
            );
        }
    }
}
