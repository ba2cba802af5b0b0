//! Cross-backend attack matrix: the same attacks run against SOFIA, the
//! sponge-CFP backend and the FIPAC backend, each run judged by
//! [`crate::judge`] and then read on a *finer* scale, [`XVerdict`] — the
//! schemes differ precisely in *when* they detect, so "compromised"
//! splits into flagged-late versus never-flagged.
//!
//! Three rows, each chosen to discriminate:
//!
//! * `word-tamper` — flip the safe→evil immediate in the stored image.
//!   SOFIA's MAC refuses the block before anything executes; the sponge
//!   decrypts the tampered word to the attacker's instruction (the chain
//!   is as malleable as CTR for the first word) but desynchronises
//!   immediately after, so the actuator store never decodes; FIPAC
//!   *executes* the tampered program — the evil value lands — and only
//!   the halt signature flags the run after the fact.
//! * `gadget-hijack` — force the fetch cursor to the dangerous gadget.
//!   SOFIA and the sponge land on ciphertext sealed for a different
//!   edge; FIPAC executes the (plaintext) gadget and flags at its exit.
//! * `check-elision` — fault the scheme's comparator, then tamper.
//!   SOFIA without its SI compare falls to CTR malleability; FIPAC
//!   without its signature compare completes silently; the sponge has
//!   **no comparator to fault** — detection is implicit in decode — and
//!   still catches the tamper.

use std::fmt;

use sofia_backends::{BackendConfig, FipacFetch, FipacMachine, SpongeFetch, SpongeMachine};
use sofia_core::machine::Machine;
use sofia_core::SofiaConfig;
use sofia_cpu::FetchUnit;
use sofia_crypto::{KeySet, Nonce};
use sofia_isa::asm;
use sofia_transform::{install_fipac, seal_sponge};

use crate::injection::{find_safe_imm, EVIL_DIFF};
use crate::victims::{control_loop_victim, rop_victim};
use crate::{hijack, injection, run_judged, Verdict};

/// The outcome of one attack against one backend, ordered roughly from
/// best (for the defender) to worst.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XVerdict {
    /// Detected before any malicious effect reached the actuator.
    Detected(String),
    /// The attack achieved nothing and nothing fired (crash, loop, or a
    /// clean halt without the malicious effect).
    Neutralized(String),
    /// The malicious effect landed, but a later check flagged the run —
    /// FIPAC's deferred-detection contract.
    CompromisedFlagged(String),
    /// The malicious effect landed and the run completed as if honest.
    CompromisedSilent(String),
}

impl XVerdict {
    /// Reads a judged run on the finer scale: `landed` (whether the
    /// attacker's effect reached memory) splits a detection or a crash
    /// into flagged-after-the-effect or not; a compromise is silent.
    pub fn of<V: fmt::Display>(verdict: &Verdict<V>, landed: bool) -> XVerdict {
        match verdict {
            Verdict::Detected { violation } if landed => {
                XVerdict::CompromisedFlagged(violation.to_string())
            }
            Verdict::Detected { violation } => XVerdict::Detected(violation.to_string()),
            Verdict::Crashed { trap } if landed => {
                XVerdict::CompromisedFlagged(format!("crashed after the effect: {trap}"))
            }
            Verdict::Crashed { trap } => XVerdict::Neutralized(format!("crashed: {trap}")),
            Verdict::Compromised { detail } => XVerdict::CompromisedSilent(detail.clone()),
            Verdict::Neutralized { detail } => XVerdict::Neutralized(detail.clone()),
        }
    }

    /// Whether the scheme fired at all (before or after the effect).
    pub fn is_flagged(&self) -> bool {
        matches!(
            self,
            XVerdict::Detected(_) | XVerdict::CompromisedFlagged(_)
        )
    }

    /// Whether the attacker's value reached the actuator.
    pub fn is_compromised(&self) -> bool {
        matches!(
            self,
            XVerdict::CompromisedFlagged(_) | XVerdict::CompromisedSilent(_)
        )
    }

    /// Stable label for reports and the pinned JSON.
    pub fn label(&self) -> &'static str {
        match self {
            XVerdict::Detected(_) => "detected",
            XVerdict::Neutralized(_) => "neutralized",
            XVerdict::CompromisedFlagged(_) => "compromised-flagged",
            XVerdict::CompromisedSilent(_) => "compromised-silent",
        }
    }
}

impl fmt::Display for XVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XVerdict::Detected(d) => write!(f, "DETECTED: {d}"),
            XVerdict::Neutralized(d) => write!(f, "NEUTRALIZED: {d}"),
            XVerdict::CompromisedFlagged(d) => write!(f, "COMPROMISED+FLAGGED: {d}"),
            XVerdict::CompromisedSilent(d) => write!(f, "COMPROMISED SILENTLY: {d}"),
        }
    }
}

/// One attack row across the three backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XRow {
    /// Attack label.
    pub attack: &'static str,
    /// Verdict against the SOFIA machine.
    pub sofia: XVerdict,
    /// Verdict against the sponge-CFP machine.
    pub sponge: XVerdict,
    /// Verdict against the FIPAC machine.
    pub fipac: XVerdict,
}

/// Runs any machine — SOFIA, sponge or FIPAC — and reads its judged
/// run on the [`XVerdict`] scale.
fn judged<F: FetchUnit>(m: Machine<F>) -> XVerdict
where
    F::Violation: fmt::Display,
{
    let (verdict, landed) = run_judged(m);
    XVerdict::of(&verdict, landed)
}

fn sponge_victim(keys: &KeySet, src: &str) -> SpongeMachine {
    let module = asm::parse(src).expect("victim parses");
    let image = seal_sponge(&module, keys, Nonce::new(1)).expect("victim seals");
    SpongeFetch::machine(&image, keys, &BackendConfig::default())
}

fn fipac_victim(keys: &KeySet, src: &str) -> FipacMachine {
    let module = asm::parse(src).expect("victim parses");
    let image = install_fipac(&module, keys, Nonce::new(1)).expect("victim installs");
    FipacFetch::machine(&image, keys, &BackendConfig::default())
}

/// The sponge and FIPAC victims with the safe→evil immediate difference
/// XORed into the stored image at the known layout position.
fn tampered_backends(keys: &KeySet) -> (SpongeMachine, FipacMachine) {
    let src = control_loop_victim(8);
    let idx = find_safe_imm(&asm::assemble(&src).expect("victim assembles").words);
    let mut sponge = sponge_victim(keys, &src);
    sponge.mem_mut().rom_mut()[idx] ^= EVIL_DIFF;
    let mut fipac = fipac_victim(keys, &src);
    fipac.mem_mut().rom_mut()[idx] ^= EVIL_DIFF;
    (sponge, fipac)
}

/// The `word-tamper` row: XOR the safe→evil immediate difference into
/// the stored image at the known layout position.
pub fn word_tamper(keys: &KeySet) -> XRow {
    let (sponge, fipac) = tampered_backends(keys);
    XRow {
        attack: "word-tamper",
        sofia: judged(injection::tampered_sofia(
            keys,
            &SofiaConfig::default(),
            false,
        )),
        sponge: judged(sponge),
        fipac: judged(fipac),
    }
}

/// The `gadget-hijack` row: force the fetch cursor straight to the
/// dangerous gadget's address.
pub fn gadget_hijack(keys: &KeySet) -> XRow {
    let src = rop_victim();
    let assembly = asm::assemble(&src).expect("victim assembles");
    let gadget = assembly.symbols["gadget"];

    let mut sponge = sponge_victim(keys, &src);
    sponge.fetch_mut().hijack(gadget);

    let mut fipac = fipac_victim(keys, &src);
    fipac.fetch_mut().hijack(gadget);

    XRow {
        attack: "gadget-hijack",
        // SOFIA's layout is block-structured, so the equivalent fault
        // lands the cursor in a mid-program block; same adversary power.
        sofia: judged(hijack::fault_injected_sofia(
            keys,
            &SofiaConfig::default(),
            3,
        )),
        sponge: judged(sponge),
        fipac: judged(fipac),
    }
}

/// The `check-elision` row: fault the scheme's comparator, then run the
/// `word-tamper` payload. The sponge has no comparator — its cell is the
/// tamper alone.
pub fn check_elision(keys: &KeySet) -> XRow {
    let (sponge, mut fipac) = tampered_backends(keys);
    fipac.fetch_mut().elide_checks();
    XRow {
        attack: "check-elision",
        // SOFIA's comparator is the SI unit's MAC compare; eliding it
        // leaves CFI-only decryption, which CTR malleability defeats.
        sofia: judged(injection::tampered_sofia(
            keys,
            &SofiaConfig {
                enforce_si: false,
                ..SofiaConfig::default()
            },
            false,
        )),
        sponge: judged(sponge),
        fipac: judged(fipac),
    }
}

/// The full cross-backend matrix.
pub fn matrix(keys: &KeySet) -> Vec<XRow> {
    vec![word_tamper(keys), gadget_hijack(keys), check_elision(keys)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_core::Violation;
    use sofia_cpu::Trap;

    #[test]
    fn the_finer_scale_splits_detections_and_crashes_by_the_effect() {
        let mac = Violation::MacMismatch { block_base: 0x100 };
        let trap = Trap::FetchFault { addr: 0x10 };
        let cases: [(Verdict, &str, &str); 4] = [
            (
                Verdict::Detected { violation: mac },
                "detected",
                "compromised-flagged",
            ),
            (
                Verdict::Crashed { trap },
                "neutralized",
                "compromised-flagged",
            ),
            (
                Verdict::Compromised {
                    detail: "effect".into(),
                },
                "compromised-silent",
                "compromised-silent",
            ),
            (
                Verdict::Neutralized {
                    detail: "nothing".into(),
                },
                "neutralized",
                "neutralized",
            ),
        ];
        for (verdict, clean, landed) in cases {
            assert_eq!(XVerdict::of(&verdict, false).label(), clean, "{verdict}");
            assert_eq!(XVerdict::of(&verdict, true).label(), landed, "{verdict}");
        }
        assert_eq!(
            XVerdict::of(&Verdict::Detected { violation: mac }, false),
            XVerdict::Detected(mac.to_string())
        );
    }
}
