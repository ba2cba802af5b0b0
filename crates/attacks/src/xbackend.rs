//! Cross-backend attack matrix: the same attacks run against SOFIA, the
//! sponge-CFP backend and the FIPAC backend, classified by a *finer*
//! verdict than [`crate::Verdict`] — the schemes differ precisely in
//! *when* they detect, so "compromised" splits into flagged-late versus
//! never-flagged.
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
use sofia_core::machine::{Machine, RunOutcome};
use sofia_core::SofiaConfig;
use sofia_cpu::FetchUnit;
use sofia_crypto::{KeySet, Nonce};
use sofia_isa::asm;
use sofia_isa::{Instruction, Reg};
use sofia_transform::{install_fipac, seal_sponge};

use crate::victims::{control_loop_victim, rop_victim, EVIL_VALUE, SAFE_VALUE};
use crate::{hijack, injection, FUEL};

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

/// Runs any machine — SOFIA, sponge or FIPAC — and classifies the run
/// by observable effect.
fn classify<F>(mut m: Machine<F>) -> XVerdict
where
    F: FetchUnit,
    F::Violation: fmt::Display,
{
    let outcome = m.run(FUEL);
    let evil = m.mem().mmio.actuator_writes.contains(&EVIL_VALUE);
    match outcome {
        Ok(RunOutcome::ViolationStop(v)) if evil => XVerdict::CompromisedFlagged(v.to_string()),
        Ok(RunOutcome::ViolationStop(v)) => XVerdict::Detected(v.to_string()),
        Ok(RunOutcome::ResetLoop { resets }) => {
            XVerdict::Detected(format!("persistent violation, {resets} resets"))
        }
        Ok(RunOutcome::Halted) if evil => {
            XVerdict::CompromisedSilent(format!("actuator received {EVIL_VALUE:#x}"))
        }
        Ok(RunOutcome::Halted) => XVerdict::Neutralized("halted without the evil write".into()),
        Ok(RunOutcome::OutOfFuel) => XVerdict::Neutralized("diverged into a loop".into()),
        Err(t) if evil => XVerdict::CompromisedFlagged(format!("crashed after the write: {t}")),
        Err(t) => XVerdict::Neutralized(format!("crashed: {t}")),
    }
}

/// Word index of the `li t1, SAFE_VALUE` instruction in the plaintext
/// layout (the attacker knows the firmware layout).
fn safe_imm_index(words: &[u32]) -> usize {
    words
        .iter()
        .position(|&w| {
            Instruction::decode(w)
                == Ok(Instruction::Addi {
                    rt: Reg::T1,
                    rs: Reg::ZERO,
                    imm: SAFE_VALUE as i16,
                })
        })
        .expect("victim contains the safe li")
}

fn evil_diff() -> u32 {
    SAFE_VALUE ^ EVIL_VALUE
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

/// The `word-tamper` row: XOR the safe→evil immediate difference into
/// the stored image at the known layout position.
pub fn word_tamper(keys: &KeySet) -> XRow {
    let src = control_loop_victim(8);
    let idx = safe_imm_index(&asm::assemble(&src).expect("victim assembles").words);

    let mut sponge = sponge_victim(keys, &src);
    sponge.mem_mut().rom_mut()[idx] ^= evil_diff();

    let mut fipac = fipac_victim(keys, &src);
    fipac.mem_mut().rom_mut()[idx] ^= evil_diff();

    XRow {
        attack: "word-tamper",
        sofia: classify(injection::tampered_sofia(
            keys,
            &SofiaConfig::default(),
            false,
        )),
        sponge: classify(sponge),
        fipac: classify(fipac),
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
        sofia: classify(hijack::fault_injected_sofia(
            keys,
            &SofiaConfig::default(),
            3,
        )),
        sponge: classify(sponge),
        fipac: classify(fipac),
    }
}

/// The `check-elision` row: fault the scheme's comparator, then run the
/// `word-tamper` payload. The sponge has no comparator — its cell is the
/// tamper alone.
pub fn check_elision(keys: &KeySet) -> XRow {
    let src = control_loop_victim(8);
    let idx = safe_imm_index(&asm::assemble(&src).expect("victim assembles").words);

    let mut sponge = sponge_victim(keys, &src);
    sponge.mem_mut().rom_mut()[idx] ^= evil_diff();

    let mut fipac = fipac_victim(keys, &src);
    fipac.mem_mut().rom_mut()[idx] ^= evil_diff();
    fipac.fetch_mut().elide_checks();

    XRow {
        attack: "check-elision",
        // SOFIA's comparator is the SI unit's MAC compare; eliding it
        // leaves CFI-only decryption, which CTR malleability defeats.
        sofia: classify(injection::tampered_sofia(
            keys,
            &SofiaConfig {
                enforce_si: false,
                ..SofiaConfig::default()
            },
            false,
        )),
        sponge: classify(sponge),
        fipac: classify(fipac),
    }
}

/// The full cross-backend matrix.
pub fn matrix(keys: &KeySet) -> Vec<XRow> {
    vec![word_tamper(keys), gadget_hijack(keys), check_elision(keys)]
}
