//! # sofia-attacks — the adversary harness
//!
//! Implements the paper's threat model (an attacker "in control of the
//! program memory", §I) as concrete, repeatable experiments, each run
//! against both the unprotected baseline and the SOFIA machine:
//!
//! * [`injection`] — overwrite/flip instruction words in the stored image
//!   (code injection), including the **CTR-malleability** attack that
//!   defeats a CFI-only machine but not SOFIA;
//! * [`relocation`] — move/splice ciphertext blocks (the ECB-ISR weakness
//!   cited in §I) and cross-version splicing (nonce separation);
//! * [`hijack`] — control-flow hijack via attacker-influenced indirect
//!   transfers (code reuse) and via direct PC fault injection;
//! * [`forgery`] — Monte-Carlo MAC forgery on truncated MACs, verifying
//!   the `2^{-n}` acceptance scaling behind §IV-A;
//! * [`migration`] — forged/stale resume points in restored job
//!   snapshots (the suspend/migrate deployment surface): caught by edge
//!   verification on the first resumed fetch;
//! * [`confidentiality`] — the copyright-protection claim: ciphertext
//!   images are high-entropy and disassemble to noise;
//! * [`xbackend`] — the same adversary against the alternative backends
//!   (`sofia-backends`), with a finer verdict scale that captures
//!   deferred detection (compromised-but-flagged vs silent);
//! * [`campaigns`] — the adversary as a *tenant*: multi-tenant probing,
//!   forgery-scaling and migration-tampering campaigns driven through
//!   the `sofia-fleet` service API, pricing §IV-A's attacker work per
//!   [`sofia_fleet::QuarantinePolicy`] at the service boundary.
//!
//! Every run is judged by one rule, [`judge`], over what is observable:
//! how the run ended (a trap, a detected violation, or a halt or empty
//! fuel tank) and whether the attacker's effect landed in memory (the
//! evil actuator write, or a wrong output). Experiments stay meaningful
//! whichever internal mechanism fires first.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaigns;
pub mod confidentiality;
pub mod forgery;
pub mod hijack;
pub mod injection;
pub mod migration;
pub mod relocation;
pub mod victims;
pub mod xbackend;

use std::fmt;

use sofia_core::machine::Machine;
use sofia_core::Violation;
use sofia_cpu::mem::Memory;
use sofia_cpu::{FetchUnit, RunOutcome, Trap};

use crate::victims::EVIL_VALUE;

/// The outcome of one attack run, classified by observable effect,
/// generic over the machine's violation type (SOFIA's by default).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict<V = Violation> {
    /// The attacker achieved the malicious effect without detection.
    Compromised {
        /// What the attacker obtained.
        detail: String,
    },
    /// The machine detected the attack and reset/stopped the core.
    Detected {
        /// The violation that fired.
        violation: V,
    },
    /// The attack achieved nothing observable (e.g. a dispatch-ladder
    /// CFI trap halted the program before any malicious effect).
    Neutralized {
        /// Why nothing happened.
        detail: String,
    },
    /// The machine trapped on garbage (undetected-but-crashed: the
    /// baseline, the CFI-only ablation, or a sponge chain that decodes
    /// noise).
    Crashed {
        /// The trap observed.
        trap: Trap,
    },
}

impl<V> Verdict<V> {
    /// Whether the attack achieved its malicious effect.
    pub fn is_compromised(&self) -> bool {
        matches!(self, Verdict::Compromised { .. })
    }

    /// Whether the machine's hardware checks fired.
    pub fn is_detected(&self) -> bool {
        matches!(self, Verdict::Detected { .. })
    }
}

impl<V: fmt::Display> fmt::Display for Verdict<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Compromised { detail } => write!(f, "COMPROMISED: {detail}"),
            Verdict::Detected { violation } => write!(f, "DETECTED: {violation}"),
            Verdict::Neutralized { detail } => write!(f, "NEUTRALIZED: {detail}"),
            Verdict::Crashed { trap } => write!(f, "CRASHED: {trap}"),
        }
    }
}

/// Judges one attack run — the single rule every experiment applies.
///
/// `ran` is how the run ended, `violations` the machine's violation log
/// (empty for the baseline) and `landed` the attacker's effect as read
/// from memory afterwards, described, or `None` if it did not land. A
/// trap is [`Verdict::Crashed`]; a stopping violation, or a reset loop
/// (judged by its last logged violation), is [`Verdict::Detected`]; a
/// halt or an empty fuel tank is [`Verdict::Compromised`] if the effect
/// landed and [`Verdict::Neutralized`] if not. Whether the effect landed
/// before a detection or a crash is [`xbackend::XVerdict::of`]'s to
/// tell.
pub fn judge<V: Copy>(
    ran: Result<RunOutcome<V>, Trap>,
    violations: &[V],
    landed: Option<String>,
) -> Verdict<V> {
    let ending = match ran {
        Err(trap) => return Verdict::Crashed { trap },
        Ok(RunOutcome::ViolationStop(violation)) => return Verdict::Detected { violation },
        Ok(RunOutcome::ResetLoop { .. }) => match violations.last() {
            Some(&violation) => return Verdict::Detected { violation },
            None => "reset-looped",
        },
        Ok(RunOutcome::Halted) => "halted",
        Ok(RunOutcome::OutOfFuel) => "ran out of fuel",
    };
    match landed {
        Some(detail) => Verdict::Compromised { detail },
        None => Verdict::Neutralized {
            detail: format!("run {ending} without the attacker's effect"),
        },
    }
}

/// The attacker's actuator write, if it reached the actuator.
pub(crate) fn evil_write(mem: &Memory) -> Option<String> {
    mem.mmio
        .actuator_writes
        .contains(&EVIL_VALUE)
        .then(|| format!("actuator received {EVIL_VALUE:#x} undetected"))
}

/// Runs a protected machine and judges it by the actuator, also telling
/// whether the attacker's write landed.
pub(crate) fn run_judged<F: FetchUnit>(mut m: Machine<F>) -> (Verdict<F::Violation>, bool) {
    let ran = m.run(FUEL);
    let landed = evil_write(m.mem());
    let flag = landed.is_some();
    (judge(ran, m.violations(), landed), flag)
}

/// Fuel for attack runs.
pub(crate) const FUEL: u64 = 5_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    const MAC: Violation = Violation::MacMismatch { block_base: 0x100 };
    const TRAP: Trap = Trap::FetchFault { addr: 0xDEAD_BEEC };

    fn effect() -> Option<String> {
        Some("actuator received 0xbad undetected".into())
    }

    #[test]
    fn a_trap_crashes_whether_or_not_the_effect_landed() {
        for landed in [None, effect()] {
            assert_eq!(
                judge(Err(TRAP), &[MAC], landed),
                Verdict::Crashed { trap: TRAP }
            );
        }
    }

    #[test]
    fn a_stopping_violation_is_detected_whether_or_not_the_effect_landed() {
        for landed in [None, effect()] {
            let v = judge(Ok(RunOutcome::ViolationStop(MAC)), &[MAC], landed);
            assert_eq!(v, Verdict::Detected { violation: MAC });
        }
    }

    #[test]
    fn a_reset_loop_is_detected_by_its_last_logged_violation() {
        let first = Violation::InvalidEntryOffset { target: 0x104 };
        for landed in [None, effect()] {
            let v = judge(
                Ok(RunOutcome::ResetLoop { resets: 3 }),
                &[first, MAC],
                landed,
            );
            assert_eq!(v, Verdict::Detected { violation: MAC });
        }
        // An empty log cannot name a violation; the loop is judged like
        // any other ending, without a panic.
        let v = judge::<Violation>(Ok(RunOutcome::ResetLoop { resets: 0 }), &[], None);
        assert!(matches!(v, Verdict::Neutralized { .. }), "{v}");
    }

    #[test]
    fn a_halt_or_an_empty_tank_is_compromised_exactly_when_the_effect_landed() {
        for ending in [RunOutcome::Halted, RunOutcome::OutOfFuel] {
            let v = judge::<Violation>(Ok(ending), &[], effect());
            assert_eq!(
                v,
                Verdict::Compromised {
                    detail: effect().unwrap()
                }
            );
            let v = judge::<Violation>(Ok(ending), &[], None);
            assert!(matches!(v, Verdict::Neutralized { .. }), "{v}");
            assert!(!v.is_compromised() && !v.is_detected());
        }
        let halted = judge::<Violation>(Ok(RunOutcome::Halted), &[], None);
        assert_eq!(
            halted.to_string(),
            "NEUTRALIZED: run halted without the attacker's effect"
        );
    }
}
