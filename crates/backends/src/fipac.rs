//! The FIPAC-style fetch unit: plaintext fetch with a keyed running CFI
//! state, checked at justifying signature points (Nasahl et al.,
//! PAPERS.md; installer in [`sofia_transform::fipac`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sofia_core::machine::Machine;
use sofia_cpu::engine::Pipeline;
use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, SlotOutcome};
use sofia_cpu::Trap;
use sofia_crypto::{KeySet, Rectangle};
use sofia_isa::Instruction;
use sofia_transform::FipacImage;

use crate::chain::ChainSequencer;
use crate::BackendConfig;

/// What the FIPAC unit detects. All of it is *deferred*: the running
/// state diverges silently and only a signature point surfaces the
/// mismatch — the scheme's defining trade against SOFIA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FipacViolation {
    /// The running CFI state did not match the installed signature at a
    /// justifying check point.
    StateMismatch {
        /// Address of the checked word.
        pc: u32,
    },
    /// A `halt` was fetched at an address the installer never marked as
    /// an exit — tampered code trying to truncate the run silently.
    UnjustifiedExit {
        /// Address of the rogue halt.
        pc: u32,
    },
    /// The fetch cursor left the installed text image.
    FetchOutOfImage {
        /// The offending address.
        addr: u32,
    },
}

impl fmt::Display for FipacViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FipacViolation::StateMismatch { pc } => {
                write!(f, "CFI state mismatch at signature point {pc:#010x}")
            }
            FipacViolation::UnjustifiedExit { pc } => {
                write!(f, "unjustified exit (unchecked halt) at {pc:#010x}")
            }
            FipacViolation::FetchOutOfImage { addr } => {
                write!(f, "fetch outside installed image at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for FipacViolation {}

/// Cycle model of the FIPAC fetch path. The state update runs *off* the
/// fetch critical path (it only has to settle before the next signature
/// point), so steady-state fetch costs one issue cycle per word like the
/// baseline; only checks and redirects stall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FipacTiming {
    /// Stall cycles to compare state against a signature.
    pub check_latency: u32,
    /// Stall cycles to look up and apply an edge patch on redirect.
    pub redirect_setup: u32,
    /// Cycles a hardware reset costs.
    pub reboot_cycles: u64,
}

impl Default for FipacTiming {
    fn default() -> Self {
        FipacTiming {
            check_latency: 1,
            redirect_setup: 1,
            reboot_cycles: 200,
        }
    }
}

/// Fetch-path counters of the FIPAC unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FipacStats {
    /// Words fetched.
    pub words_fetched: u64,
    /// Keyed state updates performed.
    pub updates: u64,
    /// Signature checks that passed.
    pub checks_passed: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Control transfers that consulted the patch table.
    pub patched_edges: u64,
    /// Transfers along unenumerated edges.
    pub unpatched_edges: u64,
}

/// The FIPAC-style machine (Schilling, Nasahl, Mangard): the shared
/// [`Machine`] around a [`FipacFetch`]. Build one with
/// [`FipacFetch::machine`].
pub type FipacMachine = Machine<FipacFetch>;

/// A [`FetchUnit`] that fetches plaintext words, folds each into a keyed
/// CBC-MAC-style running state, and compares the state against installed
/// signatures at every justifying check point.
#[derive(Clone, Debug)]
pub struct FipacFetch {
    chain: ChainSequencer,
    cipher: Rectangle,
    checks: Arc<BTreeMap<u32, u64>>,
    enforce_checks: bool,
    checks_passed: u64,
    timing: FipacTiming,
}

impl FipacFetch {
    /// Builds the unit for an installed image under the device keys.
    pub fn new(image: &FipacImage, keys: &KeySet, timing: FipacTiming) -> FipacFetch {
        let boot_state = sofia_transform::fipac::reset_state(keys, image.nonce, image.entry);
        FipacFetch {
            chain: ChainSequencer::new(
                &image.patches,
                image.text_base,
                image.words.len(),
                image.entry,
                boot_state,
            ),
            cipher: keys.expand().mac_exec,
            checks: Arc::new(image.checks.clone()),
            enforce_checks: true,
            checks_passed: 0,
            timing,
        }
    }

    /// Builds a FIPAC machine: this unit (default timing) on the shared
    /// pipeline, with the plaintext words in ROM and the data in RAM.
    ///
    /// # Panics
    ///
    /// Panics if the data section does not fit in RAM.
    pub fn machine(image: &FipacImage, keys: &KeySet, config: &BackendConfig) -> FipacMachine {
        let unit = FipacFetch::new(image, keys, FipacTiming::default());
        let engine = Pipeline::new(
            unit,
            image.text_base,
            image.words.clone(),
            image.data_base,
            &image.data,
            &config.machine,
        );
        Machine::from_engine(engine, config.reset_policy)
    }

    /// The timing model in force.
    pub fn timing(&self) -> FipacTiming {
        self.timing
    }

    /// Fetch-path counters. Every word fetched is one state update.
    pub fn stats(&self) -> FipacStats {
        let c = self.chain.counters();
        FipacStats {
            words_fetched: c.words,
            updates: c.words,
            checks_passed: self.checks_passed,
            batches: c.batches,
            patched_edges: c.patched_edges,
            unpatched_edges: c.unpatched_edges,
        }
    }

    /// The address the next batch will be fetched from.
    pub fn next_target(&self) -> u32 {
        self.chain.next_target()
    }

    /// Redirects the next fetch — the attack harness's hijack channel.
    pub fn hijack(&mut self, target: u32) {
        self.chain.hijack(target);
    }

    /// Disables the signature *comparison* — the harness's model of a
    /// fault that skips the check unit's compare (the `check-elision`
    /// attack row). The running state keeps updating and signature
    /// points still justify exits; nothing ever compares the state.
    pub fn elide_checks(&mut self) {
        self.enforce_checks = false;
    }
}

impl FetchUnit for FipacFetch {
    type Violation = FipacViolation;

    const ISSUE_CHARGED_IN_FETCH: bool = true;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, FipacViolation>, Trap> {
        let (cipher, checks, timing) = (&self.cipher, &self.checks, self.timing);
        let (enforce, passed) = (self.enforce_checks, &mut self.checks_passed);
        self.chain.fetch_batch(
            ctx,
            timing.redirect_setup,
            |addr| FipacViolation::FetchOutOfImage { addr },
            |state, ctx, pc, word| {
                let inst = Instruction::decode(word)
                    .map_err(|e| Trap::IllegalInstruction { word: e.word(), pc })?;
                let check = checks.get(&pc);
                // Signature points gate *before* the word issues.
                if let Some(&expected) = check {
                    ctx.stats.cycles += u64::from(timing.check_latency);
                    if enforce && *state != expected {
                        return Ok(Err(FipacViolation::StateMismatch { pc }));
                    }
                    *passed += 1;
                }
                if matches!(inst, Instruction::Halt) && check.is_none() {
                    return Ok(Err(FipacViolation::UnjustifiedExit { pc }));
                }
                // One issue cycle per word; the keyed update pipelines off
                // the critical path.
                ctx.stats.cycles += 1;
                *state = cipher.encrypt_block(*state ^ u64::from(word));
                Ok(Ok(inst))
            },
        )
    }

    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), FipacViolation> {
        debug_assert!(slot < batch_len);
        self.chain.retire(pc, outcome);
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.chain.boot();
        self.timing.reboot_cycles
    }
}
