//! The sponge-CFP fetch unit: decrypt-absorb fetch with implicit
//! authenticity (Werner et al., PAPERS.md; installer in
//! [`sofia_transform::sponge`]).

use std::fmt;

use sofia_core::machine::Machine;
use sofia_cpu::engine::Pipeline;
use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, SlotOutcome};
use sofia_cpu::Trap;
use sofia_crypto::{KeySet, Rectangle};
use sofia_isa::Instruction;
use sofia_transform::SpongeImage;

use crate::chain::ChainSequencer;
use crate::BackendConfig;

/// What the sponge unit can detect *directly*. Garbage decodes are the
/// scheme's only data-integrity signal — there is no MAC — so most
/// attacks surface as [`SpongeViolation::GarbageDecode`] a few
/// instructions after the fault, never as an immediate mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpongeViolation {
    /// A fetched word decrypted to a bit pattern that is not an SL32
    /// instruction — the downstream evidence of a tampered word or an
    /// unenumerated control-flow edge.
    GarbageDecode {
        /// Address of the undecodable word.
        pc: u32,
        /// The garbage plaintext.
        word: u32,
    },
    /// The fetch cursor left the sealed text image.
    FetchOutOfImage {
        /// The offending address.
        addr: u32,
    },
}

impl fmt::Display for SpongeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpongeViolation::GarbageDecode { pc, word } => {
                write!(
                    f,
                    "sponge state diverged: garbage decode {word:#010x} at {pc:#010x}"
                )
            }
            SpongeViolation::FetchOutOfImage { addr } => {
                write!(f, "fetch outside sealed image at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for SpongeViolation {}

/// Cycle model of the sponge fetch path. The defining cost: the state
/// chain is *serial* — word `i+1` cannot decrypt before word `i` has
/// been absorbed and permuted — so every fetched word pays the full
/// permutation latency, where SOFIA's CTR keystream runs words in
/// parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpongeTiming {
    /// Cycles per keyed permutation (absorb + squeeze of one word).
    pub permute_latency: u32,
    /// Pipeline-fill cycles after a redirect (patch lookup + state swap).
    pub redirect_setup: u32,
    /// Cycles a hardware reset costs.
    pub reboot_cycles: u64,
}

impl Default for SpongeTiming {
    fn default() -> Self {
        SpongeTiming {
            permute_latency: 2,
            redirect_setup: 1,
            reboot_cycles: 200,
        }
    }
}

/// Fetch-path counters of the sponge unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpongeStats {
    /// Words fetched and decrypted.
    pub words_fetched: u64,
    /// Keyed permutations performed (one per absorbed word).
    pub permutes: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Control transfers that consulted the patch table.
    pub patched_edges: u64,
    /// Transfers along edges the installer never enumerated (the state
    /// diverges; kept as a counter for the harnesses).
    pub unpatched_edges: u64,
}

/// The sponge-CFP machine (Werner et al. SCFP): the shared [`Machine`]
/// around a [`SpongeFetch`]. Build one with [`SpongeFetch::machine`].
pub type SpongeMachine = Machine<SpongeFetch>;

/// A [`FetchUnit`] that decrypts each word with the running sponge state
/// and absorbs the plaintext, trapping (as a violation) on the first
/// garbage decode. See the crate docs for the scheme's contract.
#[derive(Clone, Debug)]
pub struct SpongeFetch {
    chain: ChainSequencer,
    cipher: Rectangle,
    timing: SpongeTiming,
}

impl SpongeFetch {
    /// Builds the unit for a sealed image under the device keys.
    pub fn new(image: &SpongeImage, keys: &KeySet, timing: SpongeTiming) -> SpongeFetch {
        let boot_state = sofia_transform::sponge::reset_state(keys, image.nonce, image.entry);
        SpongeFetch {
            chain: ChainSequencer::new(
                &image.patches,
                image.text_base,
                image.ctext.len(),
                image.entry,
                boot_state,
            ),
            cipher: keys.expand().ctr,
            timing,
        }
    }

    /// Builds a sponge-CFP machine: this unit (default timing) on the
    /// shared pipeline, with the ciphertext in ROM and the data in RAM.
    ///
    /// # Panics
    ///
    /// Panics if the data section does not fit in RAM.
    pub fn machine(image: &SpongeImage, keys: &KeySet, config: &BackendConfig) -> SpongeMachine {
        let unit = SpongeFetch::new(image, keys, SpongeTiming::default());
        let engine = Pipeline::new(
            unit,
            image.text_base,
            image.ctext.clone(),
            image.data_base,
            &image.data,
            &config.machine,
        );
        Machine::from_engine(engine, config.reset_policy)
    }

    /// The timing model in force.
    pub fn timing(&self) -> SpongeTiming {
        self.timing
    }

    /// Fetch-path counters. Every word absorbed is one permutation.
    pub fn stats(&self) -> SpongeStats {
        let c = self.chain.counters();
        SpongeStats {
            words_fetched: c.words,
            permutes: c.words,
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
    /// The sponge state is left untouched: exactly what a control-flow
    /// hijack looks like to this hardware.
    pub fn hijack(&mut self, target: u32) {
        self.chain.hijack(target);
    }
}

impl FetchUnit for SpongeFetch {
    type Violation = SpongeViolation;

    const ISSUE_CHARGED_IN_FETCH: bool = true;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, SpongeViolation>, Trap> {
        let (cipher, timing) = (&self.cipher, self.timing);
        self.chain.fetch_batch(
            ctx,
            timing.redirect_setup,
            |addr| SpongeViolation::FetchOutOfImage { addr },
            |state, ctx, pc, word| {
                let plain = word ^ (*state as u32);
                let Ok(inst) = Instruction::decode(plain) else {
                    // The garbage word is not absorbed, so a refetch sees
                    // the same state and the same garbage — detection is
                    // sticky.
                    return Ok(Err(SpongeViolation::GarbageDecode { pc, word: plain }));
                };
                *state = cipher.encrypt_block(*state ^ u64::from(plain));
                // Serial decrypt-absorb: every word pays the permutation
                // latency (issue cycle included).
                ctx.stats.cycles += u64::from(timing.permute_latency);
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
    ) -> Result<(), SpongeViolation> {
        debug_assert!(slot < batch_len);
        self.chain.retire(pc, outcome);
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.chain.boot();
        self.timing.reboot_cycles
    }
}
