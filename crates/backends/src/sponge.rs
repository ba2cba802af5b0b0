//! The sponge-CFP fetch unit: decrypt-absorb fetch with implicit
//! authenticity (Werner et al., PAPERS.md; installer in
//! [`sofia_transform::sponge`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, Slot, SlotOutcome};
use sofia_cpu::pipeline::BlockCost;
use sofia_cpu::Trap;
use sofia_crypto::{KeySet, Rectangle};
use sofia_isa::Instruction;
use sofia_transform::{SpongeImage, RESET_PREV_PC};

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

/// Longest batch the unit delivers before handing control back to the
/// engine (mirrors SOFIA's 8-word block granularity so the comparison
/// is geometry-fair).
const MAX_BATCH: usize = 8;

/// A [`FetchUnit`] that decrypts each word with the running sponge state
/// and absorbs the plaintext, trapping (as a violation) on the first
/// garbage decode. See the crate docs for the scheme's contract.
#[derive(Clone, Debug)]
pub struct SpongeFetch {
    cipher: Rectangle,
    patches: Arc<BTreeMap<(u32, u32), u64>>,
    text_base: u32,
    text_words: u32,
    entry: u32,
    boot_state: u64,
    state: u64,
    next_target: u32,
    prev_pc: u32,
    redirected: bool,
    last_pc: u32,
    timing: SpongeTiming,
    stats: SpongeStats,
    /// The slots of the batch delivered last.
    batch: Vec<Slot>,
}

impl SpongeFetch {
    /// Builds the unit for a sealed image under the device keys.
    pub fn new(image: &SpongeImage, keys: &KeySet, timing: SpongeTiming) -> SpongeFetch {
        let cipher = keys.expand().ctr;
        let boot_state = sofia_transform::sponge::reset_state(keys, image.nonce, image.entry);
        let mut unit = SpongeFetch {
            cipher,
            patches: Arc::new(image.patches.clone()),
            text_base: image.text_base,
            text_words: image.ctext.len() as u32,
            entry: image.entry,
            boot_state,
            state: 0,
            next_target: image.entry,
            prev_pc: RESET_PREV_PC,
            redirected: true,
            last_pc: image.entry,
            timing,
            stats: SpongeStats::default(),
            batch: Vec::with_capacity(MAX_BATCH),
        };
        unit.boot();
        unit
    }

    fn boot(&mut self) {
        // Reset is an edge like any other: boot state plus the
        // installer's reset patch lands on the canonical chain.
        self.state = self.boot_state ^ self.patch(RESET_PREV_PC, self.entry);
        self.next_target = self.entry;
        self.prev_pc = RESET_PREV_PC;
        self.redirected = true;
    }

    fn patch(&mut self, from: u32, to: u32) -> u64 {
        match self.patches.get(&(from, to)) {
            Some(&p) => {
                self.stats.patched_edges += 1;
                p
            }
            None => {
                // Hardware reads whatever patch bits sit at the branch
                // site; an unenumerated edge finds none — model that as
                // zero and let the state diverge.
                self.stats.unpatched_edges += 1;
                0
            }
        }
    }

    /// The timing model in force.
    pub fn timing(&self) -> SpongeTiming {
        self.timing
    }

    /// Fetch-path counters.
    pub fn stats(&self) -> SpongeStats {
        self.stats
    }

    /// The address the next batch will be fetched from.
    pub fn next_target(&self) -> u32 {
        self.next_target
    }

    /// Redirects the next fetch — the attack harness's hijack channel.
    /// The sponge state is left untouched: exactly what a control-flow
    /// hijack looks like to this hardware.
    pub fn hijack(&mut self, target: u32) {
        self.next_target = target;
        self.redirected = true;
    }
}

impl FetchUnit for SpongeFetch {
    type Violation = SpongeViolation;

    const ISSUE_CHARGED_IN_FETCH: bool = true;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, SpongeViolation>, Trap> {
        self.batch.clear();
        let mut pc = self.next_target;
        if self.redirected {
            ctx.stats.cycles += self.timing.redirect_setup as u64;
        }
        for _ in 0..MAX_BATCH {
            if pc % 4 != 0 || pc < self.text_base || (pc - self.text_base) / 4 >= self.text_words {
                // Deliver what already decoded; stop the machine if the
                // very first word is out of image.
                if self.batch.is_empty() {
                    return Ok(Err(SpongeViolation::FetchOutOfImage { addr: pc }));
                }
                break;
            }
            let stall = ctx.icache.access_cycles(pc) as u64;
            ctx.stats.icache_stall_cycles += stall;
            ctx.stats.cycles += stall;
            let word = ctx.mem.fetch(pc)?;
            let plain = word ^ (self.state as u32);
            let Ok(inst) = Instruction::decode(plain) else {
                // The garbage word is not absorbed, so a refetch sees the
                // same state and the same garbage — detection is sticky.
                if self.batch.is_empty() {
                    return Ok(Err(SpongeViolation::GarbageDecode { pc, word: plain }));
                }
                // The decoded prefix executes; the next batch re-arrives
                // here and reports the violation.
                break;
            };
            self.state = self.cipher.encrypt_block(self.state ^ u64::from(plain));
            self.stats.words_fetched += 1;
            self.stats.permutes += 1;
            // Serial decrypt-absorb: every word pays the permutation
            // latency (issue cycle included).
            ctx.stats.cycles += self.timing.permute_latency as u64;
            self.batch.push(Slot::new(pc, inst));
            self.last_pc = pc;
            if inst.is_control_transfer() || !inst.falls_through() {
                break;
            }
            pc = pc.wrapping_add(4);
        }
        self.stats.batches += 1;
        self.redirected = false;
        Ok(Ok((&self.batch, BlockCost::of(&self.batch))))
    }

    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), SpongeViolation> {
        debug_assert!(slot < batch_len);
        match outcome {
            SlotOutcome::Sequential => {
                self.next_target = pc.wrapping_add(4);
                self.prev_pc = pc;
            }
            SlotOutcome::Transfer { target } => {
                let p = self.patch(pc, target);
                self.state ^= p;
                self.next_target = target;
                self.prev_pc = pc;
                self.redirected = true;
            }
        }
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.boot();
        self.stats = SpongeStats::default();
        self.timing.reboot_cycles
    }
}
