//! The FIPAC-style fetch unit: plaintext fetch with a keyed running CFI
//! state, checked at justifying signature points (Nasahl et al.,
//! PAPERS.md; installer in [`sofia_transform::fipac`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, Slot, SlotOutcome};
use sofia_cpu::pipeline::BlockCost;
use sofia_cpu::Trap;
use sofia_crypto::{KeySet, Rectangle};
use sofia_isa::Instruction;
use sofia_transform::{FipacImage, RESET_PREV_PC};

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

const MAX_BATCH: usize = 8;

/// A [`FetchUnit`] that fetches plaintext words, folds each into a keyed
/// CBC-MAC-style running state, and compares the state against installed
/// signatures at every justifying check point.
#[derive(Clone, Debug)]
pub struct FipacFetch {
    cipher: Rectangle,
    patches: Arc<BTreeMap<(u32, u32), u64>>,
    checks: Arc<BTreeMap<u32, u64>>,
    text_base: u32,
    text_words: u32,
    entry: u32,
    boot_state: u64,
    state: u64,
    next_target: u32,
    prev_pc: u32,
    redirected: bool,
    enforce_checks: bool,
    timing: FipacTiming,
    stats: FipacStats,
    /// The slots of the batch delivered last.
    batch: Vec<Slot>,
}

impl FipacFetch {
    /// Builds the unit for an installed image under the device keys.
    pub fn new(image: &FipacImage, keys: &KeySet, timing: FipacTiming) -> FipacFetch {
        let cipher = keys.expand().mac_exec;
        let boot_state = sofia_transform::fipac::reset_state(keys, image.nonce, image.entry);
        let mut unit = FipacFetch {
            cipher,
            patches: Arc::new(image.patches.clone()),
            checks: Arc::new(image.checks.clone()),
            text_base: image.text_base,
            text_words: image.words.len() as u32,
            entry: image.entry,
            boot_state,
            state: 0,
            next_target: image.entry,
            prev_pc: RESET_PREV_PC,
            redirected: true,
            enforce_checks: true,
            timing,
            stats: FipacStats::default(),
            batch: Vec::with_capacity(MAX_BATCH),
        };
        unit.boot();
        unit
    }

    fn boot(&mut self) {
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
                self.stats.unpatched_edges += 1;
                0
            }
        }
    }

    /// The timing model in force.
    pub fn timing(&self) -> FipacTiming {
        self.timing
    }

    /// Fetch-path counters.
    pub fn stats(&self) -> FipacStats {
        self.stats
    }

    /// The address the next batch will be fetched from.
    pub fn next_target(&self) -> u32 {
        self.next_target
    }

    /// Redirects the next fetch — the attack harness's hijack channel.
    pub fn hijack(&mut self, target: u32) {
        self.next_target = target;
        self.redirected = true;
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
        self.batch.clear();
        let mut pc = self.next_target;
        if self.redirected {
            ctx.stats.cycles += self.timing.redirect_setup as u64;
        }
        for _ in 0..MAX_BATCH {
            if pc % 4 != 0 || pc < self.text_base || (pc - self.text_base) / 4 >= self.text_words {
                if self.batch.is_empty() {
                    return Ok(Err(FipacViolation::FetchOutOfImage { addr: pc }));
                }
                break;
            }
            let stall = ctx.icache.access_cycles(pc) as u64;
            ctx.stats.icache_stall_cycles += stall;
            ctx.stats.cycles += stall;
            let word = ctx.mem.fetch(pc)?;
            // Signature points gate *before* the word issues.
            if let Some(&expected) = self.checks.get(&pc) {
                ctx.stats.cycles += self.timing.check_latency as u64;
                if self.enforce_checks && self.state != expected {
                    if self.batch.is_empty() {
                        return Ok(Err(FipacViolation::StateMismatch { pc }));
                    }
                    break;
                }
                self.stats.checks_passed += 1;
            }
            let inst = Instruction::decode(word)
                .map_err(|e| Trap::IllegalInstruction { word: e.word(), pc })?;
            if matches!(inst, Instruction::Halt) && !self.checks.contains_key(&pc) {
                if self.batch.is_empty() {
                    return Ok(Err(FipacViolation::UnjustifiedExit { pc }));
                }
                break;
            }
            // One issue cycle per word; the keyed update pipelines off
            // the critical path.
            ctx.stats.cycles += 1;
            self.state = self.cipher.encrypt_block(self.state ^ u64::from(word));
            self.stats.words_fetched += 1;
            self.stats.updates += 1;
            self.batch.push(Slot::new(pc, inst));
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
    ) -> Result<(), FipacViolation> {
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
        self.stats = FipacStats::default();
        self.timing.reboot_cycles
    }
}
