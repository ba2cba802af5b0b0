//! The runtime half of the state chain both backends share (the install
//! half is `sofia_transform`'s chain pass): the edge registers, the text
//! bounds, the batch loop, boot, patch-on-transfer and the hijack
//! channel. A unit keeps only its per-word rule — what it does with one
//! fetched word against the running state.

use std::collections::BTreeMap;
use std::sync::Arc;

use sofia_cpu::fetch::{FetchCtx, LentBatch, Slot, SlotOutcome};
use sofia_cpu::pipeline::BlockCost;
use sofia_cpu::Trap;
use sofia_isa::Instruction;
use sofia_transform::RESET_PREV_PC;

/// Longest batch a unit delivers before handing control back to the
/// engine (mirrors SOFIA's 8-word block granularity so the comparison
/// is geometry-fair).
const MAX_BATCH: usize = 8;

/// What a per-word rule makes of one fetched word: the instruction to
/// issue (the rule has absorbed it into the state and added its cycles
/// to the count it is given), or the violation or trap that stops the
/// batch before it.
pub(crate) type Word<V> = Result<Result<Instruction, V>, Trap>;

/// Counters the sequencer keeps for both units. Like the engine's
/// `ExecStats`, they keep counting across reboots.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChainCounters {
    /// Words issued (each absorbed into the state once).
    pub words: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Control transfers that found a patch.
    pub patched_edges: u64,
    /// Transfers along edges the installer never enumerated.
    pub unpatched_edges: u64,
}

/// The chain sequencer: where the next batch starts, the running state
/// and the patch table that re-aligns it across taken edges.
#[derive(Clone, Debug)]
pub(crate) struct ChainSequencer {
    patches: Arc<BTreeMap<(u32, u32), u64>>,
    text_base: u32,
    text_words: u32,
    entry: u32,
    boot_state: u64,
    /// The running state the per-word rule reads and absorbs into.
    state: u64,
    next_target: u32,
    redirected: bool,
    counters: ChainCounters,
    /// The slots of the batch delivered last.
    batch: Vec<Slot>,
}

impl ChainSequencer {
    /// A booted sequencer over `text_words` words at `text_base`.
    pub(crate) fn new(
        patches: &BTreeMap<(u32, u32), u64>,
        text_base: u32,
        text_words: usize,
        entry: u32,
        boot_state: u64,
    ) -> ChainSequencer {
        let mut chain = ChainSequencer {
            patches: Arc::new(patches.clone()),
            text_base,
            text_words: text_words as u32,
            entry,
            boot_state,
            state: 0,
            next_target: entry,
            redirected: true,
            counters: ChainCounters::default(),
            batch: Vec::with_capacity(MAX_BATCH),
        };
        chain.boot();
        chain
    }

    /// Re-enters at the entry point. Reset is an edge like any other:
    /// boot state plus the installer's reset patch lands on the
    /// canonical chain.
    pub(crate) fn boot(&mut self) {
        self.state = self.boot_state ^ self.patch(RESET_PREV_PC, self.entry);
        self.next_target = self.entry;
        self.redirected = true;
    }

    fn patch(&mut self, from: u32, to: u32) -> u64 {
        match self.patches.get(&(from, to)) {
            Some(&p) => {
                self.counters.patched_edges += 1;
                p
            }
            None => {
                // Hardware reads whatever patch bits sit at the branch
                // site; an unenumerated edge finds none — model that as
                // zero and let the state diverge.
                self.counters.unpatched_edges += 1;
                0
            }
        }
    }

    /// The counters kept so far.
    pub(crate) fn counters(&self) -> ChainCounters {
        self.counters
    }

    /// The address the next batch will be fetched from.
    pub(crate) fn next_target(&self) -> u32 {
        self.next_target
    }

    /// Redirects the next fetch, leaving the state untouched.
    pub(crate) fn hijack(&mut self, target: u32) {
        self.next_target = target;
        self.redirected = true;
    }

    fn in_text(&self, pc: u32) -> bool {
        pc % 4 == 0 && pc >= self.text_base && (pc - self.text_base) / 4 < self.text_words
    }

    /// Fetches one batch: up to [`MAX_BATCH`] words from the next
    /// target, each through `rule` and the I-cache, ending after a
    /// control transfer or `halt`. A word outside the text, or one the
    /// rule refuses, ends a non-empty batch before it — the decoded
    /// prefix executes and the next batch re-arrives at the word — and
    /// is reported only as the first word of its batch. Only there is
    /// it charged (its I-cache access and the cycles the rule counted),
    /// so a refused word costs what it costs once.
    pub(crate) fn fetch_batch<V>(
        &mut self,
        ctx: &mut FetchCtx<'_>,
        redirect_setup: u32,
        out_of_image: fn(u32) -> V,
        mut rule: impl FnMut(&mut u64, &mut u64, u32, u32) -> Word<V>,
    ) -> Result<Result<LentBatch<'_>, V>, Trap> {
        self.batch.clear();
        let mut pc = self.next_target;
        if self.redirected {
            ctx.stats.cycles += u64::from(redirect_setup);
        }
        for _ in 0..MAX_BATCH {
            let in_text = self.in_text(pc);
            let mut cycles = 0;
            let word = if in_text {
                let word = ctx.mem.fetch(pc)?;
                rule(&mut self.state, &mut cycles, pc, word)
            } else {
                Ok(Err(out_of_image(pc)))
            };
            if !matches!(word, Ok(Ok(_))) && !self.batch.is_empty() {
                break;
            }
            if in_text {
                let stall = u64::from(ctx.icache.access_cycles(pc));
                ctx.stats.icache_stall_cycles += stall;
                ctx.stats.cycles += stall + cycles;
            }
            let inst = match word {
                Ok(Ok(inst)) => inst,
                Ok(Err(v)) => return Ok(Err(v)),
                Err(trap) => return Err(trap),
            };
            self.counters.words += 1;
            self.batch.push(Slot::new(pc, inst));
            if inst.is_control_transfer() || !inst.falls_through() {
                break;
            }
            pc = pc.wrapping_add(4);
        }
        self.counters.batches += 1;
        self.redirected = false;
        Ok(Ok((&self.batch, BlockCost::of(&self.batch))))
    }

    /// Retires one slot: a taken transfer XORs in its edge's patch.
    pub(crate) fn retire(&mut self, pc: u32, outcome: SlotOutcome) {
        match outcome {
            SlotOutcome::Sequential => self.next_target = pc.wrapping_add(4),
            SlotOutcome::Transfer { target } => {
                self.state ^= self.patch(pc, target);
                self.next_target = target;
                self.redirected = true;
            }
        }
    }
}
