//! The CFI decrypt unit and SI verify unit: block-structured fetch.
//!
//! Mirrors the hardware of paper Fig. 1: ciphertext words come out of the
//! (encrypted) instruction memory, are decrypted with the control-flow
//! counter `{ω ‖ prevPC ‖ PC}`, and the SI unit recomputes the CBC-MAC
//! over the decrypted instructions, comparing it with the decrypted MAC
//! words before the block may execute.

use std::sync::Arc;

use sofia_cpu::fetch::{FetchCtx, FetchUnit, LentBatch, Slot, SlotOutcome};
use sofia_cpu::Trap;
use sofia_crypto::{mac, CounterBlock, ExpandedKeys, KeySet, Mac64, Nonce};
use sofia_isa::Instruction;
use sofia_transform::{BlockFormat, BlockKind, SecureImage, MAX_BLOCK_WORDS, RESET_PREV_PC};

use crate::memo::{RefillMemo, RefillMemoStats};
use crate::timing::SofiaTiming;
use crate::vcache::{CachedBlock, VCache, VCacheConfig, VCacheStats};
use crate::{SofiaStats, Violation};

/// Which entry a transfer target selected (paper §II-E call-site
/// convention: offset 0 → execution block; offset 4 → mux path 1;
/// offset 8 → mux path 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryPath {
    /// Execution-block entry at the block base.
    Exec,
    /// Multiplexor path 1: enter at `M1e1`, skip `M1e2`.
    Mux1,
    /// Multiplexor path 2: enter at `M1e2`.
    Mux2,
}

impl EntryPath {
    /// The block kind this path belongs to.
    pub fn kind(self) -> BlockKind {
        match self {
            EntryPath::Exec => BlockKind::Exec,
            EntryPath::Mux1 | EntryPath::Mux2 => BlockKind::Mux,
        }
    }

    /// Indices of the block words this path fetches, in fetch order: its
    /// two MAC words, then its instructions. Mux paths skip the other
    /// entry's M1 word and share M2 (Fig. 8).
    pub(crate) fn fetched_words(self, format: &BlockFormat) -> impl Iterator<Item = usize> {
        let macs = match self {
            EntryPath::Exec => [0, 1],
            EntryPath::Mux1 => [0, 2],
            EntryPath::Mux2 => [1, 2],
        };
        macs.into_iter()
            .chain(format.mac_words(self.kind())..format.block_words())
    }
}

/// A successfully decrypted **and verified** block, ready to execute.
///
/// The fetched addresses and decrypted words live in fixed buffers of
/// [`MAX_BLOCK_WORDS`], so a refill never touches the heap.
#[derive(Clone, Debug)]
pub struct VerifiedBlock {
    /// Base address of the block.
    pub base: u32,
    /// The entry path taken into it.
    pub path: EntryPath,
    /// Total words fetched (8 for exec, 7 for a mux path by default).
    pub words_fetched: u32,
    /// Addresses fetched, in fetch order: the two MAC words the path
    /// reads, then its instructions.
    addrs: [u32; MAX_BLOCK_WORDS],
    /// The decrypted word at each of `addrs`.
    words: [u32; MAX_BLOCK_WORDS],
    /// The ciphertext word read at each of `addrs`.
    ctext: [u32; MAX_BLOCK_WORDS],
}

/// Fetched MAC words (`M1`, `M2`) ahead of the instructions.
const MAC_WORDS_FETCHED: usize = 2;

impl VerifiedBlock {
    /// Address of the last word of the block — the `prevPC` every exit
    /// edge of this block presents to its successor.
    pub fn last_word_addr(&self, format: &BlockFormat) -> u32 {
        self.base + format.block_bytes() - 4
    }

    /// Addresses fetched, for I-cache accounting.
    pub fn fetched_addrs(&self) -> &[u32] {
        &self.addrs[..self.words_fetched as usize]
    }

    /// Addresses of the instruction words (MAC slots stripped; they
    /// execute as `nop` slots in the timing model).
    pub fn inst_addrs(&self) -> &[u32] {
        &self.addrs[MAC_WORDS_FETCHED..self.words_fetched as usize]
    }

    /// Decrypted instruction words, one per [`VerifiedBlock::inst_addrs`].
    pub fn inst_words(&self) -> &[u32] {
        &self.words[MAC_WORDS_FETCHED..self.words_fetched as usize]
    }

    /// The ciphertext words the path read, one per
    /// [`VerifiedBlock::fetched_addrs`].
    pub fn ciphertext(&self) -> &[u32] {
        &self.ctext[..self.words_fetched as usize]
    }
}

/// The fetch unit: classifies the transfer target, walks the word
/// sequence for the selected path, decrypts, and verifies.
///
/// `read_word` supplies ciphertext words by address (backed by the
/// machine's ROM so image tampering is visible to it). `enforce_si`
/// disables the MAC comparison for the CFI-only ablation (normal
/// operation passes `true`).
///
/// # Errors
///
/// Returns the [`Violation`] the hardware would reset on. An edge no
/// counter block can encode — an unaligned `prev_pc`, or one past the
/// 24-bit word space, as only a forged snapshot can present — is a
/// [`Violation::MacMismatch`]: no sealed edge carries it. A text section
/// or block reaching past the top of the 32-bit address space, as only
/// an image built in memory can describe, is [`Violation::FetchOutOfImage`].
///
/// # Panics
///
/// Panics if `format` spans more than [`MAX_BLOCK_WORDS`] words, which
/// [`BlockFormat::validate`] rejects before any image is sealed or
/// decoded.
#[allow(clippy::too_many_arguments)]
pub fn fetch_block(
    read_word: &mut dyn FnMut(u32) -> Option<u32>,
    keys: &ExpandedKeys,
    nonce: Nonce,
    format: &BlockFormat,
    text_base: u32,
    text_words: u32,
    target: u32,
    prev_pc: u32,
    enforce_si: bool,
) -> Result<VerifiedBlock, Violation> {
    let bb = format.block_bytes();
    let out_of_image = Violation::FetchOutOfImage { addr: target };
    let text_end = text_words
        .checked_mul(4)
        .and_then(|bytes| text_base.checked_add(bytes))
        .ok_or(out_of_image)?;
    if target < text_base || target >= text_end || target % 4 != 0 {
        return Err(out_of_image);
    }
    let off = (target - text_base) % bb;
    let base = target - off;
    if base.checked_add(bb - 4).is_none() {
        return Err(out_of_image);
    }
    let path = match off {
        0 => EntryPath::Exec,
        4 => EntryPath::Mux1,
        8 => EntryPath::Mux2,
        _ => return Err(Violation::InvalidEntryOffset { target }),
    };
    // An exec-offset target is also how sequential fall-through arrives at
    // a mux block — the transformer guarantees that never happens for
    // honest programs; for tampered flow the MAC check below catches it.

    let word_at = |w: usize| base + 4 * w as u32;
    let bw = format.block_words();

    // The `(sealing prevPC, PC)` walk for the selected path is fully
    // determined before any ciphertext is read, so the whole block's
    // keystream is one batched cipher sweep (one 8-lane pass for the
    // default format) instead of a per-word loop. The first two entries
    // decrypt the MAC words (M1/M2), the rest the instruction words. The
    // first word chains from `prev_pc`, every later one from the word
    // before it in memory, so M2 chains from addr(M1e2) on *both* mux
    // paths (Fig. 8). `pads` holds the counters until the in-place sweep
    // turns them into keystream.
    let first_inst_word = format.mac_words(path.kind());
    let fetched = MAC_WORDS_FETCHED + bw - first_inst_word;
    let mut block = VerifiedBlock {
        base,
        path,
        words_fetched: fetched as u32,
        addrs: [0; MAX_BLOCK_WORDS],
        words: [0; MAX_BLOCK_WORDS],
        ctext: [0; MAX_BLOCK_WORDS],
    };
    let mut pads = [0u64; MAX_BLOCK_WORDS];
    let edges = path.fetched_words(format).enumerate().map(|(i, w)| {
        let prev = if i == 0 { prev_pc } else { word_at(w - 1) };
        (prev, word_at(w))
    });
    for ((addr, pad), (prev, pc)) in block.addrs.iter_mut().zip(&mut pads).zip(edges) {
        *addr = pc;
        *pad = CounterBlock::try_from_edge(nonce, prev, pc)
            .ok_or(Violation::MacMismatch { block_base: base })?
            .as_u64();
    }
    keys.ctr.encrypt_blocks(&mut pads[..fetched]);
    for (((word, ctext), &pc), &pad) in block
        .words
        .iter_mut()
        .zip(&mut block.ctext)
        .zip(&block.addrs[..fetched])
        .zip(&pads)
    {
        *ctext = read_word(pc).ok_or(Violation::FetchOutOfImage { addr: pc })?;
        *word = *ctext ^ pad as u32;
    }

    // SI verification (paper Fig. 3).
    let kind = path.kind();
    let mac_cipher = match kind {
        BlockKind::Exec => &keys.mac_exec,
        BlockKind::Mux => &keys.mac_mux,
    };
    let computed = mac::mac_words(
        mac_cipher,
        block.inst_words(),
        format.mac_padded_words(kind),
    );
    if enforce_si && computed != Mac64::from_words(block.words[0], block.words[1]) {
        return Err(Violation::MacMismatch { block_base: base });
    }
    Ok(block)
}

/// Why a refill produced no verified line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineRejection {
    /// The fetch path raised a violation for this edge.
    Violation(Violation),
    /// A decrypted word does not decode: the live path traps on it, and
    /// a restored line holding it can never have been cached honestly.
    Undecodable {
        /// Address of the undecodable word.
        pc: u32,
        /// The undecodable word itself (the live path's trap payload).
        word: u32,
    },
}

/// What a refill is a pure function of besides the edge and the
/// ciphertext its path reads: the unit's fixed state.
#[derive(Clone, Debug)]
struct Refill {
    keys: ExpandedKeys,
    nonce: Nonce,
    format: BlockFormat,
    text_base: u32,
    text_words: u32,
    enforce_si: bool,
}

impl Refill {
    /// The refill: decrypts and verifies the block `edge` enters
    /// ([`fetch_block`]), decodes its instruction words and enforces the
    /// store-position rule before any architectural effect — the
    /// **single** implementation behind the live fetch path, the memo's
    /// debug cross-check and snapshot restore, so they can never diverge
    /// on what a verified line is. Returns the line with the block it was
    /// decoded from. `fetch_block` allocates nothing; the line's slots
    /// are its one allocation.
    ///
    /// # Errors
    ///
    /// [`LineRejection`] naming the violation or the undecodable word;
    /// callers map it to their surface ([`Trap::IllegalInstruction`] or
    /// a [`Violation`] on the live path, a restore error on the snapshot
    /// path).
    fn line(
        &self,
        read_word: &mut dyn FnMut(u32) -> Option<u32>,
        (prev_pc, target): (u32, u32),
    ) -> Result<(CachedBlock, VerifiedBlock), LineRejection> {
        let block = fetch_block(
            read_word,
            &self.keys,
            self.nonce,
            &self.format,
            self.text_base,
            self.text_words,
            target,
            prev_pc,
            self.enforce_si,
        )
        .map_err(LineRejection::Violation)?;
        let first_word = self.format.mac_words(block.path.kind());
        let mut slots = [Slot::new(0, Instruction::nop()); MAX_BLOCK_WORDS];
        let insts = block.inst_addrs().iter().zip(block.inst_words());
        for (idx, (slot, (&pc, &word))) in slots.iter_mut().zip(insts).enumerate() {
            let inst = Instruction::decode(word)
                .map_err(|e| LineRejection::Undecodable { pc, word: e.word() })?;
            let word_pos = first_word + idx;
            if inst.is_store() && word_pos < self.format.store_safe_word_offset {
                return Err(LineRejection::Violation(Violation::StoreTooEarly {
                    pc,
                    word_pos,
                }));
            }
            *slot = Slot::new(pc, inst);
        }
        let line = CachedBlock::new(
            block.base,
            block.last_word_addr(&self.format),
            block.path,
            block.words_fetched,
            Arc::from(&slots[..block.inst_words().len()]),
        );
        Ok((line, block))
    }
}

/// The SOFIA fetch unit: the CFI decrypt unit, the SI verify unit and the
/// block sequencer, packaged as a [`FetchUnit`] for the generic
/// [`sofia_cpu::Pipeline`] engine.
///
/// Owns all the security state of paper Fig. 1 — keys, nonce, block
/// format, the `{prevPC, PC}` edge registers — plus the fetch-path timing
/// model. The engine drives it exactly like [`sofia_cpu::PlainFetch`],
/// which is what makes vanilla-vs-SOFIA comparisons a controlled
/// experiment.
#[derive(Clone, Debug)]
pub struct SofiaFetchUnit {
    refill: Refill,
    timing: SofiaTiming,
    entry: u32,
    next_target: u32,
    prev_pc: u32,
    redirected: bool,
    cur_base: u32,
    cur_last_word: u32,
    /// The fetch-path counters. `exec`, `violations`, `resets` and the
    /// `vcache_*` fields stay unused: their owners keep them.
    stats: SofiaStats,
    vcache: VCache,
    memo: RefillMemo,
}

impl SofiaFetchUnit {
    /// A unit fetching `image` under `keys`, with `enforce_si = false`
    /// yielding the CFI-only ablation (§II-A: decryption alone cannot
    /// detect its own errors). The verified-block cache is disabled —
    /// use [`SofiaFetchUnit::with_vcache`] to enable it.
    pub fn new(image: &SecureImage, keys: &KeySet, timing: SofiaTiming, enforce_si: bool) -> Self {
        Self::with_vcache(image, keys, timing, enforce_si, VCacheConfig::default())
    }

    /// A unit with an explicit verified-block cache configuration (see
    /// [`crate::vcache`]; a disabled config reproduces [`SofiaFetchUnit::new`]
    /// bit-for-bit).
    pub fn with_vcache(
        image: &SecureImage,
        keys: &KeySet,
        timing: SofiaTiming,
        enforce_si: bool,
        vcache: VCacheConfig,
    ) -> Self {
        SofiaFetchUnit {
            refill: Refill {
                keys: keys.expand(),
                nonce: image.nonce,
                format: image.format,
                text_base: image.text_base,
                text_words: image.ctext.len() as u32,
                enforce_si,
            },
            timing,
            entry: image.entry,
            next_target: image.entry,
            prev_pc: RESET_PREV_PC,
            redirected: true,
            cur_base: image.entry,
            cur_last_word: RESET_PREV_PC,
            stats: SofiaStats::default(),
            vcache: VCache::new(vcache),
            memo: RefillMemo::new(image.format),
        }
    }

    /// Fetch-path counters, the verified-block cache's included. The
    /// machine fills in `exec`, `violations` and `resets`
    /// ([`crate::machine::SofiaMachine::stats`]); here they read zero.
    pub fn stats(&self) -> SofiaStats {
        SofiaStats {
            exec: Default::default(),
            violations: 0,
            resets: 0,
            ..self.stats.with_vcache(&self.vcache.stats())
        }
    }

    /// Raw verified-block cache counters.
    pub fn vcache_stats(&self) -> VCacheStats {
        self.vcache.stats()
    }

    /// Host-only refill memo counters (see [`crate::memo`]).
    pub fn refill_memo_stats(&self) -> RefillMemoStats {
        self.memo.stats()
    }

    /// The next transfer target (diagnostic).
    pub fn next_target(&self) -> u32 {
        self.next_target
    }

    /// The `prevPC` the hardware will present for the next fetch — the
    /// sealed-edge source (diagnostic; lets harnesses re-verify an edge
    /// out-of-band with [`fetch_block`]).
    pub fn prev_pc(&self) -> u32 {
        self.prev_pc
    }

    /// **Attack-harness channel**: redirects the next fetch to `target`,
    /// modelling a control-flow hijack the software could not prevent.
    pub fn hijack(&mut self, target: u32) {
        self.next_target = target;
        self.redirected = true;
    }

    /// The fetch-path timing model this unit charges.
    pub(crate) fn timing(&self) -> SofiaTiming {
        self.timing
    }

    /// Whether the SI unit's MAC comparison is enforced.
    pub(crate) fn enforce_si(&self) -> bool {
        self.refill.enforce_si
    }

    /// Sequencer state beyond the edge registers: `(redirected,
    /// cur_base, cur_last_word)` — what a snapshot must carry so the
    /// first resumed fetch charges the same redirect refill and the
    /// resumed block retires onto the same exit `prevPC`.
    pub(crate) fn sequencing(&self) -> (bool, u32, u32) {
        (self.redirected, self.cur_base, self.cur_last_word)
    }

    /// Restores the sequencing registers wholesale (snapshot restore).
    pub(crate) fn restore_sequencing(
        &mut self,
        prev_pc: u32,
        next_target: u32,
        redirected: bool,
        cur_base: u32,
        cur_last_word: u32,
    ) {
        self.prev_pc = prev_pc;
        self.next_target = next_target;
        self.redirected = redirected;
        self.cur_base = cur_base;
        self.cur_last_word = cur_last_word;
    }

    /// Replaces the fetch-path counters wholesale (snapshot restore).
    pub(crate) fn set_stats(&mut self, stats: SofiaStats) {
        self.stats = stats;
    }

    /// The verified-block cache (snapshot export).
    pub(crate) fn vcache_ref(&self) -> &VCache {
        &self.vcache
    }

    /// Mutable verified-block cache (snapshot restore).
    pub(crate) fn vcache_mut(&mut self) -> &mut VCache {
        &mut self.vcache
    }

    /// The verified line for one cached edge, against `read_word`
    /// ciphertext. This is how a restored snapshot re-warms the
    /// verified-block cache: the snapshot carries only edge *keys*, never
    /// decrypted plaintext, so every line re-earns its residency against
    /// the MAC-protected image on the restoring host.
    ///
    /// # Errors
    ///
    /// The violation (or the undecodable word) that would have fired on
    /// the live fetch path.
    pub(crate) fn refill_line(
        &self,
        read_word: &mut dyn FnMut(u32) -> Option<u32>,
        edge: (u32, u32),
    ) -> Result<CachedBlock, LineRejection> {
        self.refill.line(read_word, edge).map(|(line, _)| line)
    }
}

/// Counts one block delivered along a path of `kind`.
fn count_block(stats: &mut SofiaStats, kind: BlockKind) {
    stats.blocks += 1;
    match kind {
        BlockKind::Exec => stats.exec_blocks += 1,
        BlockKind::Mux => stats.mux_blocks += 1,
    }
}

impl FetchUnit for SofiaFetchUnit {
    type Violation = Violation;

    /// Block fetch charges one issue slot per fetched word (MAC words
    /// travel as `nop`s), so the engine adds only hazard penalties.
    const ISSUE_CHARGED_IN_FETCH: bool = true;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
    ) -> Result<Result<LentBatch<'_>, Violation>, Trap> {
        let edge = (self.prev_pc, self.next_target);
        let format = &self.refill.format;
        // Verified-block cache: a hit replays slots already decrypted,
        // MAC-checked, decoded, classified and costed for exactly this
        // `(prevPC, PC)` edge, lent to the engine straight from the line —
        // no copy, no refcount traffic. It charges the block's issue
        // slots plus the hit latency: no cipher ops, no redirect refill,
        // and **no ciphertext I-cache walk** (the ciphertext is never
        // read, so charging `ICache::access_cycles` here would
        // double-bill the fetch; a regression test pins this).
        if let Some(at) = self.vcache.lookup(edge.0, edge.1) {
            let line = self.vcache.line(at);
            let kind = line.path.kind();
            let skipped =
                self.timing
                    .block_cycles(format, kind, line.words_fetched, self.redirected);
            let hit_cycles =
                line.slots().len() as u64 + u64::from(self.vcache.config().hit_latency);
            ctx.stats.cycles += hit_cycles;
            self.stats.crypto_cycles_saved += skipped.total().saturating_sub(hit_cycles);
            count_block(&mut self.stats, kind);
            self.cur_base = line.base;
            self.cur_last_word = line.last_word_addr;
            return Ok(Ok((line.slots(), line.cost())));
        }
        // Refill memo: the same edge over the same ciphertext verifies to
        // the same line, so a hit skips only the host's cipher work and
        // is charged exactly like the refill it stands for. Only a line
        // past the MAC, the decoder and the store-position rule enters
        // the memo or the cache: nothing that would trap or violate on
        // the uncached path is ever replayable from either.
        let refill = &self.refill;
        let line = self.memo.get_or_refill(
            edge,
            |addr| ctx.mem.fetch(addr).ok(),
            || refill.line(&mut |addr| ctx.mem.fetch(addr).ok(), edge),
        );
        let line = match line {
            Ok(line) => line,
            Err(LineRejection::Undecodable { pc, word }) => {
                return Err(Trap::IllegalInstruction { word, pc })
            }
            Err(LineRejection::Violation(v)) => return Ok(Err(v)),
        };
        let kind = line.path.kind();
        let bt = self
            .timing
            .block_cycles(format, kind, line.words_fetched, self.redirected);
        count_block(&mut self.stats, kind);
        self.stats.mac_nop_slots += u64::from(line.words_fetched) - line.slots().len() as u64;
        self.stats.ctr_ops += bt.ctr_ops as u64;
        self.stats.cbc_ops += bt.cbc_ops as u64;
        self.stats.cipher_stall_cycles += bt.cipher_stall;
        self.stats.redirect_fill_cycles += bt.redirect_fill;
        ctx.stats.cycles += bt.total();
        // Store-gate stalls for stores the format allows in the stall
        // window (zero under the default format — the Fig. 6 argument).
        let first_word = format.mac_words(kind);
        for (idx, slot) in line.slots().iter().enumerate() {
            if slot.class().is_store() {
                let stall = self.timing.store_gate_stall(format, first_word + idx);
                self.stats.store_gate_stall_cycles += stall;
                ctx.stats.cycles += stall;
            }
        }
        // I-cache: ciphertext words are cached in front of the decrypt
        // unit (Fig. 1), so every fetched word touches the cache.
        for addr in line.fetched_addrs(format) {
            let stall = ctx.icache.access_cycles(addr) as u64;
            ctx.stats.icache_stall_cycles += stall;
            ctx.stats.cycles += stall;
        }
        self.cur_base = line.base;
        self.cur_last_word = line.last_word_addr;
        if self.vcache.is_enabled() {
            self.vcache.insert(edge, line.clone());
        }
        Ok(Ok((line.slots(), line.cost())))
    }

    /// Sequences the next fetch from the block's one exit: its last slot
    /// falls through to the next block, or a transfer leaves it. Either
    /// way the successor's edge starts at the block's last word.
    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), Violation> {
        match outcome {
            SlotOutcome::Sequential => {
                self.next_target = self.cur_base + self.refill.format.block_bytes();
                self.redirected = false;
            }
            SlotOutcome::Transfer { target } => {
                // Control can only exit at `inst_n` (paper §II-E).
                if slot + 1 != batch_len {
                    return Err(Violation::MidBlockTransfer { pc });
                }
                self.next_target = target;
                self.redirected = true;
            }
        }
        self.prev_pc = self.cur_last_word;
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.prev_pc = RESET_PREV_PC;
        self.next_target = self.entry;
        self.redirected = true;
        // A reboot restores a safe control state: stale verified
        // plaintext must not survive the reset line any more than the
        // ciphertext I-cache does.
        self.vcache.flush();
        self.timing.reboot_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_isa::asm;
    use sofia_transform::Transformer;

    fn image(src: &str) -> (sofia_transform::SecureImage, KeySet) {
        let keys = KeySet::from_seed(0xF00D);
        let img = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        (img, keys)
    }

    fn fetch(
        img: &sofia_transform::SecureImage,
        keys: &KeySet,
        target: u32,
        prev: u32,
    ) -> Result<VerifiedBlock, Violation> {
        let ks = keys.expand();
        let ctext = img.ctext.clone();
        let base = img.text_base;
        let mut read = |addr: u32| ctext.get(((addr - base) / 4) as usize).copied();
        fetch_block(
            &mut read,
            &ks,
            img.nonce,
            &img.format,
            img.text_base,
            img.ctext.len() as u32,
            target,
            prev,
            true,
        )
    }

    #[test]
    fn entry_block_verifies_from_reset() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let b = fetch(&img, &keys, img.entry, RESET_PREV_PC).unwrap();
        assert_eq!(b.path, EntryPath::Exec);
        assert_eq!(b.words_fetched, 8);
        assert_eq!(b.inst_words().len(), 6);
        assert_eq!(b.fetched_addrs().len(), 8);
    }

    #[test]
    fn control_exits_only_at_the_last_slot() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let mut unit = SofiaFetchUnit::new(&img, &keys, SofiaTiming::default(), true);
        let jump = SlotOutcome::Transfer { target: 0x40 };
        assert_eq!(
            unit.retire(0x10, 2, 6, jump),
            Err(Violation::MidBlockTransfer { pc: 0x10 })
        );
        assert_eq!(
            unit.next_target(),
            img.entry,
            "a refused exit sequences nothing"
        );
        assert_eq!(unit.retire(0x1C, 5, 6, jump), Ok(()));
        assert_eq!(unit.next_target(), 0x40);
    }

    #[test]
    fn wrong_prev_pc_is_a_mac_mismatch() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let err = fetch(&img, &keys, img.entry, 0x5C).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn illegal_entry_offsets_rejected() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let err = fetch(&img, &keys, img.text_base + 12, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::InvalidEntryOffset { .. }));
        let err = fetch(&img, &keys, img.text_base.wrapping_sub(32), RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::FetchOutOfImage { .. }));
    }

    #[test]
    fn tampered_word_fails_verification() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let mut tampered = img.clone();
        tampered.ctext[3] ^= 0x0000_0400; // flip one ciphertext bit
        let err = fetch(&tampered, &keys, img.entry, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn mux_paths_both_verify() {
        // Callee with two callers → mux block, both entries must verify
        // with their respective prevPCs.
        let (img, keys) = image(
            "main: jal f
                   jal f
                   halt
             f:    ret",
        );
        // Find the two jal instructions in the clear by scanning blocks:
        // simpler — walk the program like the machine would. Block 0 ends
        // with the first jal at its last word.
        let bb = img.format.block_bytes();
        let jal1 = img.text_base + bb - 4;
        let b0 = fetch(&img, &keys, img.entry, RESET_PREV_PC).unwrap();
        assert_eq!(b0.path, EntryPath::Exec);
        let jal_inst = sofia_isa::Instruction::decode(*b0.inst_words().last().unwrap()).unwrap();
        let f_entry = jal_inst.static_target(jal1).unwrap();
        // f's entry is a mux path (offset 4 or 8).
        let off = (f_entry - img.text_base) % bb;
        assert!(off == 4 || off == 8, "offset {off}");
        let fb = fetch(&img, &keys, f_entry, jal1).unwrap();
        assert_eq!(fb.path.kind(), BlockKind::Mux);
        assert_eq!(fb.words_fetched, 7);
        assert_eq!(fb.inst_words().len(), 5);
        assert_eq!(fb.inst_addrs().first(), Some(&(f_entry - off + 12)));
        // Entering the same path with the *other* caller's prevPC fails.
        let err = fetch(&img, &keys, f_entry, jal1 + bb).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn relocating_a_block_fails_verification() {
        // The ECB-ISR weakness SOFIA fixes (paper §I): moving ciphertext
        // to another location must not decrypt correctly, because PC is in
        // the counter.
        let (img, keys) = image(
            "main: addi t0, zero, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   halt",
        );
        assert!(img.blocks() >= 2);
        let mut moved = img.clone();
        let bw = img.format.block_words();
        // Swap block 0 and block 1 ciphertexts wholesale.
        for w in 0..bw {
            moved.ctext.swap(w, bw + w);
        }
        let err = fetch(&moved, &keys, img.entry, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }
}
