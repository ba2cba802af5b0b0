//! Block geometry: execution blocks, multiplexor blocks and the sentinel
//! `prevPC` values.

/// `prevPC` presented by the hardware for the very first block after a
/// reset. Address `0x0` lies below the text base (`0x100`-aligned up to a
/// block boundary), so it can never be a real instruction address.
pub const RESET_PREV_PC: u32 = 0x0000_0000;

/// `prevPC` used to seal blocks that have **no** static predecessor
/// (unreachable code kept for layout fidelity). The address is the top of
/// the 24-bit word-address space and is never fetched, so such blocks can
/// never be entered without a MAC failure.
pub const UNREACHABLE_PREV_PC: u32 = 0x00FF_FFF0;

/// The most 32-bit words one block may span ([`BlockFormat::validate`]
/// enforces it). It sizes the fetch unit's fixed refill buffers, which
/// is what keeps a block refill off the heap; the paper's formats span
/// 6 or 8 words.
pub const MAX_BLOCK_WORDS: usize = 16;

/// Which of the two SOFIA block types a block is (paper §II-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Single entry point (`cM1` at offset 0): 2 MAC words + `n`
    /// instructions.
    Exec,
    /// Two entry points (`cM1e2`/`cM2` call-site convention at offsets
    /// 4/8): 3 MAC words + `n − 1` instructions.
    Mux,
}

/// The geometry shared by every block of a transformed program.
///
/// The paper's final choice is eight 32-bit words per block: an execution
/// block holds 2 MAC words + 6 instructions, a multiplexor block 3 MAC
/// words + 5 instructions, and stores are banned from the first two
/// instruction slots of an execution block so MAC verification completes
/// before any store reaches the MA pipeline stage (Figs. 5/6).
///
/// [`BlockFormat::exec4`] reproduces the paper's *other* design point: a
/// four-instruction block that fits entirely before MA needs no store
/// restriction, at the cost of more blocks.
///
/// # Examples
///
/// ```
/// use sofia_transform::{BlockFormat, BlockKind};
///
/// let f = BlockFormat::default();
/// assert_eq!(f.block_words(), 8);
/// assert_eq!(f.insts(BlockKind::Exec), 6);
/// assert_eq!(f.insts(BlockKind::Mux), 5);
/// assert_eq!(f.block_bytes(), 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockFormat {
    /// Instructions per execution block (the paper's `n` = 6).
    pub exec_insts: usize,
    /// Stores may not occupy block word positions below this offset
    /// (default 4: bans exec slots 0–1 and mux slot 0, exactly the
    /// paper's "inst1/inst2" restriction). 0 disables the restriction.
    pub store_safe_word_offset: usize,
}

impl Default for BlockFormat {
    fn default() -> Self {
        BlockFormat {
            exec_insts: 6,
            store_safe_word_offset: 4,
        }
    }
}

impl BlockFormat {
    /// The paper's Fig. 5 variant: 4-instruction execution blocks that fit
    /// in the pipeline stages before MA, so stores are unrestricted.
    pub fn exec4() -> BlockFormat {
        BlockFormat {
            exec_insts: 4,
            store_safe_word_offset: 0,
        }
    }

    /// Checks the invariants of a custom format.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.exec_insts < 2 {
            return Err("exec_insts must be at least 2 (mux blocks need one instruction)".into());
        }
        if self.block_words() > MAX_BLOCK_WORDS {
            return Err(format!("a block may span at most {MAX_BLOCK_WORDS} words"));
        }
        if self.store_safe_word_offset >= self.block_words() {
            return Err("store_safe_word_offset leaves no legal store slot in a block".into());
        }
        Ok(())
    }

    /// Instructions carried by a block of the given kind.
    pub fn insts(&self, kind: BlockKind) -> usize {
        match kind {
            BlockKind::Exec => self.exec_insts,
            BlockKind::Mux => self.exec_insts - 1,
        }
    }

    /// MAC words stored in a block of the given kind.
    pub fn mac_words(&self, kind: BlockKind) -> usize {
        match kind {
            BlockKind::Exec => 2,
            BlockKind::Mux => 3,
        }
    }

    /// Total 32-bit words per block (same for both kinds).
    pub fn block_words(&self) -> usize {
        self.exec_insts + 2
    }

    /// Block size in bytes (the alignment of every block).
    pub fn block_bytes(&self) -> u32 {
        (self.block_words() * 4) as u32
    }

    /// Word position of instruction slot `slot` within a block.
    pub fn word_pos(&self, kind: BlockKind, slot: usize) -> usize {
        self.mac_words(kind) + slot
    }

    /// The fixed CBC-MAC message length (in words) for a block kind:
    /// instruction count rounded up to a whole number of 64-bit cipher
    /// blocks. Exec and mux use different keys, so the two domains never
    /// mix even when the padded lengths coincide.
    pub fn mac_padded_words(&self, kind: BlockKind) -> usize {
        let n = self.insts(kind);
        n + (n % 2)
    }

    /// Whether a store may sit at instruction slot `slot` of `kind`.
    pub fn store_allowed(&self, kind: BlockKind, slot: usize) -> bool {
        self.word_pos(kind, slot) >= self.store_safe_word_offset
    }

    /// The lowest text base address compatible with block alignment.
    pub fn text_base(&self) -> u32 {
        let min = sofia_isa::asm::DEFAULT_TEXT_BASE;
        let b = self.block_bytes();
        min.div_ceil(b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_2e() {
        let f = BlockFormat::default();
        // "The size of both block types is chosen to be eight 32-bit words.
        //  Therefore, the execution block consists of 2 MAC words and 6
        //  instructions, while a multiplexor block consists of 3 MAC words
        //  and 5 instructions."
        assert_eq!(f.block_words(), 8);
        assert_eq!(f.mac_words(BlockKind::Exec), 2);
        assert_eq!(f.insts(BlockKind::Exec), 6);
        assert_eq!(f.mac_words(BlockKind::Mux), 3);
        assert_eq!(f.insts(BlockKind::Mux), 5);
    }

    #[test]
    fn store_restriction_matches_fig6() {
        let f = BlockFormat::default();
        // Stores banned on exec inst1/inst2 (slots 0 and 1)…
        assert!(!f.store_allowed(BlockKind::Exec, 0));
        assert!(!f.store_allowed(BlockKind::Exec, 1));
        assert!(f.store_allowed(BlockKind::Exec, 2));
        // …and on the first mux instruction (same word position).
        assert!(!f.store_allowed(BlockKind::Mux, 0));
        assert!(f.store_allowed(BlockKind::Mux, 1));
    }

    #[test]
    fn exec4_variant_has_no_restriction() {
        let f = BlockFormat::exec4();
        assert_eq!(f.block_words(), 6);
        assert!(f.store_allowed(BlockKind::Exec, 0));
        assert!(f.validate().is_ok());
    }

    #[test]
    fn mac_padding_is_even() {
        let f = BlockFormat::default();
        assert_eq!(f.mac_padded_words(BlockKind::Exec), 6);
        assert_eq!(f.mac_padded_words(BlockKind::Mux), 6);
        let f4 = BlockFormat::exec4();
        assert_eq!(f4.mac_padded_words(BlockKind::Exec), 4);
        assert_eq!(f4.mac_padded_words(BlockKind::Mux), 4);
    }

    #[test]
    fn text_base_is_block_aligned() {
        let f = BlockFormat::default();
        assert_eq!(f.text_base() % f.block_bytes(), 0);
        assert!(f.text_base() >= sofia_isa::asm::DEFAULT_TEXT_BASE);
        let f4 = BlockFormat::exec4();
        assert_eq!(f4.text_base() % f4.block_bytes(), 0);
    }

    #[test]
    fn invalid_formats_rejected() {
        let bad = BlockFormat {
            exec_insts: 1,
            store_safe_word_offset: 0,
        };
        assert!(bad.validate().is_err());
        let bad2 = BlockFormat {
            exec_insts: 4,
            store_safe_word_offset: 99,
        };
        assert!(bad2.validate().is_err());
        let widest = BlockFormat {
            exec_insts: MAX_BLOCK_WORDS - 2,
            store_safe_word_offset: 4,
        };
        assert!(widest.validate().is_ok());
        let too_wide = BlockFormat {
            exec_insts: MAX_BLOCK_WORDS - 1,
            ..widest
        };
        assert!(too_wide.validate().is_err());
    }

    #[test]
    fn sentinels_are_outside_text() {
        let f = BlockFormat::default();
        assert!(RESET_PREV_PC < f.text_base());
        assert_eq!(UNREACHABLE_PREV_PC % 4, 0);
        const { assert!(UNREACHABLE_PREV_PC >> 2 < (1 << 24)) };
    }
}
