//! # sofia-transform — the secure installer
//!
//! The install-time half of SOFIA (paper §II-C/D/E and §III): takes a
//! symbolic SL32 [`Module`] and produces a
//! [`SecureImage`] whose every instruction is
//!
//! 1. grouped into fixed-size **execution blocks** (one entry point) and
//!    **multiplexor blocks** (two entry points, trees for more — Fig. 9),
//!    with control transfers only in the last slot and stores kept clear
//!    of the early pipeline slots (Figs. 4–6);
//! 2. authenticated by a per-block CBC-MAC over the plaintext
//!    instructions (`k2`/`k3` per block type);
//! 3. encrypted word-by-word in CTR mode under `k1` with the
//!    control-flow-edge counter `{ω ‖ prevPC ‖ PC}` (MAC-then-Encrypt).
//!
//! The pipeline is: lower (indirect-dispatch ladders, single-exit
//! normalisation) → CFG → pack → mux trees → resolve → MAC → CTR.
//!
//! Plan once per source, seal once per key. As in the paper's deployment
//! model, the software provider lays a program out once and devices
//! differ only in their keys: everything up to operand resolution is
//! key-free and is one [`SealPlan`]; only the CBC-MAC (`k2`/`k3`) and
//! the CTR pass (`k1`) use a device's keys ([`SealPlan::seal`]).
//! [`Transformer::transform`] is the two in a row, and
//! [`cache::ImageCache`] keeps one plan per source beside one image per
//! `(keys, source)` pair.
//!
//! # Examples
//!
//! ```
//! use sofia_crypto::KeySet;
//! use sofia_isa::asm;
//! use sofia_transform::Transformer;
//!
//! let module = asm::parse(
//!     "main: li t0, 3
//!      loop: subi t0, t0, 1
//!            bnez t0, loop
//!            halt",
//! )?;
//! let keys = KeySet::from_seed(7);
//! let image = Transformer::new(keys).transform(&module)?;
//! assert!(image.report.blocks >= 2);
//! assert_eq!(image.text_bytes() % 32, 0); // whole 8-word blocks
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

//!
//! [`Module`]: sofia_isa::asm::Module

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod chain;
pub mod decode;
mod error;
pub mod fipac;
mod format;
mod image;
mod lower;
mod mux;
mod pack;
mod seal;
pub mod sponge;

pub use decode::DecodeError;
pub use error::TransformError;
pub use fipac::{install_fipac, FipacImage};
pub use format::{BlockFormat, BlockKind, MAX_BLOCK_WORDS, RESET_PREV_PC, UNREACHABLE_PREV_PC};
pub use image::{SecureImage, TransformReport};
pub use seal::SealPlan;
pub use sponge::{seal_sponge, SpongeImage};

use sofia_crypto::{KeySet, Nonce};
use sofia_isa::asm::{Module, DEFAULT_RAM_SIZE};

/// The nonce ω of an installer that is given none.
const DEFAULT_NONCE: Nonce = Nonce::new(1);

/// The secure installer: holds device keys and installation parameters.
///
/// # Examples
///
/// ```
/// use sofia_crypto::{KeySet, Nonce};
/// use sofia_transform::{BlockFormat, Transformer};
///
/// let t = Transformer::new(KeySet::from_seed(1))
///     .with_nonce(Nonce::new(42))
///     .with_format(BlockFormat::exec4());
/// # let _ = t;
/// ```
#[derive(Clone, Debug)]
pub struct Transformer {
    keys: KeySet,
    nonce: Nonce,
    format: BlockFormat,
}

impl Transformer {
    /// Creates an installer with the given device keys, nonce ω = 1 and
    /// the paper's default 8-word block format, for a target with the
    /// machines' default data RAM ([`DEFAULT_RAM_SIZE`]); a target with
    /// another RAM size seals through [`SealPlan::new`].
    pub fn new(keys: KeySet) -> Transformer {
        Transformer {
            keys,
            nonce: DEFAULT_NONCE,
            format: BlockFormat::default(),
        }
    }

    /// Sets the per-program nonce ω (must be unique per program/version).
    pub fn with_nonce(mut self, nonce: Nonce) -> Transformer {
        self.nonce = nonce;
        self
    }

    /// Selects a block geometry.
    pub fn with_format(mut self, format: BlockFormat) -> Transformer {
        self.format = format;
        self
    }

    /// The block geometry this installer uses.
    pub fn format(&self) -> BlockFormat {
        self.format
    }

    /// Securely installs a module: [`SealPlan::new`] (lower → analyse →
    /// pack → trees → resolve), then [`SealPlan::seal`] under this
    /// installer's keys and nonce.
    ///
    /// # Errors
    ///
    /// Rejects programs whose control flow cannot be modelled precisely
    /// (undeclared indirect transfers, transfers into data, fall-off-end),
    /// programs whose layout violates encoding ranges and data sections
    /// larger than the default RAM; see [`TransformError`].
    pub fn transform(&self, module: &Module) -> Result<SecureImage, TransformError> {
        let plan = SealPlan::new(module, self.format, DEFAULT_RAM_SIZE)?;
        Ok(plan.seal(&self.keys, self.nonce))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_crypto::{ctr, mac, CounterBlock, Mac64};
    use sofia_isa::asm;
    use sofia_isa::Instruction;

    fn install(src: &str) -> SecureImage {
        let module = asm::parse(src).unwrap();
        Transformer::new(KeySet::from_seed(0xBEEF))
            .transform(&module)
            .unwrap()
    }

    /// Decrypts an exec block at block index `bi` by walking the same
    /// counter chain the hardware uses, returning its plain words.
    fn decrypt_exec_block(
        img: &SecureImage,
        keys: &KeySet,
        bi: usize,
        entry_prev: u32,
    ) -> Vec<u32> {
        let ks = keys.expand();
        let bw = img.format.block_words();
        let base = img.text_base + (bi * img.format.block_bytes() as usize) as u32;
        let mut out = Vec::new();
        let mut prev = entry_prev;
        for w in 0..bw {
            let pc = base + 4 * w as u32;
            let c = img.ctext[bi * bw + w];
            out.push(ctr::apply(
                &ks.ctr,
                CounterBlock::from_edge(img.nonce, prev, pc),
                c,
            ));
            prev = pc;
        }
        out
    }

    #[test]
    fn entry_block_decrypts_and_verifies() {
        let keys = KeySet::from_seed(0xBEEF);
        let img = install("main: addi t0, zero, 7\n halt");
        assert_eq!(img.entry, img.text_base); // single-pred entry: exec base
        let words = decrypt_exec_block(&img, &keys, 0, RESET_PREV_PC);
        // words = [M1, M2, i1..i6]
        let insts = &words[2..];
        assert_eq!(
            Instruction::decode(insts[0]).unwrap(),
            Instruction::Addi {
                rt: sofia_isa::Reg::T0,
                rs: sofia_isa::Reg::ZERO,
                imm: 7
            }
        );
        assert_eq!(Instruction::decode(insts[5]).unwrap(), Instruction::Halt);
        // MAC check (k2 domain, padded to 6 words)
        let m = mac::mac_words(&keys.expand().mac_exec, insts, 6);
        assert_eq!(Mac64::from_words(words[0], words[1]), m);
    }

    #[test]
    fn wrong_prev_pc_breaks_decryption() {
        let keys = KeySet::from_seed(0xBEEF);
        let img = install("main: addi t0, zero, 7\n halt");
        let words = decrypt_exec_block(&img, &keys, 0, 0x44); // wrong edge
        let insts = &words[2..];
        // Even if a garbled word happened to decode, the MAC cannot match.
        let m = mac::mac_words(&keys.expand().mac_exec, insts, 6);
        assert_ne!(Mac64::from_words(words[0], words[1]), m);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let module = asm::parse("main: addi t0, zero, 7\n halt").unwrap();
        let plain = module.layout(&asm::LayoutOptions::default()).unwrap();
        let img = Transformer::new(KeySet::from_seed(1))
            .transform(&module)
            .unwrap();
        // No plaintext instruction word survives in the ciphertext at the
        // corresponding position.
        assert!(img
            .ctext
            .iter()
            .zip(plain.words.iter())
            .all(|(c, p)| c != p));
    }

    #[test]
    fn different_nonce_different_image() {
        let module = asm::parse("main: halt").unwrap();
        let keys = KeySet::from_seed(5);
        let a = Transformer::new(keys.clone())
            .with_nonce(Nonce::new(1))
            .transform(&module)
            .unwrap();
        let b = Transformer::new(keys)
            .with_nonce(Nonce::new(2))
            .transform(&module)
            .unwrap();
        assert_ne!(a.ctext, b.ctext);
    }

    #[test]
    fn expansion_for_loops_exceeds_base_ratio() {
        // 8 words carry 6 instructions → ≥ 1.33× even for straight line;
        // loops add mux blocks and trampolines.
        let img = install(
            "main: li t0, 10
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt",
        );
        assert!(img.report.expansion() > 1.33);
        assert!(img.report.mux_blocks >= 1);
    }

    #[test]
    fn empty_program_rejected() {
        let module = asm::parse("").unwrap();
        assert!(matches!(
            Transformer::new(KeySet::from_seed(1)).transform(&module),
            Err(TransformError::EmptyProgram)
        ));
    }

    #[test]
    fn undeclared_indirect_rejected() {
        let module = asm::parse("main: jalr t0\n halt").unwrap();
        assert!(matches!(
            Transformer::new(KeySet::from_seed(1)).transform(&module),
            Err(TransformError::Cfg(_))
        ));
    }

    #[test]
    fn text_base_is_block_aligned_and_entry_inside() {
        let img = install("main: halt");
        assert_eq!(img.text_base % img.format.block_bytes(), 0);
        assert!(img.entry >= img.text_base);
        assert!(img.entry < img.text_base + img.text_bytes() as u32);
    }

    #[test]
    fn mux_entry_block_when_main_is_loop_target() {
        // main is both the reset entry and a branch target → mux entry.
        let img = install(
            "main: subi t0, t0, 1
                   bnez t0, main
                   halt",
        );
        // Reset edge is entry path 1 → call-site offset 4.
        assert_eq!(img.entry % img.format.block_bytes(), 4);
    }

    #[test]
    fn data_and_symbols_preserved() {
        let img = install(
            ".data
             tbl: .word 5, 6
             .text
             main: la a0, tbl
                   lw t0, 0(a0)
                   halt",
        );
        assert_eq!(&img.data[0..4], &5u32.to_le_bytes());
        assert!(img.symbols.contains_key("tbl"));
        assert!(img.symbols.contains_key("main"));
    }
}
