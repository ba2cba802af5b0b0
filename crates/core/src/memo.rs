//! The refill memo: a host-only memo of verified refills, so the
//! simulator pays the cipher once per distinct `(edge, ciphertext)`.
//!
//! A refill — [`crate::fetch::fetch_block`] plus the decoder — is a pure
//! function of the unit's fixed state (keys, nonce, format, text bounds,
//! `enforce_si`), the edge `(prevPC, PC)` and the ciphertext words the
//! path reads. The memo keys a verified line ([`CachedBlock`]) by the
//! edge and keeps the ciphertext beside it. A lookup re-reads every word
//! the line's path fetches and hits only if all of them equal the stored
//! ciphertext, so a tampered or fault-flipped word misses and takes the
//! real cipher path, where the MAC catches it. In debug builds every hit
//! is also checked against the refill it replaces.
//!
//! This is **not** the verified-block cache ([`crate::vcache`]). The
//! vcache models hardware: a hit skips the cipher's cycles, its lines
//! travel in `SOFS1` snapshots, and by design a warm line replays its
//! verified plaintext after a ROM tamper. The memo models nothing: the
//! fetch unit charges a memo hit exactly what a refill costs (timing,
//! cipher op counts, the ciphertext I-cache walk), no counter, record or
//! snapshot sees it, and a park or restore starts it empty.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use sofia_transform::{BlockFormat, MAX_BLOCK_WORDS};

use crate::fetch::VerifiedBlock;
use crate::vcache::CachedBlock;

/// Lines one memo holds. A memo that holds this many empties itself at
/// its next lookup, so it never holds more.
pub const REFILL_MEMO_LINES: usize = 256;

/// Host-side counters of a [`RefillMemo`]. They are kept apart from
/// [`crate::SofiaStats`] and never serialised.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefillMemoStats {
    /// Refills served from the memo.
    pub hits: u64,
    /// Refills that paid the cipher (stale lines included).
    pub misses: u64,
    /// Misses on an edge whose line held different ciphertext; the
    /// stale line is replaced, or dropped if the refill fails.
    pub stale: u64,
    /// Lines resident now.
    pub lines: u64,
}

#[derive(Clone, Debug)]
struct MemoLine {
    ctext: [u32; MAX_BLOCK_WORDS],
    block: CachedBlock,
}

impl MemoLine {
    fn new((block, verified): (CachedBlock, VerifiedBlock)) -> MemoLine {
        let mut ctext = [0; MAX_BLOCK_WORDS];
        let fetched = verified.ciphertext();
        ctext[..fetched.len()].copy_from_slice(fetched);
        MemoLine { ctext, block }
    }
}

/// Verified lines keyed by the edge `(prevPC, PC)`, each holding the
/// ciphertext it was verified from. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use sofia_core::fetch::fetch_block;
/// use sofia_core::memo::RefillMemo;
/// use sofia_core::vcache::CachedBlock;
/// use sofia_crypto::KeySet;
/// use sofia_isa::asm;
/// use sofia_transform::{Transformer, RESET_PREV_PC};
///
/// let keys = KeySet::from_seed(3);
/// let img = Transformer::new(keys.clone()).transform(&asm::parse("main: halt")?)?;
/// let mut rom = img.ctext.clone();
/// let word = |rom: &[u32], addr: u32| rom.get(((addr - img.text_base) / 4) as usize).copied();
/// let edge = (RESET_PREV_PC, img.entry);
/// let refill = |rom: &[u32]| {
///     let block = fetch_block(
///         &mut |a| word(rom, a), &keys.expand(), img.nonce, &img.format,
///         img.text_base, rom.len() as u32, edge.1, edge.0, true,
///     )?;
///     let last = block.last_word_addr(&img.format);
///     let line = CachedBlock::new(block.base, last, block.path, block.words_fetched, [].into());
///     Ok::<_, sofia_core::Violation>((line, block))
/// };
/// let mut memo = RefillMemo::new(img.format);
/// memo.get_or_refill(edge, |a| word(&rom, a), || refill(&rom))?;
/// memo.get_or_refill(edge, |a| word(&rom, a), || refill(&rom))?;
/// assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
/// rom[3] ^= 1; // a tampered word misses, and the refill fails its MAC
/// assert!(memo.get_or_refill(edge, |a| word(&rom, a), || refill(&rom)).is_err());
/// assert_eq!(memo.stats().stale, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct RefillMemo {
    format: BlockFormat,
    lines: HashMap<(u32, u32), MemoLine>,
    hits: u64,
    misses: u64,
    stale: u64,
}

impl RefillMemo {
    /// An empty memo for blocks of `format`. It allocates on the first
    /// insert.
    pub fn new(format: BlockFormat) -> RefillMemo {
        RefillMemo {
            format,
            lines: HashMap::new(),
            hits: 0,
            misses: 0,
            stale: 0,
        }
    }

    /// The verified line for `edge`: the resident one if every word its
    /// path fetches still reads, through `read_word`, as the ciphertext
    /// it was verified from, else the one `refill` verifies, which then
    /// takes its place. A failed refill leaves no line for `edge`.
    /// Callers' `refill` returns only lines past the MAC, the decoder and
    /// the store-position rule.
    ///
    /// # Errors
    ///
    /// `refill`'s error when a miss had to run it.
    ///
    /// # Panics
    ///
    /// In debug builds, if `refill` disagrees with a line that hit.
    pub fn get_or_refill<E: std::fmt::Debug + PartialEq>(
        &mut self,
        edge: (u32, u32),
        mut read_word: impl FnMut(u32) -> Option<u32>,
        refill: impl FnOnce() -> Result<(CachedBlock, VerifiedBlock), E>,
    ) -> Result<&CachedBlock, E> {
        if self.lines.len() >= REFILL_MEMO_LINES {
            self.lines.clear();
        }
        match self.lines.entry(edge) {
            Entry::Occupied(mut resident) => {
                let line = resident.get();
                let current = (line.block.fetched_addrs(&self.format).zip(&line.ctext))
                    .all(|(addr, &c)| read_word(addr) == Some(c));
                if current {
                    self.hits += 1;
                    let line = &resident.into_mut().block;
                    debug_assert_eq!(
                        refill().map(|(fresh, _)| fresh).as_ref(),
                        Ok(line),
                        "refill memo diverged from the cipher on edge {edge:#x?}"
                    );
                    return Ok(line);
                }
                self.stale += 1;
                self.misses += 1;
                match refill() {
                    Ok(fresh) => {
                        resident.insert(MemoLine::new(fresh));
                        Ok(&resident.into_mut().block)
                    }
                    Err(e) => {
                        resident.remove();
                        Err(e)
                    }
                }
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                Ok(&slot.insert(MemoLine::new(refill()?)).block)
            }
        }
    }

    /// Hit, miss and stale counts plus the lines resident now.
    pub fn stats(&self) -> RefillMemoStats {
        RefillMemoStats {
            hits: self.hits,
            misses: self.misses,
            stale: self.stale,
            lines: self.lines.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SofiaMachine;
    use sofia_cpu::machine::VanillaMachine;
    use sofia_crypto::KeySet;
    use sofia_isa::asm;
    use sofia_transform::{SecureImage, Transformer};

    /// A loop of `iterations` rounds over `body` straight-line `addi`s,
    /// storing the sum to the output port.
    fn counted_loop(body: usize, iterations: u32) -> String {
        let mut src = format!("main: li t0, {iterations}\n li s0, 0\n loop:");
        for i in 0..body {
            src.push_str(&format!(" addi s0, s0, {}\n", i % 7 + 1));
        }
        src.push_str(" subi t0, t0, 1\n bnez t0, loop\n li a0, 0xFFFF0000\n sw s0, 0(a0)\n halt");
        src
    }

    /// Runs `src` to halt block by block and returns the machine with
    /// the most memo lines seen after any block, checking the run
    /// against two references: vanilla for the architectural result,
    /// and a machine parked and restored after every block (so its memo
    /// is always empty and every refill pays the cipher) for every
    /// counter.
    fn run_against_references(src: &str) -> (SofiaMachine, u64) {
        let keys = KeySet::from_seed(0x3E30);
        let image: SecureImage = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        let mut m = SofiaMachine::new(&image, &keys);
        let mut cold = SofiaMachine::new(&image, &keys);
        let mut peak_lines = 0;
        while !m.is_halted() {
            let step = m.step_block().unwrap();
            assert_eq!(step, cold.step_block().unwrap());
            cold = SofiaMachine::restore(&image, &keys, &cold.snapshot(0)).unwrap();
            assert_eq!(cold.refill_memo_stats(), RefillMemoStats::default());
            peak_lines = peak_lines.max(m.refill_memo_stats().lines);
        }
        assert!(cold.is_halted());
        assert_eq!(m.stats(), cold.stats());
        assert_eq!(m.icache_stats(), cold.icache_stats());
        assert_eq!(m.regs(), cold.regs());
        let mut vm = VanillaMachine::new(&asm::assemble(src).unwrap());
        assert!(vm.run(10_000_000).unwrap().is_halted());
        assert_eq!(m.mem().mmio.out_words, vm.mem().mmio.out_words);
        (m, peak_lines)
    }

    #[test]
    fn memo_hits_charge_exactly_what_the_cipher_refill_charges() {
        let (m, peak_lines) = run_against_references(&counted_loop(5, 40));
        let s = m.refill_memo_stats();
        assert!(s.hits > 2 * s.misses, "{s:?}");
        assert_eq!(s.stale, 0);
        assert_eq!(s.hits + s.misses, m.stats().blocks);
        assert!(peak_lines < 8, "{peak_lines}");
    }

    #[test]
    fn memo_stays_within_its_cap_past_more_edges_than_lines() {
        // Each body block is one more distinct sequential edge.
        let body_blocks = REFILL_MEMO_LINES + 64;
        let (m, peak_lines) = run_against_references(&counted_loop(6 * body_blocks, 3));
        assert_eq!(peak_lines, REFILL_MEMO_LINES as u64);
        assert!(m.refill_memo_stats().lines <= REFILL_MEMO_LINES as u64);
    }
}
