//! The bare-metal memory map: program ROM, data RAM and the MMIO page.
//!
//! ```text
//! 0x0000_0100 … : program ROM (text; execute + read, word-granular)
//! 0x1000_0000 … : data RAM (default 1 MiB; sp starts at the top)
//! 0xFFFF_0000 … : MMIO page (output ports, actuator)
//! ```
//!
//! Everything is little-endian. Stores into ROM trap ([`Trap::WriteToRom`]):
//! the paper's adversary tampers with the *stored image*, not via store
//! instructions, and safety-critical firmware does not self-modify.
//!
//! RAM is sparse: a table of [`RAM_PAGE`]-byte pages, each allocated on
//! its first write. An absent page reads as zero, so a machine costs its
//! page table plus the pages it has touched, not its configured size.

use crate::Trap;

/// Base of the MMIO page.
pub const MMIO_BASE: u32 = 0xFFFF_0000;
/// Word-output port: each `sw` here appends one `u32` to the output log.
pub const MMIO_OUT_WORD: u32 = 0xFFFF_0000;
/// Byte-output port: each `sb` here appends one byte.
pub const MMIO_OUT_BYTE: u32 = 0xFFFF_0004;
/// The "actuator" port standing in for a safety-critical peripheral
/// (brakes, valves, …): the port SOFIA must protect from tampered stores.
pub const MMIO_ACTUATOR: u32 = 0xFFFF_0010;

/// RAM page size in bytes. Page `i` covers RAM offsets
/// `i * RAM_PAGE .. (i + 1) * RAM_PAGE`; the last page is short when the
/// RAM size is not a multiple of it. Aligned accesses of at most four
/// bytes never straddle a page.
pub const RAM_PAGE: usize = 1024;

type Page = Box<[u8; RAM_PAGE]>;

/// Access width for loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// One byte.
    Byte,
    /// Two bytes, 2-aligned.
    Half,
    /// Four bytes, 4-aligned.
    Word,
}

impl Width {
    /// The access size in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }
}

/// Memory-mapped I/O state: everything the program sent to the outside
/// world, preserved for the test harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Mmio {
    /// Words written to [`MMIO_OUT_WORD`].
    pub out_words: Vec<u32>,
    /// Bytes written to [`MMIO_OUT_BYTE`].
    pub out_bytes: Vec<u8>,
    /// Values written to the safety-critical [`MMIO_ACTUATOR`] port.
    pub actuator_writes: Vec<u32>,
}

/// The machine's physical memory.
///
/// # Examples
///
/// ```
/// use sofia_cpu::mem::{Memory, Width};
///
/// let mut mem = Memory::new(0x100, vec![0x0000_000D], 0x1000_0000, 4096);
/// assert_eq!(mem.resident_pages(), 0);
/// mem.store(0x1000_0000, Width::Word, 0xDEAD_BEEF)?;
/// assert_eq!(mem.load(0x1000_0000, Width::Word)?, 0xDEAD_BEEF);
/// assert_eq!(mem.load(0x1000_0000, Width::Byte)?, 0xEF); // little-endian
/// assert_eq!(mem.load(0x1000_0800, Width::Word)?, 0); // never written
/// assert_eq!(mem.resident_pages(), 1);
/// # Ok::<(), sofia_cpu::Trap>(())
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    rom_base: u32,
    rom: Vec<u32>,
    ram_base: u32,
    ram_size: u32,
    /// One slot per page; `None` until the page is first written.
    pages: Vec<Option<Page>>,
    /// I/O side effects, readable by the harness.
    pub mmio: Mmio,
}

impl Memory {
    /// Creates a memory with the given ROM contents and an all-zero RAM
    /// of `ram_size` bytes (no page resident yet).
    ///
    /// # Panics
    ///
    /// Panics if the bases are not word-aligned.
    pub fn new(rom_base: u32, rom: Vec<u32>, ram_base: u32, ram_size: u32) -> Memory {
        assert!(rom_base % 4 == 0 && ram_base % 4 == 0, "unaligned base");
        Memory {
            rom_base,
            rom,
            ram_base,
            ram_size,
            pages: vec![None; (ram_size as usize).div_ceil(RAM_PAGE)],
            mmio: Mmio::default(),
        }
    }

    /// Base address of the ROM.
    pub fn rom_base(&self) -> u32 {
        self.rom_base
    }

    /// The ROM contents (one encrypted or plain word per text word).
    pub fn rom(&self) -> &[u32] {
        &self.rom
    }

    /// Mutable ROM access — **for the attack harness only**, modelling an
    /// adversary who tampers with the stored image (flash/JTAG access).
    pub fn rom_mut(&mut self) -> &mut Vec<u32> {
        &mut self.rom
    }

    /// Base address of the RAM.
    pub fn ram_base(&self) -> u32 {
        self.ram_base
    }

    /// RAM size in bytes.
    pub fn ram_size(&self) -> u32 {
        self.ram_size
    }

    /// Pages allocated so far (each written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Length of page `idx`, or `None` past the end of RAM.
    fn page_len(&self, idx: u32) -> Option<usize> {
        let start = (idx as usize).checked_mul(RAM_PAGE)?;
        (start < self.ram_size as usize).then(|| (self.ram_size as usize - start).min(RAM_PAGE))
    }

    /// Copies `bytes` into RAM at `addr` (used by the loader to initialise
    /// the data section). Every page the range covers becomes resident.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside RAM.
    pub fn load_ram(&mut self, addr: u32, bytes: &[u8]) {
        let start = (addr - self.ram_base) as usize;
        assert!(
            start + bytes.len() <= self.ram_size as usize,
            "load outside RAM"
        );
        let (mut off, mut rest) = (start, bytes);
        while !rest.is_empty() {
            let within = off % RAM_PAGE;
            let n = rest.len().min(RAM_PAGE - within);
            self.page_mut(off / RAM_PAGE)[within..within + n].copy_from_slice(&rest[..n]);
            off += n;
            rest = &rest[n..];
        }
    }

    /// The resident pages, ascending, as `(page index, bytes)`; the last
    /// page is cut to the RAM size. Absent pages are all zero.
    pub fn ram_pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.pages.iter().enumerate().filter_map(|(idx, page)| {
            let len = self.page_len(idx as u32)?;
            page.as_ref().map(|p| (idx as u32, &p[..len]))
        })
    }

    /// Replaces the whole RAM: `pages` become resident, every other page
    /// is absent (zero). Used to restore a suspended machine.
    ///
    /// # Errors
    ///
    /// The index of the first page that is past the end of RAM, is not
    /// strictly above its predecessor, or whose length is not the page's
    /// (`RAM_PAGE`, or less for a short last page). RAM is left unchanged.
    pub fn set_ram_pages(&mut self, pages: &[(u32, Vec<u8>)]) -> Result<(), u32> {
        let mut prev = None;
        for (idx, bytes) in pages {
            if prev.is_some_and(|p| *idx <= p) || self.page_len(*idx) != Some(bytes.len()) {
                return Err(*idx);
            }
            prev = Some(*idx);
        }
        self.pages.fill(None);
        for (idx, bytes) in pages {
            self.page_mut(*idx as usize)[..bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Reads `len` bytes of raw RAM for the harness.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside RAM.
    pub fn peek_ram(&self, addr: u32, len: usize) -> Vec<u8> {
        let start = (addr - self.ram_base) as usize;
        assert!(start + len <= self.ram_size as usize, "peek outside RAM");
        (start..start + len)
            .map(|off| {
                self.pages[off / RAM_PAGE]
                    .as_ref()
                    .map_or(0, |p| p[off % RAM_PAGE])
            })
            .collect()
    }

    fn page_mut(&mut self, idx: usize) -> &mut [u8; RAM_PAGE] {
        self.pages[idx].get_or_insert_with(|| Box::new([0; RAM_PAGE]))
    }

    /// Fetches one instruction word.
    ///
    /// # Errors
    ///
    /// [`Trap::FetchFault`] when `addr` is unaligned or outside the ROM.
    pub fn fetch(&self, addr: u32) -> Result<u32, Trap> {
        if addr % 4 != 0 {
            return Err(Trap::FetchFault { addr });
        }
        let idx = addr.wrapping_sub(self.rom_base) / 4;
        self.rom
            .get(idx as usize)
            .copied()
            .filter(|_| addr >= self.rom_base)
            .ok_or(Trap::FetchFault { addr })
    }

    /// Loads a zero-extended value of the given width.
    ///
    /// ROM is readable (constant tables may live in text on real systems);
    /// MMIO reads return 0.
    ///
    /// # Errors
    ///
    /// [`Trap::Misaligned`] or [`Trap::LoadFault`].
    pub fn load(&self, addr: u32, width: Width) -> Result<u32, Trap> {
        if addr % width.bytes() != 0 {
            return Err(Trap::Misaligned { addr });
        }
        if addr >= MMIO_BASE {
            return Ok(0);
        }
        if let Some(offset) = self.ram_offset(addr, width) {
            let Some(page) = &self.pages[offset / RAM_PAGE] else {
                return Ok(0);
            };
            let b = &page[offset % RAM_PAGE..];
            return Ok(match width {
                Width::Byte => b[0] as u32,
                Width::Half => u16::from_le_bytes([b[0], b[1]]) as u32,
                Width::Word => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            });
        }
        // ROM reads, assembled little-endian from words.
        if addr >= self.rom_base {
            let off = (addr - self.rom_base) as usize;
            let word_idx = off / 4;
            if word_idx < self.rom.len() {
                let bytes = self.rom[word_idx].to_le_bytes();
                let in_word = off % 4;
                return Ok(match width {
                    Width::Byte => bytes[in_word] as u32,
                    Width::Half => u16::from_le_bytes([bytes[in_word], bytes[in_word + 1]]) as u32,
                    Width::Word => self.rom[word_idx],
                });
            }
        }
        Err(Trap::LoadFault { addr })
    }

    /// Stores the low `width` bytes of `value`.
    ///
    /// # Errors
    ///
    /// [`Trap::Misaligned`], [`Trap::WriteToRom`] or [`Trap::StoreFault`].
    pub fn store(&mut self, addr: u32, width: Width, value: u32) -> Result<(), Trap> {
        if addr % width.bytes() != 0 {
            return Err(Trap::Misaligned { addr });
        }
        if addr >= MMIO_BASE {
            match addr {
                MMIO_OUT_WORD => self.mmio.out_words.push(value),
                MMIO_OUT_BYTE => self.mmio.out_bytes.push(value as u8),
                MMIO_ACTUATOR => self.mmio.actuator_writes.push(value),
                _ => return Err(Trap::StoreFault { addr }),
            }
            return Ok(());
        }
        if let Some(offset) = self.ram_offset(addr, width) {
            let b = &mut self.page_mut(offset / RAM_PAGE)[offset % RAM_PAGE..];
            match width {
                Width::Byte => b[0] = value as u8,
                Width::Half => b[..2].copy_from_slice(&(value as u16).to_le_bytes()),
                Width::Word => b[..4].copy_from_slice(&value.to_le_bytes()),
            }
            return Ok(());
        }
        if addr >= self.rom_base && ((addr - self.rom_base) / 4) < self.rom.len() as u32 {
            return Err(Trap::WriteToRom { addr });
        }
        Err(Trap::StoreFault { addr })
    }

    fn ram_offset(&self, addr: u32, width: Width) -> Option<usize> {
        let end = self.ram_base as u64 + self.ram_size as u64;
        let range = addr as u64..addr as u64 + width.bytes() as u64;
        if range.start >= self.ram_base as u64 && range.end <= end {
            Some((addr - self.ram_base) as usize)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x100, vec![0x1111_2222, 0x3333_4444], 0x1000_0000, 64)
    }

    #[test]
    fn fetch_in_and_out_of_rom() {
        let m = mem();
        assert_eq!(m.fetch(0x100).unwrap(), 0x1111_2222);
        assert_eq!(m.fetch(0x104).unwrap(), 0x3333_4444);
        assert_eq!(m.fetch(0x108), Err(Trap::FetchFault { addr: 0x108 }));
        assert_eq!(m.fetch(0xFC), Err(Trap::FetchFault { addr: 0xFC }));
        assert_eq!(m.fetch(0x102), Err(Trap::FetchFault { addr: 0x102 }));
    }

    #[test]
    fn ram_rw_little_endian() {
        let mut m = mem();
        m.store(0x1000_0000, Width::Word, 0x0102_0304).unwrap();
        assert_eq!(m.load(0x1000_0000, Width::Byte).unwrap(), 0x04);
        assert_eq!(m.load(0x1000_0001, Width::Byte).unwrap(), 0x03);
        assert_eq!(m.load(0x1000_0000, Width::Half).unwrap(), 0x0304);
        assert_eq!(m.load(0x1000_0002, Width::Half).unwrap(), 0x0102);
        m.store(0x1000_0001, Width::Byte, 0xFF).unwrap();
        assert_eq!(m.load(0x1000_0000, Width::Word).unwrap(), 0x0102_FF04);
    }

    #[test]
    fn rom_is_readable_but_not_writable() {
        let mut m = mem();
        assert_eq!(m.load(0x100, Width::Word).unwrap(), 0x1111_2222);
        assert_eq!(m.load(0x104, Width::Byte).unwrap(), 0x44);
        assert_eq!(
            m.store(0x100, Width::Word, 0),
            Err(Trap::WriteToRom { addr: 0x100 })
        );
    }

    #[test]
    fn bounds_and_alignment() {
        let mut m = mem();
        assert_eq!(
            m.load(0x1000_0041, Width::Byte),
            Err(Trap::LoadFault { addr: 0x1000_0041 })
        );
        // word access straddling the RAM end
        assert_eq!(
            m.load(0x1000_003E, Width::Word),
            Err(Trap::Misaligned { addr: 0x1000_003E })
        );
        assert_eq!(
            m.store(0x1000_003E, Width::Word, 0),
            Err(Trap::Misaligned { addr: 0x1000_003E })
        );
        assert_eq!(
            m.load(0x1000_0001, Width::Word),
            Err(Trap::Misaligned { addr: 0x1000_0001 })
        );
        assert_eq!(
            m.load(0x2000_0000, Width::Word),
            Err(Trap::LoadFault { addr: 0x2000_0000 })
        );
    }

    #[test]
    fn mmio_ports_log_writes() {
        let mut m = mem();
        m.store(MMIO_OUT_WORD, Width::Word, 7).unwrap();
        m.store(MMIO_OUT_BYTE, Width::Byte, b'x' as u32).unwrap();
        m.store(MMIO_ACTUATOR, Width::Word, 0xBAD).unwrap();
        assert_eq!(m.mmio.out_words, vec![7]);
        assert_eq!(m.mmio.out_bytes, vec![b'x']);
        assert_eq!(m.mmio.actuator_writes, vec![0xBAD]);
        // unmapped MMIO address
        assert!(m.store(0xFFFF_0100, Width::Word, 0).is_err());
        // MMIO reads are zero
        assert_eq!(m.load(MMIO_OUT_WORD, Width::Word).unwrap(), 0);
    }

    #[test]
    fn loader_roundtrip() {
        let mut m = mem();
        m.load_ram(0x1000_0010, &[1, 2, 3, 4]);
        assert_eq!(m.peek_ram(0x1000_0010, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.load(0x1000_0010, Width::Word).unwrap(), 0x0403_0201);
    }

    #[test]
    fn pages_become_resident_on_first_write_only() {
        let mut m = Memory::new(0x100, vec![], 0x1000_0000, 5000);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.load(0x1000_1000, Width::Word), Ok(0));
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
        // A zero-valued store still allocates; a faulting one does not.
        m.store(0x1000_1384, Width::Word, 0).unwrap();
        assert!(m.store(0x1000_1388, Width::Word, 0).is_err());
        assert_eq!(m.resident_pages(), 1);
        // A load spanning a page boundary makes both pages resident.
        m.load_ram(0x1000_03FE, &[7, 8, 9]);
        let pages: Vec<(u32, usize)> = m.ram_pages().map(|(i, b)| (i, b.len())).collect();
        assert_eq!(pages, vec![(0, 1024), (1, 1024), (4, 904)]);
        assert_eq!(m.peek_ram(0x1000_03FE, 3), vec![7, 8, 9]);
    }

    #[test]
    fn set_ram_pages_replaces_the_whole_ram() {
        let mut m = Memory::new(0x100, vec![], 0x1000_0000, 5000);
        m.store(0x1000_0000, Width::Word, 0xAABB_CCDD).unwrap();
        m.set_ram_pages(&[(4, vec![3; 904])]).unwrap();
        assert_eq!(m.load(0x1000_0000, Width::Word), Ok(0));
        assert_eq!(m.load(0x1000_1384, Width::Word), Ok(0x0303_0303));
        assert_eq!(m.resident_pages(), 1);
    }
}
