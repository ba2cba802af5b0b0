//! Sparse RAM ≡ flat RAM: random sequences of loads, stores and loader
//! copies run against [`Memory`] (a page table, pages allocated on first
//! write) and against a flat `Vec<u8>` reference model kept here. Every
//! access must return the same value or the same trap, and the final RAM
//! and MMIO logs must match byte for byte.

use proptest::prelude::*;
use sofia_cpu::mem::{
    Memory, Mmio, Width, MMIO_ACTUATOR, MMIO_BASE, MMIO_OUT_BYTE, MMIO_OUT_WORD, RAM_PAGE,
};
use sofia_cpu::Trap;

const ROM_BASE: u32 = 0x100;
const ROM: [u32; 8] = [
    0x1111_2222,
    0x3333_4444,
    0x5555_6666,
    0x7777_8888,
    0x9999_AAAA,
    0xBBBB_CCCC,
    0xDDDD_EEEE,
    0xFFFF_0000,
];
const RAM_BASE: u32 = 0x1000_0000;
/// Not a multiple of the page size: the last page is short (904 bytes).
const RAM_SIZE: u32 = 5000;

/// The memory model as it was before RAM became sparse: one flat,
/// zero-initialised byte vector.
struct FlatMemory {
    ram: Vec<u8>,
    mmio: Mmio,
}

impl FlatMemory {
    fn new() -> FlatMemory {
        FlatMemory {
            ram: vec![0; RAM_SIZE as usize],
            mmio: Mmio::default(),
        }
    }

    fn ram_offset(addr: u32, width: Width) -> Option<usize> {
        let end = RAM_BASE as u64 + RAM_SIZE as u64;
        (addr >= RAM_BASE && addr as u64 + width.bytes() as u64 <= end)
            .then(|| (addr - RAM_BASE) as usize)
    }

    fn load(&self, addr: u32, width: Width) -> Result<u32, Trap> {
        if addr % width.bytes() != 0 {
            return Err(Trap::Misaligned { addr });
        }
        if addr >= MMIO_BASE {
            return Ok(0);
        }
        let bytes = if let Some(off) = Self::ram_offset(addr, width) {
            &self.ram[off..]
        } else if addr >= ROM_BASE && ((addr - ROM_BASE) / 4) < ROM.len() as u32 {
            let off = (addr - ROM_BASE) as usize;
            &ROM[off / 4].to_le_bytes()[off % 4..]
        } else {
            return Err(Trap::LoadFault { addr });
        };
        let mut word = [0u8; 4];
        word[..width.bytes() as usize].copy_from_slice(&bytes[..width.bytes() as usize]);
        Ok(u32::from_le_bytes(word))
    }

    fn store(&mut self, addr: u32, width: Width, value: u32) -> Result<(), Trap> {
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
        if let Some(off) = Self::ram_offset(addr, width) {
            let n = width.bytes() as usize;
            self.ram[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
            return Ok(());
        }
        if addr >= ROM_BASE && ((addr - ROM_BASE) / 4) < ROM.len() as u32 {
            return Err(Trap::WriteToRom { addr });
        }
        Err(Trap::StoreFault { addr })
    }

    fn load_ram(&mut self, addr: u32, bytes: &[u8]) {
        let start = (addr - RAM_BASE) as usize;
        self.ram[start..start + bytes.len()].copy_from_slice(bytes);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Load(u32, Width),
    Store(u32, Width, u32),
    LoadRam(u32, Vec<u8>),
}

fn width() -> impl Strategy<Value = Width> {
    (0usize..3).prop_map(|i| [Width::Byte, Width::Half, Width::Word][i])
}

/// Addresses from every region the map distinguishes, misaligned ones
/// included: RAM and a little either side of it, the page boundaries,
/// ROM and either side of it, the MMIO page, and anywhere at all.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..RAM_SIZE + 16).prop_map(|off| RAM_BASE - 8 + off),
        (1u32..5, 0u32..8).prop_map(|(page, d)| RAM_BASE + page * RAM_PAGE as u32 - 4 + d),
        (0u32..ROM.len() as u32 * 4 + 16).prop_map(|off| ROM_BASE - 8 + off),
        (0u32..0x20).prop_map(|off| MMIO_BASE + off),
        Just(0xFFFF_0100u32),
        any::<u32>(),
    ]
}

/// Half the stored values are zero: a zero store must still read back
/// as written (and may allocate a page that stays all zero).
fn value() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), any::<u32>()]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), width()).prop_map(|(a, w)| Op::Load(a, w)),
        (addr(), width(), value()).prop_map(|(a, w, v)| Op::Store(a, w, v)),
        (
            0u32..RAM_SIZE,
            proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..1500),
        )
            .prop_map(|(off, mut bytes)| {
                bytes.truncate((RAM_SIZE - off) as usize);
                Op::LoadRam(RAM_BASE + off, bytes)
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_ram_matches_a_flat_byte_vector(ops in proptest::collection::vec(op(), 1..120)) {
        let mut sparse = Memory::new(ROM_BASE, ROM.to_vec(), RAM_BASE, RAM_SIZE);
        let mut flat = FlatMemory::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Load(a, w) => {
                    let (got, want) = (sparse.load(*a, *w), flat.load(*a, *w));
                    prop_assert!(got == want, "op {} {:?}: {:?} != {:?}", i, op, got, want);
                }
                Op::Store(a, w, v) => {
                    let (got, want) = (sparse.store(*a, *w, *v), flat.store(*a, *w, *v));
                    prop_assert!(got == want, "op {} {:?}: {:?} != {:?}", i, op, got, want);
                }
                Op::LoadRam(a, bytes) => {
                    sparse.load_ram(*a, bytes);
                    flat.load_ram(*a, bytes);
                }
            }
        }
        prop_assert_eq!(sparse.peek_ram(RAM_BASE, RAM_SIZE as usize), flat.ram.clone());
        prop_assert_eq!(&sparse.mmio, &flat.mmio);
        // Every page holding a non-zero byte is resident, and the pages
        // the memory reports are exactly the flat model's bytes.
        for (idx, bytes) in sparse.ram_pages() {
            let start = idx as usize * RAM_PAGE;
            prop_assert_eq!(bytes, &flat.ram[start..start + bytes.len()]);
        }
        let nonzero = flat.ram.chunks(RAM_PAGE).filter(|p| p.iter().any(|&b| b != 0)).count();
        prop_assert!(sparse.resident_pages() >= nonzero);
        prop_assert!(sparse.resident_pages() <= 5);
    }
}
