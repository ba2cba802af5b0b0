//! The assembler is a text front-end for untrusted tenant programs, so it
//! must refuse malformed text with an error and never unwind: every
//! `Scale::Test` source under random byte substitutions, insertions and
//! deletions, and a few hand-picked truncations and oversized
//! directives, goes through `asm::parse` and `asm::assemble` (and the
//! sealer, for the directives) and must come back `Ok` or `Err`. The
//! sealer refuses a data section larger than its target's RAM before
//! allocating it; this suite's allocator records the largest request to
//! check that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sofia::crypto::KeySet;
use sofia::isa::asm;
use sofia::transform::cache::{ImageCache, SealError};
use sofia::transform::TransformError;
use sofia_workloads::{suite, Scale};

/// The system allocator, recording the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Far above anything a refused seal may allocate, far below the
/// sections these tests ask for. Other tests of this suite run
/// concurrently, and none allocates this much either.
const ALLOCATION_BOUND: usize = 16 << 20;

/// Parses and assembles `src`, reporting a panic as an error message
/// naming the input.
fn never_unwinds(src: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = asm::parse(src);
        let _ = asm::assemble(src);
    }))
    .map_err(|_| format!("the assembler panicked on {src:?}"))
}

/// Applies one edit to `bytes`: `kind` 0 substitutes, 1 inserts and 2
/// deletes the byte at `pos` (modulo the length).
fn mutate(bytes: &mut Vec<u8>, (kind, pos, byte): (u8, u64, u8)) {
    let at = |len: usize| (pos % len.max(1) as u64) as usize;
    match kind {
        0 if !bytes.is_empty() => {
            let i = at(bytes.len());
            bytes[i] = byte;
        }
        1 => {
            let i = at(bytes.len() + 1);
            bytes.insert(i, byte);
        }
        _ if !bytes.is_empty() => {
            let i = at(bytes.len());
            bytes.remove(i);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One to three random byte edits of a working program.
    #[test]
    fn mutated_sources_never_unwind(
        workload in 0usize..64,
        edits in proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..4),
    ) {
        let sources = suite(Scale::Test);
        let mut bytes = sources[workload % sources.len()].source.clone().into_bytes();
        for edit in edits {
            mutate(&mut bytes, edit);
        }
        let src = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(never_unwinds(&src), Ok(()));
    }
}

/// `src` returns from the assembler, and both `asm::parse` and
/// `asm::assemble` refuse it, the parser naming `line`.
fn refused_at(src: &str, line: usize) {
    never_unwinds(src).unwrap();
    let Err(err) = asm::parse(src) else {
        panic!("{src:?} parsed");
    };
    assert_eq!(err.line, line, "{src:?}: {err}");
    assert!(asm::assemble(src).is_err(), "{src:?} assembled");
}

#[test]
fn truncated_operands_are_errors() {
    for line in [
        "li t0, 0x",
        "lw t0, 4(",
        "lw t0, (",
        "beq t0, t1,",
        "jal",
        "addi t0, t0",
    ] {
        refused_at(&format!("main: {line}\n halt"), 1);
    }
    for directive in [".str \"abc", ".strz \"a\\", ".word", ".align 3", ".space"] {
        refused_at(&format!("main: halt\n.data\n{directive}"), 3);
    }
}

/// `.space`/`.align` that carry the data section past the end of the
/// address space are refused by layout (assembler and sealer alike),
/// before any of it is allocated.
#[test]
fn oversized_data_sections_are_errors() {
    let cache = ImageCache::new();
    let keys = KeySet::from_seed(0xA5);
    for data in [
        ".space 0xFFFFFFFF",
        ".space 0xF0000000\n.byte 1",
        ".space 0x7FFFFFFF\n.space 0x7FFFFFFF\n.space 0x7FFFFFFF",
        ".byte 1\n.align 0x80000000\n.byte 1\n.align 0x80000000",
    ] {
        let src = format!("main: halt\n.data\n{data}");
        never_unwinds(&src).unwrap();
        assert!(asm::parse(&src).is_ok(), "{src:?} is well-formed text");
        assert!(asm::assemble(&src).is_err(), "{src:?} assembled");
        assert!(cache.get_or_seal(&keys, &src).is_err(), "{src:?} sealed");
    }
}

/// Seals `src` through a cache at the default 1 MiB of RAM, and checks
/// that no single allocation meanwhile came near [`ALLOCATION_BOUND`].
fn seal_bounded(src: &str) -> Result<(), SealError> {
    let sealed = ImageCache::new().get_or_seal(&KeySet::from_seed(0xA5), src);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < ALLOCATION_BOUND,
        "{src:?}: allocated {largest} bytes"
    );
    sealed.map(drop)
}

/// A data section that fits the address space but not the target's RAM
/// is a typed seal error, returned before the section is allocated: 1 GiB
/// and 2 MiB both exceed the default 1 MiB RAM.
#[test]
fn data_sections_larger_than_ram_are_refused_unallocated() {
    for (space, bytes) in [("0x40000000", 1 << 30), ("0x200000", 2 << 20)] {
        let src = format!("main: halt\n.data\n.space {space}");
        let err = seal_bounded(&src).unwrap_err();
        let want = TransformError::DataTooLarge {
            bytes,
            ram_size: 1 << 20,
        };
        assert_eq!(err, SealError::Transform(want), "{src:?}");
    }
    assert!(seal_bounded("main: halt\n.data\n.space 0x100000").is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `.space` and `.align` drawn up to `u32::MAX` seal or are refused,
    /// and never allocate more than the bound on the way.
    #[test]
    fn drawn_size_directives_never_allocate_past_the_bound(
        space in any::<u32>(),
        align_log2 in 0u32..32,
        small in any::<bool>(),
    ) {
        let space = if small { space % (2 << 20) } else { space };
        let align = 1u64 << align_log2;
        let src = format!("main: halt\n.data\n.byte 1\n.align {align}\n.space {space}");
        // `.byte 1` ends at 1, so the aligned space starts at `align`.
        let fits = align + u64::from(space) <= 1 << 20;
        prop_assert!(seal_bounded(&src).is_ok() == fits, "{src:?}: fits {fits}");
    }
}
