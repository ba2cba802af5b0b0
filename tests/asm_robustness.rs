//! The assembler is a text front-end for untrusted tenant programs, so it
//! must refuse malformed text with an error and never unwind: every
//! `Scale::Test` source under random byte substitutions, insertions and
//! deletions, and a few hand-picked truncations and oversized
//! directives, goes through `asm::parse` and `asm::assemble` (and the
//! sealer, for the directives) and must come back `Ok` or `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sofia::crypto::KeySet;
use sofia::isa::asm;
use sofia::transform::cache::ImageCache;
use sofia_workloads::{suite, Scale};

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
