//! The snapshot-encoding equivalence suite (mirrors the shape of
//! `crates/crypto/tests/bitslice_equiv.rs`): the in-memory
//! [`MachineSnapshot`] is the reference, and the `SOFS1` byte container
//! must reproduce it bit for bit over arbitrary machine states — while
//! **every** single-byte corruption and **every** truncation of the
//! container is rejected with a typed [`DecodeError`], never a panic.

use proptest::prelude::*;
use sofia_core::machine::{ResetPolicy, SofiaConfig, SofiaMachine};
use sofia_core::snapshot::{MachineSnapshot, VCacheLine, MAX_CYCLE_FIELD, RAM_PAGE};
use sofia_core::timing::{CipherSchedule, SofiaTiming};
use sofia_core::vcache::{VCacheConfig, VCacheStats};
use sofia_core::{SliceOutcome, SofiaStats, Violation};
use sofia_cpu::icache::{ICacheConfig, ICacheStats};
use sofia_cpu::machine::MachineConfig;
use sofia_cpu::mem::Mmio;
use sofia_cpu::ExecStats;
use sofia_crypto::KeySet;
use sofia_isa::asm;
use sofia_transform::decode::DecodeError;
use sofia_transform::Transformer;

/// A tiny splitmix64 so arbitrary snapshots are a pure function of one
/// proptest-supplied seed (the shim generates integers, not structs).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// An arbitrary — but structurally valid — machine snapshot: every field
/// populated from the seed, geometries drawn from valid shapes, RAM
/// pages strictly ascending, one I-cache tag per configured line.
fn arbitrary_snapshot(seed: u64) -> MachineSnapshot {
    let mut rng = Rng(seed);
    let icache_geoms = [(256u32, 32u32), (1024, 32), (4096, 64), (64, 16)];
    let (size_bytes, line_bytes) = icache_geoms[rng.below(4) as usize];
    let vcache_geoms = [
        VCacheConfig::default(),
        VCacheConfig::enabled(1, 1),
        VCacheConfig::enabled(8, 2),
        VCacheConfig::enabled(64, 4),
    ];
    let vcache = vcache_geoms[rng.below(4) as usize];
    let ram_size = [2048u32, 4096, 5000][rng.below(3) as usize];
    let config = SofiaConfig {
        machine: MachineConfig {
            ram_size,
            icache: ICacheConfig {
                size_bytes,
                line_bytes,
                miss_penalty: rng.below(20) as u32,
            },
            pipeline: sofia_cpu::pipeline::PipelineModel {
                taken_branch_penalty: rng.below(5) as u32,
                direct_jump_penalty: rng.below(5) as u32,
                indirect_jump_penalty: rng.below(5) as u32,
                load_use_penalty: rng.below(3) as u32,
                mul_cycles: 1 + rng.below(8) as u32,
                div_cycles: 1 + rng.below(40) as u32,
                drain_cycles: rng.below(8) as u32,
                data_penalty: rng.below(30) as u32,
            },
        },
        timing: SofiaTiming {
            schedule: if rng.below(2) == 0 {
                CipherSchedule::Paper
            } else {
                CipherSchedule::PerWord
            },
            cipher_latency: 1 + rng.below(4) as u32,
            cipher_issue_interval: 1 + rng.below(3) as u32,
            verify_latency: rng.below(4) as u32,
            redirect_setup: rng.below(3) as u32,
            reboot_cycles: rng.below(1000),
        },
        reset_policy: if rng.below(2) == 0 {
            ResetPolicy::HaltAndReport
        } else {
            ResetPolicy::Reboot {
                max_resets: rng.below(10) as u32,
            }
        },
        enforce_si: rng.below(2) == 0,
        vcache,
    };

    let mut regs = [0u32; 32];
    for r in &mut regs {
        *r = rng.next() as u32;
    }

    let total_pages = (ram_size as usize).div_ceil(RAM_PAGE);
    let mut ram_pages = Vec::new();
    for idx in 0..total_pages {
        if rng.below(3) == 0 {
            let len = (ram_size as usize - idx * RAM_PAGE).min(RAM_PAGE);
            ram_pages.push((idx as u32, (0..len).map(|_| rng.next() as u8).collect()));
        }
    }

    let violations: Vec<Violation> = (0..rng.below(6))
        .map(|_| match rng.below(5) {
            0 => Violation::MacMismatch {
                block_base: rng.next() as u32,
            },
            1 => Violation::InvalidEntryOffset {
                target: rng.next() as u32,
            },
            2 => Violation::FetchOutOfImage {
                addr: rng.next() as u32,
            },
            3 => Violation::StoreTooEarly {
                pc: rng.next() as u32,
                word_pos: rng.below(8) as usize,
            },
            _ => Violation::MidBlockTransfer {
                pc: rng.next() as u32,
            },
        })
        .collect();

    let lines = size_bytes / line_bytes;
    let icache_tags = (0..lines)
        .map(|_| {
            if rng.below(2) == 0 {
                Some(rng.next() as u32)
            } else {
                None
            }
        })
        .collect();

    let mut vcache_lines = Vec::new();
    if vcache.enabled {
        for i in 0..rng.below(vcache.entries as u64 + 1) {
            vcache_lines.push(VCacheLine {
                // Distinct by construction: the low bits carry `i`.
                prev_pc: ((rng.next() as u32) << 8) | i as u32,
                target: rng.next() as u32,
                stamp: rng.next(),
            });
        }
    }

    let vcache_stats = VCacheStats {
        hits: rng.next(),
        misses: rng.next(),
        evictions: rng.next(),
        insertions: rng.next(),
        flushed: rng.next(),
    };
    // The counters a live machine reports: the violation count is the
    // log's length, and the vcache counters are the cache's own.
    let stats = SofiaStats {
        exec: ExecStats {
            cycles: rng.next(),
            instret: rng.next(),
            branches: rng.next(),
            taken_branches: rng.next(),
            loads: rng.next(),
            stores: rng.next(),
            calls: rng.next(),
            load_use_stalls: rng.next(),
            icache_stall_cycles: rng.next(),
        },
        blocks: rng.next(),
        exec_blocks: rng.next(),
        mux_blocks: rng.next(),
        mac_nop_slots: rng.next(),
        ctr_ops: rng.next(),
        cbc_ops: rng.next(),
        cipher_stall_cycles: rng.next(),
        redirect_fill_cycles: rng.next(),
        store_gate_stall_cycles: rng.next(),
        vcache_hits: vcache_stats.hits,
        vcache_misses: vcache_stats.misses,
        vcache_evictions: vcache_stats.evictions,
        crypto_cycles_saved: rng.next(),
        violations: violations.len() as u64,
        resets: rng.below(100),
    };

    MachineSnapshot {
        config,
        fuel_remaining: rng.next(),
        prev_pc: rng.next() as u32,
        next_target: rng.next() as u32,
        redirected: rng.below(2) == 0,
        cur_base: rng.next() as u32,
        cur_last_word: rng.next() as u32,
        halted: rng.below(8) == 0,
        prev_load_dest: match rng.below(4) {
            0 => None,
            _ => Some(rng.below(32) as u8),
        },
        regs,
        ram_pages,
        mmio: Mmio {
            out_words: (0..rng.below(20)).map(|_| rng.next() as u32).collect(),
            out_bytes: (0..rng.below(20)).map(|_| rng.next() as u8).collect(),
            actuator_writes: (0..rng.below(8)).map(|_| rng.next() as u32).collect(),
        },
        stats,
        violations,
        icache_tags,
        icache_stats: ICacheStats {
            hits: rng.next(),
            misses: rng.next(),
        },
        vcache_tick: rng.next(),
        vcache_stats,
        vcache_lines,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary machine states encode → decode to the identical
    /// snapshot, whatever the geometry, page sparsity or counter values.
    #[test]
    fn arbitrary_states_roundtrip(seed in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let bytes = snap.to_bytes();
        let back = MachineSnapshot::from_bytes(&bytes);
        prop_assert!(back.as_ref().ok() == Some(&snap), "seed {}: {:?}", seed, back.err());
    }

    /// A snapshot captured from a *real* suspended machine also
    /// round-trips, and the restored machine resumes to a bit-identical
    /// final state (the crate-level miniature of the workspace
    /// `snapshot_differential` harness).
    #[test]
    fn live_machine_snapshots_roundtrip_and_resume(
        n in 3u32..40,
        slice in 1u64..120,
        geom in 0usize..3,
    ) {
        let src = format!(
            "main: li t0, {n}
                   li t1, 0
             loop: add t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt"
        );
        let keys = KeySet::from_seed(0x000F_5EED ^ n as u64);
        let image = Transformer::new(keys.clone())
            .transform(&asm::parse(&src).expect("parses"))
            .expect("transforms");
        let config = SofiaConfig {
            vcache: [
                VCacheConfig::default(),
                VCacheConfig::enabled(8, 2),
                VCacheConfig::enabled(64, 4),
            ][geom],
            ..Default::default()
        };
        let mut whole = SofiaMachine::with_config(&image, &keys, &config);
        prop_assert!(whole.run(1_000_000).unwrap().is_halted());
        let mut driver = SofiaMachine::with_config(&image, &keys, &config);
        let s = driver.run_slice(slice).unwrap();
        if s.outcome == SliceOutcome::Preempted {
            let snap = driver.snapshot(1_000_000 - s.consumed);
            let back = MachineSnapshot::from_bytes(&snap.to_bytes()).expect("roundtrip");
            prop_assert_eq!(&back, &snap);
            drop(driver);
            let mut resumed = SofiaMachine::restore(&image, &keys, &back).expect("restore");
            prop_assert!(resumed.run(back.fuel_remaining).unwrap().is_halted());
            prop_assert_eq!(&resumed.mem().mmio.out_words, &whole.mem().mmio.out_words);
            prop_assert_eq!(resumed.stats(), whole.stats());
            prop_assert_eq!(resumed.icache_stats(), whole.icache_stats());
            prop_assert_eq!(resumed.vcache_stats(), whole.vcache_stats());
        }
    }
}

/// **Every** single-byte corruption of a serialised snapshot is rejected
/// with a typed error — two different flip masks per byte, no byte
/// skipped. The trailing FNV-64 digest is what makes this exhaustive
/// property hold unconditionally: any single-byte substitution changes
/// it, and it is checked before a single field is parsed.
#[test]
fn every_single_byte_corruption_is_rejected() {
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        let snap = arbitrary_snapshot(seed);
        let bytes = snap.to_bytes();
        assert!(MachineSnapshot::from_bytes(&bytes).is_ok());
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                match MachineSnapshot::from_bytes(&bad) {
                    Err(DecodeError::ChecksumMismatch) => {}
                    Err(e) => panic!("seed {seed} byte {i} mask {mask:#x}: unexpected {e}"),
                    Ok(_) => panic!("seed {seed} byte {i} mask {mask:#x}: corruption accepted"),
                }
            }
        }
    }
}

/// **Every** truncation of a serialised snapshot is rejected with a
/// typed error, down to the empty stream.
#[test]
fn every_truncation_is_rejected() {
    let snap = arbitrary_snapshot(7);
    let bytes = snap.to_bytes();
    for len in 0..bytes.len() {
        match MachineSnapshot::from_bytes(&bytes[..len]) {
            Err(
                DecodeError::ChecksumMismatch
                | DecodeError::Truncated { .. }
                | DecodeError::BadLength { .. },
            ) => {}
            Err(e) => panic!("truncation to {len}: unexpected error {e}"),
            Ok(_) => panic!("truncation to {len} accepted"),
        }
    }
}

/// Decoded-but-hostile snapshots (valid checksum, structurally wrong
/// interior) are rejected by field validation, not by panics: the
/// checksum is a corruption check, and an adversary who recomputes it
/// still cannot crash the decoder or the restorer.
#[test]
fn structurally_invalid_fields_are_typed_errors() {
    let base = arbitrary_snapshot(3);

    // Bad icache geometry (not a power of two).
    let mut snap = base.clone();
    snap.config.machine.icache.size_bytes = 48;
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadField {
            field: "icache",
            ..
        })
    ));

    // I-cache tag count contradicting the geometry.
    let mut snap = base.clone();
    snap.icache_tags.push(None);
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadLength {
            field: "icache_tags",
            ..
        })
    ));

    // More vcache lines than the geometry holds.
    let mut snap = base.clone();
    snap.config.vcache = VCacheConfig::enabled(1, 1);
    snap.vcache_lines = vec![
        VCacheLine {
            prev_pc: 0,
            target: 0x40,
            stamp: 1,
        };
        2
    ];
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadLength {
            field: "vcache_lines",
            ..
        })
    ));

    // Out-of-order RAM pages.
    let mut snap = base.clone();
    snap.ram_pages = vec![(1, vec![1; RAM_PAGE]), (0, vec![2; RAM_PAGE])];
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadField {
            field: "ram_pages",
            ..
        })
    ));

    // Adversarially huge geometries (an attacker can recompute the
    // checksum) are magnitude-bounded at decode, before restore could
    // allocate gigabytes on the adopting host.
    let mut snap = base.clone();
    snap.config.machine.ram_size = u32::MAX;
    snap.ram_pages.clear();
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadField {
            field: "ram_size",
            ..
        })
    ));
    let mut snap = base.clone();
    snap.config.vcache = VCacheConfig {
        enabled: true,
        entries: 0xFFFF_FFF0,
        ways: 16,
        hit_latency: 0,
    };
    snap.vcache_lines.clear();
    assert!(matches!(
        MachineSnapshot::from_bytes(&snap.to_bytes()),
        Err(DecodeError::BadField {
            field: "vcache",
            ..
        })
    ));
}

/// A checksum-valid snapshot whose pipeline penalties, latencies or
/// reboot time exceed [`MAX_CYCLE_FIELD`] is refused at decode, so no
/// forged timing field ever reaches the cycle arithmetic; every field at
/// the bound itself still decodes.
#[test]
fn forged_timing_fields_are_refused_at_decode() {
    type Field = (&'static str, fn(&mut SofiaConfig, u64));
    let fields: [Field; 15] = [
        ("icache", |c, v| c.machine.icache.miss_penalty = v as u32),
        ("pipeline", |c, v| {
            c.machine.pipeline.taken_branch_penalty = v as u32
        }),
        ("pipeline", |c, v| {
            c.machine.pipeline.direct_jump_penalty = v as u32
        }),
        ("pipeline", |c, v| {
            c.machine.pipeline.indirect_jump_penalty = v as u32
        }),
        ("pipeline", |c, v| {
            c.machine.pipeline.load_use_penalty = v as u32
        }),
        ("pipeline", |c, v| c.machine.pipeline.mul_cycles = v as u32),
        ("pipeline", |c, v| c.machine.pipeline.div_cycles = v as u32),
        ("pipeline", |c, v| {
            c.machine.pipeline.drain_cycles = v as u32
        }),
        ("pipeline", |c, v| {
            c.machine.pipeline.data_penalty = v as u32
        }),
        ("timing", |c, v| c.timing.cipher_latency = v as u32),
        ("timing", |c, v| c.timing.cipher_issue_interval = v as u32),
        ("timing", |c, v| c.timing.verify_latency = v as u32),
        ("timing", |c, v| c.timing.redirect_setup = v as u32),
        ("timing", |c, v| c.timing.reboot_cycles = v),
        ("vcache", |c, v| c.vcache.hit_latency = v as u32),
    ];
    let base = arbitrary_snapshot(11);
    for (i, (name, set)) in fields.iter().enumerate() {
        let mut snap = base.clone();
        set(&mut snap.config, u64::from(MAX_CYCLE_FIELD));
        assert_eq!(
            MachineSnapshot::from_bytes(&snap.to_bytes()).as_ref(),
            Ok(&snap),
            "field {i} ({name}) at the bound"
        );
        for forged in [u64::from(MAX_CYCLE_FIELD) + 1, u64::from(u32::MAX)] {
            let mut snap = base.clone();
            set(&mut snap.config, forged);
            match MachineSnapshot::from_bytes(&snap.to_bytes()) {
                Err(DecodeError::BadField { field, .. }) => assert_eq!(field, *name, "field {i}"),
                other => panic!("field {i} ({name}) = {forged}: {other:?}"),
            }
        }
    }
}

/// A machine built in memory with every cycle field at `u32::MAX` never
/// panics: its cycle arithmetic runs in `u64` and never wraps, in debug
/// and release builds alike.
#[test]
fn extreme_in_memory_timing_never_panics_or_wraps() {
    let src = "main: li t0, 4
                     li a0, 0x10000000
               loop: lw t1, 0(a0)
                     add t2, t1, t0
                     mul t2, t2, t0
                     div t2, t2, t0
                     sw t2, 4(a0)
                     jal f
                     subi t0, t0, 1
                     bnez t0, loop
                     halt
               f:    ret";
    let keys = KeySet::from_seed(0xE7);
    let image = Transformer::new(keys.clone())
        .transform(&asm::parse(src).expect("parses"))
        .expect("transforms");
    let max = u32::MAX;
    for vcache in [VCacheConfig::default(), VCacheConfig::enabled(8, 2)] {
        let mut config = SofiaConfig {
            vcache: VCacheConfig {
                hit_latency: max,
                ..vcache
            },
            reset_policy: ResetPolicy::Reboot { max_resets: 2 },
            ..SofiaConfig::default()
        };
        config.machine.icache.miss_penalty = max;
        config.machine.pipeline = sofia_cpu::pipeline::PipelineModel {
            taken_branch_penalty: max,
            direct_jump_penalty: max,
            indirect_jump_penalty: max,
            load_use_penalty: max,
            mul_cycles: max,
            div_cycles: max,
            drain_cycles: max,
            data_penalty: max,
        };
        config.timing = SofiaTiming {
            schedule: CipherSchedule::PerWord,
            cipher_latency: max,
            cipher_issue_interval: max,
            verify_latency: max,
            redirect_setup: max,
            reboot_cycles: max.into(),
        };
        let mut m = SofiaMachine::with_config(&image, &keys, &config);
        assert!(m.run(1_000_000).unwrap().is_halted());
        let s = m.stats();
        // Every taken branch alone costs u32::MAX cycles: a wrapped sum
        // would fall below this.
        assert!(s.exec.taken_branches >= 3);
        assert!(s.exec.cycles >= s.exec.taken_branches * u64::from(max));

        // Tampered code reboots, paying u32::MAX cycles per reset.
        let mut m = SofiaMachine::with_config(&image, &keys, &config);
        m.mem_mut().rom_mut()[2] ^= 4;
        let _ = m.run(1_000).unwrap();
        let s = m.stats();
        assert!(s.resets >= 1);
        assert!(s.exec.cycles >= s.resets * u64::from(max));
    }
}

/// `SOFS1` carries the vcache hit, miss and eviction counts twice: among
/// the fetch-path counters and in the cache's own counters. The encoder
/// writes the cache's values into both positions, and the decoder
/// refuses a checksum-valid stream whose two copies disagree instead of
/// restoring one of them.
#[test]
fn disagreeing_vcache_counter_copies_are_refused() {
    let src = "main: li t0, 30
         loop: subi t0, t0, 1
               bnez t0, loop
               halt";
    let keys = KeySet::from_seed(0x5AF6);
    let image = Transformer::new(keys.clone())
        .transform(&asm::parse(src).unwrap())
        .unwrap();
    let config = SofiaConfig {
        vcache: VCacheConfig::enabled(16, 4),
        ..SofiaConfig::default()
    };
    let mut m = SofiaMachine::with_config(&image, &keys, &config);
    assert_eq!(m.run_slice(60).unwrap().outcome, SliceOutcome::Preempted);
    let snap = m.snapshot(1_000);
    let hits = snap.vcache_stats.hits;
    assert!(hits > 0, "the loop should hit its cached edge");
    let bytes = snap.to_bytes();

    // The in-memory fetch-path copy does not reach the stream.
    let mut ignored = snap.clone();
    ignored.stats.vcache_hits += 1;
    assert_eq!(ignored.to_bytes(), bytes);

    // Locate the fetch-path counters: `blocks` leads them, and
    // `vcache_hits` follows nine counters later.
    let mut moved = snap.clone();
    moved.stats.blocks ^= 1;
    let blocks_at = bytes
        .iter()
        .zip(moved.to_bytes())
        .position(|(a, b)| *a != b)
        .expect("blocks is serialised");
    let hits_at = blocks_at + 9 * 8;
    assert_eq!(bytes[hits_at..hits_at + 8], hits.to_le_bytes());

    let mut forged = bytes[..bytes.len() - 8].to_vec();
    forged[hits_at..hits_at + 8].copy_from_slice(&(hits + 1).to_le_bytes());
    let digest = sofia_transform::decode::fnv64(&forged);
    forged.extend_from_slice(&digest.to_le_bytes());
    assert!(
        matches!(
            MachineSnapshot::from_bytes(&forged),
            Err(DecodeError::BadField {
                field: "vcache_stats",
                ..
            })
        ),
        "{:?}",
        MachineSnapshot::from_bytes(&forged)
    );
}
