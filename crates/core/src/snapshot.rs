//! Snapshot/restore for suspended machines: serialise a preempted
//! [`SofiaMachine`] so the job can leave this process (or this host)
//! and resume elsewhere, bit-for-bit.
//!
//! # What a snapshot carries
//!
//! Everything the engine and fetch unit own that the sealed image does
//! not: the architectural state (registers, data RAM, MMIO logs), the
//! exact resume point (the [`ResumeEdge`] plus the sequencer's
//! redirect/fall-through registers), the remaining fuel, every
//! accumulated counter (execution, fetch-path, I-cache, verified-block
//! cache), the violation log, and the machine's full [`SofiaConfig`] —
//! so the restoring host rebuilds the *identical* machine without any
//! out-of-band agreement.
//!
//! # What a snapshot deliberately does **not** carry
//!
//! * **No ciphertext.** Code travels as the [`SecureImage`], whose MACs
//!   already bind every word to its control-flow edge; the snapshot
//!   only names where in that image to resume. Restoring under a
//!   tampered image (or with a forged/stale [`ResumeEdge`]) is caught
//!   by edge verification on the first resumed fetch, exactly like any
//!   other foreign edge — migration adds no new forgery surface.
//! * **No key material.** Keys are delivered by the restoring host, as
//!   at installation ("these keys are known only by the software
//!   provider").
//! * **No decrypted plaintext.** The verified-block cache is serialised
//!   as edge *keys* and LRU stamps only; [`SofiaMachine::restore`]
//!   re-runs the full decrypt → MAC-verify → decode path for every line
//!   against the restoring host's image, so a line can never smuggle
//!   unverified instructions across a migration. (Consequence: ciphertext tampered
//!   *after* a line was filled resumes as a [`RestoreError`] instead of
//!   replaying the stale verified plaintext a warm uninterrupted
//!   machine would — strictly more detection, never less.)
//!
//! The trailing FNV-64 checksum makes *accidental* corruption of the
//! container a typed [`DecodeError`]; it is not a MAC and does not try
//! to be. Architectural state (registers, RAM) is data, and SOFIA
//! protects code, not data — the integrity the paper argues for rides
//! entirely on the image MACs, which is why they are the only thing a
//! migration has to trust.
//!
//! [`ResumeEdge`]: crate::ResumeEdge

use sofia_cpu::engine::{CoreState, CoreStateError};
use sofia_cpu::exec::RegFile;
use sofia_cpu::icache::{ICacheConfig, ICacheStats};
use sofia_cpu::machine::MachineConfig;
use sofia_cpu::mem::Mmio;
use sofia_cpu::pipeline::PipelineModel;
use sofia_cpu::ExecStats;
use sofia_crypto::KeySet;
use sofia_isa::Reg;
use sofia_transform::decode::{DecodeError, Reader, Writer};
use sofia_transform::SecureImage;

use crate::fetch::LineRejection;
use crate::machine::{ResetPolicy, SofiaConfig, SofiaMachine};
use crate::timing::{CipherSchedule, SofiaTiming};
use crate::vcache::{VCacheConfig, VCacheStats};
use crate::{ResumeEdge, SofiaStats, Violation};

/// Container magic for serialised machine snapshots.
const MAGIC: &[u8] = b"SOFS1\0";

/// RAM travels as the machine holds it: sparse pages of [`RAM_PAGE`]
/// bytes. Only resident pages with at least one non-zero byte are
/// serialised, so a mostly-idle 1 MiB RAM snapshots in a few KiB (stack
/// at the top, data section at the bottom).
pub use sofia_cpu::mem::RAM_PAGE;

/// Largest RAM size a decoded snapshot may configure (256 MiB — 256×
/// the default machine). Restore allocates the page table, one slot per
/// [`RAM_PAGE`] of `ram_size` (2 MiB of table at the bound), plus the
/// pages the snapshot carries; without a bound a forged-but-checksum-valid
/// stream could drive a multi-gigabyte table on the adopting host. The
/// checksum catches corruption, not adversaries.
pub const MAX_RAM_SIZE: u32 = 256 << 20;

/// Largest verified-block-cache capacity a decoded snapshot may
/// configure (the cache pre-sizes every set at construction).
pub const MAX_VCACHE_ENTRIES: u32 = 1 << 20;

/// Largest I-cache size a decoded snapshot may configure.
pub const MAX_ICACHE_BYTES: u32 = 64 << 20;

/// Largest cycle count any single timing field of a decoded snapshot may
/// configure: each pipeline penalty and unit occupancy, the I-cache miss
/// penalty, every fetch-path latency, the cipher issue interval, the
/// verified-block-cache hit latency and the reboot time (2²⁰ cycles —
/// about 10 ms at 100 MHz, far above any modelled design). The cycle
/// arithmetic runs in `u64`, so even `u32::MAX` fields cannot overflow
/// it; the bound keeps a forged stream from configuring a machine whose
/// every taken branch costs four billion cycles.
pub const MAX_CYCLE_FIELD: u32 = 1 << 20;

/// One resident verified-block cache line, as the snapshot stores it:
/// the sealed edge and its LRU stamp — **never** the decrypted slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VCacheLine {
    /// The edge source the line was verified under.
    pub prev_pc: u32,
    /// The edge target.
    pub target: u32,
    /// LRU stamp, so the restored cache evicts in the same order.
    pub stamp: u64,
}

/// The complete serialisable state of a suspended [`SofiaMachine`] (see
/// the [module docs](self) for the carry/omit rationale).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// The machine configuration the state was captured under; restore
    /// rebuilds under exactly this configuration.
    pub config: SofiaConfig,
    /// Job-level fuel still owed to this machine (the machine itself
    /// does not track budgets — the caller passes it to
    /// [`SofiaMachine::snapshot`] and reads it back after restore).
    pub fuel_remaining: u64,
    /// The sealed-edge source the next fetch will present.
    pub prev_pc: u32,
    /// The transfer target the next fetch will verify.
    pub next_target: u32,
    /// Whether the next fetch pays the redirect refill (a suspended job
    /// parked on a taken transfer must still pay it after restore).
    pub redirected: bool,
    /// Base address of the block the sequencer last delivered.
    pub cur_base: u32,
    /// Its last word address (the `prevPC` its exits present).
    pub cur_last_word: u32,
    /// Whether the machine had already halted.
    pub halted: bool,
    /// Register index of the immediately preceding load's destination
    /// (load-use hazard tracker), if any.
    pub prev_load_dest: Option<u8>,
    /// The architectural register file.
    pub regs: [u32; 32],
    /// Sparse non-zero RAM pages `(page index, bytes)`, strictly
    /// ascending; absent pages are zero. The final page may be short
    /// when the RAM size is not a multiple of [`RAM_PAGE`].
    pub ram_pages: Vec<(u32, Vec<u8>)>,
    /// MMIO output logs.
    pub mmio: Mmio,
    /// Every counter [`SofiaMachine::stats`] reports. `SOFS1` derives
    /// `violations` from the violation log and writes the
    /// `vcache_*` counters from [`MachineSnapshot::vcache_stats`].
    pub stats: SofiaStats,
    /// Violations detected so far, in detection order.
    pub violations: Vec<Violation>,
    /// I-cache line tags, in set order (addresses only).
    pub icache_tags: Vec<Option<u32>>,
    /// I-cache counters.
    pub icache_stats: ICacheStats,
    /// Verified-block cache LRU clock.
    pub vcache_tick: u64,
    /// Verified-block cache counters.
    pub vcache_stats: VCacheStats,
    /// Resident verified-block cache lines (edges + stamps only).
    pub vcache_lines: Vec<VCacheLine>,
}

impl MachineSnapshot {
    /// The resume point this snapshot parks on.
    pub fn edge(&self) -> ResumeEdge {
        ResumeEdge {
            prev_pc: self.prev_pc,
            next_target: self.next_target,
        }
    }

    /// Serialises to the versioned, checksummed `SOFS1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.magic(MAGIC);
        let c = &self.config;
        w.u32(c.machine.ram_size);
        w.u32(c.machine.icache.size_bytes);
        w.u32(c.machine.icache.line_bytes);
        w.u32(c.machine.icache.miss_penalty);
        let p = c.machine.pipeline;
        for v in [
            p.taken_branch_penalty,
            p.direct_jump_penalty,
            p.indirect_jump_penalty,
            p.load_use_penalty,
            p.mul_cycles,
            p.div_cycles,
            p.drain_cycles,
            p.data_penalty,
        ] {
            w.u32(v);
        }
        w.u8(match c.timing.schedule {
            CipherSchedule::Paper => 0,
            CipherSchedule::PerWord => 1,
        });
        w.u32(c.timing.cipher_latency);
        w.u32(c.timing.cipher_issue_interval);
        w.u32(c.timing.verify_latency);
        w.u32(c.timing.redirect_setup);
        w.u64(c.timing.reboot_cycles);
        match c.reset_policy {
            ResetPolicy::HaltAndReport => w.u8(0),
            ResetPolicy::Reboot { max_resets } => {
                w.u8(1);
                w.u32(max_resets);
            }
        }
        w.bool(c.enforce_si);
        w.bool(c.vcache.enabled);
        w.u32(c.vcache.entries);
        w.u32(c.vcache.ways);
        w.u32(c.vcache.hit_latency);

        w.u64(self.fuel_remaining);
        w.u32(self.prev_pc);
        w.u32(self.next_target);
        w.bool(self.redirected);
        w.u32(self.cur_base);
        w.u32(self.cur_last_word);
        w.bool(self.halted);
        w.u64(self.stats.resets);
        w.u8(self.prev_load_dest.unwrap_or(0xFF));
        for r in self.regs {
            w.u32(r);
        }
        w.u32(self.ram_pages.len() as u32);
        for (idx, bytes) in &self.ram_pages {
            w.u32(*idx);
            w.bytes(bytes);
        }
        w.u32(self.mmio.out_words.len() as u32);
        for &v in &self.mmio.out_words {
            w.u32(v);
        }
        w.u32(self.mmio.out_bytes.len() as u32);
        w.bytes(&self.mmio.out_bytes);
        w.u32(self.mmio.actuator_writes.len() as u32);
        for &v in &self.mmio.actuator_writes {
            w.u32(v);
        }
        write_exec_stats(&mut w, &self.stats.exec);
        write_fetch_counters(&mut w, self.stats.with_vcache(&self.vcache_stats));
        w.u32(self.violations.len() as u32);
        for v in &self.violations {
            write_violation(&mut w, v);
        }
        w.u32(self.icache_tags.len() as u32);
        for t in &self.icache_tags {
            match t {
                None => w.u8(0),
                Some(tag) => {
                    w.u8(1);
                    w.u32(*tag);
                }
            }
        }
        w.u64(self.icache_stats.hits);
        w.u64(self.icache_stats.misses);
        w.u64(self.vcache_tick);
        let vs = self.vcache_stats;
        for v in [vs.hits, vs.misses, vs.evictions, vs.insertions, vs.flushed] {
            w.u64(v);
        }
        w.u32(self.vcache_lines.len() as u32);
        for line in &self.vcache_lines {
            w.u32(line.prev_pc);
            w.u32(line.target);
            w.u64(line.stamp);
        }
        w.finish_checksummed()
    }

    /// Deserialises a `SOFS1` container written by
    /// [`MachineSnapshot::to_bytes`].
    ///
    /// The stream is length-checked end to end: the trailing checksum is
    /// verified before a single field is parsed, every count is bounded
    /// by the bytes actually present, and every tag, geometry and
    /// ordering constraint that a later [`SofiaMachine::restore`] relies on is
    /// validated here — so corruption (any single flipped byte, any
    /// truncation) is a typed [`DecodeError`], never a panic.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] describing the first structural problem found.
    pub fn from_bytes(bytes: &[u8]) -> Result<MachineSnapshot, DecodeError> {
        let mut r = Reader::new_checksummed(bytes)?;
        r.magic(MAGIC, "SOFS1")?;
        let ram_size = r.u32()?;
        let icache = ICacheConfig {
            size_bytes: r.u32()?,
            line_bytes: r.u32()?,
            miss_penalty: r.u32()?,
        };
        cycle_fields("icache", [icache.miss_penalty.into()])?;
        if ram_size > MAX_RAM_SIZE {
            return Err(DecodeError::BadField {
                field: "ram_size",
                reason: format!("{ram_size} exceeds the {MAX_RAM_SIZE}-byte snapshot bound"),
            });
        }
        if !icache.size_bytes.is_power_of_two()
            || !icache.line_bytes.is_power_of_two()
            || icache.line_bytes > icache.size_bytes
            || icache.size_bytes > MAX_ICACHE_BYTES
        {
            return Err(DecodeError::BadField {
                field: "icache",
                reason: format!(
                    "invalid geometry {}B / {}B lines",
                    icache.size_bytes, icache.line_bytes
                ),
            });
        }
        let pipeline = PipelineModel {
            taken_branch_penalty: r.u32()?,
            direct_jump_penalty: r.u32()?,
            indirect_jump_penalty: r.u32()?,
            load_use_penalty: r.u32()?,
            mul_cycles: r.u32()?,
            div_cycles: r.u32()?,
            drain_cycles: r.u32()?,
            data_penalty: r.u32()?,
        };
        if pipeline.mul_cycles == 0 || pipeline.div_cycles == 0 {
            return Err(DecodeError::BadField {
                field: "pipeline",
                reason: "mul/div occupancy must be at least 1 cycle".into(),
            });
        }
        let p = &pipeline;
        cycle_fields(
            "pipeline",
            [
                p.taken_branch_penalty,
                p.direct_jump_penalty,
                p.indirect_jump_penalty,
                p.load_use_penalty,
                p.mul_cycles,
                p.div_cycles,
                p.drain_cycles,
                p.data_penalty,
            ]
            .map(u64::from),
        )?;
        let schedule = match r.u8()? {
            0 => CipherSchedule::Paper,
            1 => CipherSchedule::PerWord,
            tag => {
                return Err(DecodeError::BadTag {
                    field: "timing.schedule",
                    tag: tag as u64,
                })
            }
        };
        let timing = SofiaTiming {
            schedule,
            cipher_latency: r.u32()?,
            cipher_issue_interval: r.u32()?,
            verify_latency: r.u32()?,
            redirect_setup: r.u32()?,
            reboot_cycles: r.u64()?,
        };
        cycle_fields(
            "timing",
            [
                timing.cipher_latency.into(),
                timing.cipher_issue_interval.into(),
                timing.verify_latency.into(),
                timing.redirect_setup.into(),
                timing.reboot_cycles,
            ],
        )?;
        let reset_policy = match r.u8()? {
            0 => ResetPolicy::HaltAndReport,
            1 => ResetPolicy::Reboot {
                max_resets: r.u32()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    field: "reset_policy",
                    tag: tag as u64,
                })
            }
        };
        let enforce_si = r.bool("enforce_si")?;
        let vcache = VCacheConfig {
            enabled: r.bool("vcache.enabled")?,
            entries: r.u32()?,
            ways: r.u32()?,
            hit_latency: r.u32()?,
        };
        cycle_fields("vcache", [vcache.hit_latency.into()])?;
        if vcache.enabled
            && (vcache.entries == 0
                || vcache.ways == 0
                || vcache.entries % vcache.ways != 0
                || vcache.entries > MAX_VCACHE_ENTRIES)
        {
            return Err(DecodeError::BadField {
                field: "vcache",
                reason: format!(
                    "invalid geometry: {} entries / {} ways",
                    vcache.entries, vcache.ways
                ),
            });
        }
        let config = SofiaConfig {
            machine: MachineConfig {
                ram_size,
                icache,
                pipeline,
            },
            timing,
            reset_policy,
            enforce_si,
            vcache,
        };

        let fuel_remaining = r.u64()?;
        let prev_pc = r.u32()?;
        let next_target = r.u32()?;
        let redirected = r.bool("redirected")?;
        let cur_base = r.u32()?;
        let cur_last_word = r.u32()?;
        let halted = r.bool("halted")?;
        let resets = r.u64()?;
        let prev_load_dest = match r.u8()? {
            0xFF => None,
            idx if idx < 32 => Some(idx),
            idx => {
                return Err(DecodeError::BadTag {
                    field: "prev_load_dest",
                    tag: idx as u64,
                })
            }
        };
        let mut regs = [0u32; 32];
        for reg in &mut regs {
            *reg = r.u32()?;
        }

        let total_pages = (ram_size as u64).div_ceil(RAM_PAGE as u64);
        let n_pages = r.count("ram_pages", 5)?;
        if n_pages as u64 > total_pages {
            return Err(DecodeError::BadLength {
                field: "ram_pages",
                expected: total_pages,
                found: n_pages as u64,
            });
        }
        let mut ram_pages = Vec::with_capacity(n_pages);
        let mut prev_idx: Option<u32> = None;
        for _ in 0..n_pages {
            let idx = r.u32()?;
            if (idx as u64) >= total_pages || prev_idx.is_some_and(|p| idx <= p) {
                return Err(DecodeError::BadField {
                    field: "ram_pages",
                    reason: format!("page index {idx} out of order or out of range"),
                });
            }
            prev_idx = Some(idx);
            let page_len =
                (ram_size as u64 - idx as u64 * RAM_PAGE as u64).min(RAM_PAGE as u64) as usize;
            ram_pages.push((idx, r.take(page_len)?.to_vec()));
        }

        let n = r.count("mmio.out_words", 4)?;
        let mut out_words = Vec::with_capacity(n);
        for _ in 0..n {
            out_words.push(r.u32()?);
        }
        let n = r.count("mmio.out_bytes", 1)?;
        let out_bytes = r.take(n)?.to_vec();
        let n = r.count("mmio.actuator_writes", 4)?;
        let mut actuator_writes = Vec::with_capacity(n);
        for _ in 0..n {
            actuator_writes.push(r.u32()?);
        }
        let mmio = Mmio {
            out_words,
            out_bytes,
            actuator_writes,
        };

        let mut stats = SofiaStats {
            exec: read_exec_stats(&mut r)?,
            resets,
            ..Default::default()
        };
        read_fetch_counters(&mut r, &mut stats)?;

        let n = r.count("violations", 5)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            violations.push(read_violation(&mut r)?);
        }
        stats.violations = n as u64;

        let expected_lines = (icache.size_bytes / icache.line_bytes) as u64;
        let n = r.count("icache_tags", 1)?;
        if n as u64 != expected_lines {
            return Err(DecodeError::BadLength {
                field: "icache_tags",
                expected: expected_lines,
                found: n as u64,
            });
        }
        let mut icache_tags = Vec::with_capacity(n);
        for _ in 0..n {
            icache_tags.push(match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                tag => {
                    return Err(DecodeError::BadTag {
                        field: "icache_tag",
                        tag: tag as u64,
                    })
                }
            });
        }
        let icache_stats = ICacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        };

        let vcache_tick = r.u64()?;
        let vcache_stats = VCacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            insertions: r.u64()?,
            flushed: r.u64()?,
        };
        if stats.with_vcache(&vcache_stats) != stats {
            return Err(DecodeError::BadField {
                field: "vcache_stats",
                reason: format!(
                    "cache counts {vcache_stats:?} disagree with the fetch-path copy \
                     (hits {}, misses {}, evictions {})",
                    stats.vcache_hits, stats.vcache_misses, stats.vcache_evictions
                ),
            });
        }
        let n = r.count("vcache_lines", 16)?;
        let cap = if vcache.enabled {
            vcache.entries as u64
        } else {
            0
        };
        if n as u64 > cap {
            return Err(DecodeError::BadLength {
                field: "vcache_lines",
                expected: cap,
                found: n as u64,
            });
        }
        let mut vcache_lines = Vec::with_capacity(n);
        for _ in 0..n {
            vcache_lines.push(VCacheLine {
                prev_pc: r.u32()?,
                target: r.u32()?,
                stamp: r.u64()?,
            });
        }
        r.finish()?;

        Ok(MachineSnapshot {
            config,
            fuel_remaining,
            prev_pc,
            next_target,
            redirected,
            cur_base,
            cur_last_word,
            halted,
            prev_load_dest,
            regs,
            ram_pages,
            mmio,
            stats,
            violations,
            icache_tags,
            icache_stats,
            vcache_tick,
            vcache_stats,
            vcache_lines,
        })
    }
}

/// Refuses a `field` group holding a cycle count above [`MAX_CYCLE_FIELD`].
fn cycle_fields<const N: usize>(field: &'static str, cycles: [u64; N]) -> Result<(), DecodeError> {
    match cycles.into_iter().find(|&c| c > u64::from(MAX_CYCLE_FIELD)) {
        Some(c) => Err(DecodeError::BadField {
            field,
            reason: format!("{c} cycles exceeds the {MAX_CYCLE_FIELD}-cycle snapshot bound"),
        }),
        None => Ok(()),
    }
}

/// Why a decoded snapshot could not be rebuilt into a machine over the
/// given image and keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The image's data section does not fit the snapshot's RAM size —
    /// the snapshot was taken against a different program.
    DataSection {
        /// RAM bytes the snapshot's configuration provides.
        ram_size: u32,
        /// Data-section bytes the image wants loaded.
        data_len: usize,
    },
    /// The engine rejected the core state (defensive — decoded
    /// snapshots are internally consistent by construction).
    Core(CoreStateError),
    /// A cached edge failed re-verification against the image: the
    /// image (or the snapshot's line list) was tampered with in
    /// transit. Restore refuses rather than resume with different
    /// timing or unverified plaintext.
    LineRejected {
        /// The edge source.
        prev_pc: u32,
        /// The edge target.
        target: u32,
        /// The violation the fetch path raised.
        violation: Violation,
    },
    /// A cached edge decrypts-and-verifies but no longer decodes — it
    /// can never have been cached honestly.
    LineUndecodable {
        /// The edge source.
        prev_pc: u32,
        /// The edge target.
        target: u32,
        /// Address of the undecodable word.
        pc: u32,
    },
    /// A cache line could not be placed (set overflow or duplicate
    /// edge) — the line list contradicts the cache geometry.
    LinePlacement {
        /// The edge source.
        prev_pc: u32,
        /// The edge target.
        target: u32,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::DataSection { ram_size, data_len } => write!(
                f,
                "image data section ({data_len} B) exceeds snapshot RAM ({ram_size} B)"
            ),
            RestoreError::Core(e) => write!(f, "core state rejected: {e}"),
            RestoreError::LineRejected {
                prev_pc,
                target,
                violation,
            } => write!(
                f,
                "cached edge {prev_pc:#010x}->{target:#010x} failed re-verification: {violation}"
            ),
            RestoreError::LineUndecodable {
                prev_pc,
                target,
                pc,
            } => write!(
                f,
                "cached edge {prev_pc:#010x}->{target:#010x} holds undecodable word at {pc:#010x}"
            ),
            RestoreError::LinePlacement { prev_pc, target } => write!(
                f,
                "cached edge {prev_pc:#010x}->{target:#010x} cannot be placed in the cache"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Captures a machine's suspended state (the implementation behind
/// [`SofiaMachine::snapshot`]).
pub(crate) fn capture(m: &SofiaMachine, fuel_remaining: u64) -> MachineSnapshot {
    let core = m.engine().export_core_state();
    let f = m.engine().fetch();
    let (redirected, cur_base, cur_last_word) = f.sequencing();
    MachineSnapshot {
        config: m.config(),
        fuel_remaining,
        prev_pc: f.prev_pc(),
        next_target: f.next_target(),
        redirected,
        cur_base,
        cur_last_word,
        halted: core.halted,
        prev_load_dest: core.prev_load_dest.map(|r| r.index()),
        regs: core.regs.words(),
        ram_pages: core
            .ram_pages
            .into_iter()
            .filter(|(_, page)| page.iter().any(|&b| b != 0))
            .collect(),
        mmio: core.mmio,
        stats: m.stats(),
        violations: m.violations().to_vec(),
        icache_tags: core.icache_tags,
        icache_stats: core.icache_stats,
        vcache_tick: f.vcache_ref().clock(),
        vcache_stats: f.vcache_ref().stats(),
        vcache_lines: f
            .vcache_ref()
            .export_lines()
            .into_iter()
            .map(|((prev_pc, target), stamp)| VCacheLine {
                prev_pc,
                target,
                stamp,
            })
            .collect(),
    }
}

/// Rebuilds a machine from image + keys + snapshot (the implementation
/// behind [`SofiaMachine::restore`]).
pub(crate) fn rebuild(
    image: &SecureImage,
    keys: &KeySet,
    snap: &MachineSnapshot,
) -> Result<SofiaMachine, RestoreError> {
    if image.data.len() > snap.config.machine.ram_size as usize {
        return Err(RestoreError::DataSection {
            ram_size: snap.config.machine.ram_size,
            data_len: image.data.len(),
        });
    }
    let mut m = SofiaMachine::with_config(image, keys, &snap.config);

    // Re-earn every cached line against this host's image *before* any
    // state is replaced: a tampered image or forged line list fails
    // here, leaving nothing half-restored.
    let mut lines = Vec::with_capacity(snap.vcache_lines.len());
    {
        let mem = m.engine().mem();
        let f = m.engine().fetch();
        for line in &snap.vcache_lines {
            let edge = (line.prev_pc, line.target);
            let block = f
                .refill_line(&mut |addr| mem.fetch(addr).ok(), edge)
                .map_err(|e| match e {
                    LineRejection::Violation(violation) => RestoreError::LineRejected {
                        prev_pc: line.prev_pc,
                        target: line.target,
                        violation,
                    },
                    LineRejection::Undecodable { pc, .. } => RestoreError::LineUndecodable {
                        prev_pc: line.prev_pc,
                        target: line.target,
                        pc,
                    },
                })?;
            lines.push((edge, line.stamp, block));
        }
    }

    let mut regs = RegFile::new();
    regs.set_words(snap.regs);
    m.engine_mut()
        .restore_core_state(CoreState {
            regs,
            ram_size: snap.config.machine.ram_size,
            ram_pages: snap.ram_pages.clone(),
            mmio: snap.mmio.clone(),
            stats: snap.stats.exec,
            icache_tags: snap.icache_tags.clone(),
            icache_stats: snap.icache_stats,
            prev_load_dest: snap.prev_load_dest.and_then(Reg::new),
            halted: snap.halted,
            resets: snap.stats.resets,
        })
        .map_err(RestoreError::Core)?;

    let f = m.engine_mut().fetch_mut();
    f.restore_sequencing(
        snap.prev_pc,
        snap.next_target,
        snap.redirected,
        snap.cur_base,
        snap.cur_last_word,
    );
    f.set_stats(snap.stats);
    f.vcache_mut()
        .restore_state(lines, snap.vcache_tick, snap.vcache_stats)
        .map_err(|(prev_pc, target)| RestoreError::LinePlacement { prev_pc, target })?;
    m.set_violations(snap.violations.clone());
    Ok(m)
}

/// Writes one [`Violation`] in the snapshot wire format — exposed so
/// higher-layer containers (the fleet's job checkpoints) compose the
/// same encoding instead of inventing a second one.
pub fn write_violation(w: &mut Writer, v: &Violation) {
    match *v {
        Violation::MacMismatch { block_base } => {
            w.u8(0);
            w.u32(block_base);
        }
        Violation::InvalidEntryOffset { target } => {
            w.u8(1);
            w.u32(target);
        }
        Violation::FetchOutOfImage { addr } => {
            w.u8(2);
            w.u32(addr);
        }
        Violation::StoreTooEarly { pc, word_pos } => {
            w.u8(3);
            w.u32(pc);
            w.u64(word_pos as u64);
        }
        Violation::MidBlockTransfer { pc } => {
            w.u8(4);
            w.u32(pc);
        }
    }
}

/// Reads one [`Violation`] written by [`write_violation`].
///
/// # Errors
///
/// [`DecodeError`] on an unknown tag or truncated payload.
pub fn read_violation(r: &mut Reader<'_>) -> Result<Violation, DecodeError> {
    Ok(match r.u8()? {
        0 => Violation::MacMismatch {
            block_base: r.u32()?,
        },
        1 => Violation::InvalidEntryOffset { target: r.u32()? },
        2 => Violation::FetchOutOfImage { addr: r.u32()? },
        3 => Violation::StoreTooEarly {
            pc: r.u32()?,
            word_pos: r.u64()? as usize,
        },
        4 => Violation::MidBlockTransfer { pc: r.u32()? },
        tag => {
            return Err(DecodeError::BadTag {
                field: "violation",
                tag: tag as u64,
            })
        }
    })
}

/// Writes an [`ExecStats`] in the snapshot wire format (see
/// [`write_violation`] for why this is public).
pub fn write_exec_stats(w: &mut Writer, e: &ExecStats) {
    for v in [
        e.cycles,
        e.instret,
        e.branches,
        e.taken_branches,
        e.loads,
        e.stores,
        e.calls,
        e.load_use_stalls,
        e.icache_stall_cycles,
    ] {
        w.u64(v);
    }
}

/// Reads an [`ExecStats`] written by [`write_exec_stats`].
///
/// # Errors
///
/// [`DecodeError::Truncated`].
pub fn read_exec_stats(r: &mut Reader<'_>) -> Result<ExecStats, DecodeError> {
    Ok(ExecStats {
        cycles: r.u64()?,
        instret: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        calls: r.u64()?,
        load_use_stalls: r.u64()?,
        icache_stall_cycles: r.u64()?,
    })
}

/// Writes `s`'s fetch-path counters ([`SofiaStats::fetch_counters`]),
/// the block both `SOFS1` and [`write_sofia_stats`] carry.
fn write_fetch_counters(w: &mut Writer, mut s: SofiaStats) {
    for v in s.fetch_counters() {
        w.u64(*v);
    }
}

/// Reads the counters [`write_fetch_counters`] wrote into `s`.
fn read_fetch_counters(r: &mut Reader<'_>, s: &mut SofiaStats) -> Result<(), DecodeError> {
    for v in s.fetch_counters() {
        *v = r.u64()?;
    }
    Ok(())
}

/// Writes a full [`SofiaStats`] in the snapshot wire format.
pub fn write_sofia_stats(w: &mut Writer, s: &SofiaStats) {
    write_exec_stats(w, &s.exec);
    write_fetch_counters(w, *s);
    w.u64(s.violations);
    w.u64(s.resets);
}

/// Reads a [`SofiaStats`] written by [`write_sofia_stats`].
///
/// # Errors
///
/// [`DecodeError::Truncated`].
pub fn read_sofia_stats(r: &mut Reader<'_>) -> Result<SofiaStats, DecodeError> {
    let mut s = SofiaStats {
        exec: read_exec_stats(r)?,
        ..Default::default()
    };
    read_fetch_counters(r, &mut s)?;
    s.violations = r.u64()?;
    s.resets = r.u64()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_isa::asm;
    use sofia_transform::Transformer;

    fn build(src: &str) -> (SofiaMachine, SecureImage, KeySet) {
        let keys = KeySet::from_seed(0x5AF3);
        let image = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        let m = SofiaMachine::new(&image, &keys);
        (m, image, keys)
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let (mut m, _, _) = build(
            "main: li t0, 20
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt",
        );
        let s = m.run_slice(7).unwrap();
        assert_eq!(s.outcome, crate::SliceOutcome::Preempted);
        let snap = m.snapshot(1_000 - s.consumed);
        let bytes = snap.to_bytes();
        let back = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.edge(), m.edge());
    }

    #[test]
    fn restored_machine_resumes_bit_for_bit() {
        let src = "main: li t0, 25
                   li t1, 0
             loop: add t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt";
        let (mut whole, image, keys) = build(src);
        assert!(whole.run(100_000).unwrap().is_halted());
        let (mut driver, _, _) = build(src);
        let s = driver.run_slice(40).unwrap();
        assert_eq!(s.outcome, crate::SliceOutcome::Preempted);
        let snap = driver.snapshot(100_000 - s.consumed);
        drop(driver);
        let mut resumed = SofiaMachine::restore(&image, &keys, &snap).unwrap();
        assert!(resumed.run(snap.fuel_remaining).unwrap().is_halted());
        assert_eq!(resumed.mem().mmio.out_words, whole.mem().mmio.out_words);
        assert_eq!(resumed.stats(), whole.stats());
        assert_eq!(resumed.icache_stats(), whole.icache_stats());
    }

    #[test]
    fn config_is_reconstructed_exactly() {
        let (_, image, keys) = build("main: nop\n halt");
        let config = SofiaConfig {
            vcache: VCacheConfig::enabled(16, 4),
            reset_policy: ResetPolicy::Reboot { max_resets: 3 },
            enforce_si: false,
            ..Default::default()
        };
        let m = SofiaMachine::with_config(&image, &keys, &config);
        assert_eq!(m.config(), config);
        assert_eq!(m.snapshot(0).config, config);
    }

    #[test]
    fn restore_rejects_oversized_data_section() {
        let (m, image, keys) = build("main: nop\n halt");
        let mut snap = m.snapshot(0);
        snap.config.machine.ram_size = 0;
        snap.ram_pages.clear();
        // An empty data section fits any RAM; force the mismatch by
        // growing the image's data instead.
        let mut fat = image.clone();
        fat.data = vec![0; 4096];
        snap.config.machine.ram_size = 1024;
        assert!(matches!(
            SofiaMachine::restore(&fat, &keys, &snap),
            Err(RestoreError::DataSection { .. })
        ));
    }

    #[test]
    fn warm_vcache_lines_are_reverified_not_trusted() {
        let src = "main: li t0, 12
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt";
        let keys = KeySet::from_seed(0x5AF4);
        let image = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        let config = SofiaConfig {
            vcache: VCacheConfig::enabled(16, 4),
            ..Default::default()
        };
        let mut m = SofiaMachine::with_config(&image, &keys, &config);
        let s = m.run_slice(20).unwrap();
        assert_eq!(s.outcome, crate::SliceOutcome::Preempted);
        let snap = m.snapshot(10_000);
        assert!(!snap.vcache_lines.is_empty(), "loop should be cached");
        // Clean image: every line re-earns residency.
        let restored = SofiaMachine::restore(&image, &keys, &snap).unwrap();
        assert_eq!(restored.vcache_stats(), m.vcache_stats());
        // Tampered image: the line that covered the tampered block is
        // refused — stale verified plaintext cannot cross a migration.
        let mut tampered = image.clone();
        tampered.ctext[1] ^= 4;
        assert!(matches!(
            SofiaMachine::restore(&tampered, &keys, &snap),
            Err(RestoreError::LineRejected {
                violation: Violation::MacMismatch { .. },
                ..
            })
        ));
    }

    #[test]
    fn unrepresentable_line_edges_are_rejected_not_panics() {
        // A forged line source no counter block can encode (unaligned,
        // or past the 24-bit word space) survives the re-checksummed
        // wire format; re-verification must refuse it like any other
        // off-CFG edge.
        let src = "main: li t0, 12
             loop: subi t0, t0, 1
                   bnez t0, loop
                   halt";
        let keys = KeySet::from_seed(0x5AF5);
        let image = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        let config = SofiaConfig {
            vcache: VCacheConfig::enabled(16, 4),
            ..Default::default()
        };
        let mut m = SofiaMachine::with_config(&image, &keys, &config);
        assert_eq!(
            m.run_slice(20).unwrap().outcome,
            crate::SliceOutcome::Preempted
        );
        let honest = m.snapshot(10_000);
        for mask in [1, 1 << 26] {
            let mut snap = honest.clone();
            snap.vcache_lines[0].prev_pc ^= mask;
            let snap = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert!(
                matches!(
                    SofiaMachine::restore(&image, &keys, &snap),
                    Err(RestoreError::LineRejected {
                        violation: Violation::MacMismatch { .. },
                        ..
                    })
                ),
                "mask {mask:#x}"
            );
        }
    }
}
