//! Job checkpoints: the migration container a suspended job travels in.
//!
//! A checkpoint wraps the job's *spec* (tenant, program source, fuel
//! budget, harness sabotage), its *scheduling history* (slices served,
//! per-slice simulated cycles, reboot-retry state) and — once the job
//! has run at least one quantum — the suspended machine itself as a
//! [`MachineSnapshot`]. Like the machine snapshot it contains **no
//! ciphertext and no key material**: the adopting fleet re-seals the
//! source under its own registration of the tenant's keys, and the
//! image MACs cover the code; a forged or stale resume point is caught
//! by edge verification on the first resumed fetch.
//!
//! The `SOFJ1` byte container reuses the workspace decode toolkit
//! ([`sofia_transform::decode`]) and the snapshot wire codecs, so the
//! same guarantees hold: typed [`DecodeError`]s, length-checked counts,
//! and a trailing FNV-64 digest that turns any transit corruption into
//! [`DecodeError::ChecksumMismatch`] instead of a parse of garbage.

use sofia_core::snapshot::{read_sofia_stats, read_violation, write_sofia_stats, write_violation};
use sofia_core::{MachineSnapshot, RestoreError, SofiaStats, Violation};
use sofia_transform::cache::SealError;
use sofia_transform::decode::{DecodeError, Reader, Writer};

use crate::admission::AdmitError;
use crate::executor::FleetError;
use crate::job::{Sabotage, TenantId};

/// Container magic for serialised job checkpoints.
const MAGIC: &[u8] = b"SOFJ1\0";

/// A suspended job, packaged by [`crate::AsyncFleet::checkpoint_job`]
/// (or the batch [`crate::Fleet`]'s) for `adopt_job` in another fleet
/// (possibly another process or host — see [`JobCheckpoint::to_bytes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// The owning tenant (must be registered, with the same device
    /// keys, in the adopting fleet).
    pub tenant: TenantId,
    /// SL32 assembly source of the program; the adopting fleet re-seals
    /// it through its own image cache.
    pub source: String,
    /// The job's original fuel budget.
    pub fuel: u64,
    /// Harness sabotage riding with the job, re-applied on restore so a
    /// tampered tenant's job stays tampered across the migration.
    pub sabotage: Option<Sabotage>,
    /// Fuel still unspent.
    pub remaining: u64,
    /// Whether the quarantine policy already spent its reboot-retry.
    pub retried: bool,
    /// First-run violations and statistics parked by an in-flight
    /// reboot-retry, merged into the final record wherever it finishes.
    pub prior: Option<(Vec<Violation>, SofiaStats)>,
    /// Scheduler quanta served so far.
    pub slices: u32,
    /// Simulated cycles per quantum served so far (the virtual-time
    /// schedule input — travels so fleet accounting stays
    /// work-conserving across the migration).
    pub slice_cycles: Vec<u64>,
    /// The suspended machine, if the job ran at least one quantum
    /// (`None` means the job was checkpointed before first service and
    /// adoption is equivalent to a fresh submission).
    pub machine: Option<MachineSnapshot>,
}

impl JobCheckpoint {
    /// Serialises to the versioned, checksummed `SOFJ1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.magic(MAGIC);
        w.u32(self.tenant.0);
        w.u32(self.source.len() as u32);
        w.bytes(self.source.as_bytes());
        w.u64(self.fuel);
        match self.sabotage {
            None => w.u8(0),
            Some(Sabotage::FlipRomWord { word, mask }) => {
                w.u8(1);
                w.u64(word as u64);
                w.u32(mask);
            }
            Some(Sabotage::PanicInWorker) => w.u8(2),
        }
        w.u64(self.remaining);
        w.bool(self.retried);
        match &self.prior {
            None => w.u8(0),
            Some((violations, stats)) => {
                w.u8(1);
                w.u32(violations.len() as u32);
                for v in violations {
                    write_violation(&mut w, v);
                }
                write_sofia_stats(&mut w, stats);
            }
        }
        w.u32(self.slices);
        w.u32(self.slice_cycles.len() as u32);
        for &c in &self.slice_cycles {
            w.u64(c);
        }
        match &self.machine {
            None => w.u8(0),
            Some(snap) => {
                w.u8(1);
                let bytes = snap.to_bytes();
                w.u32(bytes.len() as u32);
                w.bytes(&bytes);
            }
        }
        w.finish_checksummed()
    }

    /// Deserialises a `SOFJ1` container written by
    /// [`JobCheckpoint::to_bytes`]. The embedded machine snapshot is
    /// decoded (and checksum-verified) with
    /// [`MachineSnapshot::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any corruption, truncation or structural
    /// inconsistency — never a panic. [`DecodeError::BadField`] for a
    /// well-formed container whose history is inconsistent: `remaining`
    /// above `fuel`, `slices` unequal to the number of slice costs, or an
    /// embedded snapshot whose fuel disagrees with `remaining`.
    pub fn from_bytes(bytes: &[u8]) -> Result<JobCheckpoint, DecodeError> {
        let mut r = Reader::new_checksummed(bytes)?;
        r.magic(MAGIC, "SOFJ1")?;
        let tenant = TenantId(r.u32()?);
        let n = r.count("source", 1)?;
        let source = String::from_utf8(r.take(n)?.to_vec()).map_err(|e| DecodeError::BadField {
            field: "source",
            reason: e.to_string(),
        })?;
        let fuel = r.u64()?;
        let sabotage = match r.u8()? {
            0 => None,
            1 => Some(Sabotage::FlipRomWord {
                word: r.u64()? as usize,
                mask: r.u32()?,
            }),
            2 => Some(Sabotage::PanicInWorker),
            tag => {
                return Err(DecodeError::BadTag {
                    field: "sabotage",
                    tag: tag as u64,
                })
            }
        };
        let remaining = r.u64()?;
        let retried = r.bool("retried")?;
        let prior = match r.u8()? {
            0 => None,
            1 => {
                let n = r.count("prior.violations", 5)?;
                let mut violations = Vec::with_capacity(n);
                for _ in 0..n {
                    violations.push(read_violation(&mut r)?);
                }
                Some((violations, read_sofia_stats(&mut r)?))
            }
            tag => {
                return Err(DecodeError::BadTag {
                    field: "prior",
                    tag: tag as u64,
                })
            }
        };
        let slices = r.u32()?;
        let n = r.count("slice_cycles", 8)?;
        let mut slice_cycles = Vec::with_capacity(n);
        for _ in 0..n {
            slice_cycles.push(r.u64()?);
        }
        let machine = match r.u8()? {
            0 => None,
            1 => {
                let n = r.count("machine", 1)?;
                Some(MachineSnapshot::from_bytes(r.take(n)?)?)
            }
            tag => {
                return Err(DecodeError::BadTag {
                    field: "machine",
                    tag: tag as u64,
                })
            }
        };
        r.finish()?;
        // The checksum is unkeyed, so a well-formed container proves
        // nothing about who wrote it: refuse histories no fleet could
        // have produced before they reach `adopt_job`.
        if remaining > fuel {
            return Err(DecodeError::BadField {
                field: "remaining",
                reason: format!("{remaining} exceeds the fuel budget {fuel}"),
            });
        }
        if slices as usize != slice_cycles.len() {
            return Err(DecodeError::BadField {
                field: "slices",
                reason: format!("{slices} quanta but {} slice costs", slice_cycles.len()),
            });
        }
        if let Some(snap) = &machine {
            if snap.fuel_remaining != remaining {
                return Err(DecodeError::BadField {
                    field: "machine",
                    reason: format!(
                        "snapshot fuel {} disagrees with remaining {remaining}",
                        snap.fuel_remaining
                    ),
                });
            }
        }
        Ok(JobCheckpoint {
            tenant,
            source,
            fuel,
            sabotage,
            remaining,
            retried,
            prior,
            slices,
            slice_cycles,
            machine,
        })
    }
}

/// Why [`crate::AsyncFleet::adopt_job`] or [`crate::Fleet::adopt_job`]
/// refused a checkpoint.
#[derive(Clone, Debug)]
pub enum AdoptError {
    /// The tenant cannot be served here (unknown, quarantined, or
    /// evicted) — the batch [`crate::Fleet`]'s refusal.
    Fleet(FleetError),
    /// The async driver's admission refused the job (tenant state, a
    /// queue cap, the tenant's fuel quota, or load shedding).
    Admit(AdmitError),
    /// The program no longer seals under this fleet's registration of
    /// the tenant (source corrupted, or keys diverged).
    Seal(SealError),
    /// The machine snapshot failed restoration against the re-sealed
    /// image (tampered image, forged cache line, mismatched geometry).
    Restore(RestoreError),
}

impl std::fmt::Display for AdoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdoptError::Fleet(e) => write!(f, "adoption refused: {e}"),
            AdoptError::Admit(e) => write!(f, "adoption refused: {e}"),
            AdoptError::Seal(e) => write!(f, "adoption seal failed: {e}"),
            AdoptError::Restore(e) => write!(f, "adoption restore failed: {e}"),
        }
    }
}

impl std::error::Error for AdoptError {}

impl From<FleetError> for AdoptError {
    fn from(e: FleetError) -> Self {
        AdoptError::Fleet(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> JobCheckpoint {
        JobCheckpoint {
            tenant: TenantId(7),
            source: "main: halt".into(),
            fuel: 10_000,
            sabotage: Some(Sabotage::FlipRomWord { word: 3, mask: 1 }),
            remaining: 4_321,
            retried: true,
            prior: Some((
                vec![Violation::MacMismatch { block_base: 0x120 }],
                SofiaStats::default(),
            )),
            slices: 3,
            slice_cycles: vec![100, 90, 80],
            machine: None,
        }
    }

    #[test]
    fn roundtrips_without_a_machine() {
        let ckpt = checkpoint();
        let back = JobCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        let bytes = checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                JobCheckpoint::from_bytes(&bad).unwrap_err(),
                DecodeError::ChecksumMismatch,
                "byte {i}"
            );
        }
        for len in 0..bytes.len() {
            assert!(
                JobCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "len {len}"
            );
        }
    }

    fn bad_field(ckpt: &JobCheckpoint) -> &'static str {
        match JobCheckpoint::from_bytes(&ckpt.to_bytes()) {
            Err(DecodeError::BadField { field, .. }) => field,
            other => panic!("expected BadField, got {other:?}"),
        }
    }

    #[test]
    fn remaining_above_fuel_is_refused() {
        let mut ckpt = checkpoint();
        ckpt.remaining = ckpt.fuel + 1;
        assert_eq!(bad_field(&ckpt), "remaining");
    }

    #[test]
    fn slice_count_must_match_the_slice_costs() {
        let mut ckpt = checkpoint();
        ckpt.slices = 5;
        assert_eq!(bad_field(&ckpt), "slices");
    }

    #[test]
    fn snapshot_fuel_must_match_remaining() {
        let keys = sofia_crypto::KeySet::from_seed(7);
        let module = sofia_isa::asm::parse("main: halt").unwrap();
        let image = sofia_transform::Transformer::new(keys.clone())
            .transform(&module)
            .unwrap();
        let machine = sofia_core::machine::SofiaMachine::new(&image, &keys);
        let mut ckpt = checkpoint();
        ckpt.machine = Some(machine.snapshot(ckpt.remaining));
        assert_eq!(
            JobCheckpoint::from_bytes(&ckpt.to_bytes()),
            Ok(ckpt.clone())
        );
        ckpt.machine = Some(machine.snapshot(ckpt.remaining - 1));
        assert_eq!(bad_field(&ckpt), "machine");
    }
}
