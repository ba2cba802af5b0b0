//! Deterministic host-fault injection: the chaos plan.
//!
//! The paper's integrity argument is about surviving *adversarial*
//! faults; this module is about surviving *infrastructure* faults — the
//! sealer erroring out, a parked snapshot rotting on disk, a worker
//! stalling or crashing, a checkpoint truncated in transit. A serving
//! fleet for "millions of users" meets all of them, so the fleet's
//! recovery machinery ([`crate::resilience`]) has to be *testable*, and
//! testable means **replayable**: every fault a run injects must be a
//! pure function of the plan's seed, the virtual tick and the job (or
//! byte stream) it strikes — never of host threads or wall-clock.
//!
//! A [`ChaosPlan`] is therefore a bundle of per-seam Bernoulli fault
//! processes over the driver's virtual clock. Each seam draws from a
//! splitmix64-mixed hash of `(seed, seam, tick, salt)`, so:
//!
//! * the same plan replays the same fault sequence on every run, at any
//!   host thread count (draws happen on the coordinator);
//! * seams are independent — raising the seal-fault rate does not shift
//!   which revivals corrupt;
//! * a retried job re-draws at its retry tick, so faults are transient
//!   by default (exactly the shape retry-with-backoff is for).
//!
//! The load-bearing invariant, pinned by `tests/fleet_chaos.rs` and
//! asserted before every `BENCH_chaos.json` emission:
//! [`ChaosPlan::none`] is bit-for-bit invisible — a driver configured
//! with it produces the exact record surface of a driver built before
//! this module existed.

use crate::job::{JobId, TenantId};

/// A per-draw fault probability in parts-per-million: `0` never fires,
/// [`FaultRate::ALWAYS`] always does. Integer ppm (not `f64`) keeps the
/// strike decision exact and platform-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRate(pub u32);

impl FaultRate {
    /// The zero process: never strikes (the [`ChaosPlan::none`] rate).
    pub const NEVER: FaultRate = FaultRate(0);
    /// Strikes on every draw — the 100%-failure-storm setting.
    pub const ALWAYS: FaultRate = FaultRate(1_000_000);

    /// A rate of `ppm` strikes per million draws (clamped to 100%).
    pub fn ppm(ppm: u32) -> FaultRate {
        FaultRate(ppm.min(1_000_000))
    }
}

/// Where a fault process injects. Each seam carries its own salt into
/// the mix so the processes stay independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Seam {
    /// A fresh seal (transformer actually running — cache hits are not
    /// drawn against) fails as if the sealing host errored.
    Seal,
    /// A parked `SOFS1` snapshot is corrupted before revival; the MAC'd
    /// container turns it into a typed decode failure, never garbage.
    Snapshot,
    /// A worker serves its quantum but takes a stall tax in virtual
    /// cycles (host jitter, priced on the deterministic clock).
    Stall,
    /// The worker servicing the quantum dies; the job degrades to a
    /// typed [`crate::JobOutcome::WorkerPanic`] record.
    Panic,
    /// A checkpoint byte stream is truncated in transit (the migration
    /// path's fault — exercised by harnesses via
    /// [`ChaosPlan::truncate_checkpoint`]).
    Checkpoint,
    /// A transient burst of hostile (sabotaged) arrivals — the
    /// quarantine-storm process workload generators draw from.
    Storm,
}

impl Seam {
    fn salt(self) -> u64 {
        match self {
            Seam::Seal => 0x5EA1,
            Seam::Snapshot => 0x5A4B,
            Seam::Stall => 0x57A1,
            Seam::Panic => 0xBADC,
            Seam::Checkpoint => 0xC4EC,
            Seam::Storm => 0x5702,
        }
    }
}

/// splitmix64's finalizer: a cheap, well-mixed 64-bit permutation. Pure
/// function — the whole point (no RNG state, no host entropy).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded fault-injection plan: one [`FaultRate`] per seam, all
/// drawn from one seed. `Eq` so configurations can be compared and
/// pinned in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Root of every draw. Two plans with the same rates but different
    /// seeds inject *different* (but each replayable) fault sequences.
    pub seed: u64,
    /// Fresh-transform failures (the sealing host erroring).
    pub seal_fault: FaultRate,
    /// Parked-snapshot corruption before revival.
    pub snapshot_corruption: FaultRate,
    /// Per-quantum worker stalls.
    pub worker_stall: FaultRate,
    /// Virtual cycles one stall costs (priced into the tick like any
    /// other quantum cost; the machine's own simulated cycles are
    /// untouched — a stall is scheduler time, not device work).
    pub stall_cycles: u64,
    /// Per-quantum worker deaths.
    pub worker_panic: FaultRate,
    /// Checkpoint-in-transit truncation (drawn by
    /// [`ChaosPlan::truncate_checkpoint`] callers).
    pub checkpoint_truncation: FaultRate,
    /// Per-tick hostile-burst arrivals (drawn by workload generators —
    /// the fleet itself cannot invent tenants).
    pub storm: FaultRate,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

impl ChaosPlan {
    /// The no-fault plan: every rate zero, bit-for-bit invisible to the
    /// driver (the invariant `tests/fleet_chaos.rs` pins).
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            seal_fault: FaultRate::NEVER,
            snapshot_corruption: FaultRate::NEVER,
            worker_stall: FaultRate::NEVER,
            stall_cycles: 0,
            worker_panic: FaultRate::NEVER,
            checkpoint_truncation: FaultRate::NEVER,
            storm: FaultRate::NEVER,
        }
    }

    /// Every seam at the same rate — the `BENCH_chaos.json` sweep's
    /// shape (`0 / 1e-3 / 1e-2` per draw, i.e. ppm `0 / 1000 / 10000`),
    /// which runs the WFQ serving mix of `sofia_workloads::serving`.
    pub fn uniform(seed: u64, rate: FaultRate) -> ChaosPlan {
        ChaosPlan {
            seed,
            seal_fault: rate,
            snapshot_corruption: rate,
            worker_stall: rate,
            stall_cycles: 2_000,
            worker_panic: rate,
            checkpoint_truncation: rate,
            storm: rate,
        }
    }

    /// Whether every process is zero — the fast-path guard injection
    /// sites use to stay off the hot path entirely.
    pub fn is_none(&self) -> bool {
        self.seal_fault == FaultRate::NEVER
            && self.snapshot_corruption == FaultRate::NEVER
            && self.worker_stall == FaultRate::NEVER
            && self.worker_panic == FaultRate::NEVER
            && self.checkpoint_truncation == FaultRate::NEVER
            && self.storm == FaultRate::NEVER
    }

    fn rate(&self, seam: Seam) -> FaultRate {
        match seam {
            Seam::Seal => self.seal_fault,
            Seam::Snapshot => self.snapshot_corruption,
            Seam::Stall => self.worker_stall,
            Seam::Panic => self.worker_panic,
            Seam::Checkpoint => self.checkpoint_truncation,
            Seam::Storm => self.storm,
        }
    }

    fn draw(&self, seam: Seam, tick: u64, salt: u64) -> u64 {
        mix64(
            self.seed
                ^ mix64(seam.salt())
                ^ mix64(tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ salt.wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }

    /// Whether `seam`'s process strikes at `(tick, salt)` — `salt` is
    /// the job id (or byte-stream id) the draw is keyed to. Pure:
    /// the same arguments always answer the same way.
    pub fn strikes(&self, seam: Seam, tick: u64, salt: u64) -> bool {
        let rate = self.rate(seam);
        if rate == FaultRate::NEVER {
            return false;
        }
        if rate >= FaultRate::ALWAYS {
            return true;
        }
        self.draw(seam, tick, salt) % 1_000_000 < rate.0 as u64
    }

    /// A deterministic draw in `[0, bound]` — the retry machinery's
    /// backoff jitter source, so even the jitter replays.
    pub fn jitter(&self, bound: u64, tick: u64, salt: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let draw = self.draw(Seam::Stall, tick, salt ^ 0x0011_77E2);
        // At `bound == u64::MAX` every draw is in range.
        bound.checked_add(1).map_or(draw, |span| draw % span)
    }

    /// Flips one deterministically chosen byte of a parked snapshot —
    /// the [`Seam::Snapshot`] fault's payload. The `SOFS1` container's
    /// checksum turns this into a typed decode error on revival.
    pub fn corrupt_snapshot(&self, bytes: &mut [u8], tick: u64, salt: u64) {
        if bytes.is_empty() {
            return;
        }
        let at = (self.draw(Seam::Snapshot, tick, salt ^ 0xC0DE) as usize) % bytes.len();
        bytes[at] ^= 0x40;
    }

    /// Draws the [`Seam::Checkpoint`] process and, on a strike,
    /// truncates `bytes` at a deterministic offset (at least the magic
    /// survives, so decoding fails on length/checksum — typed — rather
    /// than on an empty buffer). Returns whether the fault fired.
    pub fn truncate_checkpoint(&self, bytes: &mut Vec<u8>, tick: u64, salt: u64) -> bool {
        if !self.strikes(Seam::Checkpoint, tick, salt) || bytes.len() < 8 {
            return false;
        }
        let keep =
            8 + (self.draw(Seam::Checkpoint, tick, salt ^ 0x7241) as usize) % (bytes.len() - 7);
        bytes.truncate(keep.min(bytes.len() - 1));
        true
    }
}

/// One fault the coordinator assigned to a lane this tick. Travels in
/// the lane task to the (possibly pooled) lane runner, which applies it
/// — the *decision* stays coordinator-side and deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum InjectedFault {
    /// The lane's fresh seal fails (typed `SealFailed` record).
    SealFault,
    /// The lane's worker dies before the quantum (typed `WorkerPanic`).
    WorkerPanic,
    /// The quantum runs but costs `cycles` extra virtual time.
    Stall {
        /// The stall tax in simulated cycles.
        cycles: u64,
    },
}

/// What a fault event attributes: the struck job and its tenant, when
/// the seam is job-scoped (`None` for stream-scoped seams like
/// checkpoint truncation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultTarget {
    /// The struck job, if the seam is job-scoped.
    pub job: Option<JobId>,
    /// Its tenant.
    pub tenant: Option<TenantId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_strikes_anywhere() {
        let plan = ChaosPlan::none();
        assert!(plan.is_none());
        for tick in 0..200 {
            for salt in 0..20 {
                for seam in [
                    Seam::Seal,
                    Seam::Snapshot,
                    Seam::Stall,
                    Seam::Panic,
                    Seam::Checkpoint,
                    Seam::Storm,
                ] {
                    assert!(!plan.strikes(seam, tick, salt));
                }
            }
        }
    }

    #[test]
    fn always_strikes_everywhere_and_draws_replay() {
        let plan = ChaosPlan::uniform(42, FaultRate::ALWAYS);
        assert!(plan.strikes(Seam::Seal, 7, 3));
        let a = ChaosPlan::uniform(9, FaultRate::ppm(250_000));
        let b = ChaosPlan::uniform(9, FaultRate::ppm(250_000));
        for tick in 0..500 {
            assert_eq!(
                a.strikes(Seam::Panic, tick, 11),
                b.strikes(Seam::Panic, tick, 11)
            );
        }
    }

    #[test]
    fn jitter_spans_the_whole_range_at_the_largest_bound() {
        let plan = ChaosPlan::uniform(0x5EED, FaultRate::ppm(1));
        let draws: Vec<u64> = (0..64).map(|t| plan.jitter(u64::MAX, t, 3)).collect();
        assert!(draws.iter().any(|&j| j > u64::MAX / 2), "{draws:x?}");
        assert_eq!(plan.jitter(u64::MAX, 5, 3), draws[5], "the jitter replays");
        for t in 0..64 {
            assert!(plan.jitter(u64::MAX - 1, t, 3) < u64::MAX);
            assert!(plan.jitter(2, t, 3) <= 2);
        }
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let plan = ChaosPlan::uniform(0xFEED, FaultRate::ppm(100_000)); // 10%
        let strikes = (0..10_000u64)
            .filter(|&t| plan.strikes(Seam::Seal, t, 1))
            .count();
        assert!(
            (600..=1_400).contains(&strikes),
            "10% process fired {strikes}/10000 times"
        );
    }

    #[test]
    fn seams_draw_independently() {
        let plan = ChaosPlan::uniform(1, FaultRate::ppm(500_000));
        let seal: Vec<bool> = (0..256).map(|t| plan.strikes(Seam::Seal, t, 0)).collect();
        let snap: Vec<bool> = (0..256)
            .map(|t| plan.strikes(Seam::Snapshot, t, 0))
            .collect();
        assert_ne!(seal, snap, "seams must not mirror each other");
    }

    #[test]
    fn truncation_leaves_a_decodable_prefix_length() {
        let plan = ChaosPlan::uniform(3, FaultRate::ALWAYS);
        let mut bytes: Vec<u8> = (0..200u8).collect();
        assert!(plan.truncate_checkpoint(&mut bytes, 5, 1));
        assert!(bytes.len() >= 8 && bytes.len() < 200);
        // Replay: the same draw truncates to the same length.
        let mut again: Vec<u8> = (0..200u8).collect();
        plan.truncate_checkpoint(&mut again, 5, 1);
        assert_eq!(bytes, again);
    }
}
