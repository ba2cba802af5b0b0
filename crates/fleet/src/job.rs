//! Job descriptions and per-job results.

use sofia_core::machine::RunOutcome;
use sofia_core::{SofiaStats, Violation};
use sofia_cpu::Trap;

/// A tenant of the fleet: one device-key domain. In the paper's
/// deployment model this is one device (or one homogeneous device
/// family) whose keys "are known only by the software provider".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A job accepted by [`crate::Fleet::submit`], in submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// The adversary channel of the fleet harness: what a fault-injecting
/// attacker does to one tenant's device before its job runs. Mirrors the
/// `sofia-attacks` tamper channels so quarantine-isolation experiments
/// can host a victim tenant inside an otherwise honest fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// XOR `mask` into ROM word `word` (ciphertext tamper — the SI unit's
    /// detection case). Out-of-range words are a no-op.
    FlipRomWord {
        /// ROM word index to corrupt.
        word: usize,
        /// Bits to flip.
        mask: u32,
    },
    /// Panic on the worker thread the moment the job is serviced — the
    /// host-fault channel. Not a security event (nothing simulated
    /// misbehaves); it exists so the panic-isolation regression suite can
    /// prove one faulting job degrades to a quarantined
    /// [`JobOutcome::WorkerPanic`] record instead of poisoning the pool's
    /// shared state and aborting the whole batch.
    PanicInWorker,
}

/// One unit of work: a tenant's program plus its fuel budget.
///
/// The program travels as source; the fleet seals it **once** per
/// `(tenant keys, program)` into the shared image cache and reuses the
/// sealed image for every later job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// SL32 assembly source of the program (inputs live in its `.data`).
    pub source: String,
    /// Instruction-slot budget; exceeding it ends the job as
    /// [`RunOutcome::OutOfFuel`].
    pub fuel: u64,
    /// Optional pre-run tamper, for attack experiments.
    pub sabotage: Option<Sabotage>,
}

impl JobSpec {
    /// A clean job (no sabotage).
    pub fn new(tenant: TenantId, source: impl Into<String>, fuel: u64) -> JobSpec {
        JobSpec {
            tenant,
            source: source.into(),
            fuel,
            sabotage: None,
        }
    }

    /// The same job with a tamper applied before it runs.
    pub fn with_sabotage(mut self, sabotage: Sabotage) -> JobSpec {
        self.sabotage = Some(sabotage);
        self
    }
}

/// How a job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The machine ran to a verdict (halt, out-of-fuel, stopping
    /// violation, or reset-loop abandonment).
    Completed(RunOutcome),
    /// An architectural trap escaped the program — a program bug, not a
    /// security event (traps can only occur in verified blocks).
    Trapped(Trap),
    /// The program never ran: it failed to parse or to seal.
    SealFailed(String),
    /// The worker servicing the job faulted on the **host** side — a
    /// panic in the simulator, or a park/revive round-trip that failed.
    /// Never a security verdict (the simulated device did nothing
    /// wrong), but the tenant is still contained per the quarantine
    /// policy: a job that can crash a worker once can do it again, and
    /// degrading to a per-tenant failure is exactly the blast-radius
    /// guarantee the fleet exists for.
    WorkerPanic(String),
    /// A parked snapshot failed to revive — its `SOFS1` bytes were
    /// corrupted or its MAC re-verification failed under the tenant's
    /// keys. Like [`JobOutcome::WorkerPanic`] this is a host-side fault
    /// (the simulated device did nothing wrong), contained to the one
    /// job/tenant whose snapshot rotted; unlike a worker panic it names
    /// the storage seam, so operators can react to snapshot rot
    /// specifically.
    RevivalFailed(String),
    /// The job was shed from the queue because its virtual-time sojourn
    /// exceeded its service class's deadline — an availability decision
    /// by [`crate::resilience`], not a security verdict, and the only
    /// outcome produced without the job ever running. The tenant is
    /// *not* quarantined (the job did nothing; the fleet was slow).
    DeadlineMissed {
        /// The class deadline the job exceeded, in virtual cycles.
        deadline_cycles: u64,
    },
}

impl JobOutcome {
    /// Whether the job reached `halt` untampered.
    pub fn is_halted(&self) -> bool {
        matches!(self, JobOutcome::Completed(o) if o.is_halted())
    }

    /// Whether this outcome is a security violation verdict (the
    /// quarantine trigger).
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            JobOutcome::Completed(RunOutcome::ViolationStop(_))
                | JobOutcome::Completed(RunOutcome::ResetLoop { .. })
        )
    }
}

/// Everything the fleet reports about one finished job.
///
/// The whole record is the determinism surface: for a fixed job set and
/// configuration it is bit-identical at every host thread count, with
/// parking on or off, and with [`crate::ChaosPlan::none`] installed, so
/// tests compare records with `==`. Unless the quarantine policy re-ran
/// the job, its outcome, words, violations and statistics also equal
/// serial single-machine execution, in both scheduling modes. The four tick fields (`arrival_tick`, `start_tick`,
/// `end_tick`, `sojourn_cycles`) belong to the schedule: they come from
/// the deterministic virtual-time model (see [`crate::schedule`]), so
/// they move with the lane count, the scheduling mode and the driver
/// that prices them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Final verdict (after the retry, if the quarantine policy retried).
    pub outcome: JobOutcome,
    /// Words the program emitted on the MMIO word port.
    pub out_words: Vec<u32>,
    /// Every violation detected across the job's run (and retry), in
    /// detection order.
    pub violations: Vec<Violation>,
    /// All machine work the job did — the first run plus the
    /// reboot-retry (if the quarantine policy retried), merged. This is
    /// what the virtual-time schedule prices, so fleet totals stay
    /// work-conserving. `out_words` are the final device run's MMIO log
    /// (a reboot-retry is a fresh device).
    pub stats: SofiaStats,
    /// Whether the sealed image came from the shared cache.
    pub seal_cache_hit: bool,
    /// Whether the quarantine policy re-ran the job under a reboot
    /// [`sofia_core::ResetPolicy`].
    pub retried: bool,
    /// Scheduler quanta the job consumed (1 under run-to-completion).
    pub slices: u32,
    /// Simulated cycles per scheduler quantum, in order — the cost input
    /// of the virtual-time schedule model.
    pub slice_cycles: Vec<u64>,
    /// Scheduler tick at which the job first ran.
    pub start_tick: u64,
    /// Scheduler tick after the one in which the job finished.
    pub end_tick: u64,
    /// Virtual tick at which the job arrived. Always 0 under the batch
    /// [`crate::Fleet`] (a batch's jobs all arrive at tick 0); the
    /// [`crate::AsyncFleet`] driver records the real arrival tick of its
    /// open/closed-loop workloads here.
    pub arrival_tick: u64,
    /// Simulated cycles between the job's arrival and its completion on
    /// the virtual-time model — the deterministic sojourn latency the
    /// per-class p50/p99 figures in `BENCH_fleet.json` are built from.
    pub sojourn_cycles: u64,
}

impl JobRecord {
    /// Ticks the job waited between arrival and first service —
    /// zero-cost admission would be `start_tick == arrival_tick` (under
    /// the batch [`crate::Fleet`] every job arrives at tick 0, so this
    /// is simply `start_tick`).
    pub fn queue_latency_ticks(&self) -> u64 {
        self.start_tick.saturating_sub(self.arrival_tick)
    }

    /// Simulated cycles the job consumed in total.
    pub fn cycles(&self) -> u64 {
        self.stats.exec.cycles
    }
}

/// The determinism digest of a run, in completion order: FNV-1a over,
/// per record, its job, tenant, `stats.exec.cycles`,
/// `stats.exec.instret`, the four tick fields, `slices`, the `Debug`
/// form of its outcome and its out words; then, per rejection, its job,
/// tick and the `Display` form of its error.
///
/// It leaves out the violations, the rest of the `SofiaStats`,
/// `seal_cache_hit`, `retried` and `slice_cycles`; compare whole
/// records for those. The covered set cannot widen: `BENCH_fleet.json`
/// pins digests of this exact byte stream, and fleetbench computes the
/// same stream on its own.
pub fn records_digest(records: &[JobRecord], rejections: &[crate::Rejection]) -> u64 {
    let mut bytes = Vec::new();
    for r in records {
        for word in [
            r.job.0,
            r.tenant.0 as u64,
            r.stats.exec.cycles,
            r.stats.exec.instret,
            r.arrival_tick,
            r.start_tick,
            r.end_tick,
            r.sojourn_cycles,
            r.slices as u64,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(format!("{:?}", r.outcome).as_bytes());
        for w in &r.out_words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    for rej in rejections {
        bytes.extend_from_slice(&rej.job.0.to_le_bytes());
        bytes.extend_from_slice(&rej.tick.to_le_bytes());
        bytes.extend_from_slice(format!("{}", rej.error).as_bytes());
    }
    sofia_transform::decode::fnv64(&bytes)
}
