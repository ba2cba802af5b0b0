//! The batch fleet service and the per-job state machine both fleet
//! drivers share.
//!
//! [`Fleet`] is a thin facade over the async driver ([`AsyncFleet`]):
//! every queued job is a lane, so each tick serves every job exactly
//! one quantum as one wave on the driver's persistent pool, and a batch
//! is ticks until idle. The facade adds only what a batch means: one
//! tick budget per call ([`Fleet::run_batch_capped`]), records in
//! [`JobId`] order and the virtual-time pricing of
//! [`crate::schedule::price_schedule`].

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use sofia_core::machine::{RunOutcome, SliceOutcome, SofiaMachine};
use sofia_core::{ResetPolicy, SofiaConfig};
use sofia_crypto::KeySet;
use sofia_transform::cache::{ImageCache, ImageCacheStats, SealError};
use sofia_transform::SecureImage;

use crate::admission::{AdmitError, ClassId};
use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::executor::{AsyncConfig, AsyncFleet};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, Sabotage, TenantId};
use crate::quarantine::{QuarantinePolicy, TenantState};
use crate::schedule::price_schedule;
use crate::stats::{FleetStats, TenantStats};

/// How the worker pool shares machine time between jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Each worker runs its job to a verdict before taking the next —
    /// minimal overhead, but a long job monopolises its worker.
    #[default]
    RunToCompletion,
    /// Preemptive round-robin on the engine's fuel seam: every quantum a
    /// job gets at most `slice` instruction slots, then re-queues behind
    /// the waiting jobs. A long ADPCM job cannot starve short jobs.
    FuelSliced {
        /// Instruction slots per scheduler quantum (clamped to ≥ 1).
        slice: u64,
    },
}

/// Full configuration of a [`Fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Host threads running each tick's wave (clamped to ≥ 1). Also the
    /// worker count of the virtual-time schedule model.
    pub workers: usize,
    /// Scheduling discipline.
    pub mode: SchedMode,
    /// Containment for violating tenants.
    pub quarantine: QuarantinePolicy,
    /// The SOFIA machine configuration every job runs under.
    pub sofia: SofiaConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            mode: SchedMode::default(),
            quarantine: QuarantinePolicy::default(),
            sofia: SofiaConfig::default(),
        }
    }
}

/// Why the fleet refused an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant was never registered.
    UnknownTenant(TenantId),
    /// [`Fleet::register_tenant`] for an id already present.
    TenantExists(TenantId),
    /// The tenant is suspended by its quarantine.
    Quarantined(TenantId),
    /// The tenant was evicted; this fleet will not serve it again.
    Evicted(TenantId),
    /// No job with this id is queued (it finished, was checkpointed
    /// away, or never existed).
    UnknownJob(JobId),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownTenant(t) => write!(f, "{t} is not registered"),
            FleetError::TenantExists(t) => write!(f, "{t} is already registered"),
            FleetError::Quarantined(t) => write!(f, "{t} is quarantined"),
            FleetError::Evicted(t) => write!(f, "{t} was evicted"),
            FleetError::UnknownJob(j) => write!(f, "{j} is not queued"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One queued job plus the run state it accumulates across quanta.
///
/// `pub(crate)` seam: the async driver's lanes run this state machine
/// (through [`service_quantum`]) — sealing, sabotage, slicing,
/// reboot-retries, record assembly — for the batch [`Fleet`] and
/// [`AsyncFleet`] alike.
pub(crate) struct JobRun {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) keys: KeySet,
    pub(crate) image: Option<Arc<SecureImage>>,
    pub(crate) machine: Option<SofiaMachine>,
    pub(crate) remaining: u64,
    pub(crate) seal_cache_hit: bool,
    /// The coordinator's seal attribution for this run's cold start.
    /// `Some` overrides what the cache reports to [`seal_run`], so lanes
    /// racing for one cold image record the same hits at any thread
    /// count. `None` takes the cache's report.
    pub(crate) attributed_hit: Option<bool>,
    pub(crate) retried: bool,
    /// Violations and statistics of the first (violating) run, parked
    /// while the reboot-retry runs — merged into the final record.
    pub(crate) prior: Option<(Vec<sofia_core::Violation>, sofia_core::SofiaStats)>,
    pub(crate) slices: u32,
    pub(crate) slice_cycles: Vec<u64>,
}

impl JobRun {
    /// A fresh, never-serviced run for an admitted spec.
    pub(crate) fn new(id: JobId, keys: KeySet, spec: JobSpec) -> JobRun {
        let remaining = spec.fuel;
        JobRun {
            id,
            keys,
            spec,
            image: None,
            machine: None,
            remaining,
            seal_cache_hit: false,
            attributed_hit: None,
            retried: false,
            prior: None,
            slices: 0,
            slice_cycles: Vec::new(),
        }
    }
}

/// The multi-tenant sealed-program execution service.
///
/// Tenants register their device [`KeySet`]; jobs carry a program and a
/// fuel budget. Each tenant's program is sealed **once** into the shared
/// [`ImageCache`] under that tenant's keys, and jobs run on `workers`
/// host threads in one of two scheduling modes.
///
/// **Determinism invariant** (pinned by the `fleet` test suites): for any
/// job set, fleet execution at any worker count and in either scheduling
/// mode produces bit-identical per-job results, traps and violation
/// reports to serial single-machine execution. Scheduling decides *when*
/// a job's blocks run, never *what* they compute: each job owns its
/// machine, preemption happens only between blocks on the engine's
/// metered fuel seam, and every decision — seal attribution, quarantine
/// folds — is made on the coordinator in job order.
///
/// # Examples
///
/// ```
/// use sofia_crypto::KeySet;
/// use sofia_fleet::{Fleet, FleetConfig, JobSpec, SchedMode, TenantId};
///
/// let mut fleet = Fleet::new(FleetConfig {
///     workers: 2,
///     mode: SchedMode::FuelSliced { slice: 500 },
///     ..Default::default()
/// });
/// let alice = TenantId(1);
/// fleet.register_tenant(alice, KeySet::from_seed(0xA11CE))?;
/// fleet.submit(JobSpec::new(
///     alice,
///     "main: li t0, 6
///            li t1, 7
///            mul t2, t0, t1
///            li a0, 0xFFFF0000
///            sw t2, 0(a0)
///            halt",
///     100_000,
/// ))?;
/// let records = fleet.run_batch();
/// assert!(records[0].outcome.is_halted());
/// assert_eq!(records[0].out_words, vec![42]);
/// # Ok::<(), sofia_fleet::FleetError>(())
/// ```
pub struct Fleet {
    config: FleetConfig,
    core: AsyncFleet,
    /// Per-tenant roll-ups of the records this facade returned, folded
    /// after their ticks are priced on the batch model.
    tenant_stats: BTreeMap<u32, TenantStats>,
    batches: u64,
    rejected: u64,
    last_makespan_cycles: u64,
    last_ticks: u64,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig) -> Fleet {
        let core = AsyncFleet::new(AsyncConfig {
            threads: config.workers,
            // Every queued job is a lane: each tick is one wave that
            // serves every job one quantum.
            workers: usize::MAX,
            mode: config.mode,
            quarantine: config.quarantine,
            sofia: config.sofia,
            park_after: None,
            ..AsyncConfig::default()
        });
        Fleet {
            config,
            core,
            tenant_stats: BTreeMap::new(),
            batches: 0,
            rejected: 0,
            last_makespan_cycles: 0,
            last_ticks: 0,
        }
    }

    /// Onboards a tenant with its device keys.
    ///
    /// # Errors
    ///
    /// Rejects ids already registered (including evicted ones — an
    /// evicted tenant's id is burnt for this fleet).
    pub fn register_tenant(&mut self, id: TenantId, keys: KeySet) -> Result<(), FleetError> {
        self.core.register_tenant(id, keys, ClassId(0))?;
        self.tenant_stats.insert(id.0, TenantStats::default());
        Ok(())
    }

    /// Queues a job for the next batch.
    ///
    /// Quarantine is an admission decision: jobs already accepted always
    /// run (keeping batch results independent of worker interleaving),
    /// while a suspended or evicted tenant is rejected here.
    ///
    /// # Errors
    ///
    /// Rejects unknown, suspended and evicted tenants.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, FleetError> {
        self.core.submit(spec).map_err(|e| self.refused(e))
    }

    /// Counts an admission refusal and names it. The core's admission
    /// here is unbounded and its breaker never opens, so a tenant's
    /// state is the only reason it can refuse.
    fn refused(&mut self, e: AdmitError) -> FleetError {
        self.rejected += 1;
        match e {
            AdmitError::UnknownTenant(t) => FleetError::UnknownTenant(t),
            AdmitError::Quarantined(t) => FleetError::Quarantined(t),
            AdmitError::Evicted(t) => FleetError::Evicted(t),
            other => unreachable!("unbounded admission refused: {other}"),
        }
    }

    /// Runs every queued job to a verdict and returns the records in
    /// [`JobId`] order. Statistics and quarantine fold in job order
    /// too — worker interleaving never influences them.
    pub fn run_batch(&mut self) -> Vec<JobRecord> {
        self.run_batch_capped(u32::MAX)
    }

    /// [`Fleet::run_batch`] with a per-job quantum cap: every queued job
    /// is served at most `max_quanta` scheduler quanta this call (one per
    /// tick); a job still runnable after its cap is **suspended in
    /// place** — it stays queued (machine state intact, between blocks)
    /// for the next batch call, or for [`Fleet::checkpoint_job`] to carry
    /// it to another fleet. Finished jobs are returned in [`JobId`]
    /// order, and only they fold into statistics.
    ///
    /// Which jobs suspend is a per-job deterministic function of the job
    /// set and the cap (a job runs `min(max_quanta, quanta_to_finish)`
    /// quanta regardless of worker interleaving), so the fleet ≡ serial
    /// bit-identity invariant extends to capped batches unchanged. Under
    /// [`SchedMode::RunToCompletion`] a quantum is the whole job, so any
    /// cap ≥ 1 behaves like an uncapped batch.
    pub fn run_batch_capped(&mut self, max_quanta: u32) -> Vec<JobRecord> {
        self.batches += 1;
        for _ in 0..max_quanta.max(1) {
            if self.core.queued_jobs() == 0 {
                break;
            }
            self.core.tick();
        }
        let mut records = self.core.drain_finished();
        records.sort_by_key(|r| r.job);
        // Price the batch on the virtual-time model (host-independent):
        // over every finished job's whole quanta history, so an adopted
        // job's earlier quanta still count.
        let quanta: Vec<Vec<u64>> = records.iter().map(|r| r.slice_cycles.clone()).collect();
        let schedule = price_schedule(self.config.workers, &quanta);
        for (record, ticks) in records.iter_mut().zip(&schedule.per_job) {
            // Batch jobs all arrive at tick 0 of the batch's virtual
            // clock, so the sojourn is the completion instant itself.
            record.arrival_tick = 0;
            record.start_tick = ticks.start;
            record.end_tick = ticks.end;
            record.sojourn_cycles = ticks.end_cycles;
            self.tenant_stats
                .entry(record.tenant.0)
                .or_default()
                .absorb(record);
        }
        self.last_makespan_cycles = schedule.makespan_cycles;
        self.last_ticks = schedule.ticks;
        records
    }

    /// Lifts a suspension (an operator decision after investigating).
    /// Returns whether the tenant went back to [`TenantState::Active`]
    /// (evicted tenants never do).
    pub fn release(&mut self, id: TenantId) -> bool {
        self.core.release(id)
    }

    /// A tenant's service state.
    pub fn tenant_state(&self, id: TenantId) -> Option<TenantState> {
        self.core.tenant_state(id)
    }

    /// Jobs queued for the next batch.
    pub fn pending_jobs(&self) -> usize {
        self.core.queued_jobs()
    }

    /// Ids of the queued jobs, in service order — fresh submissions and
    /// jobs suspended by [`Fleet::run_batch_capped`] alike.
    pub fn queued_jobs(&self) -> Vec<JobId> {
        self.core.queued_ids()
    }

    /// Removes a queued job and packages everything another fleet needs
    /// to finish it. See [`AsyncFleet::checkpoint_job`].
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownJob`] if `id` is not queued (it finished,
    /// was already checkpointed, or never existed).
    pub fn checkpoint_job(&mut self, id: JobId) -> Result<JobCheckpoint, FleetError> {
        self.core.checkpoint_job(id)
    }

    /// Adopts a job checkpointed out of another fleet and queues it to
    /// finish in the next batch. Returns the job's id in *this* fleet.
    /// See [`AsyncFleet::adopt_job`].
    ///
    /// # Errors
    ///
    /// [`AdoptError`]: unknown/quarantined/evicted tenant
    /// ([`AdoptError::Fleet`]), seal failure, or a snapshot that fails
    /// restoration.
    pub fn adopt_job(&mut self, ckpt: JobCheckpoint) -> Result<JobId, AdoptError> {
        self.core.adopt_job(ckpt).map_err(|e| match e {
            AdoptError::Admit(e) => AdoptError::Fleet(self.refused(e)),
            other => other,
        })
    }

    /// The aggregated fleet statistics.
    pub fn stats(&self) -> FleetStats {
        let suspended = self
            .tenant_stats
            .keys()
            .filter(|&&id| self.core.tenant_state(TenantId(id)) == Some(TenantState::Suspended))
            .count();
        FleetStats {
            tenants: self.tenant_stats.clone(),
            batches: self.batches,
            rejected_submissions: self.rejected,
            suspended_tenants: suspended as u64,
            evicted_tenants: self.core.stats().evictions,
            last_makespan_cycles: self.last_makespan_cycles,
            last_ticks: self.last_ticks,
        }
    }

    /// The shared seal cache's counters.
    pub fn seal_cache_stats(&self) -> ImageCacheStats {
        self.core.seal_cache_stats()
    }

    /// The configuration the fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

// Compile-time guarantee: the service and its job records cross thread
// boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Fleet>();
    assert_send::<JobRecord>();
};

/// Restores a suspended machine against its sealed image, re-applying
/// any harness sabotage first: the machine's ROM is the image *as the
/// job ran it*, and the restore path re-verifies warm cache lines
/// against that ROM. Shared by [`AsyncFleet::adopt_job`] (cross-fleet
/// migration) and the async driver's park/revive path.
pub(crate) fn restore_against(
    image: &SecureImage,
    keys: &KeySet,
    snap: &sofia_core::MachineSnapshot,
    sabotage: Option<Sabotage>,
) -> Result<SofiaMachine, sofia_core::RestoreError> {
    match sabotage {
        Some(Sabotage::FlipRomWord { word, mask }) => {
            let mut tampered = image.clone();
            if let Some(w) = tampered.ctext.get_mut(word) {
                *w ^= mask;
            }
            SofiaMachine::restore(&tampered, keys, snap)
        }
        Some(Sabotage::PanicInWorker) | None => SofiaMachine::restore(image, keys, snap),
    }
}

/// [`service_quantum`] behind a panic barrier: a panic anywhere in the
/// quantum (the simulator, the sealer, a deliberate
/// [`Sabotage::PanicInWorker`]) is caught on the worker and converted
/// into a typed [`JobOutcome::WorkerPanic`] record, so one bad job
/// degrades to a quarantined per-tenant failure instead of unwinding
/// through the pool, poisoning its shared state and aborting every
/// other worker (plus every later batch on the same fleet) — the
/// lock-poisoning cascade the panic-isolation suite pins against.
pub(crate) fn catch_quantum(
    run: &mut JobRun,
    config: &FleetConfig,
    cache: &ImageCache,
) -> Option<JobRecord> {
    let slices_before = run.slices;
    // `AssertUnwindSafe` is honest here: on unwind the run's machine is
    // discarded wholesale below, so no torn machine state is ever
    // observed.
    match std::panic::catch_unwind(AssertUnwindSafe(|| service_quantum(run, config, cache))) {
        Ok(settled) => settled,
        Err(payload) => {
            run.machine = None;
            if run.slices == slices_before {
                // The panic pre-empted the quantum's own accounting: a
                // zero-cost quantum keeps the schedule model giving the
                // job its admission tick (same as a seal failure).
                run.slices += 1;
                run.slice_cycles.push(0);
            }
            Some(finish(run, JobOutcome::WorkerPanic(panic_message(payload))))
        }
    }
}

/// Renders a panic payload for the [`JobOutcome::WorkerPanic`] record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serves one scheduler quantum of `run`: seals/builds on first service,
/// then advances the machine by the mode's fuel slice. Returns the
/// finished record, or `None` if the job was preempted and must re-queue.
///
/// Workers never call this bare — always through [`catch_quantum`], so a
/// panicking quantum is quarantined instead of poisoning the pool.
pub(crate) fn service_quantum(
    run: &mut JobRun,
    config: &FleetConfig,
    cache: &ImageCache,
) -> Option<JobRecord> {
    if run.spec.sabotage == Some(Sabotage::PanicInWorker) {
        panic!("sabotage: deliberate panic while servicing {}", run.id);
    }
    if run.machine.is_none() {
        // The lane's own seal claim may already have sealed this job's
        // image (and set its cache attribution); only seal here if the
        // job arrived at its first quantum still cold.
        if run.image.is_none() {
            if let Err(e) = seal_run(run, cache) {
                // A zero-cost quantum so the schedule model still gives
                // the job its admission tick.
                run.slices += 1;
                run.slice_cycles.push(0);
                return Some(finish(run, JobOutcome::SealFailed(e.to_string())));
            }
        }
        let mut machine = match run.image.as_ref() {
            Some(image) => SofiaMachine::with_config(image, &run.keys, &config.sofia),
            // Sealed or assigned just above; reaching this arm is a
            // fleet bug, reported as the typed worker fault it is.
            None => unreachable!("image sealed above"),
        };
        apply_sabotage(&mut machine, run.spec.sabotage);
        run.machine = Some(machine);
    }
    let quantum = match config.mode {
        SchedMode::RunToCompletion => run.remaining,
        SchedMode::FuelSliced { slice } => slice.max(1).min(run.remaining),
    };
    let Some(machine) = run.machine.as_mut() else {
        unreachable!("machine built above");
    };
    let cycles_before = machine.stats().exec.cycles;
    let slice = machine.run_slice(quantum);
    let cycles_after = machine.stats().exec.cycles;
    run.slices += 1;
    run.slice_cycles.push(cycles_after - cycles_before);
    match slice {
        Err(trap) => Some(finish(run, JobOutcome::Trapped(trap))),
        Ok(s) => {
            run.remaining = run.remaining.saturating_sub(s.consumed);
            match s.outcome {
                SliceOutcome::Done(outcome) => {
                    let outcome = JobOutcome::Completed(outcome);
                    if arm_retry(run, &outcome, config) {
                        None // the reboot-retry re-queues like a fresh run
                    } else {
                        Some(finish(run, outcome))
                    }
                }
                SliceOutcome::Preempted if run.remaining == 0 => {
                    Some(finish(run, JobOutcome::Completed(RunOutcome::OutOfFuel)))
                }
                SliceOutcome::Preempted => None,
            }
        }
    }
}

/// Seals `run`'s image through the shared cache and records its
/// attribution: the coordinator's [`JobRun::attributed_hit`] when set,
/// else whether the cache already held the image.
pub(crate) fn seal_run(run: &mut JobRun, cache: &ImageCache) -> Result<(), SealError> {
    let (image, hit) = cache.get_or_seal_traced(&run.keys, &run.spec.source)?;
    run.seal_cache_hit = run.attributed_hit.take().unwrap_or(hit);
    run.image = Some(image);
    Ok(())
}

/// If the quarantine policy owes this violating job a reboot-retry,
/// re-arms the run with a fresh machine under [`ResetPolicy::Reboot`]
/// (same sealed image, same sabotage, full fuel budget) and parks the
/// first run's violations and statistics for the final record. The
/// retry then flows through the normal quantum loop — under fuel-sliced
/// scheduling it is preempted like any other job, so an attacker cannot
/// buy a worker-monopolising mega-quantum by triggering violations.
/// Deterministic per job, so the fleet≡serial invariant survives.
fn arm_retry(run: &mut JobRun, outcome: &JobOutcome, config: &FleetConfig) -> bool {
    let QuarantinePolicy::RetryWithReboot { max_resets } = config.quarantine else {
        return false;
    };
    if !outcome.is_violation() || run.retried {
        return false;
    }
    // A violation verdict implies the job ran, so machine and image are
    // both present; their absence is a fleet bug (caught by the worker's
    // panic barrier, not by poisoning the pool).
    let (Some(first), Some(image)) = (run.machine.as_ref(), run.image.clone()) else {
        unreachable!("retry after a sealed run");
    };
    run.retried = true;
    run.prior = Some((first.violations().to_vec(), first.stats()));
    let config_reboot = SofiaConfig {
        reset_policy: ResetPolicy::Reboot { max_resets },
        ..config.sofia
    };
    let mut machine = SofiaMachine::with_config(&image, &run.keys, &config_reboot);
    apply_sabotage(&mut machine, run.spec.sabotage);
    run.machine = Some(machine);
    run.remaining = run.spec.fuel;
    true
}

pub(crate) fn finish(run: &mut JobRun, outcome: JobOutcome) -> JobRecord {
    let (out_words, mut violations, mut stats) = match run.machine.as_ref() {
        Some(m) => (
            m.mem().mmio.out_words.clone(),
            m.violations().to_vec(),
            m.stats(),
        ),
        None => (Vec::new(), Vec::new(), Default::default()),
    };
    if let Some((first_violations, first_stats)) = run.prior.take() {
        // The record covers the whole job: first (violating) run plus the
        // reboot-retry, in order.
        let mut all = first_violations;
        all.extend(violations);
        violations = all;
        let mut merged = first_stats;
        merged.merge(&stats);
        stats = merged;
    }
    JobRecord {
        job: run.id,
        tenant: run.spec.tenant,
        outcome,
        out_words,
        violations,
        stats,
        seal_cache_hit: run.seal_cache_hit,
        retried: run.retried,
        slices: run.slices,
        slice_cycles: std::mem::take(&mut run.slice_cycles),
        start_tick: 0,
        end_tick: 0,
        arrival_tick: 0,
        sojourn_cycles: 0,
    }
}

/// Whether a finished job triggers its tenant's quarantine: a violation
/// verdict, any run that *detected* violations and still did not end in
/// a clean halt, or a worker fault. The second arm closes the
/// reboot-retry's fuel loophole — a retry that runs out of fuel
/// mid-reboot-loop has not cleared the device, and a persistently
/// tampered tenant must not stay in service just because its budget
/// expired before its reset budget. (A retried run that reaches `halt`
/// is the recovery the reboot policy exists for, and is not contained.)
/// The worker-panic arm is defensive, not a security verdict: a job
/// that crashed its worker once can do it again, so its tenant is
/// contained like a violator while the rest of the fleet keeps serving.
/// A failed revival ([`JobOutcome::RevivalFailed`]) is contained for
/// the same reason — a tenant whose snapshots keep rotting keeps
/// costing revive attempts. A deadline shed is *not* contained: the
/// job never ran, and being queued behind a slow fleet is not the
/// tenant's fault.
pub(crate) fn needs_containment(record: &JobRecord) -> bool {
    record.outcome.is_violation()
        || (!record.outcome.is_halted() && !record.violations.is_empty())
        || matches!(
            record.outcome,
            JobOutcome::WorkerPanic(_) | JobOutcome::RevivalFailed(_)
        )
}

fn apply_sabotage(machine: &mut SofiaMachine, sabotage: Option<Sabotage>) {
    if let Some(Sabotage::FlipRomWord { word, mask }) = sabotage {
        if let Some(w) = machine.mem_mut().rom_mut().get_mut(word) {
            *w ^= mask;
        }
    }
}
