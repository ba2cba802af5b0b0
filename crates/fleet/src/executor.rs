//! The fleet driver: thousands of tenant jobs multiplexed over a few OS
//! threads.
//!
//! [`AsyncFleet`] is the one scheduler in this crate; the batch
//! [`crate::Fleet`] is a facade over it that makes every queued job a
//! lane. It is a hand-rolled executor (no external runtime) built on
//! three existing seams:
//!
//! * **Yield point** — the engine's fuel-slice seam
//!   ([`sofia_core::machine::Machine::run_slice`] / cooperative preemption
//!   on [`sofia_core::ResumeEdge`]): a job runs one quantum, then the
//!   driver decides who runs next. No job ever owns an OS thread.
//! * **Cold parking** — a job that waits too long has its machine
//!   serialised to `SOFS1` snapshot bytes
//!   ([`sofia_core::MachineSnapshot`]) and dropped; it revives on its
//!   next quantum. Suspend→restore is bit-identical to uninterrupted
//!   execution (pinned by the snapshot differential suite), so parking
//!   is invisible to results — it only trades revive latency for
//!   resident memory.
//! * **Virtual time** — ticks are priced exactly like the batch model
//!   (tick cost = max quantum cost among the lanes served, see
//!   [`crate::schedule`]), so p50/p99 sojourn per class is a
//!   deterministic, host-independent number.
//!
//! ## Scheduling
//!
//! Each tick the driver admits due arrivals (typed backpressure — see
//! [`crate::admission`]), then fills up to `workers` **lanes** by
//! weighted fair queueing across tenant classes: repeatedly pick the
//! backlogged class with the least weighted virtual service
//! (`vservice / weight`, compared exactly via u128 cross-multiply),
//! take the head of its FIFO, and charge it provisionally; after the
//! lanes run, charges are trued up with the actual simulated cycles.
//! Classes are FIFO inside, fair across — a weight-4 class gets 4× the
//! service of a weight-1 class while both are backlogged.
//!
//! ## One wave per tick
//!
//! All of a tick's host work is one wave on a persistent pool: each
//! selected lane's quantum (with its cold seal, if the job has not run
//! yet) and the snapshot of every queued job that cools to parked this
//! tick. The coordinator publishes the wave and then runs tasks itself
//! beside `threads − 1` pool threads, so no thread sleeps while work is
//! left. Results come back in task order. A lane carries its whole job
//! — spec, machine (unbuilt, live or parked) and run history — to its
//! runner and back, so a runner shares nothing but the seal cache.
//!
//! ## Migration
//!
//! [`AsyncFleet::checkpoint_job`] takes a queued job out as a
//! [`JobCheckpoint`] (a parked job exports its snapshot without being
//! revived), and [`AsyncFleet::adopt_job`] admits one through the same
//! gate as a submission, so an adopted job is charged to its tenant's
//! fuel quota.
//!
//! ## Determinism
//!
//! `threads` (host parallelism) and `workers` (virtual lanes per tick)
//! are deliberately separate knobs. Everything that affects results —
//! admission, lane selection, chaos draws, seal attribution, which jobs
//! park, tick pricing, the fold order of finished records — is decided
//! on the coordinator from queue state alone; host threads only execute
//! the wave, each task on a job-owned machine. The async ≡ serial
//! bit-identity invariant therefore holds at any thread count *by
//! construction*, and the `fleet_async` suite pins it.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use sofia_core::machine::{RunOutcome, SliceOutcome, SofiaMachine};
use sofia_core::{MachineSnapshot, ResetPolicy, SofiaConfig, SofiaStats, Violation};
use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache, ImageKey, SealError};
use sofia_transform::SecureImage;

use crate::admission::{AdmissionConfig, AdmitError, ClassId, Rejection};
use crate::chaos::{ChaosPlan, InjectedFault, Seam};
use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, Sabotage, TenantId};
use crate::quarantine::{fold_policy, QuarantinePolicy, TenantState};
use crate::resilience::{ResilienceConfig, ResilienceEvent, ResilienceState, ResilienceStats};
use crate::stats::TenantStats;

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

impl SchedMode {
    /// Instruction slots the next quantum of a job with `remaining` fuel
    /// may run: the whole budget, or one slice of it.
    pub(crate) fn quantum(self, remaining: u64) -> u64 {
        match self {
            SchedMode::RunToCompletion => remaining,
            SchedMode::FuelSliced { slice } => slice.max(1).min(remaining),
        }
    }
}

/// Why the fleet refused an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant was never registered.
    UnknownTenant(TenantId),
    /// [`crate::Fleet::register_tenant`] for an id already present.
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

/// Full configuration of an [`AsyncFleet`].
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Host OS threads executing each tick's wave (clamped to ≥ 1): the
    /// coordinator plus `threads − 1` pool threads, or the coordinator
    /// alone at 1. Pure host parallelism: provably cannot affect
    /// results, records or virtual time — only wall-clock.
    pub threads: usize,
    /// Virtual lanes served per tick (clamped to ≥ 1). Part of the
    /// deterministic surface: changing it changes the schedule (but
    /// never what any job computes).
    pub workers: usize,
    /// Scheduling discipline. [`SchedMode::FuelSliced`] is the point of
    /// the async driver; run-to-completion still works (each quantum is
    /// a whole job).
    pub mode: SchedMode,
    /// Containment for violating (or worker-crashing) tenants.
    pub quarantine: QuarantinePolicy,
    /// The SOFIA machine configuration every job runs under.
    pub sofia: SofiaConfig,
    /// Admission policy: queue caps, class weights, fuel quotas.
    pub admission: AdmissionConfig,
    /// Park a waiting job's machine to `SOFS1` bytes after this many
    /// consecutive unserved ticks (`None` = never park). Parking is
    /// invisible to results; it bounds resident machines.
    pub park_after: Option<u64>,
    /// Seeded host-fault injection. [`ChaosPlan::none`] (the default)
    /// is bit-for-bit invisible — the chaos suite pins this.
    pub chaos: ChaosPlan,
    /// Recovery policy: deadlines, retry budgets, circuit breaking.
    /// [`ResilienceConfig::default`] (the default) turns all of it off.
    pub resilience: ResilienceConfig,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            threads: 4,
            workers: 4,
            mode: SchedMode::FuelSliced { slice: 500 },
            quarantine: QuarantinePolicy::default(),
            sofia: sofia_core::SofiaConfig::default(),
            admission: AdmissionConfig::default(),
            park_after: Some(8),
            chaos: ChaosPlan::none(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Driver-level counters (host-independent, deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Ticks driven so far.
    pub ticks: u64,
    /// Sum of tick costs so far — the virtual clock, in simulated
    /// cycles.
    pub makespan_cycles: u64,
    /// Jobs admitted (immediately or at their arrival tick).
    pub admitted: u64,
    /// Jobs that finished with a record.
    pub finished: u64,
    /// Jobs refused by admission control at their arrival tick.
    pub rejected: u64,
    /// Scheduler quanta served.
    pub quanta: u64,
    /// Machines parked to snapshot bytes.
    pub parks: u64,
    /// Machines revived from snapshot bytes.
    pub revives: u64,
    /// Jobs that ended in [`JobOutcome::WorkerPanic`].
    pub worker_panics: u64,
    /// Jobs whose parked snapshot failed revival
    /// ([`JobOutcome::RevivalFailed`]) — counted at the settle that
    /// produced the record, whether or not a retry then rescued the job.
    pub revival_failures: u64,
    /// Peak count of live (unparked) machines resident across queued
    /// jobs at a tick boundary.
    pub peak_resident_machines: u64,
    /// Tenants newly suspended by the quarantine fold (`Suspend` and
    /// post-retry `RetryWithReboot` containments).
    pub quarantines: u64,
    /// Tenants evicted by the quarantine fold.
    pub evictions: u64,
}

/// Where a job's machine is between quanta. Inline: boxing the live
/// variant would cost a heap allocation per machine built.
#[allow(clippy::large_enum_variant)]
enum MachineState {
    /// Not built: the job has not run yet, or a failure dropped it.
    Unbuilt,
    /// Resident, suspended between blocks.
    Live(SofiaMachine),
    /// Serialised to `SOFS1` bytes and dropped; revived on the job's
    /// next quantum.
    Parked(Vec<u8>),
}

impl MachineState {
    /// The resident machine, if there is one.
    fn live(&self) -> Option<&SofiaMachine> {
        match self {
            MachineState::Live(machine) => Some(machine),
            _ => None,
        }
    }

    /// Takes the resident machine out, leaving the state unbuilt.
    fn take_live(&mut self) -> Option<SofiaMachine> {
        match std::mem::replace(self, MachineState::Unbuilt) {
            MachineState::Live(machine) => Some(machine),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// One admitted job: its spec, its machine, the run state it
/// accumulates across quanta (seal attribution, reboot-retry, slices)
/// and the driver's queue bookkeeping. Travels whole to a runner inside
/// its [`Lane`] and comes back in it.
struct Job {
    id: JobId,
    spec: JobSpec,
    keys: KeySet,
    class: ClassId,
    image: Option<Arc<SecureImage>>,
    machine: MachineState,
    remaining: u64,
    seal_cache_hit: bool,
    /// The coordinator's seal attribution for this job's cold start.
    /// `Some` overrides what the cache reports to [`seal`], so lanes
    /// racing for one cold image record the same hits at any thread
    /// count. `None` takes the cache's report.
    attributed_hit: Option<bool>,
    retried: bool,
    /// Violations and statistics of the first (violating) run, kept
    /// while the reboot-retry runs — merged into the final record.
    prior: Option<(Vec<Violation>, SofiaStats)>,
    slices: u32,
    slice_cycles: Vec<u64>,
    arrival_tick: u64,
    /// Virtual-clock reading at admission — the sojourn baseline.
    arrival_cycles: u64,
    start_tick: Option<u64>,
    /// Consecutive ticks queued without service (parking trigger).
    idle_ticks: u64,
}

impl Job {
    /// Whether the job has neither a machine nor a sealed image: its
    /// first quantum seals.
    fn cold(&self) -> bool {
        matches!(self.machine, MachineState::Unbuilt) && self.image.is_none()
    }
}

/// Per-class WFQ state.
struct ClassState {
    /// Total virtual service charged, in simulated cycles.
    vservice: u64,
    queue: VecDeque<Job>,
}

struct AsyncTenant {
    keys: KeySet,
    class: ClassId,
    state: TenantState,
    stats: TenantStats,
    /// Fuel budgets of the tenant's queued + running jobs (the quota
    /// admission gate).
    outstanding_fuel: u64,
}

/// A job scheduled for a future tick, awaiting admission.
struct Arrival {
    job: JobId,
    spec: JobSpec,
}

/// One lane of a tick: the job selected for a quantum and what the
/// coordinator decided for it, handed to a runner, which fills in what
/// the quantum produced and hands it back.
struct Lane {
    job: Job,
    /// The WFQ charge applied at selection, to true up after the run.
    provisional: u64,
    /// The fault the chaos plan assigned to this lane, if any. Decided
    /// on the coordinator (deterministic), applied on the lane runner.
    fault: Option<InjectedFault>,
    /// Whether this is the wave's first cold lane of its image: it
    /// seals before any injected fault applies, so the cache sees one
    /// lookup per distinct image in the wave, faulted claimer or not.
    claims_seal: bool,
    /// The finished record, or `None` if the job re-queues.
    record: Option<JobRecord>,
    /// Whether the lane revived a parked machine.
    revived: bool,
}

// ---------------------------------------------------------------------
// One lane's quantum: the per-job state machine, run on a pool thread
// (or inline when `threads == 1`).
// ---------------------------------------------------------------------

/// Serves one lane behind the panic barrier: a panic anywhere in it
/// (the sealer, the simulator, a deliberate
/// [`Sabotage::PanicInWorker`]) is caught here and becomes a typed
/// [`JobOutcome::WorkerPanic`] record, so one bad job degrades to a
/// quarantined per-tenant failure instead of unwinding through the
/// pool — the lock-poisoning cascade the panic-isolation suite pins
/// against. An injected stall then taxes the lane's quantum in
/// *virtual* cycles, so the schedule model (and every sojourn derived
/// from it) prices the slow host; the machine's own cycles are
/// untouched.
fn run_lane(mut lane: Lane, config: &AsyncConfig, cache: &ImageCache) -> Lane {
    let charged = lane.job.slices;
    // `AssertUnwindSafe` is honest here: on unwind `fail` drops the
    // job's machine wholesale, so no torn machine state is observed.
    let served = std::panic::catch_unwind(AssertUnwindSafe(|| serve(&mut lane, config, cache)));
    let mut record = match served {
        Ok(Ok(settled)) => settled,
        Ok(Err(outcome)) => Some(fail(&mut lane.job, charged, outcome)),
        Err(payload) => Some(fail(
            &mut lane.job,
            charged,
            JobOutcome::WorkerPanic(panic_message(payload)),
        )),
    };
    if let Some(InjectedFault::Stall { cycles }) = lane.fault {
        let costs = match record.as_mut() {
            Some(r) => &mut r.slice_cycles,
            None => &mut lane.job.slice_cycles,
        };
        if let Some(last) = costs.last_mut() {
            *last = last.saturating_add(cycles);
        }
    }
    lane.record = record;
    lane
}

/// A lane's work: its seal claim, a revival if the job is parked, then
/// the injected fault or one quantum. A failure comes back as the
/// outcome [`fail`] finishes the job with.
fn serve(
    lane: &mut Lane,
    config: &AsyncConfig,
    cache: &ImageCache,
) -> Result<Option<JobRecord>, JobOutcome> {
    let job = &mut lane.job;
    if lane.claims_seal {
        // A failed seal leaves the image unset: the quantum seals again
        // and fails the same way (seals are deterministic), typed.
        let _ = seal(job, cache);
    }
    if let MachineState::Parked(bytes) = &job.machine {
        let machine = revive(job, bytes).map_err(JobOutcome::RevivalFailed)?;
        job.machine = MachineState::Live(machine);
        lane.revived = true;
    }
    match lane.fault {
        // An injected seal fault: the job's fresh seal "failed".
        Some(InjectedFault::SealFault) => Err(JobOutcome::SealFailed(
            "chaos: injected seal-farm fault".to_string(),
        )),
        // An injected worker death: no real panic ever unwinds (the
        // "never a panic" contract) — the record a caught panic would
        // produce.
        Some(InjectedFault::WorkerPanic) => Err(JobOutcome::WorkerPanic(
            "chaos: injected worker fault".to_string(),
        )),
        Some(InjectedFault::Stall { .. }) | None => service_quantum(job, config, cache),
    }
}

/// The one failure rule: a job whose quantum failed — a caught panic, a
/// seal error, a failed revival, an injected seal fault or worker death
/// — loses its machine and finishes with `outcome`. If the quantum
/// failed before charging its slice (`charged` is the slice count it
/// started with), it costs one zero-cycle slice, so the schedule model
/// still gives the job its tick.
fn fail(job: &mut Job, charged: u32, outcome: JobOutcome) -> JobRecord {
    job.machine = MachineState::Unbuilt;
    if job.slices == charged {
        job.slices += 1;
        job.slice_cycles.push(0);
    }
    finish(job, outcome)
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

/// Revives a parked job's machine. Any failure is a *host* fault (the
/// snapshot was produced by this very driver, so corruption means the
/// bytes rotted in storage or transit), reported as the typed
/// [`JobOutcome::RevivalFailed`] — never a security verdict.
fn revive(job: &Job, bytes: &[u8]) -> Result<SofiaMachine, String> {
    let snap = MachineSnapshot::from_bytes(bytes).map_err(|e| format!("revive decode: {e}"))?;
    let Some(image) = job.image.as_deref() else {
        return Err("parked job lost its sealed image".to_string());
    };
    restore_against(image, &job.keys, &snap, job.spec.sabotage)
        .map_err(|e| format!("revive restore: {e:?}"))
}

/// Serves one scheduler quantum of `job`: seals and boots on first
/// service, then advances the machine by the mode's fuel slice. Returns
/// the finished record, or `None` if the job was preempted and must
/// re-queue.
fn service_quantum(
    job: &mut Job,
    config: &AsyncConfig,
    cache: &ImageCache,
) -> Result<Option<JobRecord>, JobOutcome> {
    if job.spec.sabotage == Some(Sabotage::PanicInWorker) {
        panic!("sabotage: deliberate panic while servicing {}", job.id);
    }
    if let MachineState::Unbuilt = job.machine {
        // The lane's own seal claim may already have sealed this job's
        // image (and set its cache attribution); only seal here if the
        // job arrived at its first quantum still cold.
        let image = match &job.image {
            Some(image) => Arc::clone(image),
            None => seal(job, cache).map_err(|e| JobOutcome::SealFailed(e.to_string()))?,
        };
        job.machine = MachineState::Live(boot(&image, &job.keys, &config.sofia, job.spec.sabotage));
    }
    let quantum = config.mode.quantum(job.remaining);
    let MachineState::Live(machine) = &mut job.machine else {
        unreachable!("a served job's machine is revived or built above");
    };
    let cycles_before = machine.exec_stats().cycles;
    let slice = machine.run_slice(quantum);
    let cycles_after = machine.exec_stats().cycles;
    job.slices += 1;
    job.slice_cycles.push(cycles_after - cycles_before);
    let s = match slice {
        Err(trap) => return Ok(Some(finish(job, JobOutcome::Trapped(trap)))),
        Ok(s) => s,
    };
    job.remaining = job.remaining.saturating_sub(s.consumed);
    Ok(match s.outcome {
        SliceOutcome::Done(outcome) => {
            let outcome = JobOutcome::Completed(outcome);
            if arm_retry(job, &outcome, config) {
                None // the reboot-retry re-queues like a fresh run
            } else {
                Some(finish(job, outcome))
            }
        }
        SliceOutcome::Preempted if job.remaining == 0 => {
            Some(finish(job, JobOutcome::Completed(RunOutcome::OutOfFuel)))
        }
        SliceOutcome::Preempted => None,
    })
}

/// Seals `job`'s image through the shared cache and records its
/// attribution: the coordinator's [`Job::attributed_hit`] when set,
/// else whether the cache already held the image.
fn seal(job: &mut Job, cache: &ImageCache) -> Result<Arc<SecureImage>, SealError> {
    let (image, hit) = cache.get_or_seal_traced(&job.keys, &job.spec.source)?;
    job.seal_cache_hit = job.attributed_hit.take().unwrap_or(hit);
    job.image = Some(Arc::clone(&image));
    Ok(image)
}

/// Boots a fresh machine on `image`, applying any harness ROM
/// sabotage.
fn boot(
    image: &SecureImage,
    keys: &KeySet,
    sofia: &SofiaConfig,
    sabotage: Option<Sabotage>,
) -> SofiaMachine {
    let mut machine = SofiaMachine::with_config(image, keys, sofia);
    if let Some(Sabotage::FlipRomWord { word, mask }) = sabotage {
        if let Some(w) = machine.mem_mut().rom_mut().get_mut(word) {
            *w ^= mask;
        }
    }
    machine
}

/// Restores a suspended machine against its sealed image, re-applying
/// any harness sabotage first: the machine's ROM is the image *as the
/// job ran it*, and the restore path re-verifies warm cache lines
/// against that ROM. Shared by [`AsyncFleet::adopt_job`] (cross-fleet
/// migration) and [`revive`].
fn restore_against(
    image: &SecureImage,
    keys: &KeySet,
    snap: &MachineSnapshot,
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

/// If the quarantine policy owes this violating job a reboot-retry,
/// re-arms it with a fresh machine under [`ResetPolicy::Reboot`] (same
/// sealed image, same sabotage, full fuel budget) and keeps the first
/// run's violations and statistics for the final record. The retry then
/// flows through the normal quantum loop — under fuel-sliced scheduling
/// it is preempted like any other job, so an attacker cannot buy a
/// worker-monopolising mega-quantum by triggering violations.
/// Deterministic per job, so the fleet ≡ serial invariant survives.
fn arm_retry(job: &mut Job, outcome: &JobOutcome, config: &AsyncConfig) -> bool {
    let QuarantinePolicy::RetryWithReboot { max_resets } = config.quarantine else {
        return false;
    };
    if !outcome.is_violation() || job.retried {
        return false;
    }
    // A violation verdict implies the job ran, so machine and image are
    // both present; their absence is a driver bug (caught by the lane's
    // panic barrier, not by poisoning the pool).
    let (Some(first), Some(image)) = (job.machine.live(), job.image.clone()) else {
        unreachable!("retry after a sealed run");
    };
    job.retried = true;
    job.prior = Some((first.violations().to_vec(), first.stats()));
    let reboot = SofiaConfig {
        reset_policy: ResetPolicy::Reboot { max_resets },
        ..config.sofia
    };
    job.machine = MachineState::Live(boot(&image, &job.keys, &reboot, job.spec.sabotage));
    job.remaining = job.spec.fuel;
    true
}

/// Assembles `job`'s record from its machine (if any) and history; the
/// driver fills in the ticks and the sojourn when it settles.
fn finish(job: &mut Job, outcome: JobOutcome) -> JobRecord {
    let (out_words, mut violations, mut stats) = match job.machine.live() {
        Some(m) => (
            m.mem().mmio.out_words.clone(),
            m.violations().to_vec(),
            m.stats(),
        ),
        None => (Vec::new(), Vec::new(), Default::default()),
    };
    if let Some((first_violations, first_stats)) = job.prior.take() {
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
        job: job.id,
        tenant: job.spec.tenant,
        outcome,
        out_words,
        violations,
        stats,
        seal_cache_hit: job.seal_cache_hit,
        retried: job.retried,
        slices: job.slices,
        slice_cycles: std::mem::take(&mut job.slice_cycles),
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
/// costing revive attempts. A deadline shed is *not* contained unless
/// it carries a first run's violations: being queued behind a slow
/// fleet is not the tenant's fault.
fn needs_containment(record: &JobRecord) -> bool {
    record.outcome.is_violation()
        || (!record.outcome.is_halted() && !record.violations.is_empty())
        || matches!(
            record.outcome,
            JobOutcome::WorkerPanic(_) | JobOutcome::RevivalFailed(_)
        )
}

// ---------------------------------------------------------------------
// The persistent thread pool.
// ---------------------------------------------------------------------

/// Locks a mutex, shrugging off poisoning. The pool's state is only
/// ever mutated by whole-value stores, so a panic on another runner
/// cannot leave it half-written — the poison flag carries no
/// information here, and propagating it is exactly the cascade the
/// panic-isolation suite pins against: one bad job must not take the
/// driver (or a later tick on it) down with it.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One unit of a tick's wave. Tasks live inline in the wave's vector:
/// boxing the larger lane variant would cost a heap allocation per lane
/// per tick to save a few KiB of padding.
#[allow(clippy::large_enum_variant)]
enum Task {
    /// Serve one lane's quantum.
    Lane(Lane),
    /// Serialise a cooling job's machine to `SOFS1` bytes.
    Park {
        machine: SofiaMachine,
        remaining: u64,
    },
}

/// A task's result, in the shape of its [`Task`].
#[allow(clippy::large_enum_variant)]
enum Done {
    Lane(Lane),
    Park(Vec<u8>),
}

fn run_task(task: Task, config: &AsyncConfig, cache: &ImageCache) -> Done {
    match task {
        Task::Lane(lane) => Done::Lane(run_lane(lane, config, cache)),
        Task::Park { machine, remaining } => Done::Park(machine.snapshot(remaining).to_bytes()),
    }
}

/// Shared state between the coordinator and the pool threads. One wave
/// at a time: the coordinator publishes `tasks`, every runner (the
/// coordinator included) claims indices until none are left, and the
/// coordinator then blocks on `done` until every task settles.
/// Poisoning is shrugged off everywhere ([`lock_clean`]) — a panicking
/// lane is already contained by [`run_lane`], and a poisoned
/// flag must not take the driver down (the whole point of the
/// panic-isolation fix).
struct PoolShared {
    config: Arc<AsyncConfig>,
    cache: Arc<ImageCache>,
    state: Mutex<PoolState>,
    /// Signalled when a wave is published or on shutdown.
    work: Condvar,
    /// Signalled when the last task of a wave settles.
    done: Condvar,
}

#[derive(Default)]
struct PoolState {
    tasks: Vec<Option<Task>>,
    next: usize,
    settled: usize,
    /// Per task, its result or the payload of a panic that escaped it
    /// (re-raised on the coordinator once the wave has settled).
    results: Vec<Option<std::thread::Result<Done>>>,
    shutdown: bool,
}

impl PoolState {
    /// Claims the next unclaimed task of the wave, if any.
    fn claim(&mut self) -> Option<(usize, Task)> {
        while self.next < self.tasks.len() {
            let i = self.next;
            self.next += 1;
            if let Some(task) = self.tasks[i].take() {
                return Some((i, task));
            }
        }
        None
    }

    /// Stores task `i`'s result; `true` when it was the wave's last.
    fn settle(&mut self, i: usize, result: std::thread::Result<Done>) -> bool {
        self.results[i] = Some(result);
        self.settled += 1;
        self.settled == self.tasks.len()
    }
}

impl PoolShared {
    /// Runs a claimed task outside the lock, catching any panic that
    /// escaped it, so no runner dies mid-wave and strands the count.
    fn run(&self, task: Task) -> std::thread::Result<Done> {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_task(task, &self.config, &self.cache)
        }))
    }
}

struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool of `workers` threads; the coordinator is the wave's
    /// other runner.
    fn new(workers: usize, config: Arc<AsyncConfig>, cache: Arc<ImageCache>) -> Pool {
        let shared = Arc::new(PoolShared {
            config,
            cache,
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, handles }
    }

    /// Runs one wave and returns its results in task order. The calling
    /// thread runs tasks too, and waits only for stragglers. A panic
    /// that escaped a task is re-raised here, after the wave has
    /// settled, so the pool is never left mid-wave.
    fn dispatch(&self, tasks: Vec<Task>) -> Vec<Done> {
        let n = tasks.len();
        let mut state = lock_clean(&self.shared.state);
        state.tasks = tasks.into_iter().map(Some).collect();
        state.results = (0..n).map(|_| None).collect();
        state.next = 0;
        state.settled = 0;
        self.shared.work.notify_all();
        while let Some((i, task)) = state.claim() {
            drop(state);
            let result = self.shared.run(task);
            state = lock_clean(&self.shared.state);
            state.settle(i, result);
        }
        while state.settled < n {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.tasks.clear();
        let results = std::mem::take(&mut state.results);
        drop(state);
        results
            .into_iter()
            .flatten()
            .map(|result| result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = lock_clean(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // Workers catch every task panic, so a join error has
            // nothing left to tell us; the driver is shutting down.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut state = lock_clean(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        if let Some((i, task)) = state.claim() {
            drop(state);
            let result = shared.run(task);
            state = lock_clean(&shared.state);
            if state.settle(i, result) {
                shared.done.notify_all();
            }
        } else {
            // Checked for work under the same lock the dispatcher
            // publishes under — no lost wakeup.
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// The fleet driver, and the only one: the batch [`crate::Fleet`] is a
/// facade over it. See the [module docs](self) for the architecture.
/// Register tenants, submit jobs, drive ticks, drain records; the clock
/// is virtual ([`AsyncFleet::tick`] / [`AsyncFleet::now`]), and arrivals
/// can be scheduled ahead with deferred typed rejection
/// ([`AsyncFleet::submit_at`] / [`AsyncFleet::drain_rejected`]).
///
/// # Examples
///
/// ```
/// use sofia_crypto::KeySet;
/// use sofia_fleet::{AsyncConfig, AsyncFleet, ClassId, JobSpec, TenantId};
///
/// let mut fleet = AsyncFleet::new(AsyncConfig {
///     threads: 2,
///     workers: 2,
///     ..Default::default()
/// });
/// let alice = TenantId(1);
/// fleet.register_tenant(alice, KeySet::from_seed(0xA11CE), ClassId(0))?;
/// fleet.submit(JobSpec::new(
///     alice,
///     "main: li t0, 6
///            li t1, 7
///            mul t2, t0, t1
///            li a0, 0xFFFF0000
///            sw t2, 0(a0)
///            halt",
///     10_000,
/// ))?;
/// fleet.run_until_idle();
/// let records = fleet.drain_finished();
/// assert_eq!(records[0].out_words, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AsyncFleet {
    /// Shared with the pool's runners, which read the quantum fields.
    config: Arc<AsyncConfig>,
    cache: Arc<ImageCache>,
    /// Lazily spawned on the first multi-threaded dispatch.
    pool: Option<Pool>,
    tenants: BTreeMap<u32, AsyncTenant>,
    classes: BTreeMap<u8, ClassState>,
    /// Future arrivals, keyed by arrival tick (FIFO within a tick).
    arrivals: BTreeMap<u64, Vec<Arrival>>,
    next_job: u64,
    now: u64,
    finished: Vec<JobRecord>,
    rejected: Vec<Rejection>,
    stats: AsyncStats,
    /// The active fault-injection plan (swappable mid-run via
    /// [`AsyncFleet::set_chaos_plan`] — an operator seam, and what the
    /// warm-then-storm chaos tests drive).
    chaos: ChaosPlan,
    /// The recovery state machine: retry ledgers, breaker window, the
    /// typed event log.
    res: ResilienceState,
}

impl AsyncFleet {
    /// An empty driver.
    pub fn new(config: AsyncConfig) -> AsyncFleet {
        let chaos = config.chaos.clone();
        let res = ResilienceState::new(config.resilience.clone());
        AsyncFleet {
            config: Arc::new(config),
            cache: Arc::new(ImageCache::default()),
            pool: None,
            tenants: BTreeMap::new(),
            classes: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            next_job: 0,
            now: 0,
            finished: Vec::new(),
            rejected: Vec::new(),
            stats: AsyncStats::default(),
            chaos,
            res,
        }
    }

    /// Registers a tenant's device keys into service class `class`.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantExists`] if the id is taken.
    pub fn register_tenant(
        &mut self,
        id: TenantId,
        keys: KeySet,
        class: ClassId,
    ) -> Result<(), FleetError> {
        if self.tenants.contains_key(&id.0) {
            return Err(FleetError::TenantExists(id));
        }
        self.tenants.insert(
            id.0,
            AsyncTenant {
                keys,
                class,
                state: TenantState::Active,
                stats: TenantStats::default(),
                outstanding_fuel: 0,
            },
        );
        self.classes.entry(class.0).or_insert_with(|| ClassState {
            vservice: 0,
            queue: VecDeque::new(),
        });
        Ok(())
    }

    /// Submits a job arriving *now*: admission is decided immediately.
    ///
    /// # Errors
    ///
    /// The typed [`AdmitError`] backpressure signal — the job was not
    /// queued.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmitError> {
        let job = JobId(self.next_job);
        self.admit(job, spec)?;
        self.next_job += 1;
        Ok(job)
    }

    /// Schedules a job to arrive at virtual `tick` (clamped to the
    /// present). Admission is decided when the tick is driven; a refusal
    /// surfaces as a [`Rejection`] via [`AsyncFleet::drain_rejected`].
    /// This is the open-loop seam: the bench's arrival generators
    /// pre-load thousands of these.
    pub fn submit_at(&mut self, spec: JobSpec, tick: u64) -> JobId {
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.arrivals
            .entry(tick.max(self.now))
            .or_default()
            .push(Arrival { job, spec });
        job
    }

    /// The virtual clock: ticks driven so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs currently queued across all classes.
    pub fn queued_jobs(&self) -> usize {
        self.classes.values().map(|c| c.queue.len()).sum()
    }

    /// Jobs currently parked as `SOFS1` bytes.
    pub fn parked_jobs(&self) -> usize {
        self.classes
            .values()
            .flat_map(|c| c.queue.iter())
            .filter(|job| matches!(job.machine, MachineState::Parked(_)))
            .count()
    }

    /// Arrivals scheduled for future ticks.
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.values().map(Vec::len).sum()
    }

    /// Driver counters.
    pub fn stats(&self) -> AsyncStats {
        self.stats
    }

    /// Resilience counters: faults injected, retries, sheds, breaker
    /// transitions. All zeros unless chaos or a non-default
    /// [`ResilienceConfig`] is active.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.res.stats
    }

    /// Takes every typed fault/recovery event since the last drain, in
    /// coordinator (deterministic) order.
    pub fn drain_resilience_events(&mut self) -> Vec<ResilienceEvent> {
        self.res.drain_events()
    }

    /// Swaps the fault-injection plan from the next tick on — the
    /// operator seam for drills ("warm the fleet, then storm it").
    /// Installing [`ChaosPlan::none`] stops injection immediately.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// Records a fault the *harness* drew (the stream-scoped seams —
    /// [`Seam::Checkpoint`] truncation, [`Seam::Storm`] bursts — are
    /// injected outside the driver, but their typed events belong in
    /// the same ledger as the driver's own strikes, so "every fault has
    /// exactly one typed event" holds across the whole experiment).
    pub fn note_harness_fault(&mut self, seam: Seam, job: Option<JobId>, tenant: Option<TenantId>) {
        let now = self.now;
        self.res.note_fault(now, seam, job, tenant);
    }

    /// Per-tenant roll-ups, keyed by raw tenant id (same shape as the
    /// batch fleet's).
    pub fn tenant_stats(&self) -> BTreeMap<u32, TenantStats> {
        self.tenants.iter().map(|(id, t)| (*id, t.stats)).collect()
    }

    /// A tenant's service state.
    pub fn tenant_state(&self, id: TenantId) -> Option<TenantState> {
        self.tenants.get(&id.0).map(|t| t.state)
    }

    /// Lifts a suspension. Returns whether the tenant went back to
    /// [`TenantState::Active`] (evicted tenants never do).
    pub fn release(&mut self, id: TenantId) -> bool {
        match self.tenants.get_mut(&id.0) {
            Some(t) if t.state == TenantState::Suspended => {
                t.state = TenantState::Active;
                true
            }
            _ => false,
        }
    }

    /// Takes every record finished since the last drain, in completion
    /// order (deterministic: tick order, lane order within a tick).
    pub fn drain_finished(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.finished)
    }

    /// Takes every deferred admission rejection since the last drain.
    pub fn drain_rejected(&mut self) -> Vec<Rejection> {
        std::mem::take(&mut self.rejected)
    }

    /// Seal-cache counters (shared across all tenants of this driver).
    pub fn seal_cache_stats(&self) -> sofia_transform::cache::ImageCacheStats {
        self.cache.stats()
    }

    /// Drives ticks until no job is queued and no arrival is scheduled.
    /// Returns the number of jobs finished along the way.
    pub fn run_until_idle(&mut self) -> usize {
        let mut finished = 0;
        while self.queued_jobs() > 0 || !self.arrivals.is_empty() {
            finished += self.tick();
        }
        finished
    }

    /// Drives one virtual tick: run the resilience pass (breaker
    /// cooldown, deadline sheds), admit due arrivals, WFQ-select up to
    /// `workers` lanes, draw the chaos plan against them, attribute
    /// their cold seals, run the wave — the lanes' quanta plus the
    /// snapshots of the queued jobs cooling to parked (in parallel over
    /// the host pool — results provably independent of `threads`) —
    /// price the tick, fold finished records (intercepting retryable
    /// faults), park the cold. Returns the number of jobs that finished
    /// this tick (shed jobs included — they finish with a typed
    /// [`JobOutcome::DeadlineMissed`] record).
    pub fn tick(&mut self) -> usize {
        let now = self.now;
        let shed = self.resilience_pass(now);
        self.admit_due(now);
        let mut lanes = self.select_lanes();
        self.inject_faults(now, &mut lanes);
        self.attribute_seals(&mut lanes);
        let results = self.execute(lanes);
        let finished = self.settle(now, results);
        self.park_pass();
        self.now += 1;
        self.stats.ticks += 1;
        shed + finished
    }

    /// The per-tick recovery pass, run before admissions so a breaker
    /// close (or a deadline shed freeing queue room) takes effect for
    /// this tick's arrivals: closes the breaker when its cooldown has
    /// elapsed, then sheds every queued job whose virtual-time wait has
    /// exceeded its class deadline. Shed jobs finish with a typed
    /// [`JobOutcome::DeadlineMissed`] record — no quarantine for a job
    /// that never ran (the fleet was slow, not the tenant hostile). A
    /// shed reboot-retry keeps its first run's violations and statistics,
    /// so its tenant is contained like any other violator.
    fn resilience_pass(&mut self, now: u64) -> usize {
        self.res.breaker_tick(now);
        if self.res.config.deadlines.is_empty() {
            return 0;
        }
        let clock = self.stats.makespan_cycles;
        let mut shed: Vec<(Job, u64, u64)> = Vec::new();
        for (&class_id, state) in self.classes.iter_mut() {
            let Some(deadline) = self.res.deadline(ClassId(class_id)) else {
                continue;
            };
            let mut kept = VecDeque::with_capacity(state.queue.len());
            for job in state.queue.drain(..) {
                let waited = clock.saturating_sub(job.arrival_cycles);
                if waited > deadline {
                    shed.push((job, waited, deadline));
                } else {
                    kept.push_back(job);
                }
            }
            state.queue = kept;
        }
        let count = shed.len();
        for (job, waited, deadline) in shed {
            let (id, tenant) = (job.id, job.spec.tenant);
            self.res.record(ResilienceEvent::DeadlineShed {
                tick: now,
                job: id,
                tenant,
                waited_cycles: waited,
                deadline_cycles: deadline,
            });
            self.res.finish_job(id);
            // No outputs, sojourn = the wait that killed it; the only
            // machine work on record is an armed reboot-retry's first run.
            let (violations, stats) = job.prior.unwrap_or_default();
            let record = JobRecord {
                job: id,
                tenant,
                outcome: JobOutcome::DeadlineMissed {
                    deadline_cycles: deadline,
                },
                out_words: Vec::new(),
                violations,
                stats,
                seal_cache_hit: false,
                retried: job.retried,
                slices: job.slices,
                slice_cycles: job.slice_cycles,
                start_tick: job.start_tick.unwrap_or(now),
                end_tick: now,
                arrival_tick: job.arrival_tick,
                sojourn_cycles: waited,
            };
            self.fold_finished(&record, job.spec.fuel);
            self.finished.push(record);
        }
        self.stats.finished += count as u64;
        count
    }

    /// Draws the chaos plan against this tick's selected lanes, on the
    /// coordinator — the decisions are functions of `(seed, tick, job)`
    /// only, so they replay identically at any thread count. At most
    /// one fault strikes a lane per tick (seam priority: snapshot →
    /// seal → panic → stall), and every strike lands exactly one typed
    /// [`ResilienceEvent::FaultInjected`].
    fn inject_faults(&mut self, now: u64, lanes: &mut [Lane]) {
        if self.chaos.is_none() {
            return;
        }
        for lane in lanes.iter_mut() {
            let job = &mut lane.job;
            let (id, tenant) = (job.id, job.spec.tenant);
            if let MachineState::Parked(bytes) = &mut job.machine {
                if self.chaos.strikes(Seam::Snapshot, now, id.0) {
                    self.chaos.corrupt_snapshot(bytes, now, id.0);
                    self.res
                        .note_fault(now, Seam::Snapshot, Some(id), Some(tenant));
                    continue;
                }
            }
            // Seal faults strike only *fresh* transforms: a lane whose
            // image is already sealed (or cached) has no seal work for
            // the fault to hit — which is exactly why a 100%-seal-fault
            // storm still serves warm tenants.
            let (seam, fault) = if job.cold()
                && !self.cache.contains(&job.keys, &job.spec.source)
                && self.chaos.strikes(Seam::Seal, now, id.0)
            {
                (Seam::Seal, InjectedFault::SealFault)
            } else if self.chaos.strikes(Seam::Panic, now, id.0) {
                (Seam::Panic, InjectedFault::WorkerPanic)
            } else if self.chaos.strikes(Seam::Stall, now, id.0) {
                let cycles = self.chaos.stall_cycles;
                (Seam::Stall, InjectedFault::Stall { cycles })
            } else {
                continue;
            };
            lane.fault = Some(fault);
            self.res.note_fault(now, seam, Some(id), Some(tenant));
        }
    }

    /// Admits one job at the current tick: the [`AsyncFleet::gate`], then
    /// a fresh job on its class queue.
    fn admit(&mut self, id: JobId, spec: JobSpec) -> Result<(), AdmitError> {
        let (class, keys) = self.gate(&spec)?;
        let job = self.new_job(id, class, keys, spec);
        self.enqueue(job);
        Ok(())
    }

    /// A never-serviced job for an admitted spec, arriving now.
    fn new_job(&self, id: JobId, class: ClassId, keys: KeySet, spec: JobSpec) -> Job {
        Job {
            id,
            remaining: spec.fuel,
            spec,
            keys,
            class,
            image: None,
            machine: MachineState::Unbuilt,
            seal_cache_hit: false,
            attributed_hit: None,
            retried: false,
            prior: None,
            slices: 0,
            slice_cycles: Vec::new(),
            arrival_tick: self.now,
            arrival_cycles: self.stats.makespan_cycles,
            start_tick: None,
            idle_ticks: 0,
        }
    }

    /// Admission gate for one job at the current tick: tenant state,
    /// load shedding, queue caps and the tenant's fuel quota. Charges
    /// nothing; returns the tenant's class and keys.
    fn gate(&mut self, spec: &JobSpec) -> Result<(ClassId, KeySet), AdmitError> {
        let queued_total = self.queued_jobs();
        let Some(tenant) = self.tenants.get(&spec.tenant.0) else {
            return Err(AdmitError::UnknownTenant(spec.tenant));
        };
        match tenant.state {
            TenantState::Active => {}
            TenantState::Suspended => return Err(AdmitError::Quarantined(spec.tenant)),
            TenantState::Evicted => return Err(AdmitError::Evicted(spec.tenant)),
        }
        let class = tenant.class;
        let budget = *self.config.admission.class(class);
        if self.res.sheds(budget.weight.max(1)) {
            // The circuit breaker is open and this class is light
            // enough to shed: refuse before any queue/fuel accounting.
            self.res.record(ResilienceEvent::LoadShed {
                tick: self.now,
                tenant: spec.tenant,
                class,
            });
            return Err(AdmitError::LoadShed {
                tenant: spec.tenant,
                class,
            });
        }
        if queued_total >= self.config.admission.global_queue_cap {
            return Err(AdmitError::QueueFull {
                queued: queued_total,
                cap: self.config.admission.global_queue_cap,
            });
        }
        let Some(class_queued) = self.classes.get(&class.0).map(|c| c.queue.len()) else {
            // `register_tenant` creates the class entry; its absence is
            // a driver bug, but never worth a panic at admission.
            debug_assert!(false, "missing class state for {class}");
            return Err(AdmitError::UnknownTenant(spec.tenant));
        };
        if class_queued >= budget.queue_cap {
            return Err(AdmitError::ClassQueueFull {
                class,
                queued: class_queued,
                cap: budget.queue_cap,
            });
        }
        if tenant.outstanding_fuel.saturating_add(spec.fuel) > budget.tenant_fuel_quota {
            return Err(AdmitError::OverFuelQuota {
                tenant: spec.tenant,
                outstanding: tenant.outstanding_fuel,
                requested: spec.fuel,
                quota: budget.tenant_fuel_quota,
            });
        }
        Ok((class, tenant.keys.clone()))
    }

    /// Queues a job that passed the [`AsyncFleet::gate`]: charges its
    /// fuel budget to the tenant's quota and appends it to its class.
    fn enqueue(&mut self, job: Job) {
        if let Some(tenant) = self.tenants.get_mut(&job.spec.tenant.0) {
            tenant.outstanding_fuel += job.spec.fuel;
        }
        let class = job.class;
        let floor = self.backlog_vservice_floor();
        let weight = self.config.admission.class(class).weight.max(1);
        let Some(state) = self.classes.get_mut(&class.0) else {
            unreachable!("the gate found {class}'s state");
        };
        if state.queue.is_empty() {
            // WFQ catch-up: a class going idle must not bank unbounded
            // credit against classes that kept working. On re-backlog
            // its virtual service jumps forward to the working floor.
            if let Some(floor) = floor {
                state.vservice = state.vservice.max(floor.saturating_mul(weight));
            }
        }
        state.queue.push_back(job);
        self.stats.admitted += 1;
    }

    /// Ids of the queued jobs, class by class in service (FIFO) order.
    pub(crate) fn queued_ids(&self) -> Vec<JobId> {
        self.classes
            .values()
            .flat_map(|c| c.queue.iter().map(|job| job.id))
            .collect()
    }

    /// Removes a queued job and packages everything another fleet needs
    /// to finish it: the spec (tenant, source, fuel, sabotage), the
    /// accumulated scheduling history, and — if the job has already run
    /// — the suspended machine as a [`MachineSnapshot`]. A parked job
    /// exports its snapshot bytes as they are, without being revived.
    /// The ciphertext stays behind: the adopting fleet re-seals the
    /// source from its tenant's [`KeySet`] through its own image cache,
    /// and the image MACs cover the code in transit. The job's fuel
    /// budget leaves its tenant's quota here.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownJob`] if `id` is not queued (it finished,
    /// was already checkpointed, has not arrived yet, or never existed).
    pub fn checkpoint_job(&mut self, id: JobId) -> Result<JobCheckpoint, FleetError> {
        let job = self
            .classes
            .values_mut()
            .find_map(|state| {
                let at = state.queue.iter().position(|job| job.id == id)?;
                state.queue.remove(at)
            })
            .ok_or(FleetError::UnknownJob(id))?;
        let machine = match job.machine {
            // Chaos corrupts only a lane's copy of the bytes, never the
            // queued job's, so these are exactly what `to_bytes` wrote.
            MachineState::Parked(bytes) => {
                Some(MachineSnapshot::from_bytes(&bytes).unwrap_or_else(|e| {
                    unreachable!("parked bytes this driver wrote fail to decode: {e}")
                }))
            }
            MachineState::Live(machine) => Some(machine.snapshot(job.remaining)),
            MachineState::Unbuilt => None,
        };
        if let Some(t) = self.tenants.get_mut(&job.spec.tenant.0) {
            t.outstanding_fuel = t.outstanding_fuel.saturating_sub(job.spec.fuel);
        }
        self.res.finish_job(id);
        Ok(JobCheckpoint {
            tenant: job.spec.tenant,
            source: job.spec.source,
            fuel: job.spec.fuel,
            sabotage: job.spec.sabotage,
            remaining: job.remaining,
            retried: job.retried,
            prior: job.prior,
            slices: job.slices,
            slice_cycles: job.slice_cycles,
            machine,
        })
    }

    /// Adopts a job checkpointed out of another fleet: admits it through
    /// the same gate as [`AsyncFleet::submit`] (so its fuel budget is
    /// charged to the tenant's quota), re-seals the tenant's program
    /// through this fleet's image cache (the tenant must be registered
    /// here with the same device keys for the resumed edge to verify),
    /// restores the suspended machine against the freshly sealed image,
    /// and queues the job. Returns the job's id in *this* fleet.
    ///
    /// Restoration re-verifies every warm verified-block-cache line
    /// against the re-sealed image, so a checkpoint cannot smuggle
    /// unverified plaintext between fleets; a tampered resume point is
    /// caught by edge verification on the job's first resumed fetch.
    ///
    /// # Errors
    ///
    /// [`AdoptError`]: admission refused, seal failure, or a snapshot
    /// that fails restoration. Nothing is charged on refusal.
    pub fn adopt_job(&mut self, ckpt: JobCheckpoint) -> Result<JobId, AdoptError> {
        let spec = JobSpec {
            tenant: ckpt.tenant,
            source: ckpt.source,
            fuel: ckpt.fuel,
            sabotage: ckpt.sabotage,
        };
        let (class, keys) = self.gate(&spec).map_err(AdoptError::Admit)?;
        let id = JobId(self.next_job);
        let mut job = self.new_job(id, class, keys, spec);
        if let Some(snap) = &ckpt.machine {
            let image = seal(&mut job, &self.cache).map_err(AdoptError::Seal)?;
            let machine = restore_against(&image, &job.keys, snap, job.spec.sabotage)
                .map_err(AdoptError::Restore)?;
            job.machine = MachineState::Live(machine);
        }
        job.remaining = ckpt.remaining;
        job.retried = ckpt.retried;
        job.prior = ckpt.prior;
        job.slices = ckpt.slices;
        job.slice_cycles = ckpt.slice_cycles;
        self.next_job += 1;
        self.enqueue(job);
        Ok(id)
    }

    /// Minimum weighted virtual service (`vservice / weight`) among the
    /// currently backlogged classes, or `None` if none are.
    fn backlog_vservice_floor(&self) -> Option<u64> {
        self.classes
            .iter()
            .filter(|(_, c)| !c.queue.is_empty())
            .map(|(id, c)| {
                let weight = self.config.admission.class(ClassId(*id)).weight.max(1);
                c.vservice / weight
            })
            .min()
    }

    /// Admits every arrival scheduled at or before `now`, in tick order
    /// then submission order; refusals become [`Rejection`]s.
    fn admit_due(&mut self, now: u64) {
        let due: Vec<u64> = self.arrivals.range(..=now).map(|(tick, _)| *tick).collect();
        for tick in due {
            let Some(batch) = self.arrivals.remove(&tick) else {
                continue;
            };
            for arrival in batch {
                let tenant = arrival.spec.tenant;
                if let Err(error) = self.admit(arrival.job, arrival.spec) {
                    self.stats.rejected += 1;
                    self.rejected.push(Rejection {
                        job: arrival.job,
                        tenant,
                        tick: now,
                        error,
                    });
                }
            }
        }
    }

    /// WFQ lane selection: fills up to `workers` lanes, cheapest
    /// weighted class first, FIFO within a class. The provisional
    /// charge (the quantum's fuel ceiling) is applied at selection so
    /// one tick's picks rotate across classes instead of draining the
    /// cheapest one; it is trued up with actual cycles in
    /// [`AsyncFleet::settle`].
    fn select_lanes(&mut self) -> Vec<Lane> {
        let workers = self.config.workers.max(1);
        let mut lanes: Vec<Lane> = Vec::new();
        for _ in 0..workers {
            let Some(class_id) = self.cheapest_backlogged_class() else {
                break;
            };
            let Some(state) = self.classes.get_mut(&class_id) else {
                break;
            };
            let Some(job) = state.queue.pop_front() else {
                break;
            };
            let provisional = self.config.mode.quantum(job.remaining).max(1);
            state.vservice = state.vservice.saturating_add(provisional);
            lanes.push(Lane {
                job,
                provisional,
                fault: None,
                claims_seal: false,
                record: None,
                revived: false,
            });
        }
        lanes
    }

    /// The backlogged class with minimum `vservice / weight`, compared
    /// exactly (u128 cross-multiply); ties break to the lower class id.
    fn cheapest_backlogged_class(&self) -> Option<u8> {
        let mut best: Option<(u8, u64, u64)> = None;
        for (&id, state) in &self.classes {
            if state.queue.is_empty() {
                continue;
            }
            let weight = self.config.admission.class(ClassId(id)).weight.max(1);
            let better = match best {
                None => true,
                Some((_, best_vs, best_w)) => {
                    (state.vservice as u128) * (best_w as u128)
                        < (best_vs as u128) * (weight as u128)
                }
            };
            if better {
                best = Some((id, state.vservice, weight));
            }
        }
        best.map(|(id, _, _)| id)
    }

    /// Runs the tick's wave — the selected lanes plus a snapshot of
    /// every queued job cooling to parked — and returns the lane results
    /// in lane order. The snapshot bytes go back into their jobs here,
    /// before the lanes settle.
    fn execute(&mut self, lanes: Vec<Lane>) -> Vec<Lane> {
        let (parks, cooling) = self.take_cooling();
        let tasks = lanes.into_iter().map(Task::Lane).chain(parks).collect();
        let mut results = Vec::new();
        let mut cooling = cooling.into_iter();
        for done in self.run_wave(tasks) {
            match done {
                Done::Lane(lane) => results.push(lane),
                Done::Park(bytes) => {
                    let Some((class, at)) = cooling.next() else {
                        debug_assert!(false, "more park results than cooling jobs");
                        continue;
                    };
                    if let Some(job) = self
                        .classes
                        .get_mut(&class)
                        .and_then(|state| state.queue.get_mut(at))
                    {
                        job.machine = MachineState::Parked(bytes);
                        self.stats.parks += 1;
                    }
                }
            }
        }
        results
    }

    /// Runs a wave and returns its results in task order: inline when
    /// `threads == 1` or there is at most one task, else on the
    /// persistent pool with the coordinator as one of its runners.
    fn run_wave(&mut self, tasks: Vec<Task>) -> Vec<Done> {
        let threads = self.config.threads.max(1);
        if threads <= 1 || tasks.len() <= 1 {
            return tasks
                .into_iter()
                .map(|t| run_task(t, &self.config, &self.cache))
                .collect();
        }
        let pool = self.pool.get_or_insert_with(|| {
            Pool::new(
                threads - 1,
                Arc::clone(&self.config),
                Arc::clone(&self.cache),
            )
        });
        pool.dispatch(tasks)
    }

    /// Decides each cold lane's seal attribution, in lane order, before
    /// the wave runs: the first cold lane of an image the cache does not
    /// hold is the miss, every other cold lane is a hit, however the
    /// lanes' seals then race. The first cold lane of each image claims
    /// its seal. A lane struck by an injected seal fault never seals, so
    /// it neither claims nor is attributed.
    fn attribute_seals(&self, lanes: &mut [Lane]) {
        let mut claimed: HashSet<ImageKey> = HashSet::new();
        for lane in lanes.iter_mut() {
            let job = &mut lane.job;
            if lane.fault == Some(InjectedFault::SealFault) || !job.cold() {
                continue;
            }
            let key = image_key(&job.keys, &job.spec.source);
            lane.claims_seal = claimed.insert(key);
            job.attributed_hit =
                Some(!lane.claims_seal || self.cache.contains(&job.keys, &job.spec.source));
        }
    }

    /// Takes the machine of every queued job that [`AsyncFleet::park_pass`]
    /// would park at the end of this tick, as snapshot tasks for the
    /// wave, with each job's `(class, queue index)` to return its bytes
    /// to. The lanes are already out of the queues, and settling only
    /// appends to them, so the indices hold until the bytes return.
    fn take_cooling(&mut self) -> (Vec<Task>, Vec<(u8, usize)>) {
        let mut tasks = Vec::new();
        let mut cooling = Vec::new();
        let Some(after) = self.config.park_after else {
            return (tasks, cooling);
        };
        for (&class, state) in self.classes.iter_mut() {
            for (at, job) in state.queue.iter_mut().enumerate() {
                if job.idle_ticks + 1 < after {
                    continue;
                }
                if let Some(machine) = job.machine.take_live() {
                    tasks.push(Task::Park {
                        machine,
                        remaining: job.remaining,
                    });
                    cooling.push((class, at));
                }
            }
        }
        (tasks, cooling)
    }

    /// Prices the tick and folds its lane results, in lane order:
    /// finished records gain their arrival/sojourn fields and fold into
    /// stats + quarantine; preempted jobs re-queue FIFO in their class.
    fn settle(&mut self, now: u64, lanes: Vec<Lane>) -> usize {
        // Tick cost: max quantum cost among the served lanes — the
        // barrier-synchronous pricing rule of `crate::schedule`.
        let lane_cost = |lane: &Lane| match &lane.record {
            Some(record) => record.slice_cycles.last().copied().unwrap_or(0),
            None => lane.job.slice_cycles.last().copied().unwrap_or(0),
        };
        let tick_cost = lanes.iter().map(lane_cost).max().unwrap_or(0);
        self.stats.makespan_cycles += tick_cost;
        let clock = self.stats.makespan_cycles;

        let mut finished = 0usize;
        for lane in lanes {
            self.stats.quanta += 1;
            self.stats.revives += lane.revived as u64;
            let actual = lane_cost(&lane);
            let injected = matches!(
                lane.fault,
                Some(InjectedFault::SealFault | InjectedFault::WorkerPanic)
            );
            let mut job = lane.job;
            if let Some(state) = self.classes.get_mut(&job.class.0) {
                // True up the WFQ charge with the quantum's actual cost.
                state.vservice = state
                    .vservice
                    .saturating_add(actual)
                    .saturating_sub(lane.provisional);
            }
            job.idle_ticks = 0;
            let start_tick = *job.start_tick.get_or_insert(now);
            match lane.record {
                Some(mut record) => {
                    record.arrival_tick = job.arrival_tick;
                    record.start_tick = start_tick;
                    record.end_tick = now + 1;
                    record.sojourn_cycles = clock.saturating_sub(job.arrival_cycles);
                    // An infrastructure fault is one the job did not
                    // cause: an injected seal or worker fault, or a
                    // failed revival. A seal error or a panic of the
                    // job's own making recurs on every retry, so like a
                    // trap it finishes at once and never feeds the
                    // breaker.
                    let infra_fault = match record.outcome {
                        JobOutcome::SealFailed(_) | JobOutcome::WorkerPanic(_) => injected,
                        JobOutcome::RevivalFailed(_) => true,
                        _ => false,
                    };
                    match &record.outcome {
                        JobOutcome::WorkerPanic(_) => self.stats.worker_panics += 1,
                        JobOutcome::RevivalFailed(_) => self.stats.revival_failures += 1,
                        _ => {}
                    }
                    if infra_fault {
                        // One breaker feed per fault *record* — retried
                        // or not, the infrastructure failed once.
                        self.res.feed_breaker(now);
                        let chaos = &self.chaos;
                        let jitter = |max, attempt: u32| {
                            chaos.jitter(max, now, record.job.0 ^ ((attempt as u64) << 48))
                        };
                        if let Some(resume) =
                            self.res.take_retry(now, record.job, record.tenant, jitter)
                        {
                            // Retry instead of finishing: release the
                            // fuel claim (the retry arrival re-charges
                            // it) and re-queue the job with backoff +
                            // seeded jitter. The record is discarded —
                            // its fault is already accounted for by the
                            // typed FaultInjected/RetryScheduled events
                            // and the breaker feed.
                            if let Some(t) = self.tenants.get_mut(&record.tenant.0) {
                                t.outstanding_fuel =
                                    t.outstanding_fuel.saturating_sub(job.spec.fuel);
                            }
                            self.arrivals.entry(resume).or_default().push(Arrival {
                                job: record.job,
                                spec: job.spec,
                            });
                            continue;
                        }
                    }
                    self.res.finish_job(record.job);
                    if let Some(deadline) = self.res.deadline(job.class) {
                        if record.sojourn_cycles > deadline {
                            self.res.record(ResilienceEvent::DeadlineLate {
                                tick: now,
                                job: record.job,
                                tenant: record.tenant,
                                sojourn_cycles: record.sojourn_cycles,
                                deadline_cycles: deadline,
                            });
                        }
                    }
                    self.fold_finished(&record, job.spec.fuel);
                    self.finished.push(record);
                    finished += 1;
                }
                None => {
                    if let Some(state) = self.classes.get_mut(&job.class.0) {
                        state.queue.push_back(job);
                    } else {
                        debug_assert!(false, "missing class state for {}", job.class);
                    }
                }
            }
        }
        self.stats.finished += finished as u64;
        finished
    }

    /// Stats + quarantine fold for one finished record (deterministic:
    /// called in tick order, lane order). Containment never stops a job
    /// already admitted — its result stays bit-identical to serial
    /// execution — it only refuses *future* admission, with the typed
    /// [`AdmitError`].
    fn fold_finished(&mut self, record: &JobRecord, fuel: u64) {
        let Some(tenant) = self.tenants.get_mut(&record.tenant.0) else {
            debug_assert!(false, "record for unregistered {}", record.tenant);
            return;
        };
        tenant.stats.absorb(record);
        tenant.outstanding_fuel = tenant.outstanding_fuel.saturating_sub(fuel);
        let fold = fold_policy(
            self.config.quarantine,
            &mut tenant.state,
            needs_containment(record),
        );
        if fold.suspended_now {
            self.stats.quarantines += 1;
        }
        if fold.evicted_now {
            self.stats.evictions += 1;
        }
        if fold.purge {
            // Re-purge on *every* evicted-tenant record: jobs admitted
            // before the eviction keep running (their results stay
            // bit-identical to serial execution), and any of them can
            // re-seal the tenant's image into the shared cache after the
            // eviction-time purge.
            self.cache.purge(&tenant.keys);
        }
    }

    /// Ages the still-queued jobs and parks the cold ones to `SOFS1`
    /// bytes. The wave already parked every cold job that was queued
    /// before it ran; this parks the lanes re-queued this tick that are
    /// cold at once (`park_after <= 1`). Also tracks the peak count of
    /// resident live machines — the number the "thousands of tenants on
    /// a few threads" claim stands on.
    fn park_pass(&mut self) {
        let park_after = self.config.park_after;
        let mut resident = 0u64;
        let mut parks = 0u64;
        for state in self.classes.values_mut() {
            for job in state.queue.iter_mut() {
                job.idle_ticks += 1;
                let cold = park_after.is_some_and(|after| job.idle_ticks >= after);
                if cold {
                    if let Some(machine) = job.machine.take_live() {
                        let snap = machine.snapshot(job.remaining);
                        job.machine = MachineState::Parked(snap.to_bytes());
                        parks += 1;
                    }
                } else if job.machine.live().is_some() {
                    resident += 1;
                }
            }
        }
        self.stats.parks += parks;
        self.stats.peak_resident_machines = self.stats.peak_resident_machines.max(resident);
    }
}

// Compile-time guarantee: the driver crosses thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AsyncFleet>();
};
