//! The fleet driver: thousands of tenant jobs multiplexed over a few OS
//! threads.
//!
//! [`AsyncFleet`] is the one scheduler in this crate; the batch
//! [`crate::Fleet`] is a facade over it that makes every queued job a
//! lane. It is a hand-rolled executor (no external runtime) built on
//! three existing seams:
//!
//! * **Yield point** — the engine's fuel-slice seam
//!   ([`sofia_core::SofiaMachine::run_slice`] / cooperative preemption
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
//! left. Results come back in task order.
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

use sofia_core::machine::SofiaMachine;
use sofia_core::MachineSnapshot;
use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache, ImageKey};

use crate::admission::{AdmissionConfig, AdmitError, ClassId, Rejection};
use crate::chaos::{ChaosPlan, InjectedFault, Seam};
use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::fleet::{
    catch_quantum, finish, needs_containment, restore_against, seal_run, FleetConfig, FleetError,
    JobRun, SchedMode,
};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, TenantId};
use crate::quarantine::{fold_policy, QuarantinePolicy, TenantState};
use crate::resilience::{ResilienceConfig, ResilienceEvent, ResilienceState, ResilienceStats};
use crate::stats::TenantStats;

/// Full configuration of an [`AsyncFleet`].
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Host OS threads executing each tick's wave (clamped to ≥ 1): the
    /// coordinator plus `threads − 1` pool threads, or the coordinator
    /// alone at 1. Pure host parallelism: provably cannot affect
    /// results, records or virtual time — only wall-clock.
    pub threads: usize,
    /// Virtual lanes served per tick (clamped to ≥ 1) — the async
    /// analogue of [`FleetConfig::workers`]. Part of the deterministic
    /// surface: changing it changes the schedule (but never what any
    /// job computes).
    pub workers: usize,
    /// Scheduling discipline. [`SchedMode::FuelSliced`] is the point of
    /// the async driver; run-to-completion still works (each quantum is
    /// a whole job).
    pub mode: SchedMode,
    /// Containment for violating (or worker-crashing) tenants.
    pub quarantine: QuarantinePolicy,
    /// The SOFIA machine configuration every job runs under.
    pub sofia: sofia_core::SofiaConfig,
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

/// One queued job plus its async bookkeeping. Travels whole to a pool
/// thread for its quantum and comes back in the lane's result.
struct Pending {
    run: JobRun,
    /// `SOFS1` bytes of the parked machine (`run.machine` is `None`
    /// while this is `Some`).
    parked: Option<Vec<u8>>,
    class: ClassId,
    arrival_tick: u64,
    /// Virtual-clock reading at admission — the sojourn baseline.
    arrival_cycles: u64,
    start_tick: Option<u64>,
    /// Consecutive ticks queued without service (parking trigger).
    idle_ticks: u64,
}

/// Per-class WFQ state.
struct ClassState {
    /// Total virtual service charged, in simulated cycles.
    vservice: u64,
    queue: VecDeque<Pending>,
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

/// One lane's work for a tick.
struct LaneTask {
    pending: Pending,
    /// The WFQ charge applied at selection, to true up after the run.
    provisional: u64,
    /// The fault the chaos plan assigned to this lane, if any. Decided
    /// on the coordinator (deterministic), applied on the lane runner.
    fault: Option<InjectedFault>,
    /// Whether this is the wave's first cold lane of its image: it
    /// seals before any injected fault applies, so the cache sees one
    /// lookup per distinct image in the wave, faulted claimer or not.
    claims_seal: bool,
}

struct LaneResult {
    pending: Pending,
    provisional: u64,
    record: Option<JobRecord>,
    revived: bool,
}

/// Revives a parked run in place. Any failure is a *host* fault (the
/// snapshot was produced by this very driver, so corruption means the
/// bytes rotted in storage or transit), reported as the typed
/// [`JobOutcome::RevivalFailed`] — never a security verdict.
fn revive(run: &mut JobRun, bytes: &[u8]) -> Result<(), String> {
    let snap = MachineSnapshot::from_bytes(bytes).map_err(|e| format!("revive decode: {e}"))?;
    let Some(image) = run.image.clone() else {
        return Err("parked job lost its sealed image".to_string());
    };
    let machine = restore_against(&image, &run.keys, &snap, run.spec.sabotage)
        .map_err(|e| format!("revive restore: {e:?}"))?;
    run.machine = Some(machine);
    Ok(())
}

/// Serves one lane: revive if parked, apply any injected fault, then
/// one quantum through the panic barrier. Runs on a pool thread (or
/// inline when `threads == 1`).
fn run_lane(mut task: LaneTask, config: &FleetConfig, cache: &ImageCache) -> LaneResult {
    let run = &mut task.pending.run;
    if task.claims_seal {
        // A failed seal leaves the image unset: the quantum seals again
        // and fails the same way (seals are deterministic), typed.
        let _ = seal_run(run, cache);
    }
    let mut revived = false;
    if let Some(bytes) = task.pending.parked.take() {
        match revive(run, &bytes) {
            Ok(()) => revived = true,
            Err(msg) => {
                // Mirror a seal failure's accounting: one zero-cost
                // quantum so the schedule model still prices the tick.
                run.slices += 1;
                run.slice_cycles.push(0);
                let record = finish(run, JobOutcome::RevivalFailed(msg));
                return LaneResult {
                    pending: task.pending,
                    provisional: task.provisional,
                    record: Some(record),
                    revived: false,
                };
            }
        }
    }
    let record = match task.fault.take() {
        // An injected seal fault: the job's fresh seal "failed" — the
        // same typed, zero-cost-quantum shape as a real seal error.
        Some(InjectedFault::SealFault) => {
            run.slices += 1;
            run.slice_cycles.push(0);
            Some(finish(
                run,
                JobOutcome::SealFailed("chaos: injected seal-farm fault".to_string()),
            ))
        }
        // An injected worker death: no real panic ever unwinds (the
        // "never a panic" contract) — the machine is dropped and the
        // same typed record a caught panic would produce is emitted.
        Some(InjectedFault::WorkerPanic) => {
            run.machine = None;
            run.slices += 1;
            run.slice_cycles.push(0);
            Some(finish(
                run,
                JobOutcome::WorkerPanic("chaos: injected worker fault".to_string()),
            ))
        }
        // An injected stall: the quantum runs normally, then its lane
        // cost is taxed in *virtual* cycles, so the schedule model (and
        // every sojourn derived from it) prices the slow host. The
        // machine's own simulated cycles are untouched — a stall is
        // scheduler time, not device work.
        Some(InjectedFault::Stall { cycles }) => {
            let mut record = catch_quantum(run, config, cache);
            match record.as_mut() {
                Some(r) => {
                    if let Some(last) = r.slice_cycles.last_mut() {
                        *last = last.saturating_add(cycles);
                    }
                }
                None => {
                    if let Some(last) = run.slice_cycles.last_mut() {
                        *last = last.saturating_add(cycles);
                    }
                }
            }
            record
        }
        None => catch_quantum(run, config, cache),
    };
    LaneResult {
        pending: task.pending,
        provisional: task.provisional,
        record,
        revived,
    }
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
    Lane(LaneTask),
    /// Serialise a cooling job's machine to `SOFS1` bytes.
    Park {
        machine: SofiaMachine,
        remaining: u64,
    },
}

/// A task's result, in the shape of its [`Task`].
#[allow(clippy::large_enum_variant)]
enum Done {
    Lane(LaneResult),
    Park(Vec<u8>),
}

fn run_task(task: Task, config: &FleetConfig, cache: &ImageCache) -> Done {
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
/// quantum is already contained by [`catch_quantum`], and a poisoned
/// flag must not take the driver down (the whole point of the
/// panic-isolation fix).
struct PoolShared {
    config: FleetConfig,
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
    fn new(workers: usize, config: FleetConfig, cache: Arc<ImageCache>) -> Pool {
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

/// The async multi-tenant driver. See the [module docs](self) for the
/// architecture; the API shape mirrors the batch [`crate::Fleet`]
/// (register, submit, drive, drain) with two async additions: a virtual
/// clock ([`AsyncFleet::tick`] / [`AsyncFleet::now`]) and scheduled
/// arrivals with deferred typed rejection ([`AsyncFleet::submit_at`] /
/// [`AsyncFleet::drain_rejected`]).
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
    config: AsyncConfig,
    /// The per-quantum configuration shared verbatim with the batch
    /// fleet's quantum loop — the seam that makes per-job execution
    /// bit-identical across the two drivers.
    fleet_config: FleetConfig,
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
        let fleet_config = FleetConfig {
            workers: config.workers.max(1),
            mode: config.mode,
            quarantine: config.quarantine,
            sofia: config.sofia,
        };
        let chaos = config.chaos.clone();
        let res = ResilienceState::new(config.resilience.clone());
        AsyncFleet {
            config,
            fleet_config,
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

    /// The virtual clock in simulated cycles (sum of tick costs).
    pub fn clock_cycles(&self) -> u64 {
        self.stats.makespan_cycles
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
            .filter(|p| p.parked.is_some())
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

    /// The active fault-injection plan.
    pub fn chaos_plan(&self) -> &ChaosPlan {
        &self.chaos
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
    /// [`JobOutcome::DeadlineMissed`] record — no quarantine (the job
    /// never ran; the fleet was slow, not the tenant hostile).
    fn resilience_pass(&mut self, now: u64) -> usize {
        self.res.breaker_tick(now);
        if self.res.config.deadlines.is_empty() {
            return 0;
        }
        let clock = self.stats.makespan_cycles;
        let mut shed: Vec<(Pending, u64, u64)> = Vec::new();
        for (&class_id, state) in self.classes.iter_mut() {
            let Some(deadline) = self.res.deadline(ClassId(class_id)) else {
                continue;
            };
            let mut kept = VecDeque::with_capacity(state.queue.len());
            for pending in state.queue.drain(..) {
                let waited = clock.saturating_sub(pending.arrival_cycles);
                if waited > deadline {
                    shed.push((pending, waited, deadline));
                } else {
                    kept.push_back(pending);
                }
            }
            state.queue = kept;
        }
        let count = shed.len();
        for (mut pending, waited, deadline) in shed {
            let job = pending.run.id;
            let tenant = pending.run.spec.tenant;
            self.res
                .note_deadline_shed(now, job, tenant, waited, deadline);
            self.res.finish_job(job);
            // The record of a job that never ran: empty outputs, zero
            // machine work, sojourn = the wait that killed it.
            pending.run.machine = None;
            let record = JobRecord {
                job,
                tenant,
                outcome: JobOutcome::DeadlineMissed {
                    deadline_cycles: deadline,
                },
                out_words: Vec::new(),
                violations: Vec::new(),
                stats: Default::default(),
                seal_cache_hit: false,
                retried: false,
                slices: pending.run.slices,
                slice_cycles: std::mem::take(&mut pending.run.slice_cycles),
                start_tick: pending.start_tick.unwrap_or(now),
                end_tick: now,
                arrival_tick: pending.arrival_tick,
                sojourn_cycles: waited,
            };
            self.fold_finished(&record, pending.run.spec.fuel);
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
    fn inject_faults(&mut self, now: u64, lanes: &mut [LaneTask]) {
        if self.chaos.is_none() {
            return;
        }
        for task in lanes.iter_mut() {
            let job = task.pending.run.id;
            let tenant = task.pending.run.spec.tenant;
            if task.pending.parked.is_some() && self.chaos.strikes(Seam::Snapshot, now, job.0) {
                if let Some(bytes) = task.pending.parked.as_mut() {
                    self.chaos.corrupt_snapshot(bytes, now, job.0);
                }
                self.res
                    .note_fault(now, Seam::Snapshot, Some(job), Some(tenant));
                continue;
            }
            // Seal faults strike only *fresh* transforms: a lane whose
            // image is already sealed (or cached) has no seal work for
            // the fault to hit — which is exactly why a 100%-seal-fault
            // storm still serves warm tenants.
            let cold = task.pending.run.machine.is_none() && task.pending.run.image.is_none();
            if cold
                && !self.cache.contains(&image_key(
                    &task.pending.run.keys,
                    &task.pending.run.spec.source,
                ))
                && self.chaos.strikes(Seam::Seal, now, job.0)
            {
                task.fault = Some(InjectedFault::SealFault);
                self.res
                    .note_fault(now, Seam::Seal, Some(job), Some(tenant));
                continue;
            }
            if self.chaos.strikes(Seam::Panic, now, job.0) {
                task.fault = Some(InjectedFault::WorkerPanic);
                self.res
                    .note_fault(now, Seam::Panic, Some(job), Some(tenant));
                continue;
            }
            if self.chaos.strikes(Seam::Stall, now, job.0) {
                task.fault = Some(InjectedFault::Stall {
                    cycles: self.chaos.stall_cycles,
                });
                self.res
                    .note_fault(now, Seam::Stall, Some(job), Some(tenant));
            }
        }
    }

    /// Admits one job at the current tick: the [`AsyncFleet::gate`], then
    /// a fresh run on its class queue.
    fn admit(&mut self, job: JobId, spec: JobSpec) -> Result<(), AdmitError> {
        let (class, keys) = self.gate(&spec)?;
        self.enqueue(class, JobRun::new(job, keys, spec));
        Ok(())
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
            self.res.note_load_shed(self.now, spec.tenant, class);
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

    /// Queues a run that passed the [`AsyncFleet::gate`]: charges its
    /// fuel budget to the tenant's quota and appends it to its class.
    fn enqueue(&mut self, class: ClassId, run: JobRun) {
        if let Some(tenant) = self.tenants.get_mut(&run.spec.tenant.0) {
            tenant.outstanding_fuel += run.spec.fuel;
        }
        let arrival_cycles = self.stats.makespan_cycles;
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
        state.queue.push_back(Pending {
            run,
            parked: None,
            class,
            arrival_tick: self.now,
            arrival_cycles,
            start_tick: None,
            idle_ticks: 0,
        });
        self.stats.admitted += 1;
    }

    /// Ids of the queued jobs, class by class in service (FIFO) order.
    pub(crate) fn queued_ids(&self) -> Vec<JobId> {
        self.classes
            .values()
            .flat_map(|c| c.queue.iter().map(|p| p.run.id))
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
        let Pending { run, parked, .. } = self
            .classes
            .values_mut()
            .find_map(|state| {
                let at = state.queue.iter().position(|p| p.run.id == id)?;
                state.queue.remove(at)
            })
            .ok_or(FleetError::UnknownJob(id))?;
        let machine = match parked {
            // Chaos corrupts only a lane's copy of the bytes, never the
            // queued job's, so these are exactly what `to_bytes` wrote.
            Some(bytes) => Some(MachineSnapshot::from_bytes(&bytes).unwrap_or_else(|e| {
                unreachable!("parked bytes this driver wrote fail to decode: {e}")
            })),
            None => run.machine.as_ref().map(|m| m.snapshot(run.remaining)),
        };
        if let Some(t) = self.tenants.get_mut(&run.spec.tenant.0) {
            t.outstanding_fuel = t.outstanding_fuel.saturating_sub(run.spec.fuel);
        }
        self.res.finish_job(id);
        Ok(JobCheckpoint {
            tenant: run.spec.tenant,
            source: run.spec.source,
            fuel: run.spec.fuel,
            sabotage: run.spec.sabotage,
            remaining: run.remaining,
            retried: run.retried,
            prior: run.prior,
            slices: run.slices,
            slice_cycles: run.slice_cycles,
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
        let mut run = JobRun::new(id, keys, spec);
        if let Some(snap) = &ckpt.machine {
            let (image, hit) = self
                .cache
                .get_or_seal_traced(&run.keys, &run.spec.source)
                .map_err(AdoptError::Seal)?;
            let machine = restore_against(&image, &run.keys, snap, run.spec.sabotage)
                .map_err(AdoptError::Restore)?;
            run.image = Some(image);
            run.machine = Some(machine);
            run.seal_cache_hit = hit;
        }
        run.remaining = ckpt.remaining;
        run.retried = ckpt.retried;
        run.prior = ckpt.prior;
        run.slices = ckpt.slices;
        run.slice_cycles = ckpt.slice_cycles;
        self.next_job += 1;
        self.enqueue(class, run);
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
    fn select_lanes(&mut self) -> Vec<LaneTask> {
        let workers = self.config.workers.max(1);
        let mut lanes: Vec<LaneTask> = Vec::new();
        for _ in 0..workers {
            let Some(class_id) = self.cheapest_backlogged_class() else {
                break;
            };
            let Some(state) = self.classes.get_mut(&class_id) else {
                break;
            };
            let Some(pending) = state.queue.pop_front() else {
                break;
            };
            let provisional = match self.config.mode {
                SchedMode::FuelSliced { slice } => slice.max(1).min(pending.run.remaining.max(1)),
                SchedMode::RunToCompletion => pending.run.remaining.max(1),
            };
            state.vservice = state.vservice.saturating_add(provisional);
            lanes.push(LaneTask {
                pending,
                provisional,
                fault: None,
                claims_seal: false,
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
    fn execute(&mut self, lanes: Vec<LaneTask>) -> Vec<LaneResult> {
        let (parks, cooling) = self.take_cooling();
        let tasks = lanes.into_iter().map(Task::Lane).chain(parks).collect();
        let mut results = Vec::new();
        let mut cooling = cooling.into_iter();
        for done in self.run_wave(tasks) {
            match done {
                Done::Lane(result) => results.push(result),
                Done::Park(bytes) => {
                    let Some((class, at)) = cooling.next() else {
                        debug_assert!(false, "more park results than cooling jobs");
                        continue;
                    };
                    if let Some(pending) = self
                        .classes
                        .get_mut(&class)
                        .and_then(|state| state.queue.get_mut(at))
                    {
                        pending.parked = Some(bytes);
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
                .map(|t| run_task(t, &self.fleet_config, &self.cache))
                .collect();
        }
        let pool = self.pool.get_or_insert_with(|| {
            Pool::new(threads - 1, self.fleet_config, Arc::clone(&self.cache))
        });
        pool.dispatch(tasks)
    }

    /// Decides each cold lane's seal attribution, in lane order, before
    /// the wave runs: the first cold lane of an image the cache does not
    /// hold is the miss, every other cold lane is a hit, however the
    /// lanes' seals then race. The first cold lane of each image claims
    /// its seal. A lane struck by an injected seal fault never seals, so
    /// it neither claims nor is attributed.
    fn attribute_seals(&self, lanes: &mut [LaneTask]) {
        let mut claimed: HashSet<ImageKey> = HashSet::new();
        for task in lanes.iter_mut() {
            let run = &mut task.pending.run;
            if task.fault == Some(InjectedFault::SealFault)
                || run.machine.is_some()
                || run.image.is_some()
            {
                continue;
            }
            let key = image_key(&run.keys, &run.spec.source);
            task.claims_seal = claimed.insert(key);
            run.attributed_hit = Some(!task.claims_seal || self.cache.contains(&key));
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
            for (at, pending) in state.queue.iter_mut().enumerate() {
                if pending.idle_ticks + 1 < after {
                    continue;
                }
                if let Some(machine) = pending.run.machine.take() {
                    tasks.push(Task::Park {
                        machine,
                        remaining: pending.run.remaining,
                    });
                    cooling.push((class, at));
                }
            }
        }
        (tasks, cooling)
    }

    /// Prices the tick and folds its lane results, in lane order:
    /// finished records gain their arrival/sojourn fields and fold into
    /// stats + quarantine; preempted runs re-queue FIFO in their class.
    fn settle(&mut self, now: u64, results: Vec<LaneResult>) -> usize {
        // Tick cost: max quantum cost among the served lanes — the
        // barrier-synchronous pricing rule of `crate::schedule`.
        let lane_cost = |r: &LaneResult| match &r.record {
            Some(record) => record.slice_cycles.last().copied().unwrap_or(0),
            None => r.pending.run.slice_cycles.last().copied().unwrap_or(0),
        };
        let tick_cost = results.iter().map(lane_cost).max().unwrap_or(0);
        self.stats.makespan_cycles += tick_cost;
        let clock = self.stats.makespan_cycles;

        let mut finished = 0usize;
        for result in results {
            self.stats.quanta += 1;
            self.stats.revives += result.revived as u64;
            let actual = lane_cost(&result);
            let mut pending = result.pending;
            if let Some(state) = self.classes.get_mut(&pending.class.0) {
                // True up the WFQ charge with the quantum's actual cost.
                state.vservice = state
                    .vservice
                    .saturating_add(actual)
                    .saturating_sub(result.provisional);
            }
            pending.idle_ticks = 0;
            if pending.start_tick.is_none() {
                pending.start_tick = Some(now);
            }
            match result.record {
                Some(mut record) => {
                    record.arrival_tick = pending.arrival_tick;
                    record.start_tick = pending.start_tick.unwrap_or(now);
                    record.end_tick = now + 1;
                    record.sojourn_cycles = clock.saturating_sub(pending.arrival_cycles);
                    let infra_fault = matches!(
                        record.outcome,
                        JobOutcome::SealFailed(_)
                            | JobOutcome::WorkerPanic(_)
                            | JobOutcome::RevivalFailed(_)
                    );
                    match &record.outcome {
                        JobOutcome::WorkerPanic(_) => self.stats.worker_panics += 1,
                        JobOutcome::RevivalFailed(_) => self.stats.revival_failures += 1,
                        _ => {}
                    }
                    if infra_fault {
                        // One breaker feed per fault *record* — retried
                        // or not, the infrastructure failed once.
                        self.res.feed_breaker(now);
                        if let Some(attempt) = self.res.take_retry(now, record.job, record.tenant) {
                            // Retry instead of finishing: release the
                            // fuel claim (the retry arrival re-charges
                            // it) and re-queue the job with backoff +
                            // seeded jitter. The record is discarded —
                            // its fault is already accounted for by the
                            // typed FaultInjected/RetryScheduled events
                            // and the breaker feed.
                            if let Some(t) = self.tenants.get_mut(&record.tenant.0) {
                                t.outstanding_fuel =
                                    t.outstanding_fuel.saturating_sub(pending.run.spec.fuel);
                            }
                            let backoff = self.res.config.backoff_ticks(attempt);
                            let jitter = self.chaos.jitter(
                                self.res.config.backoff_jitter_ticks,
                                now,
                                record.job.0 ^ ((attempt as u64) << 48),
                            );
                            let resume = now
                                .saturating_add(1)
                                .saturating_add(backoff)
                                .saturating_add(jitter);
                            self.res.note_retry_scheduled(
                                now,
                                record.job,
                                record.tenant,
                                attempt,
                                resume,
                            );
                            self.arrivals.entry(resume).or_default().push(Arrival {
                                job: record.job,
                                spec: pending.run.spec.clone(),
                            });
                            continue;
                        }
                    }
                    self.res.finish_job(record.job);
                    if let Some(deadline) = self.res.deadline(pending.class) {
                        if record.sojourn_cycles > deadline {
                            self.res.note_deadline_late(
                                now,
                                record.job,
                                record.tenant,
                                record.sojourn_cycles,
                                deadline,
                            );
                        }
                    }
                    self.fold_finished(&record, pending.run.spec.fuel);
                    self.finished.push(record);
                    finished += 1;
                }
                None => {
                    if let Some(state) = self.classes.get_mut(&pending.class.0) {
                        state.queue.push_back(pending);
                    } else {
                        debug_assert!(false, "missing class state for {}", pending.class);
                    }
                }
            }
        }
        self.stats.finished += finished as u64;
        finished
    }

    /// Stats + quarantine fold for one finished record (deterministic:
    /// called in tick order, lane order). Containment matches the batch
    /// fleet's contract: jobs already admitted still run — their results
    /// stay bit-identical to serial execution — and only *future*
    /// admission is refused, with the typed [`AdmitError`].
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
            // bit-identical to the batch driver's), and any of them can
            // re-seal the tenant's image into the shared cache after the
            // eviction-time purge. One purge per fold keeps the cache
            // state identical to the batch fleet's end-of-batch fold.
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
            for pending in state.queue.iter_mut() {
                pending.idle_ticks += 1;
                let cold = park_after.is_some_and(|after| pending.idle_ticks >= after);
                if cold {
                    if let Some(machine) = pending.run.machine.take() {
                        let snap = machine.snapshot(pending.run.remaining);
                        pending.parked = Some(snap.to_bytes());
                        parks += 1;
                    }
                } else if pending.run.machine.is_some() {
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
