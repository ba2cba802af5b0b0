//! The fleet service: tenants, the shared seal cache, the worker pool
//! and the two scheduling disciplines.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use sofia_core::machine::{RunOutcome, SliceOutcome, SofiaMachine};
use sofia_core::{ResetPolicy, SofiaConfig};
use sofia_crypto::KeySet;
use sofia_transform::cache::{image_key, ImageCache, ImageCacheStats, ImageKey, SealError};
use sofia_transform::SecureImage;

use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, Sabotage, TenantId};
use crate::quarantine::{fold_policy, QuarantinePolicy, TenantState};
use crate::schedule::price_schedule;
use crate::seal_farm::{SealFarm, SealVerdict};
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

/// How queued jobs are distributed across the worker threads.
///
/// Purely a **host**-side choice: scheduling decides *when* a job's
/// blocks are simulated, never *what* they compute, so the fleet ≡ serial
/// bit-identity invariant holds under either pool (pinned by running the
/// whole fleet suite against the work-stealing default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolMode {
    /// One shared FIFO protected by a single lock — every pop and every
    /// re-queue of every worker serialises on it. Kept as the contention
    /// baseline the host bench measures against.
    SharedQueue,
    /// Per-worker deques with work stealing: a worker serves the front of
    /// its own deque, re-queues preempted jobs to its own back, and only
    /// when it runs dry steals from the back of a sibling — so the queue
    /// lock a worker touches in steady state is almost always its own,
    /// uncontended one (the default).
    #[default]
    WorkStealing,
}

/// How a batch's cold images get sealed.
///
/// Purely a **host**-side choice, like [`PoolMode`]: seals are
/// deterministic, so both modes produce bit-identical images, job
/// records, per-tenant statistics and cache counters (pinned by the
/// workspace `seal_farm` suite). The modes only move *when* the
/// transformer runs and on which thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SealMode {
    /// Each job seals lazily on its first quantum. A multi-tenant
    /// cold-start wave convoys: workers stall on their own jobs'
    /// installs, and duplicate requests queue on the cache's
    /// single-flight marker. Kept as the contention baseline the host
    /// bench measures against.
    Inline,
    /// Batch admission pre-seals the wave's distinct cold images across
    /// a [`crate::SealFarm`] before any job runs (the default). Jobs
    /// then find their image ready — the first job of each freshly
    /// sealed image adopts it directly, every other job takes the now
    /// guaranteed-warm cache path, keeping attribution and cache
    /// counters bit-identical to [`SealMode::Inline`].
    #[default]
    Farm,
}

/// Full configuration of a [`Fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Worker threads in the pool (clamped to ≥ 1). Also the worker
    /// count of the virtual-time schedule model and of the seal farm.
    pub workers: usize,
    /// Scheduling discipline.
    pub mode: SchedMode,
    /// Host work-distribution strategy for the worker pool.
    pub pool: PoolMode,
    /// Host strategy for sealing a batch's cold images.
    pub seal: SealMode,
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
            pool: PoolMode::default(),
            seal: SealMode::default(),
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

struct Tenant {
    keys: KeySet,
    state: TenantState,
    stats: TenantStats,
}

/// Locks a mutex, shrugging off poisoning. Every shared structure the
/// pools guard (queues, record slots, settled counters) is only ever
/// mutated by whole-value pushes and assignments, so a panic on another
/// worker cannot leave it half-written — the poison flag carries no
/// information here, and propagating it is exactly the cascade the
/// panic-isolation suite pins against: one bad job must not take the
/// batch (or a later batch on the same fleet) down with it.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Mutex::into_inner`] with the same poison-shrugging rationale as
/// [`lock_clean`].
pub(crate) fn into_clean<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One queued job plus the run state it accumulates across quanta.
///
/// `pub(crate)` seam: the batch [`Fleet`] and the async
/// [`crate::AsyncFleet`] driver share this state machine (and
/// [`service_quantum`]), which is what keeps their per-job execution —
/// sealing, sabotage, slicing, reboot-retries, record assembly —
/// bit-identical by construction.
pub(crate) struct JobRun {
    pub(crate) idx: usize,
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
    /// count. `None` (the batch fleet) takes the cache's report.
    pub(crate) attributed_hit: Option<bool>,
    pub(crate) retried: bool,
    /// Violations and statistics of the first (violating) run, parked
    /// while the reboot-retry runs — merged into the final record.
    pub(crate) prior: Option<(Vec<sofia_core::Violation>, sofia_core::SofiaStats)>,
    pub(crate) slices: u32,
    pub(crate) slice_cycles: Vec<u64>,
    /// Quanta served in the current batch call — the counter
    /// [`Fleet::run_batch_capped`] caps to suspend jobs mid-flight.
    pub(crate) quanta_this_batch: u32,
    /// Per-run SOFIA configuration override. `None` (always, outside
    /// the resilience ladder) means the fleet-wide `config.sofia` —
    /// the async driver sets this for tenants degraded to vcache-off
    /// after repeated revival failures (see [`crate::resilience`]).
    pub(crate) sofia_override: Option<SofiaConfig>,
}

impl JobRun {
    /// A fresh, never-serviced run for an admitted spec.
    pub(crate) fn new(idx: usize, id: JobId, keys: KeySet, spec: JobSpec) -> JobRun {
        let remaining = spec.fuel;
        JobRun {
            idx,
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
            quanta_this_batch: 0,
            sofia_override: None,
        }
    }

    /// The SOFIA configuration this run's machines are built under.
    pub(crate) fn effective_sofia<'a>(&'a self, config: &'a FleetConfig) -> &'a SofiaConfig {
        self.sofia_override.as_ref().unwrap_or(&config.sofia)
    }
}

/// The multi-tenant sealed-program execution service.
///
/// Tenants register their device [`KeySet`]; jobs carry a program and a
/// fuel budget. Each tenant's program is sealed **once** into the shared
/// [`ImageCache`] under that tenant's keys, and jobs run across a
/// `std::thread` worker pool in one of two scheduling modes.
///
/// **Determinism invariant** (pinned by the `fleet` test suites): for any
/// job set, fleet execution at any worker count and in either scheduling
/// mode produces bit-identical per-job results, traps and violation
/// reports to serial single-machine execution. Scheduling decides *when*
/// a job's blocks run, never *what* they compute: each job owns its
/// machine, preemption happens only between blocks on the engine's
/// metered fuel seam, and quarantine folds in submission order after the
/// batch.
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
    cache: ImageCache,
    tenants: BTreeMap<u32, Tenant>,
    queue: Vec<JobRun>,
    next_job: u64,
    batches: u64,
    rejected: u64,
    evicted: u64,
    last_makespan_cycles: u64,
    last_ticks: u64,
    last_steals: u64,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet {
            cache: ImageCache::with_format(sofia_transform::BlockFormat::default()),
            config,
            tenants: BTreeMap::new(),
            queue: Vec::new(),
            next_job: 0,
            batches: 0,
            rejected: 0,
            evicted: 0,
            last_makespan_cycles: 0,
            last_ticks: 0,
            last_steals: 0,
        }
    }

    /// Onboards a tenant with its device keys.
    ///
    /// # Errors
    ///
    /// Rejects ids already registered (including evicted ones — an
    /// evicted tenant's id is burnt for this fleet).
    pub fn register_tenant(&mut self, id: TenantId, keys: KeySet) -> Result<(), FleetError> {
        if self.tenants.contains_key(&id.0) {
            return Err(FleetError::TenantExists(id));
        }
        self.tenants.insert(
            id.0,
            Tenant {
                keys,
                state: TenantState::Active,
                stats: TenantStats::default(),
            },
        );
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
        let tenant = match self.tenants.get(&spec.tenant.0) {
            None => {
                self.rejected += 1;
                return Err(FleetError::UnknownTenant(spec.tenant));
            }
            Some(t) => t,
        };
        match tenant.state {
            TenantState::Active => {}
            TenantState::Suspended => {
                self.rejected += 1;
                return Err(FleetError::Quarantined(spec.tenant));
            }
            TenantState::Evicted => {
                self.rejected += 1;
                return Err(FleetError::Evicted(spec.tenant));
            }
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.queue
            .push(JobRun::new(self.queue.len(), id, tenant.keys.clone(), spec));
        Ok(id)
    }

    /// Runs every queued job across the worker pool and returns the
    /// records in submission order, then folds statistics and quarantine
    /// transitions (also in submission order — worker interleaving never
    /// influences them).
    pub fn run_batch(&mut self) -> Vec<JobRecord> {
        self.run_batch_capped(u32::MAX)
    }

    /// [`Fleet::run_batch`] with a per-job quantum cap: every queued job
    /// is served at most `max_quanta` scheduler quanta this call; a job
    /// still runnable after its cap is **suspended in place** — it stays
    /// queued (machine state intact, between blocks) for the next batch
    /// call, or for [`Fleet::checkpoint_job`] to carry it to another
    /// fleet. Finished jobs are returned in submission order, and only
    /// they fold into statistics/quarantine.
    ///
    /// Which jobs suspend is a per-job deterministic function of the job
    /// set and the cap (a job runs `min(max_quanta, quanta_to_finish)`
    /// quanta regardless of worker interleaving), so the fleet ≡ serial
    /// bit-identity invariant extends to capped batches unchanged. Under
    /// [`SchedMode::RunToCompletion`] a quantum is the whole job, so any
    /// cap ≥ 1 behaves like an uncapped batch.
    pub fn run_batch_capped(&mut self, max_quanta: u32) -> Vec<JobRecord> {
        for run in &mut self.queue {
            run.quanta_this_batch = 0;
        }
        let mut runs = std::mem::take(&mut self.queue);
        self.batches += 1;
        if runs.is_empty() {
            self.last_makespan_cycles = 0;
            self.last_ticks = 0;
            self.last_steals = 0;
            return Vec::new();
        }
        // Farm mode: pre-seal the wave's distinct cold images in
        // parallel, before any worker takes a job. The first job of each
        // sealed image adopts it (with the farm's fresh/shared verdict as
        // its cache attribution); every later duplicate is left to the
        // normal cache path, which the farm just guaranteed is warm —
        // so records and cache counters are bit-identical to
        // [`SealMode::Inline`], only the convoy is gone. Failed seals
        // assign nothing: the job path re-attempts and fails identically
        // (seals are deterministic), preserving record parity.
        if self.config.seal == SealMode::Farm {
            let requests: Vec<(&KeySet, &str)> = runs
                .iter()
                .filter(|r| r.machine.is_none() && r.image.is_none())
                .map(|r| (&r.keys, r.spec.source.as_str()))
                .collect();
            if !requests.is_empty() {
                let farm = SealFarm::new(&self.cache, self.config.workers);
                let wave = farm.seal_wave(&requests);
                let mut claimed: HashSet<ImageKey> = HashSet::new();
                for run in &mut runs {
                    if run.machine.is_some() || run.image.is_some() {
                        continue;
                    }
                    let key = image_key(&run.keys, &run.spec.source);
                    if !claimed.insert(key) {
                        continue;
                    }
                    if let Some(SealVerdict {
                        image: Ok(image),
                        fresh,
                    }) = wave.verdicts.get(&key)
                    {
                        run.image = Some(Arc::clone(image));
                        run.seal_cache_hit = !fresh;
                    }
                }
            }
        }
        let n = runs.len();
        let workers = self.config.workers.max(1).min(n);
        let slots: Mutex<Vec<Option<JobRecord>>> = Mutex::new((0..n).map(|_| None).collect());
        let suspended: Mutex<Vec<JobRun>> = Mutex::new(Vec::new());
        let cap = max_quanta.max(1);
        self.last_steals = match self.config.pool {
            PoolMode::SharedQueue => {
                run_pool_shared(
                    runs,
                    workers,
                    &slots,
                    &suspended,
                    cap,
                    &self.config,
                    &self.cache,
                );
                0
            }
            PoolMode::WorkStealing => run_pool_stealing(
                runs,
                workers,
                &slots,
                &suspended,
                cap,
                &self.config,
                &self.cache,
            ),
        };
        // Suspended jobs go back on the queue in submission order, ready
        // for the next batch call or a checkpoint.
        let mut parked = into_clean(suspended);
        parked.sort_by_key(|r| r.idx);
        for (i, mut run) in parked.into_iter().enumerate() {
            run.idx = i;
            self.queue.push(run);
        }
        let mut records: Vec<JobRecord> = into_clean(slots).into_iter().flatten().collect();
        // Every job settles exactly one way: a record or a suspension.
        // A mismatch can only mean a worker-pool bug lost a run — fail
        // loudly rather than silently dropping a job (and possibly a
        // violation verdict) from the fold below.
        assert_eq!(
            records.len() + self.queue.len(),
            n,
            "fleet batch lost a job: {} records + {} suspended != {} submitted",
            records.len(),
            self.queue.len(),
            n
        );

        // Price the batch on the virtual-time model (host-independent).
        let quanta: Vec<Vec<u64>> = records.iter().map(|r| r.slice_cycles.clone()).collect();
        let schedule = price_schedule(self.config.workers.max(1), &quanta);
        for (record, ticks) in records.iter_mut().zip(&schedule.per_job) {
            record.start_tick = ticks.start;
            record.end_tick = ticks.end;
            // Batch jobs all arrive at tick 0 of the batch's virtual
            // clock, so the sojourn is the completion instant itself.
            record.sojourn_cycles = ticks.end_cycles;
        }
        self.last_makespan_cycles = schedule.makespan_cycles;
        self.last_ticks = schedule.ticks;

        // Deterministic fold: stats and quarantine in submission order.
        for record in &records {
            let Some(tenant) = self.tenants.get_mut(&record.tenant.0) else {
                // Admission guarantees every record's tenant is
                // registered; an unknown one here is a fleet bug.
                debug_assert!(false, "record for unregistered {}", record.tenant);
                continue;
            };
            tenant.stats.absorb(record);
            let fold = fold_policy(
                self.config.quarantine,
                &mut tenant.state,
                needs_containment(record),
            );
            if fold.evicted_now {
                self.evicted += 1;
            }
            if fold.purge {
                // Every evicted-tenant record purges, not just the
                // eviction: a job suspended by `run_batch_capped` and
                // resumed after its tenant's eviction re-seals the image
                // this very batch, and the entry must not outlive the
                // fold.
                self.cache.purge(&tenant.keys);
            }
        }
        records
    }

    /// Lifts a suspension (an operator decision after investigating).
    /// Returns whether the tenant went back to [`TenantState::Active`]
    /// (evicted tenants never do).
    pub fn release(&mut self, id: TenantId) -> bool {
        match self.tenants.get_mut(&id.0) {
            Some(t) if t.state == TenantState::Suspended => {
                t.state = TenantState::Active;
                true
            }
            _ => false,
        }
    }

    /// A tenant's service state.
    pub fn tenant_state(&self, id: TenantId) -> Option<TenantState> {
        self.tenants.get(&id.0).map(|t| t.state)
    }

    /// Jobs queued for the next batch.
    pub fn pending_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Ids of the queued jobs, in service order — fresh submissions and
    /// jobs suspended by [`Fleet::run_batch_capped`] alike.
    pub fn queued_jobs(&self) -> Vec<JobId> {
        self.queue.iter().map(|r| r.id).collect()
    }

    /// Removes a queued job and packages everything another fleet needs
    /// to finish it: the spec (tenant, source, fuel, sabotage), the
    /// accumulated scheduling history, and — if the job has already run
    /// — the suspended machine as a [`sofia_core::MachineSnapshot`].
    /// The ciphertext stays behind: the adopting fleet re-seals the
    /// source from its tenant's [`KeySet`] through its own image cache,
    /// and the image MACs cover the code in transit.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownJob`] if `id` is not queued (it finished,
    /// was already checkpointed, or never existed).
    pub fn checkpoint_job(&mut self, id: JobId) -> Result<JobCheckpoint, FleetError> {
        let pos = self
            .queue
            .iter()
            .position(|r| r.id == id)
            .ok_or(FleetError::UnknownJob(id))?;
        let run = self.queue.remove(pos);
        for (i, r) in self.queue.iter_mut().enumerate() {
            r.idx = i;
        }
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
            machine: run.machine.as_ref().map(|m| m.snapshot(run.remaining)),
        })
    }

    /// Adopts a job checkpointed out of another fleet: re-seals the
    /// tenant's program through this fleet's [`ImageCache`] (the tenant
    /// must be registered here with the same device keys for the resumed
    /// edge to verify), restores the suspended machine against the
    /// freshly sealed image, and queues the job to finish in the next
    /// batch. Returns the job's id in *this* fleet.
    ///
    /// Restoration re-verifies every warm verified-block-cache line
    /// against the re-sealed image, so a checkpoint cannot smuggle
    /// unverified plaintext between fleets; a tampered resume point is
    /// caught by edge verification on the job's first resumed fetch.
    ///
    /// # Errors
    ///
    /// [`AdoptError`]: unknown/quarantined/evicted tenant, seal failure,
    /// or a snapshot that fails restoration.
    pub fn adopt_job(&mut self, ckpt: JobCheckpoint) -> Result<JobId, AdoptError> {
        let tenant = match self.tenants.get(&ckpt.tenant.0) {
            None => {
                self.rejected += 1;
                return Err(AdoptError::Fleet(FleetError::UnknownTenant(ckpt.tenant)));
            }
            Some(t) => t,
        };
        match tenant.state {
            TenantState::Active => {}
            TenantState::Suspended => {
                self.rejected += 1;
                return Err(AdoptError::Fleet(FleetError::Quarantined(ckpt.tenant)));
            }
            TenantState::Evicted => {
                self.rejected += 1;
                return Err(AdoptError::Fleet(FleetError::Evicted(ckpt.tenant)));
            }
        }
        let keys = tenant.keys.clone();
        let (image, machine, seal_cache_hit) = match &ckpt.machine {
            None => (None, None, false),
            Some(snap) => {
                let (image, hit) = self
                    .cache
                    .get_or_seal_traced(&keys, &ckpt.source)
                    .map_err(AdoptError::Seal)?;
                let machine = restore_against(&image, &keys, snap, ckpt.sabotage)
                    .map_err(AdoptError::Restore)?;
                (Some(image), Some(machine), hit)
            }
        };
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.queue.push(JobRun {
            idx: self.queue.len(),
            id,
            spec: JobSpec {
                tenant: ckpt.tenant,
                source: ckpt.source,
                fuel: ckpt.fuel,
                sabotage: ckpt.sabotage,
            },
            keys,
            image,
            machine,
            remaining: ckpt.remaining,
            seal_cache_hit,
            attributed_hit: None,
            retried: ckpt.retried,
            prior: ckpt.prior,
            slices: ckpt.slices,
            slice_cycles: ckpt.slice_cycles,
            quanta_this_batch: 0,
            sofia_override: None,
        });
        Ok(id)
    }

    /// The aggregated fleet statistics.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            tenants: self.tenants.iter().map(|(&id, t)| (id, t.stats)).collect(),
            batches: self.batches,
            rejected_submissions: self.rejected,
            suspended_tenants: self
                .tenants
                .values()
                .filter(|t| t.state == TenantState::Suspended)
                .count() as u64,
            evicted_tenants: self.evicted,
            last_makespan_cycles: self.last_makespan_cycles,
            last_ticks: self.last_ticks,
            last_steals: self.last_steals,
        }
    }

    /// The shared seal cache's counters.
    pub fn seal_cache_stats(&self) -> ImageCacheStats {
        self.cache.stats()
    }

    /// The configuration the fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

/// Restores a suspended machine against its sealed image, re-applying
/// any harness sabotage first: the machine's ROM is the image *as the
/// job ran it*, and the restore path re-verifies warm cache lines
/// against that ROM. Shared by [`Fleet::adopt_job`] (cross-fleet
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

// Compile-time guarantee: the service and its job records cross thread
// boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Fleet>();
    assert_send::<JobRecord>();
};

/// The shared-queue pool: one FIFO, one lock, every worker on it. A job
/// is *settled* when it finishes (record written) or hits the quantum
/// cap (parked in `suspended`); the batch ends when all `n` settle.
fn run_pool_shared(
    runs: Vec<JobRun>,
    workers: usize,
    slots: &Mutex<Vec<Option<JobRecord>>>,
    suspended: &Mutex<Vec<JobRun>>,
    cap: u32,
    config: &FleetConfig,
    cache: &ImageCache,
) {
    let n = runs.len();
    let queue = Mutex::new(VecDeque::from(runs));
    let wakeup = Condvar::new();
    let settled = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut guard = lock_clean(&queue);
                loop {
                    if let Some(mut run) = guard.pop_front() {
                        drop(guard);
                        match catch_quantum(&mut run, config, cache) {
                            Some(record) => {
                                lock_clean(slots)[run.idx] = Some(record);
                                settled.fetch_add(1, Ordering::SeqCst);
                                // The batch may be complete: wake the
                                // parked workers so they can exit. The
                                // lock is held while notifying so no
                                // worker can slip between its emptiness
                                // check and `wait` and sleep through
                                // the final notification.
                                let _guard = lock_clean(&queue);
                                wakeup.notify_all();
                            }
                            None if run.quanta_this_batch >= cap => {
                                lock_clean(suspended).push(run);
                                settled.fetch_add(1, Ordering::SeqCst);
                                let _guard = lock_clean(&queue);
                                wakeup.notify_all();
                            }
                            None => {
                                lock_clean(&queue).push_back(run);
                                wakeup.notify_one();
                            }
                        }
                        guard = lock_clean(&queue);
                    } else if settled.load(Ordering::SeqCst) >= n {
                        break;
                    } else {
                        // Transiently empty: park until another worker
                        // re-queues a preempted job or ends the batch.
                        // Poisoning is shrugged off like everywhere else
                        // in the pool (see `lock_clean`).
                        guard = wakeup
                            .wait(guard)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            });
        }
    });
}

/// The work-stealing pool: jobs are dealt round-robin onto per-worker
/// deques; each worker serves its own deque front (FIFO — preempted jobs
/// re-queue to its own back, preserving round-robin service within a
/// worker) and steals from a sibling's back only when its own runs dry.
/// Returns the number of steals.
///
/// **Parking protocol** (no lost wakeups): every push is followed by a
/// notification taken *under the sync lock*, and a worker about to park
/// re-checks every deque while already *holding* the sync lock — so a
/// concurrent re-queue either lands before that re-check (the parker sees
/// the job) or its notification is forced to wait for the mutex until the
/// parker is actually waiting.
fn run_pool_stealing(
    runs: Vec<JobRun>,
    workers: usize,
    slots: &Mutex<Vec<Option<JobRecord>>>,
    suspended: &Mutex<Vec<JobRun>>,
    cap: u32,
    config: &FleetConfig,
    cache: &ImageCache,
) -> u64 {
    let n = runs.len();
    let mut deques: Vec<Mutex<VecDeque<JobRun>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, run) in runs.into_iter().enumerate() {
        deques[i % workers]
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(run);
    }
    let deques = &deques;
    let sync = Mutex::new(0usize); // settled-job count (finished + suspended)
    let wakeup = Condvar::new();
    let steals = AtomicU64::new(0);
    let lock_deque = |w: usize| lock_clean(&deques[w]);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (sync, wakeup, steals) = (&sync, &wakeup, &steals);
            scope.spawn(move || loop {
                // Own-deque pop in its own scope: the guard must drop
                // before any steal attempt, or two workers raiding each
                // other would hold their own lock while waiting for the
                // sibling's.
                let mut next = { lock_deque(w).pop_front() };
                if next.is_none() {
                    next = (1..workers).find_map(|i| {
                        let victim = (w + i) % workers;
                        let stolen = { lock_deque(victim).pop_back() };
                        if stolen.is_some() {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        stolen
                    });
                }
                match next {
                    Some(mut run) => match catch_quantum(&mut run, config, cache) {
                        Some(record) => {
                            lock_clean(slots)[run.idx] = Some(record);
                            let mut settled = lock_clean(sync);
                            *settled += 1;
                            wakeup.notify_all();
                        }
                        None if run.quanta_this_batch >= cap => {
                            lock_clean(suspended).push(run);
                            let mut settled = lock_clean(sync);
                            *settled += 1;
                            wakeup.notify_all();
                        }
                        None => {
                            lock_deque(w).push_back(run);
                            let _sync = lock_clean(sync);
                            wakeup.notify_one();
                        }
                    },
                    None => {
                        let mut settled = lock_clean(sync);
                        loop {
                            if *settled >= n {
                                return;
                            }
                            if (0..workers).any(|d| !lock_deque(d).is_empty()) {
                                break; // re-queued while we were scanning
                            }
                            settled = wakeup
                                .wait(settled)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    }
                }
            });
        }
    });
    steals.load(Ordering::Relaxed)
}

/// [`service_quantum`] behind a panic barrier: a panic anywhere in the
/// quantum (the simulator, the sealer, a deliberate
/// [`Sabotage::PanicInWorker`]) is caught on the worker and converted
/// into a typed [`JobOutcome::WorkerPanic`] record, so one bad job
/// degrades to a quarantined per-tenant failure instead of unwinding
/// through the pool, poisoning the shared queue/record locks and
/// aborting every other worker (plus every later batch on the same
/// fleet) — the lock-poisoning cascade this PR's regression suite pins
/// against.
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
    run.quanta_this_batch += 1;
    if run.spec.sabotage == Some(Sabotage::PanicInWorker) {
        panic!("sabotage: deliberate panic while servicing {}", run.id);
    }
    if run.machine.is_none() {
        // The batch fleet's seal farm or the async lane's own seal
        // claim may already have sealed this job's image (and set its
        // cache attribution); only seal here if the job arrived at its
        // first quantum still cold.
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
            Some(image) => SofiaMachine::with_config(image, &run.keys, run.effective_sofia(config)),
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
        ..*run.effective_sofia(config)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn run_mix(pool: PoolMode, workers: usize) -> (Vec<JobRecord>, u64) {
        let mut fleet = Fleet::new(FleetConfig {
            workers,
            mode: SchedMode::FuelSliced { slice: 200 },
            pool,
            ..Default::default()
        });
        for (id, seed) in [(1u32, 0xAu64), (2, 0xB), (3, 0xC)] {
            fleet
                .register_tenant(TenantId(id), KeySet::from_seed(seed))
                .unwrap();
        }
        for round in 0..4u32 {
            for tenant in 1..=3u32 {
                let n = 10 + 7 * round + tenant;
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
                fleet
                    .submit(JobSpec::new(TenantId(tenant), src, 1_000_000))
                    .unwrap();
            }
        }
        let records = fleet.run_batch();
        (records, fleet.stats().last_steals)
    }

    /// The pool is a host-side choice only: shared-queue and
    /// work-stealing runs produce bit-identical records at every worker
    /// count (results, stats, virtual-time ticks — everything).
    #[test]
    fn pools_produce_identical_records_at_any_worker_count() {
        let (serial, zero_steals) = run_mix(PoolMode::SharedQueue, 1);
        assert_eq!(zero_steals, 0, "shared queue never steals");
        for workers in [1usize, 2, 4, 7] {
            let (shared, _) = run_mix(PoolMode::SharedQueue, workers);
            let (stealing, _) = run_mix(PoolMode::WorkStealing, workers);
            assert_eq!(shared.len(), serial.len());
            assert_eq!(stealing.len(), serial.len());
            for ((a, b), s) in shared.iter().zip(&stealing).zip(&serial) {
                // Execution results are invariant across pools AND worker
                // counts (the fleet ≡ serial invariant)…
                for r in [a, b] {
                    assert_eq!(r.job, s.job, "w{workers}");
                    assert_eq!(r.outcome, s.outcome, "w{workers}");
                    assert_eq!(r.out_words, s.out_words, "w{workers}");
                    assert_eq!(r.stats, s.stats, "w{workers}");
                }
                // …and the virtual-time schedule (which does depend on
                // the worker count) is identical across pools.
                assert_eq!(a.start_tick, b.start_tick, "w{workers}");
                assert_eq!(a.end_tick, b.end_tick, "w{workers}");
            }
        }
    }
}
