//! The batch fleet: a facade over the one driver, [`AsyncFleet`].
//!
//! Every queued job is a lane, so each tick serves every job exactly
//! one quantum as one wave on the driver's persistent pool, and a batch
//! is ticks until idle. The facade adds only what a batch means: one
//! tick budget per call ([`Fleet::run_batch_capped`]), records in
//! [`JobId`] order and the virtual-time pricing of
//! [`crate::schedule::price_schedule`].

use std::collections::BTreeMap;

use sofia_core::SofiaConfig;
use sofia_crypto::KeySet;
use sofia_transform::cache::ImageCacheStats;

use crate::admission::{AdmitError, ClassId};
use crate::checkpoint::{AdoptError, JobCheckpoint};
use crate::executor::{AsyncConfig, AsyncFleet, FleetError, SchedMode};
use crate::job::{JobId, JobRecord, JobSpec, TenantId};
use crate::quarantine::{QuarantinePolicy, TenantState};
use crate::schedule::price_schedule;
use crate::stats::{FleetStats, TenantStats};

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

/// The multi-tenant sealed-program execution service.
///
/// Tenants register their device [`KeySet`]; jobs carry a program and a
/// fuel budget. Each tenant's program is sealed **once** into the shared
/// [`ImageCache`](sofia_transform::cache::ImageCache) under that
/// tenant's keys, and jobs run on `workers` host threads in one of two
/// scheduling modes.
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
