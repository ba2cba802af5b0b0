//! Fleet-level statistics, rolled up from the per-job
//! [`sofia_core::SofiaStats`].

use std::collections::BTreeMap;

use crate::job::{JobOutcome, JobRecord};

/// Counters for one tenant (or, via [`FleetStats::total`], the fleet).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs run to a verdict.
    pub jobs: u64,
    /// Jobs that reached `halt`.
    pub halted: u64,
    /// Jobs whose final verdict was a violation.
    pub violating_jobs: u64,
    /// Individual violation reports (a rebooting retry can log several
    /// per job).
    pub violations: u64,
    /// Jobs that ended in an architectural trap.
    pub traps: u64,
    /// Jobs that exhausted their fuel budget.
    pub out_of_fuel: u64,
    /// Jobs that failed to parse or seal.
    pub seal_failures: u64,
    /// Jobs whose servicing worker faulted on the host side (panic,
    /// failed park/revive) — contained per tenant, never fleet-fatal.
    pub worker_panics: u64,
    /// Jobs whose parked snapshot failed to revive (corrupted bytes or
    /// MAC mismatch under the tenant's keys) — the storage-seam sibling
    /// of `worker_panics`, contained the same way.
    pub revival_failures: u64,
    /// Jobs shed unrun because their queue sojourn exceeded the class
    /// deadline (see [`crate::resilience`]). Not a quarantine trigger.
    pub deadline_missed: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Instruction slots retired.
    pub instret: u64,
    /// Verified-block cache hits across the tenant's machines.
    pub vcache_hits: u64,
    /// Verified-block cache misses across the tenant's machines.
    pub vcache_misses: u64,
    /// Jobs whose sealed image came from the shared image cache.
    pub seal_cache_hits: u64,
    /// Jobs that had to seal their image.
    pub seal_cache_misses: u64,
    /// Jobs re-run under the reboot policy by
    /// [`crate::QuarantinePolicy::RetryWithReboot`].
    pub retries: u64,
    /// Scheduler quanta consumed.
    pub slices: u64,
    /// Scheduler ticks jobs spent queued before first service, summed.
    pub queue_latency_ticks: u64,
}

impl TenantStats {
    /// Verified-block cache hit rate, in `[0, 1]`.
    pub fn vcache_hit_rate(&self) -> f64 {
        let total = self.vcache_hits + self.vcache_misses;
        if total == 0 {
            0.0
        } else {
            self.vcache_hits as f64 / total as f64
        }
    }

    /// Folds one finished job into the counters.
    pub(crate) fn absorb(&mut self, r: &JobRecord) {
        self.jobs += 1;
        match &r.outcome {
            JobOutcome::Completed(sofia_core::machine::RunOutcome::OutOfFuel) => {
                self.out_of_fuel += 1
            }
            JobOutcome::Completed(o) if o.is_halted() => self.halted += 1,
            JobOutcome::Completed(_) => {}
            JobOutcome::Trapped(_) => self.traps += 1,
            JobOutcome::SealFailed(_) => self.seal_failures += 1,
            JobOutcome::WorkerPanic(_) => self.worker_panics += 1,
            JobOutcome::RevivalFailed(_) => self.revival_failures += 1,
            JobOutcome::DeadlineMissed { .. } => self.deadline_missed += 1,
        }
        if r.outcome.is_violation() {
            self.violating_jobs += 1;
        }
        self.violations += r.violations.len() as u64;
        self.cycles += r.stats.exec.cycles;
        self.instret += r.stats.exec.instret;
        self.vcache_hits += r.stats.vcache_hits;
        self.vcache_misses += r.stats.vcache_misses;
        if matches!(
            r.outcome,
            JobOutcome::SealFailed(_)
                | JobOutcome::WorkerPanic(_)
                | JobOutcome::RevivalFailed(_)
                | JobOutcome::DeadlineMissed { .. }
        ) {
            // No image reached the job; the seal counters stay untouched.
        } else if r.seal_cache_hit {
            self.seal_cache_hits += 1;
        } else {
            self.seal_cache_misses += 1;
        }
        self.retries += r.retried as u64;
        self.slices += r.slices as u64;
        self.queue_latency_ticks += r.queue_latency_ticks();
    }

    fn merge(&mut self, other: &TenantStats) {
        self.jobs += other.jobs;
        self.halted += other.halted;
        self.violating_jobs += other.violating_jobs;
        self.violations += other.violations;
        self.traps += other.traps;
        self.out_of_fuel += other.out_of_fuel;
        self.seal_failures += other.seal_failures;
        self.worker_panics += other.worker_panics;
        self.revival_failures += other.revival_failures;
        self.deadline_missed += other.deadline_missed;
        self.cycles += other.cycles;
        self.instret += other.instret;
        self.vcache_hits += other.vcache_hits;
        self.vcache_misses += other.vcache_misses;
        self.seal_cache_hits += other.seal_cache_hits;
        self.seal_cache_misses += other.seal_cache_misses;
        self.retries += other.retries;
        self.slices += other.slices;
        self.queue_latency_ticks += other.queue_latency_ticks;
    }
}

/// The aggregated view [`crate::Fleet::stats`] returns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    /// Per-tenant roll-ups, keyed by raw tenant id.
    pub tenants: BTreeMap<u32, TenantStats>,
    /// Batches executed.
    pub batches: u64,
    /// Submissions rejected (unknown, suspended or evicted tenants).
    pub rejected_submissions: u64,
    /// Tenants currently suspended.
    pub suspended_tenants: u64,
    /// Tenants evicted so far.
    pub evicted_tenants: u64,
    /// Virtual-time makespan of the most recent batch, in simulated
    /// cycles (deterministic — see [`crate::schedule`]).
    pub last_makespan_cycles: u64,
    /// Scheduler ticks the most recent batch took.
    pub last_ticks: u64,
}

impl FleetStats {
    /// The whole-fleet roll-up across tenants.
    pub fn total(&self) -> TenantStats {
        let mut total = TenantStats::default();
        for stats in self.tenants.values() {
            total.merge(stats);
        }
        total
    }
}
