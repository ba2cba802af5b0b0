//! Quarantine isolation: one tenant under attack never perturbs another
//! tenant's results, statistics, or service — the fleet-scale analogue
//! of the paper's per-device reset guarantee — and each
//! [`QuarantinePolicy`] contains exactly the violating tenant.

mod common;

use common::{
    async_config, async_fleet, batch_config, batch_fleet, loop_job, run_async, run_batch,
    serial_view, unpriced, unpriced_stats, Mix,
};
use proptest::prelude::*;
use sofia::crypto::KeySet;
use sofia::fleet::{
    ClassId, Fleet, FleetError, JobOutcome, JobRecord, JobSpec, QuarantinePolicy, ResilienceConfig,
    Sabotage, SchedMode, TenantId, TenantState,
};
use sofia::prelude::RunOutcome;
use sofia_attacks::victims;
use sofia_workloads::gen::random_program;

const VICTIM: TenantId = TenantId(7);
const BYSTANDER: TenantId = TenantId(8);

fn victim_keys() -> KeySet {
    KeySet::from_seed(0xBAD)
}

fn bystander_keys() -> KeySet {
    KeySet::from_seed(0x600D)
}

fn bystander_jobs() -> Vec<JobSpec> {
    let mut jobs = vec![JobSpec::new(
        BYSTANDER,
        sofia_workloads::kernels::fib(80).source,
        5_000_000,
    )];
    for seed in [11u64, 22, 33] {
        jobs.push(JobSpec::new(BYSTANDER, random_program(seed), 20_000_000));
    }
    jobs
}

/// The victim tenant's job: a `sofia-attacks` control-loop victim whose
/// sealed image the adversary tampers with before it runs.
fn victim_job() -> JobSpec {
    JobSpec::new(VICTIM, victims::control_loop_victim(8), 5_000_000).with_sabotage(
        Sabotage::FlipRomWord {
            word: 20,
            mask: 0x40,
        },
    )
}

fn tenants() -> Vec<(TenantId, KeySet)> {
    vec![(VICTIM, victim_keys()), (BYSTANDER, bystander_keys())]
}

fn fleet_with(quarantine: QuarantinePolicy, workers: usize) -> Fleet {
    let mode = SchedMode::FuelSliced { slice: 1_000 };
    batch_fleet(
        &Mix::new(tenants(), vec![]),
        batch_config(workers, mode, quarantine),
    )
}

#[test]
fn tampered_tenant_never_perturbs_a_bystander() {
    for workers in [1usize, 4] {
        // Control fleet: the bystander alone.
        let mut alone = fleet_with(QuarantinePolicy::Suspend, workers);
        for job in bystander_jobs() {
            alone.submit(job).unwrap();
        }
        let alone_records = alone.run_batch();

        // Shared fleet: same bystander jobs interleaved with the victim.
        let mut shared = fleet_with(QuarantinePolicy::Suspend, workers);
        let mut jobs = bystander_jobs();
        jobs.insert(1, victim_job());
        for job in jobs {
            shared.submit(job).unwrap();
        }
        let shared_records = shared.run_batch();

        // The victim was detected...
        let victim_rec = shared_records
            .iter()
            .find(|r| r.tenant == VICTIM)
            .expect("victim record");
        assert!(
            victim_rec.outcome.is_violation(),
            "tamper went undetected: {:?}",
            victim_rec.outcome
        );
        // ...and the bystander's records are bit-identical to running
        // alone: results, outputs, cycles, instret.
        let alone_surface: Vec<_> = alone_records.iter().map(serial_view).collect();
        let shared_surface: Vec<_> = shared_records
            .iter()
            .filter(|r| r.tenant == BYSTANDER)
            .map(serial_view)
            .collect();
        assert_eq!(alone_surface, shared_surface, "{workers} workers");

        // Stats isolation: the bystander's per-tenant roll-up matches its
        // solo run; the victim's violations land only on the victim.
        // (Queue latency is the one legitimately schedule-visible
        // counter — the victim does occupy service slots — so it is
        // excluded from the equality.)
        let alone_stats = unpriced_stats(&alone.stats().tenants);
        let shared_stats = shared.stats();
        assert_eq!(
            alone_stats[&BYSTANDER.0],
            unpriced_stats(&shared_stats.tenants)[&BYSTANDER.0]
        );
        assert_eq!(shared_stats.tenants[&BYSTANDER.0].violating_jobs, 0);
        assert_eq!(shared_stats.tenants[&VICTIM.0].violating_jobs, 1);

        // Service isolation: the victim is quarantined, the bystander —
        // and the rest of the fleet — keeps serving.
        assert_eq!(
            shared.submit(victim_job()).unwrap_err(),
            FleetError::Quarantined(VICTIM)
        );
        shared.submit(bystander_jobs().remove(0)).unwrap();
        let after = shared.run_batch();
        assert!(after[0].outcome.is_halted());
    }
}

#[test]
fn retry_with_reboot_gives_the_device_its_reset_budget() {
    let mut fleet = fleet_with(QuarantinePolicy::RetryWithReboot { max_resets: 3 }, 2);
    fleet.submit(victim_job()).unwrap();
    fleet
        .submit(JobSpec::new(
            BYSTANDER,
            sofia_workloads::kernels::fib(40).source,
            1_000_000,
        ))
        .unwrap();
    let records = fleet.run_batch();
    let victim_rec = &records[0];
    // Persistent tamper: the retry rebooted `max_resets` times and then
    // abandoned, logging one violation from the first run plus
    // `max_resets + 1` from the retry.
    assert!(victim_rec.retried);
    assert_eq!(
        victim_rec.outcome,
        JobOutcome::Completed(RunOutcome::ResetLoop { resets: 3 })
    );
    assert_eq!(victim_rec.violations.len(), 5);
    assert_eq!(victim_rec.stats.resets, 3);
    // The record's stats cover the first run *and* the retry, and agree
    // with what the schedule priced — work conservation under attack.
    assert_eq!(
        victim_rec.stats.exec.cycles,
        victim_rec.slice_cycles.iter().sum::<u64>()
    );
    // The retry went through the normal quantum loop: at least one
    // quantum of its own (here the tamper fires within the first slice,
    // so first run and retry are one quantum each), each priced.
    assert!(victim_rec.slices >= 2, "slices: {}", victim_rec.slices);
    assert_eq!(victim_rec.slices as usize, victim_rec.slice_cycles.len());
    // Still violating after the reboot budget: quarantined.
    assert_eq!(
        fleet.submit(victim_job()).unwrap_err(),
        FleetError::Quarantined(VICTIM)
    );
    // The bystander saw nothing.
    assert!(records[1].outcome.is_halted());
    assert_eq!(fleet.stats().tenants[&VICTIM.0].retries, 1);
    assert_eq!(fleet.stats().tenants[&BYSTANDER.0].retries, 0);
}

#[test]
fn fuel_starved_retry_still_quarantines() {
    // The reboot-retry's fuel loophole: with a tamper in the very first
    // block and a tiny budget, the retry exhausts its fuel before its
    // reset budget and ends OutOfFuel rather than ResetLoop. Violations
    // were detected all the same — the tenant must not stay in service.
    let mut fleet = fleet_with(QuarantinePolicy::RetryWithReboot { max_resets: 10 }, 2);
    fleet
        .submit(
            JobSpec::new(VICTIM, victims::control_loop_victim(8), 3)
                .with_sabotage(Sabotage::FlipRomWord { word: 2, mask: 1 }),
        )
        .unwrap();
    let records = fleet.run_batch();
    let r = &records[0];
    assert!(r.retried);
    assert_eq!(r.outcome, JobOutcome::Completed(RunOutcome::OutOfFuel));
    assert!(!r.violations.is_empty());
    assert_eq!(
        fleet.submit(victim_job()).unwrap_err(),
        FleetError::Quarantined(VICTIM)
    );
}

/// A reboot-retry that blows its class deadline while it waits in the
/// queue is shed, but the shed record still carries the first run: its
/// violation, its statistics and the retry flag. So the tenant is
/// contained like any other violator instead of escaping through the
/// deadline.
#[test]
fn a_deadline_shed_retry_keeps_the_first_runs_violation() {
    let mut resilience = ResilienceConfig::default();
    resilience.deadlines.insert(ClassId(0), 1);
    let quarantine = QuarantinePolicy::RetryWithReboot { max_resets: 1 };
    let mut config = async_config(1, 1, SchedMode::FuelSliced { slice: 500 }, Some(8));
    config.quarantine = quarantine;
    config.resilience = resilience;
    let mut fleet = async_fleet(&Mix::new(vec![(VICTIM, victim_keys())], vec![]), config);
    fleet
        .submit(
            JobSpec::new(VICTIM, loop_job(40), 100_000)
                .with_sabotage(Sabotage::FlipRomWord { word: 8, mask: 1 }),
        )
        .unwrap();
    fleet.run_until_idle();
    let records = fleet.drain_finished();
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(
        matches!(r.outcome, JobOutcome::DeadlineMissed { .. }),
        "{:?}",
        r.outcome
    );
    assert!(r.retried, "the shed job had armed its reboot-retry");
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    assert_eq!(r.stats.violations, 1);
    assert!(r.stats.exec.cycles > 0, "the first run's work is kept");
    assert_eq!(fleet.tenant_state(VICTIM), Some(TenantState::Suspended));
    assert_eq!(fleet.stats().quarantines, 1);
}

#[test]
fn evict_purges_the_tenant_and_its_sealed_images() {
    let mut fleet = fleet_with(QuarantinePolicy::Evict, 2);
    // Warm the seal cache for both tenants.
    fleet
        .submit(JobSpec::new(
            VICTIM,
            victims::control_loop_victim(8),
            5_000_000,
        ))
        .unwrap();
    fleet
        .submit(JobSpec::new(
            BYSTANDER,
            sofia_workloads::kernels::fib(40).source,
            1_000_000,
        ))
        .unwrap();
    fleet.run_batch();
    assert_eq!(fleet.seal_cache_stats().entries, 2);

    // Now the attack: the victim's (cached) image is tampered on-device.
    fleet.submit(victim_job()).unwrap();
    let records = fleet.run_batch();
    assert!(records[0].outcome.is_violation());
    assert!(records[0].seal_cache_hit, "sealed once, reused");

    // Evicted: submissions refused permanently, sealed images dropped,
    // the id burnt — but the bystander's cache entry survives.
    assert_eq!(
        fleet.submit(victim_job()).unwrap_err(),
        FleetError::Evicted(VICTIM)
    );
    assert!(!fleet.release(VICTIM));
    assert_eq!(
        fleet.register_tenant(VICTIM, victim_keys()).unwrap_err(),
        FleetError::TenantExists(VICTIM)
    );
    assert_eq!(fleet.seal_cache_stats().entries, 1);
    assert_eq!(fleet.stats().evicted_tenants, 1);
    // Post-mortem stats are retained.
    assert_eq!(fleet.stats().tenants[&VICTIM.0].violating_jobs, 1);
}

#[test]
fn release_lifts_a_suspension() {
    let mut fleet = fleet_with(QuarantinePolicy::Suspend, 1);
    fleet.submit(victim_job()).unwrap();
    fleet.run_batch();
    assert!(fleet.submit(victim_job()).is_err());
    assert_eq!(fleet.stats().suspended_tenants, 1);

    assert!(fleet.release(VICTIM));
    assert_eq!(fleet.stats().suspended_tenants, 0);
    // An untampered resubmission of the same program now halts cleanly —
    // the cached sealed image itself was never corrupted, only the
    // quarantined device's ROM copy.
    fleet
        .submit(JobSpec::new(
            VICTIM,
            victims::control_loop_victim(8),
            5_000_000,
        ))
        .unwrap();
    let records = fleet.run_batch();
    assert!(records[0].outcome.is_halted());
    assert_eq!(records[0].out_words, victims::control_loop_expected(8));
    assert!(records[0].seal_cache_hit);
}

/// The shared sabotaged workload for the batch-vs-async parity checks:
/// one sabotaged victim job, two bystander programs, and a second victim
/// job that is already queued when the first one's verdict folds.
fn parity_jobs(sabotage: Sabotage, seed: u64) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new(VICTIM, victims::control_loop_victim(8), 5_000_000).with_sabotage(sabotage),
    ];
    for j in 0..2 {
        jobs.push(JobSpec::new(
            BYSTANDER,
            random_program(seed * 2 + j),
            20_000_000,
        ));
    }
    jobs.push(
        JobSpec::new(VICTIM, victims::control_loop_victim(4), 5_000_000).with_sabotage(sabotage),
    );
    jobs
}

/// Runs the parity workload on both drivers under `policy` and returns
/// `(unpriced records, victim state, bystander state, seal-cache
/// entries)` per driver, records sorted by job id.
fn run_both_drivers(
    policy: QuarantinePolicy,
    slice: u64,
    sabotage: Sabotage,
    seed: u64,
) -> [(Vec<JobRecord>, TenantState, TenantState, usize); 2] {
    let mix = Mix::new(tenants(), parity_jobs(sabotage, seed));
    let mode = SchedMode::FuelSliced { slice };
    let (batch, brec) = run_batch(&mix, batch_config(2, mode, policy));
    let mut config = async_config(4, 2, mode, Some(1));
    config.quarantine = policy;
    let (afleet, arun) = run_async(&mix, config);
    [
        (
            brec.iter().map(unpriced).collect(),
            batch.tenant_state(VICTIM).unwrap(),
            batch.tenant_state(BYSTANDER).unwrap(),
            batch.seal_cache_stats().entries,
        ),
        (
            arun.records.iter().map(unpriced).collect(),
            afleet.tenant_state(VICTIM).unwrap(),
            afleet.tenant_state(BYSTANDER).unwrap(),
            afleet.seal_cache_stats().entries,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The quarantine fold is driver-independent: the same sabotaged
    /// workload, run under every policy on the batch `Fleet` and the
    /// tick-driven `AsyncFleet`, yields identical typed outcomes,
    /// identical bystander records, identical tenant states, and the
    /// same sealed-image cache population (the purge side of the fold).
    #[test]
    fn batch_and_async_fleets_agree_under_every_policy(
        word in 2usize..40,
        bit in 0u32..32,
        slice in 100u64..400,
        seed in 0u64..1_000,
    ) {
        let sabotage = Sabotage::FlipRomWord { word, mask: 1 << bit };
        for policy in [
            QuarantinePolicy::Suspend,
            QuarantinePolicy::RetryWithReboot { max_resets: 2 },
            QuarantinePolicy::Evict,
        ] {
            let [batch, asynch] = run_both_drivers(policy, slice, sabotage, seed);
            prop_assert!(batch == asynch, "divergence under {:?}", policy);
        }
    }
}

#[test]
fn late_finishing_jobs_of_an_evicted_tenant_cannot_reseed_the_cache() {
    // Regression: the async fold used to purge an evicted tenant's
    // sealed images only at the eviction *transition*. A second job of
    // the same tenant, admitted before the verdict and still in service,
    // finished later and re-sealed its image into the shared cache —
    // a stale entry the batch fleet does not have. The fold now requests
    // the purge on every record of an evicted tenant.
    let sabotage = Sabotage::FlipRomWord {
        word: 20,
        mask: 0x40,
    };
    let [(_, bv, _, bcache), (_, av, _, acache)] =
        run_both_drivers(QuarantinePolicy::Evict, 150, sabotage, 20);
    assert_eq!(bv, sofia::fleet::TenantState::Evicted);
    assert_eq!(av, sofia::fleet::TenantState::Evicted);
    // Only the two bystander images survive, on both drivers.
    assert_eq!(bcache, 2, "batch kept a stale victim image");
    assert_eq!(acache, 2, "async kept a stale victim image");
}

#[test]
fn seal_cache_serves_repeat_jobs_across_batches() {
    let mut fleet = fleet_with(QuarantinePolicy::Suspend, 4);
    let program = sofia_workloads::kernels::crc32(32).source;
    for _ in 0..3 {
        for _ in 0..4 {
            fleet
                .submit(JobSpec::new(BYSTANDER, program.clone(), 5_000_000))
                .unwrap();
        }
        let records = fleet.run_batch();
        assert!(records.iter().all(|r| r.outcome.is_halted()));
    }
    let cache = fleet.seal_cache_stats();
    assert_eq!(cache.misses, 1, "sealed exactly once");
    assert_eq!(cache.hits, 11);
    assert_eq!(fleet.stats().tenants[&BYSTANDER.0].seal_cache_hits, 11);
}
