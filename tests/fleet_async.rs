//! The async-driver determinism suite.
//!
//! Pins the tentpole invariant of [`AsyncFleet`]: the driver multiplexes
//! jobs over any number of host threads, parks cold machines to `SOFS1`
//! bytes and revives them, WFQ-schedules across classes — and none of it
//! may perturb a single bit of what any job computes. Records (outcomes,
//! MMIO words, violations, cycles, instret, ticks, sojourns) must be
//! identical at every thread count, identical with parking on or off,
//! and equal to serial single-machine execution.

mod common;

use common::{async_config, loop_job, run_async, serial_reference, Mix, TRAP_JOB};
use sofia::crypto::KeySet;
use sofia::fleet::{
    AdmissionConfig, AdmitError, AsyncFleet, ClassConfig, ClassId, JobRecord, JobSpec, Sabotage,
    SchedMode, TenantId,
};

fn tenants() -> Vec<(TenantId, KeySet)> {
    (1..=6u32)
        .map(|id| (TenantId(id), KeySet::from_seed(0xA500 + id as u64)))
        .collect()
}

/// A mixed job set: loops of different lengths, a fuel-exhausted job, a
/// trapping job, and a tampered tenant — every verdict kind the batch
/// suite exercises. The first two jobs are one tenant's same program, so
/// tick 0's wave carries two lanes for one cold image.
fn jobs() -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new(TenantId(4), loop_job(33), 100_000),
        JobSpec::new(TenantId(4), loop_job(33), 100_000),
    ];
    for (i, (tenant, _)) in tenants().into_iter().enumerate() {
        jobs.push(JobSpec::new(tenant, loop_job(20 + 13 * i as u32), 100_000));
        jobs.push(JobSpec::new(tenant, loop_job(5 + i as u32), 100_000));
    }
    // Out-of-fuel: a long loop on a starvation budget.
    jobs.push(JobSpec::new(TenantId(2), loop_job(5_000), 900));
    // Trap: misaligned load escapes a verified block.
    jobs.push(JobSpec::new(TenantId(3), TRAP_JOB, 10_000));
    // Tamper: the SI unit's detection case, quarantining tenant 5.
    jobs.push(
        JobSpec::new(TenantId(5), loop_job(40), 100_000)
            .with_sabotage(Sabotage::FlipRomWord { word: 2, mask: 1 }),
    );
    jobs
}

fn mix() -> Mix {
    Mix::new(tenants(), jobs())
}

fn drive(threads: usize, park_after: Option<u64>) -> (AsyncFleet, Vec<JobRecord>) {
    let mode = SchedMode::FuelSliced { slice: 120 };
    let (fleet, run) = run_async(&mix(), async_config(threads, 3, mode, park_after));
    (fleet, run.records)
}

#[test]
fn async_matches_serial_at_every_thread_count() {
    let reference = serial_reference(&mix());
    for threads in [1usize, 2, 4, 8] {
        let (_, records) = drive(threads, Some(4));
        let got: Vec<_> = records.iter().map(common::serial_view).collect();
        assert_eq!(got, reference, "divergence at {threads} threads");
    }
}

#[test]
fn thread_count_is_invisible_to_the_full_record_surface() {
    let (_, never) = drive(1, None);
    // The wave's two lanes for one cold image: the first is the miss,
    // the second a hit, whichever lane's seal wins the race.
    assert_eq!(
        (never[0].seal_cache_hit, never[1].seal_cache_hit),
        (false, true)
    );
    // `Some(0)` and `Some(1)` also park lanes re-queued in the same tick;
    // `Some(4)` parks only jobs that cool while queued.
    for park_after in [None, Some(0), Some(1), Some(4)] {
        let (fleet1, r1) = drive(1, park_after);
        assert_eq!(r1, never, "parking after {park_after:?} moved a record");
        for threads in [2usize, 4, 8] {
            let (fleetn, rn) = drive(threads, park_after);
            assert_eq!(
                r1, rn,
                "schedule surface diverged at {threads} threads, parking after {park_after:?}"
            );
            // Host-only counters aside, the stats are one deterministic
            // surface; parks/revives/peak residency/makespan must agree.
            let counters = |f: &AsyncFleet| (f.stats(), f.seal_cache_stats());
            assert_eq!(
                counters(&fleet1),
                counters(&fleetn),
                "{threads} threads, {park_after:?}"
            );
        }
    }
}

#[test]
fn parking_is_invisible_to_results() {
    let (_, never) = drive(4, None);
    let (aggressive_fleet, aggressive) = drive(4, Some(1));
    // Parking really happened…
    assert!(aggressive_fleet.stats().parks > 0, "no park exercised");
    assert!(aggressive_fleet.stats().revives > 0, "no revive exercised");
    // …and no record moved a bit, cycles and schedule included.
    assert_eq!(never, aggressive, "parking perturbed the record surface");
    // Aggressive parking bounds resident machines below the backlog.
    assert!(
        aggressive_fleet.stats().peak_resident_machines <= 3,
        "parking failed to bound residency: {}",
        aggressive_fleet.stats().peak_resident_machines
    );
}

#[test]
fn admission_rejects_are_typed_and_immediate() {
    let mut admission = AdmissionConfig {
        global_queue_cap: 4,
        ..Default::default()
    };
    admission.classes.insert(
        1,
        ClassConfig {
            queue_cap: 2,
            tenant_fuel_quota: 10_000,
            ..Default::default()
        },
    );
    let mut config = async_config(1, 1, SchedMode::FuelSliced { slice: 500 }, Some(8));
    config.admission = admission;
    let mut fleet = AsyncFleet::new(config);
    let (a, b) = (TenantId(1), TenantId(2));
    fleet
        .register_tenant(a, KeySet::from_seed(1), ClassId(0))
        .unwrap();
    fleet
        .register_tenant(b, KeySet::from_seed(2), ClassId(1))
        .unwrap();

    // Unknown tenant.
    let err = fleet
        .submit(JobSpec::new(TenantId(99), loop_job(1), 100))
        .unwrap_err();
    assert_eq!(err, AdmitError::UnknownTenant(TenantId(99)));

    // Per-tenant fuel quota (class 1 allows 10k outstanding).
    fleet.submit(JobSpec::new(b, loop_job(1), 9_000)).unwrap();
    let err = fleet
        .submit(JobSpec::new(b, loop_job(1), 2_000))
        .unwrap_err();
    assert_eq!(
        err,
        AdmitError::OverFuelQuota {
            tenant: b,
            outstanding: 9_000,
            requested: 2_000,
            quota: 10_000,
        }
    );

    // Per-class queue cap: a second small job fits, a third bounces.
    fleet.submit(JobSpec::new(b, loop_job(1), 500)).unwrap();
    let err = fleet.submit(JobSpec::new(b, loop_job(1), 10)).unwrap_err();
    assert_eq!(
        err,
        AdmitError::ClassQueueFull {
            class: ClassId(1),
            queued: 2,
            cap: 2,
        }
    );

    // Global cap: class 0 can absorb two more, then the fleet is full.
    for _ in 0..2 {
        fleet.submit(JobSpec::new(a, loop_job(1), 100)).unwrap();
    }
    let err = fleet.submit(JobSpec::new(a, loop_job(1), 100)).unwrap_err();
    assert_eq!(err, AdmitError::QueueFull { queued: 4, cap: 4 });

    // Draining the queue re-opens admission — backpressure, not a ban.
    fleet.run_until_idle();
    assert!(fleet.submit(JobSpec::new(a, loop_job(1), 100)).is_ok());
    assert_eq!(fleet.stats().rejected, 0, "immediate rejects never queue");
}

#[test]
fn scheduled_arrivals_reject_deferred_and_typed() {
    let admission = AdmissionConfig {
        global_queue_cap: 2,
        ..Default::default()
    };
    let mut config = async_config(1, 1, SchedMode::FuelSliced { slice: 500 }, Some(8));
    config.admission = admission;
    let mut fleet = AsyncFleet::new(config);
    let a = TenantId(1);
    fleet
        .register_tenant(a, KeySet::from_seed(1), ClassId(0))
        .unwrap();
    // Three arrivals land on tick 5; the queue holds two.
    let ids: Vec<_> = (0..3)
        .map(|_| fleet.submit_at(JobSpec::new(a, loop_job(50), 100_000), 5))
        .collect();
    for _ in 0..6 {
        fleet.tick();
    }
    let rejected = fleet.drain_rejected();
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].job, ids[2]);
    assert_eq!(rejected[0].tick, 5);
    assert!(matches!(rejected[0].error, AdmitError::QueueFull { .. }));
    fleet.run_until_idle();
    let finished = fleet.drain_finished();
    assert_eq!(finished.len(), 2);
    // Arrival ticks are recorded, and sojourn runs from them.
    for r in &finished {
        assert_eq!(r.arrival_tick, 5);
        assert!(r.start_tick >= r.arrival_tick);
    }
}

#[test]
fn weighted_fair_queueing_favours_the_heavy_class() {
    let mut admission = AdmissionConfig::default();
    admission.classes.insert(
        0,
        ClassConfig {
            weight: 4,
            ..Default::default()
        },
    );
    admission.classes.insert(
        1,
        ClassConfig {
            weight: 1,
            ..Default::default()
        },
    );
    let mut config = async_config(2, 1, SchedMode::FuelSliced { slice: 200 }, Some(8));
    config.admission = admission;
    let mut fleet = AsyncFleet::new(config);
    let (hi, lo) = (TenantId(1), TenantId(2));
    fleet
        .register_tenant(hi, KeySet::from_seed(1), ClassId(0))
        .unwrap();
    fleet
        .register_tenant(lo, KeySet::from_seed(2), ClassId(1))
        .unwrap();
    for _ in 0..20 {
        fleet
            .submit(JobSpec::new(hi, loop_job(30), 100_000))
            .unwrap();
        fleet
            .submit(JobSpec::new(lo, loop_job(30), 100_000))
            .unwrap();
    }
    fleet.run_until_idle();
    let records = fleet.drain_finished();
    assert_eq!(records.len(), 40);
    // While both classes are backlogged, the weight-4 class finishes ~4×
    // as often: among the first 10 completions it must clearly dominate.
    let hi_early = records.iter().take(10).filter(|r| r.tenant == hi).count();
    assert!(hi_early >= 7, "weight-4 class got only {hi_early}/10");
    // Both classes still complete everything (fair, not starving).
    let lo_total = records.iter().filter(|r| r.tenant == lo).count();
    assert_eq!(lo_total, 20);
    // And the heavy class's mean sojourn is strictly better.
    let mean = |t: TenantId| {
        let s: u64 = records
            .iter()
            .filter(|r| r.tenant == t)
            .map(|r| r.sojourn_cycles)
            .sum();
        s / 20
    };
    assert!(mean(hi) < mean(lo), "{} !< {}", mean(hi), mean(lo));
}
