//! The chaos-layer suite.
//!
//! Pins the three load-bearing claims of `sofia_fleet::chaos` +
//! `sofia_fleet::resilience`:
//!
//! 1. **`ChaosPlan::none` is bit-for-bit invisible.** A fleet with the
//!    chaos seams compiled in, the resilience machinery armed (the
//!    [`ResilienceConfig::standard`] preset) and zero faults drawn must
//!    produce the *identical* full record surface — outcomes, MMIO,
//!    cycles, ticks, sojourns — as a fleet that never heard of either
//!    module, at every host thread count.
//! 2. **Every fault is exactly one typed event.** Injected strikes
//!    never panic and never vanish: the `FaultInjected` event count,
//!    the per-seam counters and their total all agree, for driver-drawn
//!    and harness-drawn seams alike, and each recovery counter equals
//!    the count of its own event.
//! 3. **Degradation is graceful.** A 100 % seal-fault storm fails only
//!    *cold* transforms; tenants whose images the seal cache already
//!    holds keep being served at full fidelity, and deadline sheds
//!    produce a typed `DeadlineMissed` record instead of a hang.

use proptest::prelude::*;
use sofia::crypto::KeySet;
use sofia::fleet::{
    AsyncConfig, AsyncFleet, BreakerConfig, ChaosPlan, ClassId, FaultRate, JobOutcome, JobRecord,
    JobSpec, ResilienceConfig, ResilienceEvent, ResilienceStats, SchedMode, Seam, TenantId,
};

fn loop_job(n: u32) -> String {
    format!(
        "main: li t0, {n}
               li t1, 0
         loop: add t1, t1, t0
               subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t1, 0(a0)
               halt"
    )
}

fn tenants(n: u32) -> Vec<(TenantId, KeySet)> {
    (1..=n)
        .map(|id| (TenantId(id), KeySet::from_seed(0xC4A0_0000 + id as u64)))
        .collect()
}

/// The full deterministic surface of a record, scheduling included —
/// same recipe the async determinism suite pins.
fn full_digest(r: &JobRecord) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{:?}",
        r.job,
        r.tenant,
        r.outcome,
        r.out_words,
        r.stats.exec.cycles,
        r.stats.exec.instret,
        r.arrival_tick,
        r.start_tick,
        r.end_tick,
        r.sojourn_cycles,
        r.slice_cycles,
    )
}

/// Builds a fleet, runs `jobs` to idle, returns (fleet, records sorted
/// by job id).
fn drive(
    threads: usize,
    chaos: ChaosPlan,
    resilience: ResilienceConfig,
    tenant_set: &[(TenantId, KeySet)],
    jobs: &[JobSpec],
) -> (AsyncFleet, Vec<JobRecord>) {
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads,
        workers: 3,
        mode: SchedMode::FuelSliced { slice: 120 },
        park_after: Some(2),
        chaos,
        resilience,
        ..Default::default()
    });
    for (id, keys) in tenant_set {
        fleet
            .register_tenant(*id, keys.clone(), ClassId(0))
            .unwrap();
    }
    for job in jobs {
        fleet.submit(job.clone()).unwrap();
    }
    fleet.run_until_idle();
    let mut records = fleet.drain_finished();
    records.sort_by_key(|r| r.job);
    (fleet, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Claim 1: across generated workloads and 1/2/4/8 host threads, a
    /// fleet with `ChaosPlan::none` installed and the full resilience
    /// preset armed is indistinguishable — full record surface and
    /// stats — from the machinery-free default fleet. Idle survival
    /// gear must cost zero bits.
    #[test]
    fn chaos_none_is_bit_for_bit_invisible(
        lengths in proptest::collection::vec(3u32..60, 3..7),
    ) {
        let tenant_set = tenants(3);
        let jobs: Vec<JobSpec> = lengths
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                JobSpec::new(TenantId(1 + (i as u32 % 3)), loop_job(n), 100_000)
            })
            .collect();
        let (base_fleet, baseline) = drive(
            1,
            ChaosPlan::none(),
            ResilienceConfig::default(),
            &tenant_set,
            &jobs,
        );
        let reference: Vec<String> = baseline.iter().map(full_digest).collect();
        for threads in [1usize, 2, 4, 8] {
            let (fleet, records) = drive(
                threads,
                ChaosPlan::none(),
                ResilienceConfig::standard(),
                &tenant_set,
                &jobs,
            );
            let got: Vec<String> = records.iter().map(full_digest).collect();
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(fleet.stats(), base_fleet.stats());
            // No fault was drawn, so the whole resilience surface is zero.
            prop_assert_eq!(fleet.resilience_stats(), Default::default());
        }
    }
}

/// Claim 2: under a hot uniform plan every strike lands as exactly one
/// typed `FaultInjected` event — the event count, the per-seam
/// counters and the total all agree — every recovery counter equals
/// the count of its own event, and every submitted job still settles
/// into exactly one record. No panics, no silent losses.
#[test]
fn every_fault_is_exactly_one_typed_event() {
    let tenant_set = tenants(6);
    let jobs: Vec<JobSpec> = (0..18)
        .map(|i| {
            JobSpec::new(
                TenantId(1 + (i as u32 % 6)),
                loop_job(20 + 7 * (i as u32 % 5)),
                100_000,
            )
        })
        .collect();
    let (mut fleet, records) = drive(
        2,
        ChaosPlan::uniform(0xC0FF_EE00, FaultRate::ppm(60_000)),
        ResilienceConfig::standard(),
        &tenant_set,
        &jobs,
    );
    let res = fleet.resilience_stats();
    assert!(res.faults_injected > 0, "hot plan drew no faults");
    let events = fleet.drain_resilience_events();
    let injected = events
        .iter()
        .filter(|e| matches!(e, ResilienceEvent::FaultInjected { .. }))
        .count() as u64;
    assert_eq!(injected, res.faults_injected, "fault without a typed event");
    assert_eq!(
        res.seal_faults
            + res.snapshot_corruptions
            + res.worker_stalls
            + res.worker_panics_injected
            + res.checkpoint_truncations
            + res.storm_bursts,
        res.faults_injected,
        "per-seam counters disagree with the total"
    );
    // Every recovery counter with a one-to-one event equals its count.
    let seen =
        |pick: fn(&ResilienceEvent) -> bool| events.iter().filter(|e| pick(e)).count() as u64;
    use ResilienceEvent as E;
    let counters = [
        res.retries_scheduled,
        res.retries_exhausted,
        res.deadline_shed,
        res.deadline_late,
        res.load_shed,
        res.breaker_opens,
        res.breaker_closes,
    ];
    let counted = [
        seen(|e| matches!(e, E::RetryScheduled { .. })),
        seen(|e| matches!(e, E::RetriesExhausted { .. })),
        seen(|e| matches!(e, E::DeadlineShed { .. })),
        seen(|e| matches!(e, E::DeadlineLate { .. })),
        seen(|e| matches!(e, E::LoadShed { .. })),
        seen(|e| matches!(e, E::BreakerOpened { .. })),
        seen(|e| matches!(e, E::BreakerClosed { .. })),
    ];
    assert_eq!(counters, counted, "a recovery counter without its events");
    // Conservation: every submitted job settled into exactly one
    // record (retries re-queue the job, they never fork or drop it).
    assert_eq!(records.len(), jobs.len());
}

/// Folds an event stream into counters, independently of the driver:
/// a breaker close adds the span from its open to the cooldown end the
/// open announced.
fn fold_events(events: &[ResilienceEvent]) -> ResilienceStats {
    use ResilienceEvent as E;
    let mut s = ResilienceStats::default();
    let mut open_until = None;
    for event in events {
        match *event {
            E::FaultInjected { seam, .. } => {
                s.faults_injected += 1;
                match seam {
                    Seam::Seal => s.seal_faults += 1,
                    Seam::Snapshot => s.snapshot_corruptions += 1,
                    Seam::Stall => s.worker_stalls += 1,
                    Seam::Panic => s.worker_panics_injected += 1,
                    Seam::Checkpoint => s.checkpoint_truncations += 1,
                    Seam::Storm => s.storm_bursts += 1,
                }
            }
            E::RetryScheduled { .. } => s.retries_scheduled += 1,
            E::RetriesExhausted { .. } => s.retries_exhausted += 1,
            E::DeadlineShed { .. } => s.deadline_shed += 1,
            E::DeadlineLate { .. } => s.deadline_late += 1,
            E::LoadShed { .. } => s.load_shed += 1,
            E::BreakerOpened { until_tick, .. } => {
                s.breaker_opens += 1;
                open_until = Some(until_tick);
            }
            E::BreakerClosed { opened_tick, .. } => {
                s.breaker_closes += 1;
                let until = open_until.take().expect("a close follows an open");
                s.breaker_open_ticks += until - opened_tick;
            }
        }
    }
    s
}

/// Every resilience counter is a fold of the event stream: folding the
/// drained events of a storm run — retries, sheds, late finishes,
/// breaker cycles and load sheds under staggered arrivals — reproduces
/// `resilience_stats()` at 1, 2 and 4 host threads, breaker open time
/// included, also under a zero cooldown (which the breaker clamps to a
/// two-tick span).
#[test]
fn resilience_stats_are_the_fold_of_their_events() {
    let tenant_set = tenants(6);
    for cooldown_ticks in [0, 6] {
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let mut resilience = ResilienceConfig::standard();
            resilience.deadlines.insert(ClassId(0), 2_500);
            resilience.breaker = Some(BreakerConfig {
                window_ticks: 16,
                fault_threshold: 2,
                cooldown_ticks,
                shed_max_weight: 1,
            });
            let mut fleet = AsyncFleet::new(AsyncConfig {
                threads,
                workers: 3,
                mode: SchedMode::FuelSliced { slice: 120 },
                park_after: Some(2),
                chaos: ChaosPlan::uniform(0x5707_F01D, FaultRate::ppm(80_000)),
                resilience,
                ..Default::default()
            });
            for (id, keys) in &tenant_set {
                fleet
                    .register_tenant(*id, keys.clone(), ClassId(0))
                    .unwrap();
            }
            for i in 0..36u32 {
                let spec = JobSpec::new(TenantId(1 + i % 6), loop_job(20 + 7 * (i % 5)), 100_000);
                fleet.submit_at(spec, u64::from(i / 2));
            }
            fleet.run_until_idle();
            let stats = fleet.resilience_stats();
            let events = fleet.drain_resilience_events();
            assert_eq!(fold_events(&events), stats, "{threads} threads");
            let exercised = [
                stats.retries_scheduled,
                stats.deadline_shed,
                stats.deadline_late,
                stats.breaker_closes,
            ];
            assert!(!exercised.contains(&0), "{stats:?}");
            // Even a zero cooldown holds the breaker open through the
            // next tick's admissions, so both cooldowns shed load.
            assert!(stats.load_shed > 0, "{stats:?}");
            match &reference {
                None => reference = Some(events),
                Some(events_at_1) => assert_eq!(&events, events_at_1, "{threads} threads"),
            }
        }
    }
}

/// Harness-drawn seams (checkpoint truncation, quarantine storms) are
/// injected outside the driver but share the same typed ledger.
#[test]
fn harness_faults_share_the_ledger() {
    let tenant_set = tenants(1);
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: 1,
        workers: 1,
        ..Default::default()
    });
    for (id, keys) in &tenant_set {
        fleet
            .register_tenant(*id, keys.clone(), ClassId(0))
            .unwrap();
    }
    fleet.note_harness_fault(Seam::Checkpoint, None, None);
    fleet.note_harness_fault(Seam::Storm, None, Some(TenantId(1)));
    let res = fleet.resilience_stats();
    assert_eq!(res.checkpoint_truncations, 1);
    assert_eq!(res.storm_bursts, 1);
    assert_eq!(res.faults_injected, 2);
    let events = fleet.drain_resilience_events();
    assert_eq!(events.len(), 2);
    assert!(matches!(
        events[0],
        ResilienceEvent::FaultInjected {
            seam: Seam::Checkpoint,
            ..
        }
    ));
    assert!(matches!(
        events[1],
        ResilienceEvent::FaultInjected {
            seam: Seam::Storm,
            tenant: Some(TenantId(1)),
            ..
        }
    ));
}

/// Claim 3a: a 100 % seal-fault storm only starves *cold* transforms.
/// Tenants whose images the seal cache already holds are served
/// bit-identically to the calm phase; the one cold tenant fails with a
/// typed `SealFailed`, not a panic.
#[test]
fn total_seal_storm_still_serves_warm_tenants() {
    let tenant_set = tenants(4);
    let warm_src = loop_job(12);
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: 2,
        workers: 2,
        mode: SchedMode::FuelSliced { slice: 120 },
        ..Default::default()
    });
    for (id, keys) in &tenant_set {
        fleet
            .register_tenant(*id, keys.clone(), ClassId(0))
            .unwrap();
    }
    // Calm phase: warm tenants 1–3 (their sealed images enter the cache).
    for id in 1..=3u32 {
        fleet
            .submit(JobSpec::new(TenantId(id), warm_src.clone(), 100_000))
            .unwrap();
    }
    fleet.run_until_idle();
    let calm: Vec<String> = {
        let mut r = fleet.drain_finished();
        r.sort_by_key(|rec| rec.tenant);
        r.iter()
            .map(|rec| format!("{:?}|{:?}|{:?}", rec.tenant, rec.outcome, rec.out_words))
            .collect()
    };
    assert!(
        calm.iter().all(|d| d.contains("Halted")),
        "calm phase failed"
    );

    // Storm phase: every fresh transform now fails its seal.
    fleet.set_chaos_plan(ChaosPlan {
        seal_fault: FaultRate::ALWAYS,
        ..ChaosPlan::none()
    });
    for id in 1..=3u32 {
        fleet
            .submit(JobSpec::new(TenantId(id), warm_src.clone(), 100_000))
            .unwrap();
    }
    // Tenant 4 never sealed anything: its transform is cold and dies.
    fleet
        .submit(JobSpec::new(TenantId(4), loop_job(9), 100_000))
        .unwrap();
    fleet.run_until_idle();
    let mut storm = fleet.drain_finished();
    storm.sort_by_key(|rec| rec.tenant);
    let (cold, warm): (Vec<_>, Vec<_>) = storm.iter().partition(|rec| rec.tenant == TenantId(4));
    let warm_got: Vec<String> = warm
        .iter()
        .map(|rec| format!("{:?}|{:?}|{:?}", rec.tenant, rec.outcome, rec.out_words))
        .collect();
    assert_eq!(warm_got, calm, "storm perturbed warm tenants");
    assert_eq!(cold.len(), 1);
    assert!(
        matches!(cold[0].outcome, JobOutcome::SealFailed(_)),
        "cold job under total seal storm must fail typed: {:?}",
        cold[0].outcome
    );
    let res = fleet.resilience_stats();
    assert_eq!(res.seal_faults, 1, "storm must strike the cold job only");
    assert_eq!(res.faults_injected, 1);
}

/// Claim 3b: a queued job that blows its class deadline is shed with a
/// typed `DeadlineMissed` record — it never ran, its tenant is not
/// quarantined, and the shed is mirrored by a `DeadlineShed` event.
#[test]
fn deadline_sheds_are_typed_records_not_hangs() {
    let tenant_set = tenants(1);
    let mut resilience = ResilienceConfig::standard();
    resilience.deadlines.insert(ClassId(0), 1);
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: 1,
        workers: 1,
        mode: SchedMode::FuelSliced { slice: 60 },
        resilience,
        ..Default::default()
    });
    for (id, keys) in &tenant_set {
        fleet
            .register_tenant(*id, keys.clone(), ClassId(0))
            .unwrap();
    }
    // One worker, four long jobs: whoever queues behind the head blows
    // the 1-cycle deadline on the first priced tick.
    for _ in 0..4 {
        fleet
            .submit(JobSpec::new(TenantId(1), loop_job(300), 100_000))
            .unwrap();
    }
    fleet.run_until_idle();
    let records = fleet.drain_finished();
    assert_eq!(records.len(), 4, "sheds must still produce records");
    let shed: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::DeadlineMissed { .. }))
        .collect();
    assert!(!shed.is_empty(), "no deadline shed under a 1-cycle SLO");
    let res = fleet.resilience_stats();
    assert_eq!(res.deadline_shed as usize, shed.len());
    let events = fleet.drain_resilience_events();
    let shed_events = events
        .iter()
        .filter(|e| matches!(e, ResilienceEvent::DeadlineShed { .. }))
        .count();
    assert_eq!(shed_events, shed.len(), "shed without a typed event");
    // An SLO miss is an availability decision, not a security verdict.
    assert_eq!(
        fleet.tenant_state(TenantId(1)),
        Some(sofia::fleet::TenantState::Active)
    );
}
