//! The chaos-layer suite.
//!
//! Pins the three load-bearing claims of `sofia_fleet::chaos` +
//! `sofia_fleet::resilience`:
//!
//! 1. **`ChaosPlan::none` is bit-for-bit invisible.** A fleet with the
//!    chaos seams compiled in, the resilience machinery armed (the
//!    [`ResilienceConfig::standard`] preset) and zero faults drawn must
//!    produce the *identical* records as a fleet that never heard of
//!    either module, at every host thread count. That property,
//!    `chaos_none_is_bit_for_bit_invisible`, lives with the other
//!    equalities in `equalities.rs`.
//! 2. **Every fault is exactly one typed event.** Injected strikes
//!    never panic and never vanish: the `FaultInjected` event count,
//!    the per-seam counters and their total all agree, for driver-drawn
//!    and harness-drawn seams alike, and each recovery counter equals
//!    the count of its own event.
//! 3. **Degradation is graceful.** A 100 % seal-fault storm fails only
//!    *cold* transforms; tenants whose images the seal cache already
//!    holds keep being served at full fidelity, and deadline sheds
//!    produce a typed `DeadlineMissed` record instead of a hang.

mod common;

use common::{arch, async_config, async_fleet, loop_job, run_async, Mix};
use sofia::crypto::KeySet;
use sofia::fleet::{
    AsyncConfig, BreakerConfig, ChaosPlan, ClassId, FaultRate, JobOutcome, JobSpec,
    ResilienceConfig, ResilienceEvent, ResilienceStats, SchedMode, Seam, TenantId,
};

/// `n` tenants in class 0 and no jobs yet.
fn tenants(n: u32) -> Mix {
    let keys = |id| KeySet::from_seed(0xC4A0_0000 + id as u64);
    Mix::new((1..=n).map(|id| (TenantId(id), keys(id))).collect(), vec![])
}

/// Three lanes of 120-cycle slices at `threads`, parking after two idle
/// ticks, under `chaos` and `resilience`.
fn config(threads: usize, chaos: ChaosPlan, resilience: ResilienceConfig) -> AsyncConfig {
    let mut config = async_config(threads, 3, SchedMode::FuelSliced { slice: 120 }, Some(2));
    config.chaos = chaos;
    config.resilience = resilience;
    config
}

/// Claim 2: under a hot uniform plan every strike lands as exactly one
/// typed `FaultInjected` event — the event count, the per-seam
/// counters and the total all agree — every recovery counter equals
/// the count of its own event, and every submitted job still settles
/// into exactly one record. No panics, no silent losses.
#[test]
fn every_fault_is_exactly_one_typed_event() {
    let mut mix = tenants(6);
    mix.jobs = (0..18u32)
        .map(|i| JobSpec::new(TenantId(1 + i % 6), loop_job(20 + 7 * (i % 5)), 100_000))
        .collect();
    let chaos = ChaosPlan::uniform(0xC0FF_EE00, FaultRate::ppm(60_000));
    let (mut fleet, run) = run_async(&mix, config(2, chaos, ResilienceConfig::standard()));
    let records = run.records;
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
    assert_eq!(records.len(), mix.jobs.len());
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
    let mut mix = tenants(6);
    for i in 0..36u32 {
        let spec = JobSpec::new(TenantId(1 + i % 6), loop_job(20 + 7 * (i % 5)), 100_000);
        mix.jobs.push(spec);
        mix.arrivals.push(u64::from(i / 2));
    }
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
            let chaos = ChaosPlan::uniform(0x5707_F01D, FaultRate::ppm(80_000));
            let (mut fleet, _) = run_async(&mix, config(threads, chaos, resilience));
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
    let config = async_config(1, 1, SchedMode::FuelSliced { slice: 500 }, Some(8));
    let mut fleet = async_fleet(&tenants(1), config);
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
    let warm_src = loop_job(12);
    let config = async_config(2, 2, SchedMode::FuelSliced { slice: 120 }, Some(8));
    let mut fleet = async_fleet(&tenants(4), config);
    // Calm phase: warm tenants 1–3 (their sealed images enter the cache).
    for id in 1..=3u32 {
        fleet
            .submit(JobSpec::new(TenantId(id), warm_src.clone(), 100_000))
            .unwrap();
    }
    fleet.run_until_idle();
    let mut calm = fleet.drain_finished();
    calm.sort_by_key(|rec| rec.tenant);
    assert!(
        calm.iter().all(|r| r.outcome.is_halted()),
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
    assert!(warm.iter().zip(&calm).all(|(w, c)| w.tenant == c.tenant));
    let warm_got: Vec<_> = warm.iter().map(|r| arch(r)).collect();
    let calm_got: Vec<_> = calm.iter().map(arch).collect();
    assert_eq!(warm_got, calm_got, "storm perturbed warm tenants");
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
    let mut resilience = ResilienceConfig::standard();
    resilience.deadlines.insert(ClassId(0), 1);
    let mut config = async_config(1, 1, SchedMode::FuelSliced { slice: 60 }, Some(8));
    config.resilience = resilience;
    let mut fleet = async_fleet(&tenants(1), config);
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
