//! Chaos drill: a seeded fault storm against a self-healing fleet.
//!
//! Act 1 warms four tenants on an `AsyncFleet`, swaps in a hot
//! [`ChaosPlan`] (seal failures, worker stalls, injected worker deaths,
//! rotting snapshots), and lets the resilience layer — retry budgets
//! with jittered backoff and a class-level circuit breaker — ride it
//! out. Every strike and every recovery
//! decision lands in one typed event ledger; nothing panics. The same
//! seed always replays the same storm.
//!
//! Act 2 drills the storage seam the driver can't see: a job checkpoint
//! serialized for migration is truncated in transit. The corruption is
//! caught as a typed decode error (never a crash), recorded in the same
//! ledger via [`AsyncFleet::note_harness_fault`], and recovered by
//! re-reading the pristine bytes and adopting them normally.
//!
//! ```text
//! cargo run --example chaos_drill --release
//! ```

use sofia::crypto::KeySet;
use sofia::fleet::{
    AsyncConfig, AsyncFleet, ChaosPlan, ClassId, FaultRate, Fleet, FleetConfig, JobCheckpoint,
    JobSpec, ResilienceConfig, ResilienceEvent, SchedMode, Seam, TenantId,
};

fn loop_job(tenant: TenantId, n: u32) -> JobSpec {
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
    JobSpec::new(tenant, src, 100_000)
}

fn submit_round(fleet: &mut AsyncFleet, round: u32) {
    for id in 1..=4u32 {
        fleet
            .submit(loop_job(TenantId(id), 10 + 5 * id + round))
            .unwrap();
    }
}

fn served(fleet: &mut AsyncFleet) -> (usize, usize) {
    let records = fleet.drain_finished();
    let ok = records.iter().filter(|r| r.outcome.is_halted()).count();
    (ok, records.len())
}

fn main() {
    // ---- Act 1: warm, storm, recover ------------------------------
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: 4,
        workers: 2,
        mode: SchedMode::FuelSliced { slice: 100 },
        park_after: Some(2),
        resilience: ResilienceConfig::standard(),
        ..Default::default() // chaos: ChaosPlan::none() — calm for now
    });
    for id in 1..=4u32 {
        fleet
            .register_tenant(
                TenantId(id),
                KeySet::from_seed(0xD1A7 + id as u64),
                ClassId(0),
            )
            .unwrap();
    }

    submit_round(&mut fleet, 0);
    fleet.run_until_idle();
    let (ok, total) = served(&mut fleet);
    println!("calm   : {ok}/{total} jobs halted, 0 faults (plan is ChaosPlan::none)");

    // The storm: every seam armed at 8 % per lane-tick, one seed.
    fleet.set_chaos_plan(ChaosPlan::uniform(0xBAD5_EED5, FaultRate::ppm(80_000)));
    for round in 1..=3u32 {
        submit_round(&mut fleet, round);
    }
    fleet.run_until_idle();
    let (ok, total) = served(&mut fleet);
    let res = fleet.resilience_stats();
    println!(
        "storm  : {ok}/{total} jobs halted through {} injected faults \
         (seal {}, stall {}, panic {}, snapshot {})",
        res.faults_injected,
        res.seal_faults,
        res.worker_stalls,
        res.worker_panics_injected,
        res.snapshot_corruptions,
    );
    println!(
        "         survival: {} retries, {} breaker opens (open {} ticks)",
        res.retries_scheduled, res.breaker_opens, res.breaker_open_ticks,
    );
    println!("         typed event ledger (first strikes and recoveries):");
    for event in fleet.drain_resilience_events().iter().take(8) {
        match event {
            ResilienceEvent::FaultInjected {
                tick, seam, job, ..
            } => {
                println!("           t{tick:<4} fault    {seam:?} {job:?}")
            }
            ResilienceEvent::RetryScheduled {
                tick,
                job,
                attempt,
                resume_tick,
                ..
            } => println!(
                "           t{tick:<4} retry    {job} attempt {attempt} → resumes t{resume_tick}"
            ),
            other => println!("           {other:?}"),
        }
    }

    // Calm again: installing ChaosPlan::none() stops injection at once.
    fleet.set_chaos_plan(ChaosPlan::none());
    submit_round(&mut fleet, 9);
    fleet.run_until_idle();
    let (ok, total) = served(&mut fleet);
    let after = fleet.resilience_stats().faults_injected;
    assert_eq!(after, res.faults_injected, "faults after the storm ended");
    println!("healed : {ok}/{total} jobs halted, fault counter frozen at {after}");

    // ---- Act 2: checkpoint truncation in transit ------------------
    let mut home = Fleet::new(FleetConfig {
        workers: 2,
        mode: SchedMode::FuelSliced { slice: 400 },
        ..Default::default()
    });
    home.register_tenant(TenantId(1), KeySet::from_seed(0x0DE1))
        .unwrap();
    home.submit(loop_job(TenantId(1), 2_000)).unwrap();
    assert!(home.run_batch_capped(2).is_empty(), "job still in flight");
    let id = home.queued_jobs()[0];
    let pristine = home.checkpoint_job(id).unwrap().to_bytes();

    // The chaos plan truncates the bytes "on the wire" — a storage /
    // transport fault the driver itself never sees.
    let plan = ChaosPlan {
        checkpoint_truncation: FaultRate::ALWAYS,
        ..ChaosPlan::none()
    };
    let mut wire = pristine.clone();
    assert!(plan.truncate_checkpoint(&mut wire, 0, id.0));
    let err = JobCheckpoint::from_bytes(&wire).unwrap_err();
    fleet.note_harness_fault(Seam::Checkpoint, None, Some(TenantId(1)));
    println!(
        "\ntransit: checkpoint truncated {} → {} bytes, caught typed: {err:?}",
        pristine.len(),
        wire.len()
    );

    // Recovery: re-read from the source of truth and adopt normally.
    let mut away = Fleet::new(FleetConfig {
        workers: 1,
        mode: SchedMode::FuelSliced { slice: 400 },
        ..Default::default()
    });
    away.register_tenant(TenantId(1), KeySet::from_seed(0x0DE1))
        .unwrap();
    away.adopt_job(JobCheckpoint::from_bytes(&pristine).unwrap())
        .unwrap();
    let record = away.run_batch().remove(0);
    assert!(record.outcome.is_halted(), "recovered run must finish");
    println!(
        "recover: pristine re-read adopted and finished — {:?}, out {:?}",
        record.outcome, record.out_words
    );
    println!(
        "ledger : {} harness-seam faults recorded alongside the driver's own",
        fleet.resilience_stats().checkpoint_truncations
    );
}
