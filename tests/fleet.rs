//! The fleet determinism suite — the load-bearing invariant of
//! `sofia-fleet`, pinned: for any job set, fleet execution at any worker
//! count and in either scheduling mode produces **bit-identical** per-job
//! results, traps and violation reports to serial single-machine
//! execution. Scheduling decides *when* blocks run, never *what* they
//! compute.

mod common;

use common::{batch_config, run_batch, serial_reference, serial_view, Mix};
use sofia::crypto::KeySet;
use sofia::fleet::{
    JobOutcome, JobRecord, JobSpec, QuarantinePolicy::Suspend, Sabotage, SchedMode, TenantId,
};
use sofia::prelude::RunOutcome;
use sofia_workloads::gen::random_program;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_fleet(mix: &Mix, workers: usize, mode: SchedMode) -> Vec<JobRecord> {
    let (_, records) = run_batch(mix, batch_config(workers, mode, Suspend));
    assert_eq!(records.len(), mix.jobs.len());
    records
}

fn tenant_keys() -> Vec<(TenantId, KeySet)> {
    vec![
        (TenantId(1), KeySet::from_seed(0xA11CE)),
        (TenantId(2), KeySet::from_seed(0xB0B)),
        (TenantId(3), KeySet::from_seed(0xCAB1)),
    ]
}

/// A job set covering every outcome class: halts (workloads and random
/// programs, spread across tenants), out-of-fuel, a violation (tampered
/// ROM), and a seal failure.
fn mixed_jobs() -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new(
            TenantId(1),
            sofia_workloads::kernels::fib(60).source,
            5_000_000,
        ),
        JobSpec::new(
            TenantId(2),
            sofia_workloads::kernels::crc32(32).source,
            5_000_000,
        ),
        JobSpec::new(
            TenantId(3),
            sofia_workloads::adpcm::workload(40).source,
            5_000_000,
        ),
        JobSpec::new(
            TenantId(1),
            sofia_workloads::kernels::dispatch(12).source,
            5_000_000,
        ),
        // Runs out of fuel mid-way.
        JobSpec::new(
            TenantId(2),
            sofia_workloads::kernels::fib(5_000).source,
            3_000,
        ),
        // Tampered ciphertext: MAC mismatch, detected.
        JobSpec::new(
            TenantId(3),
            sofia_workloads::kernels::fib(60).source,
            5_000_000,
        )
        .with_sabotage(Sabotage::FlipRomWord { word: 9, mask: 1 }),
        // Does not parse: rejected at seal time.
        JobSpec::new(TenantId(1), "main: frobnicate t0", 1_000),
    ];
    for (i, seed) in [3u64, 17, 99, 2024].into_iter().enumerate() {
        jobs.push(JobSpec::new(
            TenantId(1 + (i as u32 % 3)),
            random_program(seed),
            20_000_000,
        ));
    }
    jobs
}

#[test]
fn fleet_matches_serial_at_every_worker_count_in_both_modes() {
    let mix = Mix::new(tenant_keys(), mixed_jobs());
    let reference = serial_reference(&mix);
    // The reference exercises every outcome class.
    let outcomes: Vec<&JobOutcome> = reference.iter().map(|((o, ..), _)| o).collect();
    assert!(outcomes.iter().any(|o| o.is_halted()));
    assert!(outcomes.contains(&&JobOutcome::Completed(RunOutcome::OutOfFuel)));
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, JobOutcome::Completed(RunOutcome::ViolationStop(_)))));
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, JobOutcome::SealFailed(_))));

    for workers in WORKER_COUNTS {
        for mode in [
            SchedMode::RunToCompletion,
            SchedMode::FuelSliced { slice: 500 },
            SchedMode::FuelSliced { slice: 7 }, // pathological slice
        ] {
            let records = run_fleet(&mix, workers, mode);
            let got: Vec<_> = records.iter().map(serial_view).collect();
            assert_eq!(got, reference, "divergence at {workers} workers, {mode:?}");
        }
    }
}

#[test]
fn fuel_sliced_scheduling_prevents_starvation() {
    // One long ADPCM job submitted first, then four short fib jobs.
    let mut jobs = vec![JobSpec::new(
        TenantId(3),
        sofia_workloads::adpcm::workload(200).source,
        50_000_000,
    )];
    for _ in 0..4 {
        jobs.push(JobSpec::new(
            TenantId(1),
            sofia_workloads::kernels::fib(50).source,
            50_000_000,
        ));
    }
    // Run-to-completion on one worker: the long job monopolises the
    // machine and every short job finishes after it.
    let mix = Mix::new(tenant_keys(), jobs);
    let rtc = run_fleet(&mix, 1, SchedMode::RunToCompletion);
    assert!(rtc[1..].iter().all(|r| r.end_tick > rtc[0].end_tick));
    // Fuel-sliced round-robin: every short job finishes before the long
    // one, which merely keeps cycling through its quanta.
    let sliced = run_fleet(&mix, 1, SchedMode::FuelSliced { slice: 2_000 });
    assert!(
        sliced[1..].iter().all(|r| r.end_tick < sliced[0].end_tick),
        "short jobs starved: {:?} vs long {:?}",
        sliced[1..].iter().map(|r| r.end_tick).collect::<Vec<_>>(),
        sliced[0].end_tick
    );
    // Same results either way, of course.
    for (a, b) in rtc.iter().zip(&sliced) {
        assert_eq!(serial_view(a), serial_view(b));
    }
    assert!(sliced[0].slices > 1, "long job was never preempted");
}

#[test]
fn virtual_time_scaling_is_monotone_and_work_conserving() {
    // Twelve moderately sized jobs: no single job dominates a quarter of
    // the batch, so each worker doubling must strictly help.
    let mut jobs = Vec::new();
    for round in 0..4u32 {
        jobs.push(JobSpec::new(
            TenantId(1),
            sofia_workloads::kernels::fib(100 + 40 * round).source,
            5_000_000,
        ));
        jobs.push(JobSpec::new(
            TenantId(2),
            sofia_workloads::kernels::crc32(24 + 8 * round as usize).source,
            5_000_000,
        ));
        jobs.push(JobSpec::new(
            TenantId(3),
            sofia_workloads::adpcm::workload(30 + 10 * round as usize).source,
            5_000_000,
        ));
    }
    let mix = Mix::new(tenant_keys(), jobs);
    for mode in [
        SchedMode::RunToCompletion,
        SchedMode::FuelSliced { slice: 1_000 },
    ] {
        let mut last_makespan = u64::MAX;
        let mut total = None;
        for workers in [1usize, 2, 4] {
            let (fleet, records) = run_batch(&mix, batch_config(workers, mode, Suspend));
            assert!(records.iter().all(|r| r.outcome.is_halted()));
            let stats = fleet.stats();
            assert!(
                stats.last_makespan_cycles < last_makespan,
                "{mode:?}: makespan {} did not improve on {last_makespan} at {workers} workers",
                stats.last_makespan_cycles
            );
            last_makespan = stats.last_makespan_cycles;
            // Work conservation: the same total simulated work at every
            // worker count (the determinism invariant in one number).
            let t = stats.total().cycles;
            assert_eq!(*total.get_or_insert(t), t, "{mode:?} at {workers} workers");
        }
    }
}
