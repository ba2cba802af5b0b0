//! The panic-isolation regression suite.
//!
//! Before the fix, a panic inside one worker's quantum poisoned the
//! pool's shared mutexes and every other worker — plus any later batch
//! on the same `Fleet` — died via `.expect("… poisoned")`. These tests
//! pin the repaired contract: a deliberately panicking job
//! ([`Sabotage::PanicInWorker`]) degrades to a typed
//! [`JobOutcome::WorkerPanic`] record, its tenant is contained like a
//! violator, bystander tenants' records stay **bit-identical** with or
//! without the saboteur aboard, and the fleet serves the next batch —
//! at several worker counts, and under the async driver.

mod common;

use common::{async_config, batch_config, serial_view, Mix};
use sofia::crypto::KeySet;
use sofia::fleet::{
    ClassId, Fleet, JobOutcome, JobRecord, JobSpec, QuarantinePolicy::Suspend, Sabotage, SchedMode,
    TenantId, TenantState,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn product_src(a: u32, b: u32) -> String {
    format!(
        "main: li t0, {a}
               li t1, {b}
               mul t2, t0, t1
               li a0, 0xFFFF0000
               sw t2, 0(a0)
               halt"
    )
}

fn bystander_tenants() -> Vec<(TenantId, KeySet)> {
    (1..=3u32)
        .map(|id| (TenantId(id), KeySet::from_seed(0x1000 + id as u64)))
        .collect()
}

fn bystander_jobs() -> Vec<JobSpec> {
    (1..=3u32)
        .flat_map(|tenant| {
            (0..3u32).map(move |round| {
                JobSpec::new(TenantId(tenant), product_src(tenant, 10 + round), 50_000)
            })
        })
        .collect()
}

fn run_batch(workers: usize, with_saboteur: bool) -> (Fleet, Vec<JobRecord>) {
    let mut mix = Mix::new(bystander_tenants(), vec![]);
    let mallory = TenantId(66);
    if with_saboteur {
        let keys = KeySet::from_seed(0x666);
        mix.tenants.push((mallory, keys, ClassId(0)));
    }
    for (i, job) in bystander_jobs().into_iter().enumerate() {
        mix.jobs.push(job);
        // Interleave the saboteur's jobs between bystanders so its
        // panics land mid-batch at every worker count.
        if with_saboteur && i % 4 == 1 {
            let panic = Sabotage::PanicInWorker;
            mix.jobs
                .push(JobSpec::new(mallory, product_src(6, 7), 50_000).with_sabotage(panic));
        }
    }
    let mode = SchedMode::FuelSliced { slice: 300 };
    common::run_batch(&mix, batch_config(workers, mode, Suspend))
}

#[test]
fn panicking_job_degrades_to_a_typed_record() {
    for workers in WORKER_COUNTS {
        let (fleet, records) = run_batch(workers, true);
        let panics: Vec<&JobRecord> = records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::WorkerPanic(_)))
            .collect();
        assert!(
            !panics.is_empty(),
            "saboteur produced no WorkerPanic at {workers} workers"
        );
        for r in &panics {
            assert_eq!(r.tenant, TenantId(66));
            let JobOutcome::WorkerPanic(msg) = &r.outcome else {
                unreachable!()
            };
            assert!(msg.contains("sabotage"), "lost the panic payload: {msg}");
            // The host fault is not a security verdict…
            assert!(r.violations.is_empty());
        }
        // …but the tenant is still contained, like a violator.
        assert_eq!(
            fleet.tenant_state(TenantId(66)),
            Some(TenantState::Suspended),
            "{workers} workers"
        );
        assert_eq!(
            fleet.stats().tenants[&66].worker_panics,
            panics.len() as u64
        );
    }
}

#[test]
fn bystanders_are_bit_identical_with_and_without_the_saboteur() {
    for workers in WORKER_COUNTS {
        let (_, with) = run_batch(workers, true);
        let (_, without) = run_batch(workers, false);
        let bystanders: Vec<_> = with
            .iter()
            .filter(|r| r.tenant != TenantId(66))
            .map(serial_view)
            .collect();
        let reference: Vec<_> = without.iter().map(serial_view).collect();
        assert_eq!(
            bystanders, reference,
            "saboteur perturbed bystanders at {workers} workers"
        );
    }
}

#[test]
fn fleet_serves_the_next_batch_after_a_panic() {
    for workers in WORKER_COUNTS {
        let (mut fleet, first) = run_batch(workers, true);
        assert!(first
            .iter()
            .any(|r| matches!(r.outcome, JobOutcome::WorkerPanic(_))));
        // The poisoned-mutex cascade used to kill exactly this call.
        for job in bystander_jobs() {
            fleet.submit(job).unwrap();
        }
        let second = fleet.run_batch();
        assert_eq!(second.len(), bystander_jobs().len());
        assert!(
            second.iter().all(|r| r.outcome.is_halted()),
            "second batch degraded at {workers} workers"
        );
        // The contained saboteur stays out until an operator releases it.
        assert!(fleet
            .submit(JobSpec::new(TenantId(66), product_src(1, 1), 1_000))
            .is_err());
        assert!(fleet.release(TenantId(66)));
    }
}

#[test]
fn async_driver_contains_a_panicking_tenant() {
    for threads in [1, 4] {
        let mallory = TenantId(66);
        let mut mix = Mix::new(bystander_tenants(), bystander_jobs());
        let keys = KeySet::from_seed(0x666);
        mix.tenants.push((mallory, keys, ClassId(0)));
        let config = async_config(threads, 2, SchedMode::FuelSliced { slice: 500 }, Some(8));
        let mut fleet = common::async_fleet(&mix, config);
        fleet
            .submit(
                JobSpec::new(mallory, product_src(6, 7), 50_000)
                    .with_sabotage(Sabotage::PanicInWorker),
            )
            .unwrap();
        // A second saboteur job, queued behind the first: admitted jobs
        // still run (each panic is contained individually), and only
        // *future* submissions are refused.
        fleet
            .submit(
                JobSpec::new(mallory, product_src(7, 8), 50_000)
                    .with_sabotage(Sabotage::PanicInWorker),
            )
            .unwrap();
        fleet.run_until_idle();
        let records = fleet.drain_finished();
        let panics = records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::WorkerPanic(_)))
            .count();
        assert_eq!(panics, 2, "threads={threads}");
        assert_eq!(fleet.tenant_state(mallory), Some(TenantState::Suspended));
        assert_eq!(
            fleet
                .submit(JobSpec::new(mallory, product_src(1, 1), 1_000))
                .unwrap_err(),
            sofia::fleet::AdmitError::Quarantined(mallory)
        );
        // Every bystander job still halted cleanly.
        let clean = records
            .iter()
            .filter(|r| r.tenant != mallory && r.outcome.is_halted())
            .count();
        assert_eq!(clean, bystander_jobs().len(), "threads={threads}");
        // The driver keeps serving after the panic.
        fleet
            .submit(JobSpec::new(TenantId(1), product_src(9, 9), 50_000))
            .unwrap();
        fleet.run_until_idle();
        let more = fleet.drain_finished();
        assert_eq!(more.len(), 1);
        assert!(more[0].outcome.is_halted());
    }
}

/// A data section larger than the lanes' RAM is refused by the seal, as a
/// `SealFailed` record, instead of panicking the lane that builds its
/// machine; with RAM to hold it, the same job runs. The fleet seals for
/// its own `SofiaConfig`'s RAM size.
#[test]
fn a_data_section_larger_than_ram_fails_its_seal() {
    let src = "main: li t0, 7\n li a0, 0xFFFF0000\n sw t0, 0(a0)\n halt\n.data\n.space 0x200000";
    let tenant = bystander_tenants().remove(0);
    let job = JobSpec::new(tenant.0, src, 50_000);
    let mix = Mix::new(vec![tenant], vec![job]);
    for (ram_size, fits) in [(1 << 20, false), (4 << 20, true)] {
        let mut config = batch_config(1, SchedMode::RunToCompletion, Suspend);
        config.sofia.machine.ram_size = ram_size;
        let (_, records) = common::run_batch(&mix, config);
        let outcome = &records[0].outcome;
        if fits {
            assert_eq!(records[0].out_words, vec![7], "{outcome:?}");
        } else {
            assert!(
                matches!(outcome, JobOutcome::SealFailed(e) if e.contains("DataTooLarge")),
                "{outcome:?}"
            );
        }
    }
}
