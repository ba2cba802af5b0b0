//! Integration: job migration across fleets. A mixed 3-tenant job mix
//! is run partway in one fleet, checkpointed mid-flight, carried as
//! bytes, and adopted by a **freshly constructed** second fleet at a
//! different worker count — batch or async — and every job finishes with
//! bit-identical outcome, output, violations, statistics (simulated
//! cycles included) and per-slice virtual-time costs to a run that
//! never migrated. A tampered tenant's job that migrates *before* its
//! violation fires still traps in the adopting fleet and quarantines
//! only its tenant there.

mod common;

use common::{adopted_as, async_config, batch_config, batch_fleet, loop_job, unpriced, Mix};
use sofia::attacks::victims::control_loop_victim;
use sofia::crypto::KeySet;
use sofia::fleet::{
    AdmissionConfig, AdmitError, AdoptError, AsyncFleet, ClassConfig, JobCheckpoint, JobRecord,
    Sabotage,
};
use sofia::prelude::*;
use sofia::transform::Transformer;

const SLICE: u64 = 150;

fn tenant_seed(id: u32) -> u64 {
    0xF1EE7 + id as u64
}

/// Tenants 1–3 in class 0, no jobs.
fn tenants() -> Mix {
    let keys = |id| KeySet::from_seed(tenant_seed(id));
    Mix::new((1..=3).map(|id| (TenantId(id), keys(id))).collect(), vec![])
}

fn fleet_with_tenants(workers: usize) -> Fleet {
    let mode = SchedMode::FuelSliced { slice: SLICE };
    batch_fleet(
        &tenants(),
        batch_config(workers, mode, QuarantinePolicy::Suspend),
    )
}

/// ROM word index inside the block holding the `done` epilogue of
/// [`control_loop_victim`] — the late tamper point a migrating job only
/// reaches in the adopting fleet.
fn epilogue_word(n: u32) -> usize {
    let keys = KeySet::from_seed(tenant_seed(3));
    let image = Transformer::new(keys)
        .transform(&asm::parse(&control_loop_victim(n)).unwrap())
        .unwrap();
    ((image.symbols["done"] - image.text_base) / 4) as usize
}

/// The job mix: per tenant one short job (finishes inside the first
/// quantum) and one long job (suspends and migrates); tenant 3's long
/// job additionally carries a late-block sabotage.
fn mix() -> Vec<JobSpec> {
    let tampered_word = epilogue_word(40);
    let mut jobs = Vec::new();
    for tenant in 1..=3u32 {
        jobs.push(JobSpec::new(
            TenantId(tenant),
            loop_job(8 + tenant),
            100_000,
        ));
        let long = if tenant == 3 {
            JobSpec::new(TenantId(3), control_loop_victim(40), 100_000).with_sabotage(
                Sabotage::FlipRomWord {
                    word: tampered_word,
                    mask: 0x8000_0001,
                },
            )
        } else {
            JobSpec::new(TenantId(tenant), loop_job(180 + tenant), 100_000)
        };
        jobs.push(long);
    }
    jobs
}

fn submit_mix(fleet: &mut Fleet) -> usize {
    let jobs = mix();
    let n = jobs.len();
    for job in jobs {
        fleet.submit(job).unwrap();
    }
    n
}

#[test]
fn migrated_mix_finishes_bit_identical_across_fleets() {
    // Reference: the same mix, never migrated.
    let mut reference = fleet_with_tenants(4);
    let n = submit_mix(&mut reference);
    let ref_records = reference.run_batch();
    assert_eq!(ref_records.len(), n);

    for workers2 in [1usize, 2, 7] {
        // Fleet 1 serves exactly one quantum per job, then suspends the
        // survivors.
        let mut fleet1 = fleet_with_tenants(4);
        submit_mix(&mut fleet1);
        let finished1 = fleet1.run_batch_capped(1);
        let suspended = fleet1.queued_jobs();
        assert!(
            !finished1.is_empty() && suspended.len() >= 3,
            "mix must split: {} finished, {} suspended",
            finished1.len(),
            suspended.len()
        );
        // The tampered long job must be among the migrants — its
        // violation fires only in the adopting fleet.
        assert!(
            finished1.iter().all(|r| r.violations.is_empty()),
            "tampered job violated before migrating"
        );
        assert_eq!(
            fleet1.tenant_state(TenantId(3)),
            Some(sofia::fleet::TenantState::Active)
        );

        // Checkpoint each survivor, carry it as bytes, adopt it in a
        // freshly constructed fleet with a different worker count.
        let mut fleet2 = fleet_with_tenants(workers2);
        for &id in &suspended {
            let ckpt = fleet1.checkpoint_job(id).unwrap();
            let bytes = ckpt.to_bytes();
            let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, ckpt, "checkpoint byte roundtrip");
            fleet2.adopt_job(decoded).unwrap();
        }
        assert_eq!(fleet1.pending_jobs(), 0);
        let finished2 = fleet2.run_batch();
        assert_eq!(finished1.len() + finished2.len(), n);

        // Reassemble in original submission order: fleet-1 ids are the
        // submission indices; fleet-2 records are in adoption order,
        // which is the suspended jobs' submission order.
        let mut merged: Vec<Option<&JobRecord>> = vec![None; n];
        for r in &finished1 {
            merged[r.job.0 as usize] = Some(r);
        }
        for (slot, r) in suspended.iter().zip(&finished2) {
            merged[slot.0 as usize] = Some(r);
        }
        for (i, (got, want)) in merged.iter().zip(&ref_records).enumerate() {
            let got = got.expect("every job accounted for");
            assert_eq!(
                adopted_as(got, want),
                unpriced(want),
                "job {i} diverged after migrating to {workers2} workers"
            );
        }

        // Work conservation across the split: the virtual-time cost of
        // the whole mix is preserved, so fleet accounting stays honest.
        let cost = |rs: &[JobRecord]| rs.iter().flat_map(|r| r.slice_cycles.iter()).sum::<u64>();
        assert_eq!(
            cost(&finished1) + cost(&finished2),
            cost(&ref_records),
            "virtual-time cycles lost or invented by the migration"
        );

        // Containment lands in the adopting fleet, on the right tenant,
        // and nowhere else.
        use sofia::fleet::TenantState;
        assert_eq!(
            fleet2.tenant_state(TenantId(3)),
            Some(TenantState::Suspended)
        );
        assert_eq!(fleet2.tenant_state(TenantId(1)), Some(TenantState::Active));
        assert_eq!(fleet2.tenant_state(TenantId(2)), Some(TenantState::Active));
        let tampered = finished2
            .iter()
            .find(|r| r.tenant == TenantId(3) && !r.violations.is_empty())
            .expect("tampered job finished in fleet 2");
        assert!(
            matches!(
                tampered.outcome,
                JobOutcome::Completed(sofia::core::machine::RunOutcome::ViolationStop(
                    Violation::MacMismatch { .. }
                ))
            ),
            "{:?}",
            tampered.outcome
        );
    }
}

/// A job checkpointed before its first quantum carries no machine
/// snapshot and adopts as a fresh submission — same verdict, same
/// output.
#[test]
fn never_served_jobs_checkpoint_without_a_machine() {
    let mut fleet1 = fleet_with_tenants(2);
    let id = fleet1
        .submit(JobSpec::new(TenantId(1), loop_job(12), 50_000))
        .unwrap();
    let ckpt = fleet1.checkpoint_job(id).unwrap();
    assert!(ckpt.machine.is_none());
    assert_eq!(ckpt.remaining, 50_000);
    let decoded = JobCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let mut fleet2 = fleet_with_tenants(1);
    fleet2.adopt_job(decoded).unwrap();
    let records = fleet2.run_batch();
    assert!(records[0].outcome.is_halted());
    assert_eq!(records[0].out_words, vec![(1..=12).sum::<u32>()]);
    // Checkpointing removed the job from fleet 1 entirely.
    assert_eq!(fleet1.pending_jobs(), 0);
    assert!(matches!(
        fleet1.checkpoint_job(id),
        Err(sofia::fleet::FleetError::UnknownJob(_))
    ));
}

/// Adoption is gated by the adopting fleet's tenant registry: unknown
/// and quarantined tenants are refused, and a checkpoint restored
/// against a *different* key registration simply re-seals and runs
/// under those keys (key domains stay structural).
#[test]
fn adoption_respects_the_tenant_registry() {
    let mut fleet1 = fleet_with_tenants(1);
    fleet1
        .submit(JobSpec::new(TenantId(1), loop_job(200), 100_000))
        .unwrap();
    fleet1.run_batch_capped(1);
    let id = fleet1.queued_jobs()[0];
    let ckpt = fleet1.checkpoint_job(id).unwrap();

    // Unknown tenant.
    let mut empty = Fleet::new(FleetConfig::default());
    assert!(matches!(
        empty.adopt_job(ckpt.clone()),
        Err(sofia::fleet::AdoptError::Fleet(
            sofia::fleet::FleetError::UnknownTenant(_)
        ))
    ));

    // Same tenant id, same keys, different fleet: adoption works and
    // the job finishes with the right output.
    let mut fleet2 = fleet_with_tenants(3);
    fleet2.adopt_job(ckpt).unwrap();
    let records = fleet2.run_batch();
    assert!(records[0].outcome.is_halted());
    assert_eq!(records[0].out_words, vec![(1..=200).sum::<u32>()]);
}

fn async_fleet(threads: usize, park_after: Option<u64>, admission: AdmissionConfig) -> AsyncFleet {
    let mode = SchedMode::FuelSliced { slice: SLICE };
    let mut config = async_config(threads, 2, mode, park_after);
    config.admission = admission;
    common::async_fleet(&tenants(), config)
}

/// Async migration: two ticks of two lanes into the mix leave two jobs
/// served and re-queued — live without parking, parked to `SOFS1` bytes
/// under `park_after: Some(1)` — and two never served. All four are
/// checkpointed out as bytes, adopted by a second `AsyncFleet` and by a
/// batch `Fleet`, and every job's record essence equals an
/// uninterrupted run, at 1, 2 and 4 host threads.
#[test]
fn async_checkpoints_live_parked_and_unserved_jobs_bit_identically() {
    let mut reference = async_fleet(1, None, AdmissionConfig::default());
    for job in mix() {
        reference.submit(job).unwrap();
    }
    reference.run_until_idle();
    let mut ref_records = reference.drain_finished();
    ref_records.sort_by_key(|r| r.job);
    assert_eq!(ref_records.len(), mix().len());

    for threads in [1usize, 2, 4] {
        for park_after in [None, Some(1)] {
            let label = format!("{threads} threads, park_after {park_after:?}");
            let mut source = async_fleet(threads, park_after, AdmissionConfig::default());
            for job in mix() {
                source.submit(job).unwrap();
            }
            source.tick();
            source.tick();
            let queued = source.queued_jobs();
            assert_eq!(queued, 4, "{label}");
            let parked = source.parked_jobs();
            assert_eq!(parked, if park_after.is_some() { 2 } else { 0 }, "{label}");
            let finished = source.drain_finished();
            assert_eq!(finished.len(), 2, "{label}");

            let mut carried = Vec::new();
            for id in 0..mix().len() as u64 {
                if let Ok(ckpt) = source.checkpoint_job(sofia::fleet::JobId(id)) {
                    carried.push((id, ckpt.to_bytes()));
                }
            }
            assert_eq!(carried.len(), 4, "{label}");
            assert_eq!(source.queued_jobs(), 0, "{label}");
            let served = carried
                .iter()
                .filter(|(_, bytes)| JobCheckpoint::from_bytes(bytes).unwrap().machine.is_some())
                .count();
            assert_eq!(served, 2, "{label}: two migrants carry a machine");

            let mut into_async = async_fleet(threads, None, AdmissionConfig::default());
            let mut into_batch = fleet_with_tenants(threads);
            for (_, bytes) in &carried {
                into_async
                    .adopt_job(JobCheckpoint::from_bytes(bytes).unwrap())
                    .unwrap();
                into_batch
                    .adopt_job(JobCheckpoint::from_bytes(bytes).unwrap())
                    .unwrap();
            }
            into_async.run_until_idle();
            let mut from_async = into_async.drain_finished();
            from_async.sort_by_key(|r| r.job);
            let from_batch = into_batch.run_batch();
            for adopted in [&from_async, &from_batch] {
                assert_eq!(adopted.len(), carried.len(), "{label}");
                for r in &finished {
                    let want = &ref_records[r.job.0 as usize];
                    assert_eq!(unpriced(r), unpriced(want), "{label}");
                }
                for ((id, _), r) in carried.iter().zip(adopted) {
                    let want = &ref_records[*id as usize];
                    assert_eq!(
                        adopted_as(r, want),
                        unpriced(want),
                        "{label}: job {id} diverged after migrating"
                    );
                }
            }
        }
    }
}

/// Adoption is an admission: the adopting driver charges the job's fuel
/// budget to its tenant's quota, and refuses it — typed, charging
/// nothing — when the quota is spent.
#[test]
fn async_adoption_is_charged_to_the_fuel_quota() {
    let mut source = async_fleet(1, None, AdmissionConfig::default());
    let id = source
        .submit(JobSpec::new(TenantId(1), loop_job(200), 100_000))
        .unwrap();
    source.tick();
    let ckpt = source.checkpoint_job(id).unwrap();
    assert!(ckpt.machine.is_some());

    let quota = AdmissionConfig {
        default_class: ClassConfig {
            tenant_fuel_quota: 150_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut adopter = async_fleet(1, None, quota);
    adopter.adopt_job(ckpt.clone()).unwrap();
    assert!(matches!(
        adopter.adopt_job(ckpt.clone()),
        Err(AdoptError::Admit(AdmitError::OverFuelQuota {
            outstanding: 100_000,
            requested: 100_000,
            ..
        }))
    ));
    assert_eq!(adopter.queued_jobs(), 1);
    adopter.run_until_idle();
    let records = adopter.drain_finished();
    assert_eq!(records[0].out_words, vec![(1..=200).sum::<u32>()]);
    // The finished job released its claim: the quota admits it again.
    adopter.adopt_job(ckpt).unwrap();
}
