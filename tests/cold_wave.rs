//! The cold-wave suite: a batch's cold-start seals run inside the
//! fleet's one wave per tick — each lane that is the first cold job of
//! its image seals it, attribution decided on the coordinator in job
//! order — so host parallelism is invisible. For a wave of K distinct
//! tenants (plus duplicate submissions within and across tenants),
//! batches at every worker count must be **bit-identical** to the
//! one-worker reference — records, per-job cache attribution,
//! per-tenant statistics and the image cache's own counters — in both
//! scheduling modes, with virtual-time ticks priced by the batch model.

mod common;

use common::{batch_config, run_batch, unpriced, unpriced_stats, Mix};
use sofia::crypto::KeySet;
use sofia::fleet::schedule::price_schedule;
use sofia::fleet::{Fleet, JobRecord, JobSpec, QuarantinePolicy, SchedMode, TenantId};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// K distinct tenants, each submitting one program cold, plus repeat
/// submissions — a provider-side cold-start wave.
fn wave_jobs(tenants: usize) -> (Vec<(TenantId, KeySet)>, Vec<JobSpec>) {
    let keys: Vec<(TenantId, KeySet)> = (0..tenants)
        .map(|t| (TenantId(t as u32 + 1), KeySet::from_seed(0xFA12 + t as u64)))
        .collect();
    let mut jobs = Vec::new();
    for (i, (id, _)) in keys.iter().enumerate() {
        let n = 6 + i as u32;
        let src = format!(
            "main: li t0, {n}
                   li t1, 1
             loop: mul t1, t1, t0
                   subi t0, t0, 1
                   bnez t0, loop
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt"
        );
        jobs.push(JobSpec::new(*id, src.clone(), 1_000_000));
        // Duplicate submission of the same image in the same wave: one
        // lane seals it, and the duplicate is attributed a hit.
        if i % 2 == 0 {
            jobs.push(JobSpec::new(*id, src, 1_000_000));
        }
    }
    // One program two tenants share by *source* — never by image.
    for (id, _) in keys.iter().take(2) {
        jobs.push(JobSpec::new(*id, "main: li t2, 3\n halt", 1_000));
    }
    (keys, jobs)
}

fn run_wave(
    workers: usize,
    mode: SchedMode,
) -> (
    Vec<JobRecord>,
    sofia::fleet::FleetStats,
    sofia::transform::cache::ImageCacheStats,
) {
    let (tenants, jobs) = wave_jobs(6);
    let config = batch_config(workers, mode, QuarantinePolicy::Suspend);
    let (fleet, records) = run_batch(&Mix::new(tenants, jobs), config);
    (records, fleet.stats(), fleet.seal_cache_stats())
}

type WaveResult = (
    Vec<JobRecord>,
    sofia::fleet::FleetStats,
    sofia::transform::cache::ImageCacheStats,
);

/// Everything but the virtual-time ticks (priced per worker count, and
/// pinned against the batch model below) must match, per-job cache
/// attribution included: the coordinator makes the first job of an
/// image in job order the miss, however its lanes race.
fn assert_identical(a: &WaveResult, b: &WaveResult, label: &str) {
    let records = |r: &WaveResult| r.0.iter().map(unpriced).collect::<Vec<_>>();
    assert_eq!(records(a), records(b), "{label}");
    // Queue latency is summed start ticks — priced per worker count,
    // so it is pinned separately against the batch model below.
    assert_eq!(
        unpriced_stats(&a.1.tenants),
        unpriced_stats(&b.1.tenants),
        "{label}: per-tenant stats"
    );
    assert_eq!(
        (a.2.hits, a.2.misses, a.2.entries),
        (b.2.hits, b.2.misses, b.2.entries),
        "{label}: image cache counters"
    );
}

/// The suite's central invariant: a cold wave is bit-identical to the
/// one-worker reference at every worker count, in both scheduling
/// modes — same records, same per-job cache attribution, same
/// per-tenant stats, same cache counters — and its ticks are the batch
/// model's pricing of the reference's quanta at that worker count, so
/// sealing on the host never moves simulated admission.
#[test]
fn cold_wave_is_bit_identical_at_any_worker_count() {
    for mode in [
        SchedMode::RunToCompletion,
        SchedMode::FuelSliced { slice: 300 },
    ] {
        let reference = run_wave(1, mode);
        let quanta: Vec<Vec<u64>> = reference.0.iter().map(|r| r.slice_cycles.clone()).collect();
        for workers in WORKER_COUNTS {
            let wave = run_wave(workers, mode);
            assert_identical(&wave, &reference, &format!("w{workers} {mode:?}"));
            let priced = price_schedule(workers, &quanta);
            let mut latency = std::collections::BTreeMap::<u32, u64>::new();
            for (x, ticks) in wave.0.iter().zip(&priced.per_job) {
                assert_eq!(
                    (x.start_tick, x.end_tick),
                    (ticks.start, ticks.end),
                    "w{workers} {mode:?}: ticks of {:?}",
                    x.job
                );
                *latency.entry(x.tenant.0).or_default() += ticks.start;
            }
            for (tenant, stats) in &wave.1.tenants {
                assert_eq!(
                    stats.queue_latency_ticks, latency[tenant],
                    "w{workers} {mode:?}: queue latency of tenant#{tenant}"
                );
            }
        }
    }
}

/// Cold-wave accounting: K distinct tenants (each with 2 distinct-by-key
/// images for the shared trailer program) seal exactly once per image,
/// and only the first job of each image is a miss.
#[test]
fn cold_wave_seals_each_distinct_image_exactly_once() {
    for workers in WORKER_COUNTS {
        let (records, _, cache) = run_wave(workers, SchedMode::RunToCompletion);
        // 6 tenants × 1 program + 2 tenants × shared-source trailer
        // (distinct keys ⇒ distinct images) = 8 distinct images.
        assert_eq!(cache.misses, 8, "w{workers}");
        assert_eq!(cache.entries, 8, "w{workers}");
        let misses = records.iter().filter(|r| !r.seal_cache_hit).count();
        assert_eq!(misses, 8, "w{workers}: one attributed miss per image");
        assert!(records.iter().all(|r| r.outcome.is_halted()), "w{workers}");
    }
}

/// Seal failures flow through the cold wave unchanged: the bad program
/// fails identically at every worker count, is not cached, and healthy
/// jobs in the same wave are untouched.
#[test]
fn farm_preserves_seal_failures_bit_for_bit() {
    for workers in WORKER_COUNTS {
        let config = batch_config(
            workers,
            SchedMode::RunToCompletion,
            QuarantinePolicy::Suspend,
        );
        let mut fleet = Fleet::new(config);
        let good = TenantId(1);
        let bad = TenantId(2);
        fleet.register_tenant(good, KeySet::from_seed(1)).unwrap();
        fleet.register_tenant(bad, KeySet::from_seed(2)).unwrap();
        fleet
            .submit(JobSpec::new(good, "main: li t0, 4\n halt", 1_000))
            .unwrap();
        fleet
            .submit(JobSpec::new(bad, "main: bogus t9", 1_000))
            .unwrap();
        let records = fleet.run_batch();
        assert!(records[0].outcome.is_halted(), "w{workers}");
        let sofia::fleet::JobOutcome::SealFailed(msg) = &records[1].outcome else {
            panic!(
                "w{workers}: expected SealFailed, got {:?}",
                records[1].outcome
            );
        };
        assert!(msg.contains("parse"), "w{workers}: {msg}");
        assert_eq!(fleet.seal_cache_stats().entries, 1, "w{workers}");
    }
}
