//! The five load-bearing equalities, one property each. SOFIA claims
//! that decrypting and MAC-verifying every block never changes what an
//! untampered program computes, and every fleet layer makes the same
//! promise: host threads, parking, the verified-block cache, an idle
//! chaos layer and the batch facade. Each property draws a job mix and
//! a configuration from the shared harness (`common`) and checks one
//! equality on whole records, on their unpriced view (the schedule's
//! tick fields cleared) or on their architectural view. A failing case
//! prints the mix and configuration that broke it.

mod common;

use common::*;
use proptest::prelude::*;
use sofia::fleet::{ChaosPlan, FaultRate, JobCheckpoint, JobRecord, ResilienceConfig, Sabotage};
use sofia::prelude::*;

const POLICIES: [QuarantinePolicy; 3] = [
    QuarantinePolicy::Suspend,
    QuarantinePolicy::RetryWithReboot { max_resets: 2 },
    QuarantinePolicy::Evict,
];

fn is_panic(job: &JobSpec) -> bool {
    job.sabotage == Some(Sabotage::PanicInWorker)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// serial ≡ parallel: at 2, 4 and 8 host threads an async run
    /// reports exactly what it reports at 1 — records, rejections,
    /// driver, tenant, seal-cache and resilience counters — in either
    /// mode, at any lane count (unbounded too), parking or not, under
    /// every quarantine policy. Each record of that run and of the batch
    /// `Fleet` at 1 and 3 workers in both modes equals serial execution,
    /// statistics included, unless serial execution has no counterpart
    /// (a worker panic; a violating job `RetryWithReboot` re-runs). Each
    /// case adds 3–6 random programs on one fuel of 1k–50M to the mix.
    #[test]
    fn generated_mixes_match_serial(
        mix in mixes(),
        seeds in proptest::collection::vec(any::<u64>(), 3..7),
        fuel in 1_000u64..50_000_000,
        lanes in prop_oneof![1usize..5, Just(usize::MAX)],
        (sliced, slice) in (any::<bool>(), 50u64..5_000),
        policy in 0usize..3,
        park in (any::<bool>(), 1u64..4).prop_map(|(on, k)| on.then_some(k)),
    ) {
        let (mix, quarantine) = (mix.with_random_programs(&seeds, fuel), POLICIES[policy]);
        let modes = [SchedMode::RunToCompletion, SchedMode::FuelSliced { slice }];
        let mut config = async_config(1, lanes, modes[sliced as usize], park);
        config.quarantine = quarantine;
        let (_, reference) = run_async(&mix, config.clone());
        for threads in [2, 4, 8] {
            config.threads = threads;
            prop_assert_eq!(&run_async(&mix, config.clone()).1, &reference);
        }
        let mut records = reference.records;
        for (mode, workers) in modes.into_iter().flat_map(|mode| [(mode, 1), (mode, 3)]) {
            records.extend(run_batch(&mix, batch_config(workers, mode, quarantine)).1);
        }
        let serial = serial_reference(&mix);
        let reboots = matches!(quarantine, QuarantinePolicy::RetryWithReboot { .. });
        for r in &records {
            let job = r.job.0 as usize;
            if !(is_panic(&mix.jobs[job]) || (reboots && serial[job].0.0.is_violation())) {
                prop_assert_eq!(serial_view(r), serial[job].clone());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// snapshot→restore ≡ uninterrupted: parking after 0, 1 or k idle
    /// ticks moves no record; and a batch checkpointed at a drawn
    /// quantum cap, carried as `SOFJ1` bytes and adopted by a second
    /// fleet finishes with the unpriced records of a run that never
    /// stopped (see `adopted_as` for the two fields adoption renames).
    #[test]
    fn parked_and_migrated_jobs_match_uninterrupted_runs(
        mix in mixes(),
        lanes in 1usize..5,
        slice in 50u64..2_000,
        k in 2u64..12,
        (cap, ckpt_slice) in (1u32..8, 10u64..500),
    ) {
        let mode = SchedMode::FuelSliced { slice };
        let (_, reference) = run_async(&mix, async_config(2, lanes, mode, None));
        for park in [Some(0), Some(1), Some(k)] {
            let (_, parked) = run_async(&mix, async_config(2, lanes, mode, park));
            prop_assert_eq!(&parked.records, &reference.records);
        }

        let mode = SchedMode::FuelSliced { slice: ckpt_slice };
        let batch = batch_config(2, mode, QuarantinePolicy::Suspend);
        let (_, uninterrupted) = run_batch(&mix, batch);
        let mut first = batch_fleet(&mix, batch);
        let mut records: Vec<_> = first.run_batch_capped(cap).iter().map(unpriced).collect();
        let carried = first.queued_jobs();
        let mut second = batch_fleet(&mix.without(|_| true), batch);
        for &id in &carried {
            let bytes = first.checkpoint_job(id).unwrap().to_bytes();
            second.adopt_job(JobCheckpoint::from_bytes(&bytes).unwrap()).unwrap();
        }
        for (&job, r) in carried.iter().zip(second.run_batch()) {
            records.push(adopted_as(&r, &uninterrupted[job.0 as usize]));
        }
        records.sort_by_key(|r| r.job);
        prop_assert_eq!(records, uninterrupted.iter().map(unpriced).collect::<Vec<_>>());
    }

    /// cached ≡ uncached: under any verified-block cache geometry every
    /// record keeps the architectural view of the uncached run. Jobs
    /// all arrive at tick 0: the cache moves cycles, so with later
    /// arrivals a quarantine verdict could land before a different set
    /// of them.
    #[test]
    fn cached_and_uncached_fleets_compute_the_same(
        mix in mixes(),
        geometry in 1usize..5,
        lanes in 1usize..5,
        slice in 50u64..2_000,
    ) {
        let mix = mix.at_tick_zero();
        let view = |vcache| {
            let mut config = async_config(2, lanes, SchedMode::FuelSliced { slice }, Some(8));
            config.sofia.vcache = vcache;
            run_async(&mix, config).1.records.iter().map(arch).collect::<Vec<_>>()
        };
        prop_assert_eq!(view(geometries()[geometry].1), view(VCacheConfig::default()));
    }

    /// chaos-none ≡ chaos-free: see [`chaos_none_holds`].
    #[test]
    fn chaos_none_is_bit_for_bit_invisible(
        mix in mixes(),
        uniform in any::<bool>(),
        seed in any::<u64>(),
        slice in 50u64..2_000,
    ) {
        let chaos = if uniform { ChaosPlan::uniform(seed, FaultRate::NEVER) } else { ChaosPlan::none() };
        chaos_none_holds(&mix, chaos, slice)?;
    }

    /// batch ≡ async: the batch facade and the async driver it wraps
    /// (every queued job a lane, no parking), on the same mix with every
    /// job arriving at tick 0, agree on the unpriced records, the tenant
    /// states and the unpriced tenant stats.
    #[test]
    fn batch_and_async_drivers_agree(
        mix in mixes(),
        threads in 1usize..5,
        sliced in any::<bool>(),
        slice in 50u64..2_000,
        policy in 0usize..3,
    ) {
        let mix = mix.at_tick_zero();
        let mode = if sliced { SchedMode::FuelSliced { slice } } else { SchedMode::RunToCompletion };
        let quarantine = POLICIES[policy];
        let (batch, records) = run_batch(&mix, batch_config(threads, mode, quarantine));
        let mut config = async_config(threads, usize::MAX, mode, None);
        config.quarantine = quarantine;
        let (_, run) = run_async(&mix, config);
        let unpriced_records = |rs: &[JobRecord]| rs.iter().map(unpriced).collect::<Vec<_>>();
        prop_assert_eq!(unpriced_records(&records), unpriced_records(&run.records));
        let states: Vec<_> = mix.tenants.iter().map(|t| batch.tenant_state(t.0)).collect();
        prop_assert_eq!(states, run.tenant_states);
        prop_assert_eq!(unpriced_stats(&batch.stats().tenants), unpriced_stats(&run.tenant_stats));
    }
}

/// chaos-none ≡ chaos-free: with the resilience preset armed and a plan
/// that never strikes, every record and the driver counters equal the
/// default fleet's at the same thread count, and no resilience counter
/// moves. A source that does not parse and a panicking worker are the
/// job's own faults, which the preset never retries.
fn chaos_none_holds(mix: &Mix, chaos: ChaosPlan, slice: u64) -> Result<(), TestCaseError> {
    for threads in [1, 2, 4, 8] {
        let config = async_config(threads, 3, SchedMode::FuelSliced { slice }, Some(2));
        let (_, base) = run_async(mix, config.clone());
        let mut armed = config;
        armed.chaos = chaos.clone();
        armed.resilience = ResilienceConfig::standard();
        let (_, run) = run_async(mix, armed);
        prop_assert_eq!(&run.records, &base.records);
        prop_assert_eq!(run.stats, base.stats);
        prop_assert_eq!(run.resilience, Default::default());
    }
    Ok(())
}

/// The mix at seed 19 holds an unparsable source and a panicking
/// worker, which the armed preset once retried as host faults.
#[test]
fn self_inflicted_failures_are_not_retried() {
    chaos_none_holds(&Mix::draw(19), ChaosPlan::none(), 120).unwrap();
}
