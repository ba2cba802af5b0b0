//! Fleet serving: a software provider runs many tenants' sealed programs
//! on shared infrastructure — each tenant its own device keys, each
//! program sealed once, a violation quarantining only its tenant.
//!
//! ```text
//! cargo run --example fleet_serving --release
//! ```

use sofia::fleet::{Fleet, FleetConfig, JobSpec, QuarantinePolicy, Sabotage, SchedMode, TenantId};
use sofia::prelude::*;

fn main() {
    let mut fleet = Fleet::new(FleetConfig {
        workers: 4,
        mode: SchedMode::FuelSliced { slice: 2_000 },
        quarantine: QuarantinePolicy::Suspend,
        sofia: SofiaConfig {
            // Every device ships the verified-block cache.
            vcache: VCacheConfig::enabled(64, 4),
            ..Default::default()
        },
    });

    // Three tenants: device-key domains that share nothing.
    let (fib_co, crc_co, dsp_co) = (TenantId(1), TenantId(2), TenantId(3));
    fleet
        .register_tenant(fib_co, KeySet::from_seed(0xF1B))
        .unwrap();
    fleet
        .register_tenant(crc_co, KeySet::from_seed(0xC3C))
        .unwrap();
    fleet
        .register_tenant(dsp_co, KeySet::from_seed(0xD59))
        .unwrap();

    // A mixed batch; the DSP tenant's second device is under attack
    // (one flipped ciphertext bit in its ROM).
    for _ in 0..2 {
        fleet
            .submit(JobSpec::new(
                fib_co,
                sofia_workloads::kernels::fib(400).source,
                10_000_000,
            ))
            .unwrap();
        fleet
            .submit(JobSpec::new(
                crc_co,
                sofia_workloads::kernels::crc32(64).source,
                10_000_000,
            ))
            .unwrap();
    }
    fleet
        .submit(JobSpec::new(
            dsp_co,
            sofia_workloads::adpcm::workload(120).source,
            10_000_000,
        ))
        .unwrap();
    fleet
        .submit(
            JobSpec::new(
                dsp_co,
                sofia_workloads::adpcm::workload(120).source,
                10_000_000,
            )
            .with_sabotage(Sabotage::FlipRomWord { word: 33, mask: 4 }),
        )
        .unwrap();

    let records = fleet.run_batch();
    println!("batch of {} jobs:", records.len());
    for r in &records {
        println!(
            "  {} {}: {:?}  ({} cycles, {} slices, waited {} ticks{})",
            r.job,
            r.tenant,
            r.outcome,
            r.cycles(),
            r.slices,
            r.queue_latency_ticks(),
            if r.seal_cache_hit {
                ", sealed image reused"
            } else {
                ""
            },
        );
    }

    let stats = fleet.stats();
    println!("\nper-tenant roll-up:");
    for (id, t) in &stats.tenants {
        println!(
            "  tenant#{id}: {} jobs, {} halted, {} violating, {} cycles, \
             vcache hit rate {:.1}%, seal cache {}h/{}m",
            t.jobs,
            t.halted,
            t.violating_jobs,
            t.cycles,
            t.vcache_hit_rate() * 100.0,
            t.seal_cache_hits,
            t.seal_cache_misses,
        );
    }
    println!(
        "\nbatch makespan: {} simulated cycles over {} scheduler ticks",
        stats.last_makespan_cycles, stats.last_ticks
    );

    // The DSP tenant is quarantined; everyone else keeps serving.
    let refused = fleet.submit(JobSpec::new(
        dsp_co,
        sofia_workloads::adpcm::workload(120).source,
        10_000_000,
    ));
    println!("\nDSP tenant after the violation: {}", refused.unwrap_err());
    assert!(fleet
        .submit(JobSpec::new(
            fib_co,
            sofia_workloads::kernels::fib(400).source,
            10_000_000,
        ))
        .is_ok());
    println!("fib tenant: still serving");
}
