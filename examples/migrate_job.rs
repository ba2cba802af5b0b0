//! Job migration: a fuel-sliced job is suspended in one fleet,
//! checkpointed to bytes (no ciphertext, no keys, no decrypted
//! plaintext — just architectural state and a sealed resume edge),
//! carried to a freshly constructed fleet on a different worker
//! configuration, and finished there with the exact result, statistics
//! and simulated cycle count an unmigrated run produces.
//!
//! ```text
//! cargo run --example migrate_job --release
//! ```

use sofia::fleet::{Fleet, FleetConfig, JobCheckpoint, JobSpec, SchedMode, TenantId};
use sofia::prelude::*;

fn fleet(workers: usize) -> Fleet {
    let mut f = Fleet::new(FleetConfig {
        workers,
        mode: SchedMode::FuelSliced { slice: 2_000 },
        sofia: SofiaConfig {
            vcache: VCacheConfig::enabled(64, 4),
            ..Default::default()
        },
        ..Default::default()
    });
    f.register_tenant(TenantId(1), KeySet::from_seed(0x0DE1))
        .unwrap();
    f
}

fn main() {
    let program = sofia_workloads::adpcm::workload(400).source;
    let fuel = 50_000_000;

    // The unmigrated reference: one fleet runs the job to completion.
    let mut home = fleet(4);
    home.submit(JobSpec::new(TenantId(1), program.clone(), fuel))
        .unwrap();
    let reference = home.run_batch().remove(0);
    println!(
        "reference   : {:?}, {} slices, {} simulated cycles",
        reference.outcome, reference.slices, reference.stats.exec.cycles
    );

    // The migrating run: fleet A serves three quanta, then suspends.
    let mut fleet_a = fleet(4);
    fleet_a
        .submit(JobSpec::new(TenantId(1), program, fuel))
        .unwrap();
    let finished_early = fleet_a.run_batch_capped(3);
    assert!(finished_early.is_empty(), "job should still be in flight");
    let id = fleet_a.queued_jobs()[0];

    // Checkpoint → bytes. This is everything that leaves the host.
    let ckpt = fleet_a.checkpoint_job(id).unwrap();
    let bytes = ckpt.to_bytes();
    let snap = ckpt.machine.as_ref().unwrap();
    println!(
        "checkpoint  : {} bytes ({} RAM pages, {} warm vcache edges, resume edge {:#010x}->{:#010x})",
        bytes.len(),
        snap.ram_pages.len(),
        snap.vcache_lines.len(),
        snap.prev_pc,
        snap.next_target,
    );

    // Fleet B is a different worker count on (conceptually) another host:
    // it re-seals the tenant's program under its own registration of
    // the device keys, re-verifies every warm cache line against the
    // sealed image, and resumes mid-program.
    let mut fleet_b = fleet(2);
    let decoded = JobCheckpoint::from_bytes(&bytes).expect("checkpoint survived transit");
    fleet_b.adopt_job(decoded).unwrap();
    let migrated = fleet_b.run_batch().remove(0);
    println!(
        "migrated    : {:?}, {} slices, {} simulated cycles",
        migrated.outcome, migrated.slices, migrated.stats.exec.cycles
    );

    assert_eq!(migrated.outcome, reference.outcome);
    assert_eq!(migrated.out_words, reference.out_words);
    assert_eq!(migrated.stats, reference.stats);
    assert_eq!(migrated.slice_cycles, reference.slice_cycles);
    println!("bit-identical to the unmigrated run — results, stats, cycles.");

    // And the security half: a forged resume edge in the same bytes is
    // caught on the first resumed fetch in the adopting fleet.
    let mut forged = JobCheckpoint::from_bytes(&bytes).unwrap();
    if let Some(snap) = forged.machine.as_mut() {
        snap.prev_pc ^= 4;
    }
    let mut fleet_c = fleet(2);
    fleet_c.adopt_job(forged).unwrap();
    let verdict = fleet_c.run_batch().remove(0);
    assert!(
        verdict.outcome.is_violation(),
        "forged edge must be detected, got {:?}",
        verdict.outcome
    );
    println!(
        "forged edge : {:?} — detected on the first resumed fetch.",
        verdict.violations[0]
    );
}
