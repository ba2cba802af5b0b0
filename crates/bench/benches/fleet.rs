//! The fleet scaling experiment, plus the `BENCH_fleet.json` trajectory
//! record.
//!
//! Criterion measures *host* throughput of the worker pool (how fast this
//! machine simulates the batch — interesting locally, meaningless on a
//! single-core CI box); the JSON records the **virtual-time** metrics
//! (makespan in simulated cycles on the deterministic tick-synchronous
//! schedule model, jobs/sec at the Table I SOFIA clock), which are
//! host-independent and reproduce bit-for-bit. The file is written on
//! every invocation, including the smoke run `cargo test` performs, so
//! the record can never go stale.

use criterion::{black_box, criterion_group, Criterion, Throughput};
use sofia_bench::{
    async_wfq_report, fleet_json, fleet_mix, fleet_scaling_series, mix_fleet, write_bench,
    FLEET_BENCH_MODES,
};

/// Tenants the async serving section runs with — the pinned 1k point;
/// `repro -- fleet` adds a 4k one.
const ASYNC_TENANTS: usize = 1_000;

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
    g.throughput(Throughput::Elements(fleet_mix().len() as u64));
    for workers in [1usize, 2, 4] {
        for (label, mode) in FLEET_BENCH_MODES {
            g.bench_function(format!("mix24/{label}/w{workers}"), |b| {
                b.iter(|| {
                    let mut fleet = black_box(mix_fleet(workers, mode));
                    let records = fleet.run_batch();
                    assert_eq!(records.len(), 24);
                    fleet.stats().total().cycles
                })
            });
        }
    }
    g.finish();
}

fn emit_bench_json() {
    let workers = [1usize, 2, 4, 8];
    let [rtc, sliced] = FLEET_BENCH_MODES.map(|(_, mode)| fleet_scaling_series(&workers, mode));
    // The determinism invariant, checked on every emission: total work is
    // worker-count-invariant, and throughput scales monotonically 1 -> 4.
    for series in [&rtc, &sliced] {
        for pair in series.windows(2) {
            assert_eq!(pair[0].total_cycles, pair[1].total_cycles);
            if pair[1].workers <= 4 {
                assert!(
                    pair[1].jobs_per_sec > pair[0].jobs_per_sec,
                    "jobs/sec not monotone: {pair:?}"
                );
            }
        }
    }
    // The async serving section, with its own determinism gate: the
    // report asserts itself bit-identical at 1 and 4 host threads, and
    // that admission backpressure fired, before it enters the record.
    let wfq = async_wfq_report(ASYNC_TENANTS, 4);
    let json = fleet_json(&rtc, &sliced, &wfq);
    write_bench("fleet", &json).unwrap_or_else(|e| panic!("{e}"));
}

criterion_group!(benches, bench_fleet);

fn main() {
    emit_bench_json();
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
