//! The host-throughput experiment, plus the `BENCH_host.json` record.
//!
//! Everything here is **wall-clock on this host** — the one trajectory
//! file whose numbers are *not* simulated cycles. It records what the
//! host-side optimisations (bitsliced RECTANGLE, batch sealing, the
//! borrowed verified-block dispatch, the fleet's wave pool) actually
//! buy on real silicon: keystream blocks/sec scalar vs bitsliced, host
//! MIPS of the three machines, seals/sec, and fleet jobs/sec per worker
//! count, each as the median, minimum and maximum of its runs. Numbers
//! are informational (no CI thresholds — wall clock is noisy and
//! machine-dependent).
//!
//! Unlike the simulated-cycle trajectory files (bit-for-bit
//! reproducible, safely rewritten by every run), `BENCH_host.json` is
//! only (re)written by a *measuring* invocation — `cargo bench --bench
//! host` or `repro -- host`, both release in CI. The smoke run under
//! `cargo test` still exercises the whole measurement path (including
//! the fleet) but skips the write, so test runs never dirty the
//! committed record with debug-build wall-clock numbers.

use criterion::{black_box, criterion_group, Criterion};
use sofia_bench::{host_json, host_report, write_bench, HOST_BENCH_REPS};

fn bench_host(c: &mut Criterion) {
    let mut g = c.benchmark_group("host");
    g.bench_function("keystream/16k", |b| {
        b.iter(|| black_box(sofia_bench::host_keystream(1 << 14, 1)))
    });
    g.bench_function("seal/adpcm600", |b| {
        b.iter(|| black_box(sofia_bench::host_seal_rates(1)))
    });
    g.bench_function("mips/fib5000", |b| {
        b.iter(|| black_box(sofia_bench::host_mips(1)))
    });
    g.finish();
}

fn emit_bench_json(measure: bool) {
    if measure {
        let report = host_report(HOST_BENCH_REPS);
        write_bench("host", &host_json(&report)).unwrap_or_else(|e| panic!("{e}"));
    } else {
        // Smoke: run the whole experiment once (single samples) so the
        // path is exercised on every `cargo test`, but do not overwrite
        // the recorded release figures with debug wall clock.
        std::hint::black_box(host_report(1));
    }
}

criterion_group!(benches, bench_host);

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    emit_bench_json(measure);
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
