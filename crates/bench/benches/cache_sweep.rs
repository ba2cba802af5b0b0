//! The verified-block-cache geometry sweep, plus the `BENCH_vcache.json`
//! trajectory record.
//!
//! Criterion measures *host* simulation throughput across cache
//! geometries; the JSON records *simulated* cycle counts (vanilla /
//! sofia-uncached / sofia-cached), which are deterministic and
//! host-independent — that file is the perf trajectory tracked from PR 2
//! onward. It is written on every invocation, including the smoke run
//! `cargo test` performs, so the record can never go stale.

use criterion::{black_box, criterion_group, Criterion};
use sofia_core::machine::SofiaMachine;
use sofia_core::{SofiaConfig, VCacheConfig};
use sofia_crypto::KeySet;
use sofia_workloads::{adpcm, kernels};

/// The geometry the JSON trajectory is recorded at.
fn trajectory_config() -> VCacheConfig {
    VCacheConfig::enabled(256, 8)
}

fn bench_cache_sweep(c: &mut Criterion) {
    let keys = KeySet::from_seed(0xCA5E);
    let w = kernels::fib(5_000);
    let image = w.secure_image(&keys);
    let mut g = c.benchmark_group("cache_sweep");
    for (label, vcache) in [
        ("off", VCacheConfig::default()),
        ("dm16", VCacheConfig::enabled(16, 1)),
        ("a64x4", VCacheConfig::enabled(64, 4)),
        ("a256x8", VCacheConfig::enabled(256, 8)),
    ] {
        let config = SofiaConfig {
            vcache,
            ..Default::default()
        };
        g.bench_function(format!("fib5000/{label}"), |b| {
            b.iter(|| {
                let mut m = SofiaMachine::with_config(black_box(&image), &keys, &config);
                m.run(10_000_000).unwrap();
                m.stats().exec.cycles
            })
        });
    }
    g.finish();
}

fn emit_bench_json() {
    let keys = KeySet::from_seed(0xCA5E);
    let vcache = trajectory_config();
    let rows: Vec<_> = [
        ("fib20", kernels::fib(20)),
        ("fib5000", kernels::fib(5_000)),
        ("crc32", kernels::crc32(96)),
        ("adpcm600", adpcm::workload(600)),
    ]
    .iter()
    .map(|(label, w)| {
        let mut row = sofia_bench::vcache_row(w, &keys, vcache);
        row.name = label.to_string();
        row
    })
    .collect();
    let json = sofia_bench::vcache_rows_json(vcache, &rows);
    sofia_bench::write_bench("vcache", &json).unwrap_or_else(|e| panic!("{e}"));
}

criterion_group!(benches, bench_cache_sweep);

fn main() {
    emit_bench_json();
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
