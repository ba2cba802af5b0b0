//! # sofia-bench — measurement helpers for the reproduction harness
//!
//! Shared machinery for the `repro` binary (which regenerates every table
//! and figure of the paper, see `DESIGN.md` §3) and the Criterion
//! benches: run a workload on both machines under arbitrary
//! configurations and reduce the statistics to the paper's metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Same wall as `sofia-fleet`: measurement code is the evidence chain for
// every number the repo publishes, and a bare `unwrap`/`expect` dies
// without saying *which* workload or machine misbehaved. Non-test code
// panics through `unwrap_or_else` with the failing value in the message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use sofia_core::machine::SofiaMachine;
use sofia_core::{SofiaConfig, SofiaStats, VCacheConfig};
use sofia_cpu::machine::VanillaMachine;
use sofia_cpu::ExecStats;
use sofia_crypto::KeySet;
use sofia_transform::{BlockFormat, BlockKind, TransformReport, Transformer};
use sofia_workloads::Workload;

/// Fuel for measurement runs.
pub const FUEL: u64 = 500_000_000;

/// One row of a §IV-B-style overhead table.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Workload name.
    pub name: String,
    /// Plain text-section size in bytes.
    pub text_in: usize,
    /// Sealed text-section size in bytes.
    pub text_out: usize,
    /// Baseline cycles.
    pub vanilla_cycles: u64,
    /// SOFIA cycles.
    pub sofia_cycles: u64,
    /// Full SOFIA statistics (for breakdowns).
    pub sofia: SofiaStats,
    /// Baseline statistics.
    pub vanilla: ExecStats,
    /// Transformation report.
    pub report: TransformReport,
}

impl OverheadRow {
    /// Code-size expansion factor (paper: 2.41× for ADPCM).
    pub fn expansion(&self) -> f64 {
        self.text_out as f64 / self.text_in as f64
    }

    /// Cycle overhead in percent (paper: 13.7 % for ADPCM).
    pub fn cycle_overhead_pct(&self) -> f64 {
        (self.sofia_cycles as f64 / self.vanilla_cycles as f64 - 1.0) * 100.0
    }

    /// Total execution-time overhead in percent, combining cycles with
    /// the Table I clocks (paper: 110 % for ADPCM).
    pub fn time_overhead_pct(&self) -> f64 {
        let (v, s) = sofia_hwmodel::table1();
        let vanilla_time = self.vanilla_cycles as f64 * v.period_ns;
        let sofia_time = self.sofia_cycles as f64 * s.period_ns;
        (sofia_time / vanilla_time - 1.0) * 100.0
    }
}

/// Runs `workload` on both machines with the given SOFIA configuration
/// and block format, verifying outputs against the golden model.
///
/// # Panics
///
/// Panics if either machine misbehaves — measurement runs must be
/// correct runs.
pub fn measure_with(
    workload: &Workload,
    keys: &KeySet,
    format: BlockFormat,
    config: &SofiaConfig,
) -> OverheadRow {
    // Vanilla (same baseline machine parameters as the SOFIA config, so
    // the comparison isolates the security architecture).
    let assembly = workload.assembly();
    let mut vm = VanillaMachine::with_config(&assembly, &config.machine);
    let vr = vm
        .run(FUEL)
        .unwrap_or_else(|e| panic!("vanilla run traps: {e:?}"));
    assert!(vr.is_halted(), "{}: vanilla did not halt", workload.name);
    assert_eq!(
        vm.mem().mmio.out_words,
        workload.expected,
        "{}: vanilla output mismatch",
        workload.name
    );

    // SOFIA.
    let image = Transformer::new(keys.clone())
        .with_format(format)
        .transform(&workload.module())
        .unwrap_or_else(|e| panic!("workload transforms: {e:?}"));
    let report = image.report.clone();
    let mut sm = SofiaMachine::with_config(&image, keys, config);
    let sr = sm
        .run(FUEL)
        .unwrap_or_else(|e| panic!("sofia run traps: {e:?}"));
    assert!(sr.is_halted(), "{}: sofia outcome {sr:?}", workload.name);
    assert_eq!(
        sm.mem().mmio.out_words,
        workload.expected,
        "{}: sofia output mismatch",
        workload.name
    );

    OverheadRow {
        name: workload.name.to_string(),
        text_in: assembly.text_bytes(),
        text_out: image.text_bytes(),
        vanilla_cycles: vm.stats().cycles,
        sofia_cycles: sm.stats().exec.cycles,
        sofia: sm.stats(),
        vanilla: vm.stats(),
        report,
    }
}

/// [`measure_with`] under default configuration and block format.
pub fn measure(workload: &Workload, keys: &KeySet) -> OverheadRow {
    measure_with(
        workload,
        keys,
        BlockFormat::default(),
        &SofiaConfig::default(),
    )
}

/// Formats a row of the overhead table.
pub fn format_row(r: &OverheadRow) -> String {
    format!(
        "{:<12} {:>8} B {:>8} B  {:>5.2}x {:>12} {:>12} {:>+8.1}% {:>+8.1}%",
        r.name,
        r.text_in,
        r.text_out,
        r.expansion(),
        r.vanilla_cycles,
        r.sofia_cycles,
        r.cycle_overhead_pct(),
        r.time_overhead_pct(),
    )
}

/// Header matching [`format_row`].
pub fn row_header() -> String {
    format!(
        "{:<12} {:>10} {:>10}  {:>6} {:>12} {:>12} {:>9} {:>9}",
        "workload", "text", "sealed", "exp", "van cycles", "sofia cyc", "cyc ovh", "time ovh"
    )
}

/// One row of the verified-block-cache trajectory: the same workload's
/// cycle count on the vanilla machine, the uncached SOFIA machine, and
/// the cached SOFIA machine.
#[derive(Clone, Debug)]
pub struct VCacheRow {
    /// Workload name.
    pub name: String,
    /// Baseline cycles.
    pub vanilla_cycles: u64,
    /// SOFIA cycles with the cache disabled.
    pub sofia_uncached_cycles: u64,
    /// SOFIA cycles with the cache enabled.
    pub sofia_cached_cycles: u64,
    /// Cache hits / misses of the cached run.
    pub vcache_hits: u64,
    /// Cache misses of the cached run.
    pub vcache_misses: u64,
}

impl VCacheRow {
    /// Fraction of the uncached SOFIA cycles the cache recovered.
    pub fn reduction(&self) -> f64 {
        1.0 - self.sofia_cached_cycles as f64 / self.sofia_uncached_cycles as f64
    }
}

/// Measures `workload` on all three machines under `vcache` (simulated
/// cycles: deterministic, host-independent).
///
/// # Panics
///
/// Panics if any machine misbehaves — measurement runs must be correct
/// runs.
pub fn vcache_row(workload: &Workload, keys: &KeySet, vcache: VCacheConfig) -> VCacheRow {
    let vanilla = workload
        .verify_on_vanilla()
        .unwrap_or_else(|e| panic!("vanilla verifies: {e:?}"))
        .cycles;
    let image = workload.secure_image(keys);
    let mut uncached = SofiaMachine::new(&image, keys);
    assert!(uncached
        .run(FUEL)
        .unwrap_or_else(|e| panic!("uncached traps: {e:?}"))
        .is_halted());
    let config = SofiaConfig {
        vcache,
        ..Default::default()
    };
    let mut cached = SofiaMachine::with_config(&image, keys, &config);
    assert!(cached
        .run(FUEL)
        .unwrap_or_else(|e| panic!("cached traps: {e:?}"))
        .is_halted());
    assert_eq!(
        cached.mem().mmio.out_words,
        workload.expected,
        "{}: cached output mismatch",
        workload.name
    );
    let cs = cached.stats();
    VCacheRow {
        name: workload.name.to_string(),
        vanilla_cycles: vanilla,
        sofia_uncached_cycles: uncached.stats().exec.cycles,
        sofia_cached_cycles: cs.exec.cycles,
        vcache_hits: cs.vcache_hits,
        vcache_misses: cs.vcache_misses,
    }
}

/// Serialises rows to the `BENCH_vcache.json` schema: a stable,
/// machine-independent record of the perf trajectory (simulated cycles
/// only — no wall-clock noise).
pub fn vcache_rows_json(vcache: VCacheConfig, rows: &[VCacheRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"vcache\",\n");
    out.push_str(&format!(
        "  \"vcache\": {{ \"entries\": {}, \"ways\": {}, \"hit_latency\": {} }},\n",
        vcache.entries, vcache.ways, vcache.hit_latency
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"vanilla_cycles\": {}, \"sofia_uncached_cycles\": {}, \
             \"sofia_cached_cycles\": {}, \"vcache_hits\": {}, \"vcache_misses\": {}, \
             \"reduction_pct\": {:.2} }}{}\n",
            r.name,
            r.vanilla_cycles,
            r.sofia_uncached_cycles,
            r.sofia_cached_cycles,
            r.vcache_hits,
            r.vcache_misses,
            r.reduction() * 100.0,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One point of the fleet scaling experiment: the mixed tenant workload
/// priced at a given worker count.
///
/// All numbers are **simulated** (virtual-time makespan at the Table I
/// SOFIA clock) — deterministic and host-independent, like every other
/// trajectory number this repo records. In particular they are honest on
/// a single-core CI box, where host wall-clock could never show scaling.
#[derive(Clone, Debug)]
pub struct FleetScalingPoint {
    /// Worker count of pool and schedule model.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Virtual-time makespan in simulated cycles.
    pub makespan_cycles: u64,
    /// Scheduler ticks the batch took.
    pub ticks: u64,
    /// Total simulated cycles across all jobs (worker-count-invariant —
    /// the determinism invariant in one number).
    pub total_cycles: u64,
    /// Jobs per second at the Table I SOFIA clock.
    pub jobs_per_sec: f64,
}

/// The fleet experiment's mixed tenant mix: three tenants (fib, crc32,
/// ADPCM — the short/medium/long families), eight jobs each, four
/// distinct program sizes per tenant submitted twice so the seal cache
/// sees both cold and warm installs. 24 jobs, largest under 10 % of the
/// batch, so makespan keeps improving through 4 workers.
pub fn fleet_mix() -> Vec<sofia_fleet::JobSpec> {
    use sofia_fleet::{JobSpec, TenantId};
    let fib = |n| sofia_workloads::kernels::fib(n).source;
    let crc = |n| sofia_workloads::kernels::crc32(n).source;
    let adpcm = |n| sofia_workloads::adpcm::workload(n).source;
    let mut specs = Vec::new();
    for _round in 0..2 {
        for n in [200u32, 400, 600, 800] {
            specs.push(JobSpec::new(TenantId(1), fib(n), 50_000_000));
        }
        for n in [32usize, 48, 64, 80] {
            specs.push(JobSpec::new(TenantId(2), crc(n), 50_000_000));
        }
        for n in [40usize, 60, 80, 100] {
            specs.push(JobSpec::new(TenantId(3), adpcm(n), 50_000_000));
        }
    }
    specs
}

/// Registers the [`fleet_mix`] tenants on a fresh fleet.
///
/// # Panics
///
/// Panics on double registration — a harness bug.
pub fn fleet_mix_tenants(fleet: &mut sofia_fleet::Fleet) {
    use sofia_fleet::TenantId;
    for (id, seed) in [(1u32, 0xF1Bu64), (2, 0xC3C32), (3, 0xADBC)] {
        fleet
            .register_tenant(TenantId(id), KeySet::from_seed(seed))
            .unwrap_or_else(|e| panic!("fresh fleet: {e:?}"));
    }
}

/// Runs the [`fleet_mix`] at one worker count and scheduling mode.
///
/// # Panics
///
/// Panics if any job of the mix fails to halt — measurement runs must be
/// correct runs.
pub fn fleet_scaling_point(workers: usize, mode: sofia_fleet::SchedMode) -> FleetScalingPoint {
    use sofia_fleet::{Fleet, FleetConfig};
    let mut fleet = Fleet::new(FleetConfig {
        workers,
        mode,
        ..Default::default()
    });
    fleet_mix_tenants(&mut fleet);
    let specs = fleet_mix();
    let jobs = specs.len();
    for spec in specs {
        fleet
            .submit(spec)
            .unwrap_or_else(|e| panic!("mix tenants are registered: {e:?}"));
    }
    let records = fleet.run_batch();
    for r in &records {
        assert!(r.outcome.is_halted(), "{}: {:?}", r.job, r.outcome);
    }
    let stats = fleet.stats();
    let (_, sofia_hw) = sofia_hwmodel::table1();
    let makespan_secs = stats.last_makespan_cycles as f64 * sofia_hw.period_ns * 1e-9;
    FleetScalingPoint {
        workers,
        jobs,
        makespan_cycles: stats.last_makespan_cycles,
        ticks: stats.last_ticks,
        total_cycles: stats.total().cycles,
        jobs_per_sec: jobs as f64 / makespan_secs,
    }
}

/// [`fleet_scaling_point`] across several worker counts.
pub fn fleet_scaling_series(
    workers: &[usize],
    mode: sofia_fleet::SchedMode,
) -> Vec<FleetScalingPoint> {
    workers
        .iter()
        .map(|&w| fleet_scaling_point(w, mode))
        .collect()
}

/// The fuel slice the fleet experiment runs its preemptive mode at.
pub const FLEET_BENCH_SLICE: u64 = 2_000;

// ---------------------------------------------------------------------
// Async serving (`BENCH_fleet.json` § "async_wfq")
//
// The 1k-tenant open/closed-loop workload for the `AsyncFleet` driver:
// three weighted service classes, deterministic LCG arrivals, admission
// caps tight enough to produce typed rejections. All latency figures are
// virtual-time (simulated cycles on the tick-synchronous model), so the
// per-class p50/p99 rows reproduce bit-for-bit on any host at any
// `threads` count — the bench asserts exactly that before emitting.
// ---------------------------------------------------------------------

/// The fuel slice the async serving experiment runs at — short enough
/// that the WFQ scheduler interleaves classes within single jobs.
pub const ASYNC_BENCH_SLICE: u64 = 150;

/// Virtual lanes the async serving experiment multiplexes onto.
pub const ASYNC_BENCH_WORKERS: usize = 8;

/// One service class's latency roll-up from the async workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsyncWfqClassRow {
    /// Raw class id.
    pub class: u8,
    /// Human label ("interactive" / "batch" / "best_effort").
    pub label: &'static str,
    /// WFQ weight.
    pub weight: u64,
    /// Tenants registered into the class.
    pub tenants: usize,
    /// Jobs that ran to a record.
    pub finished: usize,
    /// Typed admission rejections charged to the class.
    pub rejected: usize,
    /// Median sojourn (arrival → completion) in simulated cycles.
    pub p50_sojourn_cycles: u64,
    /// 99th-percentile sojourn in simulated cycles.
    pub p99_sojourn_cycles: u64,
}

/// The async serving experiment's result: driver counters, per-class
/// latency rows, and an order-sensitive FNV-1a digest over every record
/// and rejection — one number that must match across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncWfqReport {
    /// Tenants registered.
    pub tenants: usize,
    /// Host OS threads the driver multiplexed over.
    pub threads: usize,
    /// Driver counters at drain.
    pub stats: sofia_fleet::AsyncStats,
    /// Per-class rows, ascending class id.
    pub classes: Vec<AsyncWfqClassRow>,
    /// FNV-1a over all records and rejections, in completion order.
    pub digest: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

/// A short counted loop that stores its (zero) counter on the MMIO word
/// port — the async workload's unit of work, sized by `n`.
fn wfq_job_src(n: u32) -> String {
    format!(
        "main: li t0, {n}
         loop: subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t0, 0(a0)
               halt"
    )
}

/// Runs the async serving workload: `tenants` tenants split 70/20/10
/// over three classes —
///
/// * **interactive** (weight 8, open loop): two short jobs per tenant,
///   arrival ticks drawn from a deterministic LCG over a 400-tick
///   horizon;
/// * **batch** (weight 2, closed loop): three medium jobs per tenant,
///   each resubmitted the tick its predecessor completes;
/// * **best_effort** (weight 1, open loop, bursty): one job per tenant,
///   the whole class arriving at tick zero against a class queue cap of
///   half the class — the admission-control rejection pressure.
///
/// # Panics
///
/// Panics if the workload produces zero rejections or any non-halted
/// record — the experiment must exercise both admission backpressure
/// and clean completion.
pub fn async_wfq_report(tenants: usize, threads: usize) -> AsyncWfqReport {
    use sofia_fleet::{
        AdmissionConfig, AsyncConfig, AsyncFleet, ClassConfig, ClassId, JobSpec, SchedMode,
        TenantId,
    };
    use std::collections::BTreeMap;
    assert!(
        tenants >= 20,
        "the 70/20/10 split needs at least 20 tenants"
    );
    let n_interactive = tenants * 7 / 10;
    let n_batch = tenants * 2 / 10;
    let n_best = tenants - n_interactive - n_batch;

    const CLASS_META: [(u8, &str, u64); 3] = [
        (0, "interactive", 8),
        (1, "batch", 2),
        (2, "best_effort", 1),
    ];
    let mut admission = AdmissionConfig::default();
    for (id, _, weight) in CLASS_META {
        admission.classes.insert(
            id,
            ClassConfig {
                weight,
                ..Default::default()
            },
        );
    }
    // The backpressure knob: the best-effort burst (the whole class at
    // tick zero) must not fit — half of it is turned away, typed.
    if let Some(best) = admission.classes.get_mut(&2) {
        best.queue_cap = (n_best / 2).max(1);
    }
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads,
        workers: ASYNC_BENCH_WORKERS,
        mode: SchedMode::FuelSliced {
            slice: ASYNC_BENCH_SLICE,
        },
        admission,
        ..Default::default()
    });

    let class_of = |id: u32| -> u8 {
        let id = id as usize - 1;
        if id < n_interactive {
            0
        } else if id < n_interactive + n_batch {
            1
        } else {
            2
        }
    };
    for id in 1..=tenants as u32 {
        fleet
            .register_tenant(
                TenantId(id),
                KeySet::from_seed(0x5EED_0000 + id as u64),
                ClassId(class_of(id)),
            )
            .unwrap_or_else(|e| panic!("fresh driver: {e:?}"));
    }

    // Deterministic arrival generator (64-bit LCG, fixed seed).
    let mut lcg: u64 = 0x2545F491_4F6CDD1D;
    let mut draw = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % bound
    };

    // The arrival horizon scales with the fleet: the pinned 1k-tenant
    // point keeps its historical 400-tick window, and larger fleets
    // spread their open-loop arrivals proportionally instead of
    // compressing ever more load into a fixed window (which would turn
    // a 10k-tenant run into a pure tick-zero burst).
    let horizon: u64 = 400u64.max(400 * tenants as u64 / 1000);
    let batch_job = |id: u32, round: u32| {
        JobSpec::new(
            TenantId(id),
            wfq_job_src(120 + (id % 7) * 10 + round * 3),
            200_000,
        )
    };
    // Open-loop arrivals, pre-loaded.
    for id in 1..=tenants as u32 {
        match class_of(id) {
            0 => {
                for _ in 0..2 {
                    let spec = JobSpec::new(TenantId(id), wfq_job_src(8 + (id % 16)), 100_000);
                    let tick = draw(horizon);
                    fleet.submit_at(spec, tick);
                }
            }
            1 => {
                // Closed loop: the first job arrives at once; rounds 1–2
                // are resubmitted on completion below.
                fleet.submit_at(batch_job(id, 0), draw(8));
            }
            _ => {
                let spec = JobSpec::new(TenantId(id), wfq_job_src(40 + (id % 11)), 150_000);
                fleet.submit_at(spec, 0);
            }
        }
    }

    // Drive the clock; feed the closed loop as its jobs complete.
    let mut rounds_left: BTreeMap<u32, u32> = (1..=tenants as u32)
        .filter(|&id| class_of(id) == 1)
        .map(|id| (id, 2))
        .collect();
    let mut records = Vec::new();
    loop {
        fleet.tick();
        for r in fleet.drain_finished() {
            if let Some(left) = rounds_left.get_mut(&r.tenant.0) {
                if *left > 0 {
                    let round = 3 - *left;
                    *left -= 1;
                    fleet
                        .submit(batch_job(r.tenant.0, round))
                        .unwrap_or_else(|e| {
                            panic!("closed-loop batch tenant is active and under quota: {e:?}")
                        });
                }
            }
            records.push(r);
        }
        if fleet.queued_jobs() == 0 && fleet.pending_arrivals() == 0 {
            break;
        }
    }
    let rejections = fleet.drain_rejected();
    assert!(
        !rejections.is_empty(),
        "the best-effort burst must trip admission control"
    );
    for r in &records {
        assert!(r.outcome.is_halted(), "{}: {:?}", r.job, r.outcome);
    }

    // The determinism digest: everything each record and rejection
    // claims, in completion order.
    let mut digest: u64 = 0xcbf29ce484222325;
    for r in &records {
        for word in [
            r.job.0,
            r.tenant.0 as u64,
            r.stats.exec.cycles,
            r.stats.exec.instret,
            r.arrival_tick,
            r.start_tick,
            r.end_tick,
            r.sojourn_cycles,
            r.slices as u64,
        ] {
            fnv1a(&mut digest, &word.to_le_bytes());
        }
        fnv1a(&mut digest, format!("{:?}", r.outcome).as_bytes());
        for w in &r.out_words {
            fnv1a(&mut digest, &w.to_le_bytes());
        }
    }
    for rej in &rejections {
        fnv1a(&mut digest, &rej.job.0.to_le_bytes());
        fnv1a(&mut digest, &rej.tick.to_le_bytes());
        fnv1a(&mut digest, format!("{}", rej.error).as_bytes());
    }

    let tenant_counts = [n_interactive, n_batch, n_best];
    let classes = CLASS_META
        .iter()
        .map(|&(class, label, weight)| {
            let mut sojourns: Vec<u64> = records
                .iter()
                .filter(|r| class_of(r.tenant.0) == class)
                .map(|r| r.sojourn_cycles)
                .collect();
            sojourns.sort_unstable();
            let pct = |p: usize| -> u64 {
                if sojourns.is_empty() {
                    0
                } else {
                    sojourns[(sojourns.len() - 1) * p / 100]
                }
            };
            AsyncWfqClassRow {
                class,
                label,
                weight,
                tenants: tenant_counts[class as usize],
                finished: sojourns.len(),
                rejected: rejections
                    .iter()
                    .filter(|rej| class_of(rej.tenant.0) == class)
                    .count(),
                p50_sojourn_cycles: pct(50),
                p99_sojourn_cycles: pct(99),
            }
        })
        .collect();

    AsyncWfqReport {
        tenants,
        threads,
        stats: fleet.stats(),
        classes,
        digest,
    }
}

/// Serialises the two mode series and the async serving report to the
/// `BENCH_fleet.json` schema.
pub fn fleet_json(
    rtc: &[FleetScalingPoint],
    sliced: &[FleetScalingPoint],
    wfq: &AsyncWfqReport,
) -> String {
    let (_, sofia_hw) = sofia_hwmodel::table1();
    let series = |points: &[FleetScalingPoint]| {
        let mut out = String::from("[\n");
        for (i, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"workers\": {}, \"makespan_cycles\": {}, \"ticks\": {}, \
                 \"total_cycles\": {}, \"jobs_per_sec\": {:.3} }}{}\n",
                p.workers,
                p.makespan_cycles,
                p.ticks,
                p.total_cycles,
                p.jobs_per_sec,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        out.push_str("    ]");
        out
    };
    let mut class_rows = String::from("[\n");
    for (i, c) in wfq.classes.iter().enumerate() {
        class_rows.push_str(&format!(
            "      {{ \"class\": {}, \"label\": \"{}\", \"weight\": {}, \"tenants\": {}, \
             \"finished\": {}, \"rejected\": {}, \"p50_sojourn_cycles\": {}, \
             \"p99_sojourn_cycles\": {} }}{}\n",
            c.class,
            c.label,
            c.weight,
            c.tenants,
            c.finished,
            c.rejected,
            c.p50_sojourn_cycles,
            c.p99_sojourn_cycles,
            if i + 1 == wfq.classes.len() { "" } else { "," }
        ));
    }
    class_rows.push_str("    ]");
    let s = wfq.stats;
    let async_wfq = format!(
        "{{\n    \"tenants\": {}, \"workers\": {}, \"slice_slots\": {},\n    \
         \"ticks\": {}, \"makespan_cycles\": {}, \"admitted\": {}, \"finished\": {}, \
         \"rejected\": {},\n    \"parks\": {}, \"revives\": {}, \
         \"peak_resident_machines\": {},\n    \"digest\": \"{:#018x}\",\n    \
         \"classes\": {}\n  }}",
        wfq.tenants,
        ASYNC_BENCH_WORKERS,
        ASYNC_BENCH_SLICE,
        s.ticks,
        s.makespan_cycles,
        s.admitted,
        s.finished,
        s.rejected,
        s.parks,
        s.revives,
        s.peak_resident_machines,
        wfq.digest,
        class_rows,
    );
    format!(
        "{{\n  \"bench\": \"fleet\",\n  \"jobs\": {},\n  \"tenants\": 3,\n  \
         \"sofia_clock_mhz\": {:.1},\n  \"slice_slots\": {},\n  \"modes\": {{\n    \
         \"run_to_completion\": {},\n    \"fuel_sliced\": {}\n  }},\n  \
         \"async_wfq\": {}\n}}\n",
        rtc.first().map_or(0, |p| p.jobs),
        sofia_hw.clock_mhz(),
        FLEET_BENCH_SLICE,
        series(rtc),
        series(sliced),
        async_wfq,
    )
}

// ---------------------------------------------------------------------
// Cross-backend comparison (`BENCH_backends.json`)
//
// The same workload, the same tamper and the same attack rows against
// all three integrity backends — SOFIA, the sponge-CFP fetch unit and
// the FIPAC-style fetch unit — reduced to the four numbers that separate
// the schemes: cycle overhead, hardware area, detection latency in
// instructions, and the attack-matrix verdicts.
// ---------------------------------------------------------------------

use sofia_attacks::xbackend::{self, XRow};
use sofia_backends::{BackendOutcome, FipacMachine, SpongeMachine};
use sofia_crypto::Nonce;
use sofia_isa::{asm, Instruction, Reg};
use sofia_transform::{install_fipac, seal_sponge};

/// Cycle cost of one backend on the comparison workload.
#[derive(Clone, Debug)]
pub struct BackendCyclePoint {
    /// Backend label (`sofia`, `sponge`, `fipac`).
    pub backend: &'static str,
    /// Simulated cycles for the workload.
    pub cycles: u64,
    /// Overhead versus the vanilla machine, in percent.
    pub overhead_pct: f64,
}

/// Hardware price of one backend under the Table-I area/clock model.
#[derive(Clone, Debug)]
pub struct BackendHwPoint {
    /// Design label (`vanilla`, `sofia`, `sponge`, `fipac`).
    pub backend: &'static str,
    /// Estimated slices.
    pub slices: f64,
    /// Estimated clock in MHz.
    pub clock_mhz: f64,
    /// Area overhead versus vanilla, in percent.
    pub area_overhead_pct: f64,
}

/// Instructions that retire between the tampered word's issue slot and
/// the scheme flagging the run (0 = caught before the tampered slot).
#[derive(Clone, Debug)]
pub struct DetectionLatencyPoint {
    /// Backend label.
    pub backend: &'static str,
    /// Detection latency in retired instructions.
    pub latency_instructions: u64,
}

/// Everything `BENCH_backends.json` records.
pub struct BackendsReport {
    /// Comparison workload name.
    pub workload: &'static str,
    /// Baseline cycles on the vanilla machine.
    pub vanilla_cycles: u64,
    /// Per-backend cycles and overhead.
    pub overhead: Vec<BackendCyclePoint>,
    /// Per-design area and clock.
    pub hardware: Vec<BackendHwPoint>,
    /// Per-backend detection latency on the nop-sled tamper.
    pub detection: Vec<DetectionLatencyPoint>,
    /// The cross-backend attack matrix.
    pub matrix: Vec<XRow>,
}

/// Nop-sled length for the detection-latency experiment.
pub const BACKENDS_SLED_WORDS: usize = 64;
/// Linear word index the experiment tampers.
pub const BACKENDS_TAMPER_WORD: usize = 8;

/// A straight-line victim: `nops` no-ops, one real write, `halt`. Its
/// only justifying signature point is the final halt, so FIPAC's
/// detection latency grows linearly with the tamper distance while
/// SOFIA and the sponge stay at (essentially) zero.
fn sled_victim(nops: usize) -> String {
    let mut src = String::from("main:\n");
    for _ in 0..nops {
        src.push_str("    nop\n");
    }
    src.push_str("    addi v0, zero, 7\n    halt\n");
    src
}

/// Runs the comparison workload on every backend, checking outputs
/// against the golden model, and returns the baseline cycles plus the
/// per-backend points.
///
/// # Panics
///
/// Panics if any backend misbehaves — measurement runs must be correct
/// runs (same contract as [`measure_with`]).
pub fn backend_cycle_points(workload: &Workload, keys: &KeySet) -> (u64, Vec<BackendCyclePoint>) {
    let row = measure(workload, keys);
    let vanilla = row.vanilla_cycles;
    let pct = |cycles: u64| (cycles as f64 / vanilla as f64 - 1.0) * 100.0;
    let mut points = vec![BackendCyclePoint {
        backend: "sofia",
        cycles: row.sofia_cycles,
        overhead_pct: pct(row.sofia_cycles),
    }];
    let module = workload.module();

    let image = seal_sponge(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("workload seals for the sponge: {e:?}"));
    let mut m = SpongeMachine::new(&image, keys);
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("sponge run traps: {e:?}"));
    assert!(
        matches!(outcome, BackendOutcome::Halted),
        "{}: sponge outcome {outcome:?}",
        workload.name
    );
    assert_eq!(
        m.mem().mmio.out_words,
        workload.expected,
        "{}: sponge output mismatch",
        workload.name
    );
    points.push(BackendCyclePoint {
        backend: "sponge",
        cycles: m.stats().cycles,
        overhead_pct: pct(m.stats().cycles),
    });

    let image = install_fipac(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("workload installs for FIPAC: {e:?}"));
    let mut m = FipacMachine::new(&image, keys);
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("fipac run traps: {e:?}"));
    assert!(
        matches!(outcome, BackendOutcome::Halted),
        "{}: fipac outcome {outcome:?}",
        workload.name
    );
    assert_eq!(
        m.mem().mmio.out_words,
        workload.expected,
        "{}: fipac output mismatch",
        workload.name
    );
    points.push(BackendCyclePoint {
        backend: "fipac",
        cycles: m.stats().cycles,
        overhead_pct: pct(m.stats().cycles),
    });

    (vanilla, points)
}

/// The four Table-I-model rows of the comparison.
pub fn backend_hw_points() -> Vec<BackendHwPoint> {
    let vanilla = sofia_hwmodel::vanilla();
    [
        ("vanilla", vanilla),
        ("sofia", sofia_hwmodel::sofia(sofia_hwmodel::PAPER_UNROLL)),
        ("sponge", sofia_hwmodel::sponge_cfp()),
        ("fipac", sofia_hwmodel::fipac()),
    ]
    .into_iter()
    .map(|(backend, hw)| BackendHwPoint {
        backend,
        slices: hw.slices,
        clock_mhz: hw.clock_mhz(),
        area_overhead_pct: hw.area_overhead_vs(&vanilla),
    })
    .collect()
}

/// The detection-latency experiment: replace the sled word at
/// [`BACKENDS_TAMPER_WORD`] with a register write and count how many
/// instructions retire before each scheme flags the run.
///
/// # Panics
///
/// Panics if any backend fails to flag the tamper.
pub fn detection_latency_points(keys: &KeySet) -> Vec<DetectionLatencyPoint> {
    let src = sled_victim(BACKENDS_SLED_WORDS);
    let module = asm::parse(&src).unwrap_or_else(|e| panic!("sled victim parses: {e:?}"));
    let k = BACKENDS_TAMPER_WORD;
    let evil = Instruction::Addi {
        rt: Reg::T5,
        rs: Reg::T5,
        imm: 1,
    }
    .encode();
    let latency = |instret: u64| instret.saturating_sub(k as u64);
    let mut points = Vec::new();

    // SOFIA's stored layout is block-structured: the word holding linear
    // instruction k sits after the two MAC words of its block.
    let image = Transformer::new(keys.clone())
        .transform(&module)
        .unwrap_or_else(|e| panic!("sled victim transforms: {e:?}"));
    let block_words = image.format.block_words();
    let per_block = block_words - 2;
    let stored = (k / per_block) * block_words + 2 + (k % per_block);
    let mut m = SofiaMachine::new(&image, keys);
    m.mem_mut().rom_mut()[stored] = evil;
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("sofia run traps: {e:?}"));
    assert!(!outcome.is_halted(), "sofia missed the sled tamper");
    points.push(DetectionLatencyPoint {
        backend: "sofia",
        latency_instructions: latency(m.stats().exec.instret),
    });

    let image = seal_sponge(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("sled victim seals: {e:?}"));
    let mut m = SpongeMachine::new(&image, keys);
    m.mem_mut().rom_mut()[k] = evil;
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("sponge run traps: {e:?}"));
    assert!(
        matches!(outcome, BackendOutcome::ViolationStop(_)),
        "sponge missed the sled tamper: {outcome:?}"
    );
    points.push(DetectionLatencyPoint {
        backend: "sponge",
        latency_instructions: latency(m.stats().instret),
    });

    let image = install_fipac(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("sled victim installs: {e:?}"));
    let mut m = FipacMachine::new(&image, keys);
    m.mem_mut().rom_mut()[k] = evil;
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("fipac run traps: {e:?}"));
    assert!(
        matches!(outcome, BackendOutcome::ViolationStop(_)),
        "fipac missed the sled tamper: {outcome:?}"
    );
    points.push(DetectionLatencyPoint {
        backend: "fipac",
        latency_instructions: latency(m.stats().instret),
    });

    points
}

/// Assembles the full cross-backend report on `workload`.
pub fn backends_report(workload: &Workload, keys: &KeySet) -> BackendsReport {
    let (vanilla_cycles, overhead) = backend_cycle_points(workload, keys);
    BackendsReport {
        workload: workload.name,
        vanilla_cycles,
        overhead,
        hardware: backend_hw_points(),
        detection: detection_latency_points(keys),
        matrix: xbackend::matrix(keys),
    }
}

/// Serialises a [`BackendsReport`] to the `BENCH_backends.json` schema.
pub fn backends_json(report: &BackendsReport) -> String {
    let mut out = String::from("{\n  \"bench\": \"backends\",\n");
    out.push_str(&format!(
        "  \"workload\": \"{}\",\n  \"vanilla_cycles\": {},\n",
        report.workload, report.vanilla_cycles
    ));
    out.push_str("  \"overhead\": [\n");
    for (i, p) in report.overhead.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"cycles\": {}, \"cycle_overhead_pct\": {:.1} }}{}\n",
            p.backend,
            p.cycles,
            p.overhead_pct,
            if i + 1 == report.overhead.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n  \"hardware\": [\n");
    for (i, p) in report.hardware.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"slices\": {:.0}, \"clock_mhz\": {:.1}, \
             \"area_overhead_pct\": {:.1} }}{}\n",
            p.backend,
            p.slices,
            p.clock_mhz,
            p.area_overhead_pct,
            if i + 1 == report.hardware.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"detection_latency\": {{ \"sled_words\": {}, \"tamper_word\": {}, \
         \"points\": [\n",
        BACKENDS_SLED_WORDS, BACKENDS_TAMPER_WORD
    ));
    for (i, p) in report.detection.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"backend\": \"{}\", \"latency_instructions\": {} }}{}\n",
            p.backend,
            p.latency_instructions,
            if i + 1 == report.detection.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ] },\n  \"attack_matrix\": [\n");
    for (i, row) in report.matrix.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"attack\": \"{}\", \"sofia\": \"{}\", \"sponge\": \"{}\", \
             \"fipac\": \"{}\" }}{}\n",
            row.attack,
            row.sofia.label(),
            row.sponge.label(),
            row.fipac.label(),
            if i + 1 == report.matrix.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to `BENCH_backends.json` at the workspace root, like the
/// sibling bench emitters.
pub fn write_backends_json(json: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backends.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("BENCH_backends.json not written: {e}"),
    }
}

// ---------------------------------------------------------------------
// Host throughput (`BENCH_host.json`)
//
// Unlike every other trajectory file in this repo, these numbers are
// **wall-clock**: how fast *this host* seals and simulates. They are
// informational — no CI thresholds — but they are the first record of
// wins that land on real silicon (the bitsliced cipher, the zero-copy
// dispatch, the fleet's wave pool) rather than in the simulated-cycle
// model, which stays bit-for-bit untouched.
// ---------------------------------------------------------------------

use std::time::Instant;

/// The physical machine a wall-clock record came from. Scaling claims in
/// `BENCH_host.json` are only meaningful against this: a flat fleet
/// curve on a one-core box is the expected result, not a regression.
#[derive(Clone, Debug)]
pub struct BoxShape {
    /// Logical cores the OS offers (`std::thread::available_parallelism`).
    pub logical_cores: usize,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Compilation target triple (baked in by the build script).
    pub target: String,
}

/// Records the shape of this host.
pub fn box_shape() -> BoxShape {
    BoxShape {
        logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        arch: std::env::consts::ARCH.to_string(),
        os: std::env::consts::OS.to_string(),
        target: env!("SOFIA_TARGET").to_string(),
    }
}

/// Keystream throughput of one bitslicing lane width.
#[derive(Clone, Debug)]
pub struct KeystreamWidthRate {
    /// Lane count of the sweep (16/32/64).
    pub lanes: usize,
    /// Blocks ciphered per second at this width.
    pub blocks_per_sec: f64,
}

/// Scalar-vs-bitsliced keystream generation rates (blocks/sec).
#[derive(Clone, Debug)]
pub struct KeystreamRates {
    /// Counters ciphered per timed sweep.
    pub blocks: usize,
    /// One [`sofia_crypto::ctr::pad`] call per counter.
    pub scalar_blocks_per_sec: f64,
    /// One [`sofia_crypto::ctr::pads`] sweep for the whole batch, at the
    /// lane width the batch calls for.
    pub bitsliced_blocks_per_sec: f64,
    /// The batch → width rule ([`sofia_crypto::LaneWidth::for_batch`])
    /// as `(batch, lanes)` pairs: each width's own lane count, then
    /// this sweep's batch.
    pub lanes_for_batch: Vec<(usize, usize)>,
    /// The same sweep pinned to each supported lane width
    /// ([`sofia_crypto::ctr::pads_with`]) — the evidence behind
    /// [`sofia_crypto::LaneWidth::BULK`].
    pub widths: Vec<KeystreamWidthRate>,
    /// The cipher cost of one uncached block refill.
    pub refill: RefillCipherCost,
}

/// The cipher work of one uncached refill of a default execution block:
/// the CTR sweep over its counters and the CBC-MAC chain over its
/// instructions, in host ns per call.
#[derive(Clone, Debug)]
pub struct RefillCipherCost {
    /// Counters per sweep (the words one block fetch decrypts).
    pub counters: usize,
    /// ns per [`sofia_crypto::ctr::pads`] call over those counters.
    pub pads_ns: f64,
    /// Dependent cipher blocks per MAC chain.
    pub mac_blocks: usize,
    /// ns per [`sofia_crypto::mac::mac_words`] chain.
    pub mac_ns: f64,
}

impl KeystreamRates {
    /// Bitsliced throughput relative to scalar.
    pub fn speedup(&self) -> f64 {
        self.bitsliced_blocks_per_sec / self.scalar_blocks_per_sec
    }
}

/// Host simulation speed of one machine on the reference workload.
#[derive(Clone, Debug)]
pub struct HostMipsRow {
    /// Machine label (`vanilla`, `sofia-uncached`, `sofia-cached`).
    pub machine: String,
    /// Instruction slots the run retired.
    pub instret: u64,
    /// Retired slots per host wall-clock second, in millions.
    pub mips: f64,
}

/// Secure-installation rate (seals/sec).
#[derive(Clone, Debug)]
pub struct SealRates {
    /// Workload label.
    pub workload: String,
    /// Full secure installations per second.
    pub seals_per_sec: f64,
}

/// Host wall-clock throughput of one fleet configuration on the
/// [`fleet_mix`].
#[derive(Clone, Debug)]
pub struct FleetHostPoint {
    /// Worker threads.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs per host wall-clock second.
    pub jobs_per_sec: f64,
}

/// Everything `BENCH_host.json` records.
#[derive(Clone, Debug)]
pub struct HostReport {
    /// The machine these wall-clock numbers came from.
    pub box_shape: BoxShape,
    /// Keystream generation rates.
    pub keystream: KeystreamRates,
    /// Simulation speed per machine.
    pub mips: Vec<HostMipsRow>,
    /// Secure-installation rates.
    pub seal: SealRates,
    /// Fleet batch throughput per worker count.
    pub fleet: Vec<FleetHostPoint>,
}

fn best_secs(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measures scalar vs bitsliced keystream generation over `blocks`
/// distinct control-flow counters, best of `reps` sweeps each.
pub fn host_keystream(blocks: usize, reps: u32) -> KeystreamRates {
    use sofia_crypto::util::SplitMix64;
    let cipher = KeySet::from_seed(0x4057).expand().ctr;
    let mut rng = SplitMix64::new(0x4057_BEEF);
    let counters: Vec<sofia_crypto::CounterBlock> = (0..blocks)
        .map(|_| {
            let prev = ((rng.next_u64() as u32) & 0x00FF_FFFF) << 2;
            let pc = ((rng.next_u64() as u32) & 0x00FF_FFFF) << 2;
            sofia_crypto::CounterBlock::from_edge(sofia_crypto::Nonce::new(7), prev, pc)
        })
        .collect();
    let scalar = best_secs(reps, || {
        let mut acc = 0u32;
        for &c in &counters {
            acc ^= sofia_crypto::ctr::pad(&cipher, c);
        }
        std::hint::black_box(acc);
    });
    let bitsliced = best_secs(reps, || {
        std::hint::black_box(sofia_crypto::ctr::pads(&cipher, &counters));
    });
    let widths = sofia_crypto::LaneWidth::ALL
        .iter()
        .map(|&width| {
            let secs = best_secs(reps, || {
                std::hint::black_box(sofia_crypto::ctr::pads_with(&cipher, &counters, width));
            });
            KeystreamWidthRate {
                lanes: width.lanes(),
                blocks_per_sec: blocks as f64 / secs,
            }
        })
        .collect();
    let lanes_for_batch = sofia_crypto::LaneWidth::ALL
        .iter()
        .map(|w| w.lanes())
        .chain([blocks])
        .map(|n| (n, sofia_crypto::LaneWidth::for_batch(n).lanes()))
        .collect();
    KeystreamRates {
        blocks,
        scalar_blocks_per_sec: blocks as f64 / scalar,
        bitsliced_blocks_per_sec: blocks as f64 / bitsliced,
        lanes_for_batch,
        widths,
        refill: host_refill_cipher(reps),
    }
}

/// Measures [`RefillCipherCost`] on the counters and instruction words
/// of one default execution block, best of `reps` timed loops each.
fn host_refill_cipher(reps: u32) -> RefillCipherCost {
    use sofia_crypto::{ctr, mac, CounterBlock, Nonce};
    const CALLS: u32 = 4096;
    let keys = KeySet::from_seed(0x4057).expand();
    let format = BlockFormat::default();
    let counters: Vec<CounterBlock> = (0..format.block_words() as u32)
        .map(|w| {
            let pc = format.text_base() + 4 * w;
            CounterBlock::from_edge(Nonce::new(7), pc - 4, pc)
        })
        .collect();
    let words: Vec<u32> = (0..format.insts(BlockKind::Exec) as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let padded = format.mac_padded_words(BlockKind::Exec);
    let per_call =
        |f: &mut dyn FnMut()| best_secs(reps, || (0..CALLS).for_each(|_| f())) * 1e9 / CALLS as f64;
    RefillCipherCost {
        counters: counters.len(),
        pads_ns: per_call(&mut || {
            std::hint::black_box(ctr::pads(&keys.ctr, std::hint::black_box(&counters)));
        }),
        mac_blocks: padded / 2,
        mac_ns: per_call(&mut || {
            std::hint::black_box(mac::mac_words(
                &keys.mac_exec,
                std::hint::black_box(&words),
                padded,
            ));
        }),
    }
}

/// Measures host MIPS of the three machines (vanilla, SOFIA uncached,
/// SOFIA cached at the trajectory geometry) on `fib(5000)`, best of
/// `reps` runs each.
///
/// # Panics
///
/// Panics if any machine misbehaves — measurement runs must be correct
/// runs.
pub fn host_mips(reps: u32) -> Vec<HostMipsRow> {
    let keys = KeySet::from_seed(0xCA5E);
    let w = sofia_workloads::kernels::fib(5_000);
    let assembly = w.assembly();
    let image = w.secure_image(&keys);
    let cached = SofiaConfig {
        vcache: VCacheConfig::enabled(256, 8),
        ..Default::default()
    };
    let mut rows = Vec::new();
    let mut push = |machine: &str, instret: u64, secs: f64| {
        rows.push(HostMipsRow {
            machine: machine.to_string(),
            instret,
            mips: instret as f64 / secs / 1e6,
        });
    };
    let mut instret = 0;
    let secs = best_secs(reps, || {
        let mut m = VanillaMachine::new(&assembly);
        assert!(m
            .run(FUEL)
            .unwrap_or_else(|e| panic!("vanilla traps: {e:?}"))
            .is_halted());
        instret = m.stats().instret;
    });
    push("vanilla", instret, secs);
    let secs = best_secs(reps, || {
        let mut m = SofiaMachine::new(&image, &keys);
        assert!(m
            .run(FUEL)
            .unwrap_or_else(|e| panic!("sofia traps: {e:?}"))
            .is_halted());
        instret = m.stats().exec.instret;
    });
    push("sofia-uncached", instret, secs);
    let secs = best_secs(reps, || {
        let mut m = SofiaMachine::with_config(&image, &keys, &cached);
        assert!(m
            .run(FUEL)
            .unwrap_or_else(|e| panic!("sofia cached traps: {e:?}"))
            .is_halted());
        instret = m.stats().exec.instret;
    });
    push("sofia-cached", instret, secs);
    rows
}

/// Measures seals/sec of the full secure installation (lower → CFG →
/// pack → trees → seal) on ADPCM, best of `reps` seals.
///
/// # Panics
///
/// Panics if the workload fails to transform.
pub fn host_seal_rates(reps: u32) -> SealRates {
    let keys = KeySet::from_seed(0x5EA1);
    let module = sofia_workloads::adpcm::workload(600).module();
    let transformer = Transformer::new(keys);
    let secs = best_secs(reps, || {
        std::hint::black_box(
            transformer
                .transform(&module)
                .unwrap_or_else(|e| panic!("adpcm seals: {e:?}")),
        );
    });
    SealRates {
        workload: "adpcm600".to_string(),
        seals_per_sec: 1.0 / secs,
    }
}

/// Measures host wall-clock jobs/sec of the [`fleet_mix`] batch at each
/// worker count (fuel-sliced mode, so every tick is a wave of short
/// quanta), best of `reps` batches per point (each rep rebuilds the
/// fleet and re-submits the mix; only `run_batch` is timed). Wall-clock
/// scaling needs real cores; on a single-core host the points simply
/// document that.
///
/// # Panics
///
/// Panics if any job of the mix fails to halt.
pub fn host_fleet_points(workers_list: &[usize], reps: u32) -> Vec<FleetHostPoint> {
    use sofia_fleet::{Fleet, FleetConfig, SchedMode};
    let mut points = Vec::new();
    for &workers in workers_list {
        let mut jobs = 0;
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut fleet = Fleet::new(FleetConfig {
                workers,
                mode: SchedMode::FuelSliced {
                    slice: FLEET_BENCH_SLICE,
                },
                ..Default::default()
            });
            fleet_mix_tenants(&mut fleet);
            let specs = fleet_mix();
            jobs = specs.len();
            for spec in specs {
                fleet
                    .submit(spec)
                    .unwrap_or_else(|e| panic!("mix tenants are registered: {e:?}"));
            }
            let t = Instant::now();
            let records = fleet.run_batch();
            best = best.min(t.elapsed().as_secs_f64());
            for r in &records {
                assert!(r.outcome.is_halted(), "{}: {:?}", r.job, r.outcome);
            }
        }
        points.push(FleetHostPoint {
            workers,
            jobs,
            jobs_per_sec: jobs as f64 / best,
        });
    }
    points
}

/// Parses a `SOFIA_BENCH_MAX_WORKERS` value. `None` input (the variable
/// is unset) means "no cap". A set-but-unparsable value is an **error**,
/// not a silent no-cap: the old `.ok()` chain swallowed typos like
/// `SOFIA_BENCH_MAX_WORKERS=fouR`, letting a CI matrix leg record
/// full-nproc numbers while claiming to be capped.
///
/// # Errors
///
/// A human-readable message naming the bad value.
pub fn parse_worker_cap(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n.max(1))),
            Err(e) => Err(format!(
                "SOFIA_BENCH_MAX_WORKERS={v:?} is not a worker count ({e}); \
                 unset it for no cap or set a positive integer"
            )),
        },
    }
}

/// Parses a `SOFIA_BENCH_FLEET_10K` value — the opt-in for the
/// 10,000-tenant async serving point, which takes minutes in debug
/// builds and so stays off the default `repro -- fleet` path. Unset
/// means off; like [`parse_worker_cap`], a set-but-unrecognised value is
/// an **error**, not a silent off.
///
/// # Errors
///
/// A human-readable message naming the bad value.
pub fn parse_fleet_10k(raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None => Ok(false),
        Some(v) => match v.trim() {
            "1" | "true" | "yes" | "on" => Ok(true),
            "0" | "false" | "no" | "off" => Ok(false),
            other => Err(format!(
                "SOFIA_BENCH_FLEET_10K={other:?} is not a boolean flag; \
                 set 1/true/yes/on to include the 10k-tenant point"
            )),
        },
    }
}

/// Worker counts the host sweeps run at: 1/2/4/8, capped by the
/// `SOFIA_BENCH_MAX_WORKERS` environment variable (the CI matrix knob —
/// `=1` pins the whole experiment to the serial points).
///
/// # Panics
///
/// Panics if the variable is set to something [`parse_worker_cap`]
/// rejects — a misconfigured cap must fail the run, not silently
/// measure at full width.
pub fn host_worker_counts() -> Vec<usize> {
    let raw = std::env::var("SOFIA_BENCH_MAX_WORKERS").ok();
    let cap = match parse_worker_cap(raw.as_deref()) {
        Ok(cap) => cap.unwrap_or(usize::MAX),
        Err(msg) => panic!("{msg}"),
    };
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= cap)
        .collect()
}

/// Runs the whole host-throughput experiment. `reps` trades run time for
/// measurement stability (the smoke run under `cargo test` uses 1, so
/// every section — fleet included — is a single sample there and best of
/// `reps` under `repro -- host` / `cargo bench`).
pub fn host_report(reps: u32) -> HostReport {
    let workers = host_worker_counts();
    HostReport {
        box_shape: box_shape(),
        keystream: host_keystream(1 << 14, reps),
        mips: host_mips(reps),
        seal: host_seal_rates(reps),
        fleet: host_fleet_points(&workers, reps),
    }
}

/// Serialises a [`HostReport`] to the `BENCH_host.json` schema. The
/// `profile` field records whether the numbers came from a release or a
/// debug build — wall-clock figures are only comparable within one
/// profile.
pub fn host_json(report: &HostReport) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::from("{\n  \"bench\": \"host\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    let b = &report.box_shape;
    out.push_str(&format!(
        "  \"box\": {{ \"logical_cores\": {}, \"arch\": \"{}\", \"os\": \"{}\", \
         \"target\": \"{}\" }},\n",
        b.logical_cores, b.arch, b.os, b.target
    ));
    let k = &report.keystream;
    let rule: Vec<String> = k
        .lanes_for_batch
        .iter()
        .map(|(batch, lanes)| format!("{{ \"batch\": {batch}, \"lanes\": {lanes} }}"))
        .collect();
    let r = &k.refill;
    out.push_str(&format!(
        "  \"keystream\": {{ \"blocks\": {}, \"scalar_blocks_per_sec\": {:.0}, \
         \"bitsliced_blocks_per_sec\": {:.0}, \"bitsliced_speedup\": {:.2}, \
         \"lanes_for_batch\": [{}], \
         \"refill\": {{ \"counters\": {}, \"pads_ns\": {:.1}, \"mac_blocks\": {}, \"mac_ns\": {:.1} }}, \
         \"widths\": [\n",
        k.blocks,
        k.scalar_blocks_per_sec,
        k.bitsliced_blocks_per_sec,
        k.speedup(),
        rule.join(", "),
        r.counters,
        r.pads_ns,
        r.mac_blocks,
        r.mac_ns
    ));
    for (i, w) in k.widths.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"lanes\": {}, \"blocks_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.2} }}{}\n",
            w.lanes,
            w.blocks_per_sec,
            w.blocks_per_sec / k.scalar_blocks_per_sec,
            if i + 1 == k.widths.len() { "" } else { "," }
        ));
    }
    out.push_str("  ] },\n");
    out.push_str("  \"machine_mips\": [\n");
    for (i, r) in report.mips.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"machine\": \"{}\", \"instret\": {}, \"mips\": {:.2} }}{}\n",
            r.machine,
            r.instret,
            r.mips,
            if i + 1 == report.mips.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let s = &report.seal;
    out.push_str(&format!(
        "  \"seal\": {{ \"workload\": \"{}\", \"seals_per_sec\": {:.2} }},\n",
        s.workload, s.seals_per_sec
    ));
    out.push_str("  \"fleet_host\": [\n");
    for (i, p) in report.fleet.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"workers\": {}, \"jobs\": {}, \"jobs_per_sec\": {:.2} }}{}\n",
            p.workers,
            p.jobs,
            p.jobs_per_sec,
            if i + 1 == report.fleet.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to `BENCH_host.json` at the workspace root (next to the
/// other trajectory files), reporting the outcome on stdout/stderr like
/// the sibling bench emitters.
pub fn write_host_json(json: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_host.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("BENCH_host.json not written: {e}"),
    }
}

// ---------------------------------------------------------------------
// Chaos & resilience (`BENCH_chaos.json`)
//
// The WFQ serving workload re-run under seeded host-fault injection
// (`sofia_fleet::ChaosPlan`) with the self-healing ladder armed
// (`sofia_fleet::ResilienceConfig::standard` plus per-class deadlines):
// what fraction of accepted honest work the fleet still serves to a
// halted completion, what it sheds, and how fast the breaker recovers,
// across a fault-rate sweep. Everything is virtual-time deterministic —
// every point asserts bit-identical digests at 1 and N host threads,
// and the zero-fault point asserts bit-identical records against a
// driver with the chaos and resilience machinery entirely absent (the
// `ChaosPlan::none()` invisibility invariant, at bench scale).
// ---------------------------------------------------------------------

/// Fault rates (ppm per draw) the sweep runs: none, 1e-3, 1e-2.
pub const CHAOS_BENCH_RATES_PPM: [u32; 3] = [0, 1_000, 10_000];
/// Seed of every sweep point's [`sofia_fleet::ChaosPlan`].
pub const CHAOS_BENCH_SEED: u64 = 0xC4A0_5EED;
/// Honest tenants of the chaos workload (70/20/10 class split, same
/// shape as [`async_wfq_report`]).
pub const CHAOS_BENCH_TENANTS: usize = 200;
/// Hostile "storm" tenants the [`sofia_fleet::Seam::Storm`] process
/// drives: their sabotaged bursts exercise quarantine under chaos and
/// are excluded from the availability denominator.
pub const CHAOS_BENCH_STORM_TENANTS: usize = 6;
/// Per-class sojourn deadlines in virtual cycles, `(class, deadline)`.
/// Comfortably above the zero-fault maximum (so the zero point has no
/// deadline events — the zero-point assertions pin exactly that) and
/// tight enough that stall taxes and retry backoffs at the 1e-2 rate
/// push jobs past them.
pub const CHAOS_BENCH_DEADLINES: [(u8, u64); 2] = [(0, 6_000), (1, 60_000)];

/// One service class's latency roll-up at one fault rate (honest
/// tenants only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosClassRow {
    /// Raw class id.
    pub class: u8,
    /// Human label.
    pub label: &'static str,
    /// Honest records of the class.
    pub finished: usize,
    /// Median sojourn in simulated cycles.
    pub p50_sojourn_cycles: u64,
    /// 99th-percentile sojourn in simulated cycles.
    pub p99_sojourn_cycles: u64,
}

/// One point of the fault-rate sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPoint {
    /// Per-draw fault probability of every seam, in ppm.
    pub rate_ppm: u32,
    /// Driver counters at drain.
    pub stats: sofia_fleet::AsyncStats,
    /// Resilience counters (faults, retries, sheds, breaker).
    pub res: sofia_fleet::ResilienceStats,
    /// Honest records (jobs the fleet accepted and drove to *some*
    /// typed record — the availability denominator; intentional
    /// admission rejections are counted separately in `stats`).
    pub accepted: usize,
    /// Honest records that halted cleanly.
    pub served: usize,
    /// `served / accepted` — 1.0 at zero fault rate, pinned by CI.
    pub availability: f64,
    /// `(deadline_shed + deadline_late) / accepted`.
    pub deadline_miss_rate: f64,
    /// Mean breaker open→close span in ticks (0 when it never closed).
    pub mttr_ticks: f64,
    /// Per-class sojourn rows, ascending class id.
    pub classes: Vec<ChaosClassRow>,
    /// FNV-1a over all records and rejections — identical at any host
    /// thread count (asserted before this point is built).
    pub digest: u64,
}

/// Everything `BENCH_chaos.json` records.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// Honest tenants.
    pub tenants: usize,
    /// Storm tenants (excluded from availability).
    pub storm_tenants: usize,
    /// Host threads of the non-serial leg of each determinism check.
    pub threads: usize,
    /// Chaos seed of every point.
    pub seed: u64,
    /// One point per entry of [`CHAOS_BENCH_RATES_PPM`].
    pub points: Vec<ChaosPoint>,
}

/// One full drive of the chaos workload.
struct ChaosRun {
    stats: sofia_fleet::AsyncStats,
    res: sofia_fleet::ResilienceStats,
    records: Vec<sofia_fleet::JobRecord>,
    digest: u64,
}

/// Drives the chaos workload once: the [`async_wfq_report`] tenant mix
/// (scaled to [`CHAOS_BENCH_TENANTS`]) plus storm tenants, under
/// `rate_ppm` on every seam. `resilient` arms the recovery ladder —
/// `false` is the machinery-off baseline the zero point is pinned
/// against.
///
/// # Panics
///
/// Panics if a resilience counter and its typed event stream disagree —
/// the "every fault accounted for by exactly one typed event" contract.
fn chaos_run(rate_ppm: u32, threads: usize, resilient: bool) -> ChaosRun {
    use sofia_fleet::{
        AdmissionConfig, AsyncConfig, AsyncFleet, ChaosPlan, ClassConfig, ClassId, FaultRate,
        JobSpec, ResilienceConfig, ResilienceEvent, Sabotage, SchedMode, Seam, TenantId,
    };
    use std::collections::BTreeMap;
    let tenants = CHAOS_BENCH_TENANTS;
    let n_interactive = tenants * 7 / 10;
    let n_batch = tenants * 2 / 10;
    let n_best = tenants - n_interactive - n_batch;
    const CLASS_META: [(u8, &str, u64); 3] = [
        (0, "interactive", 8),
        (1, "batch", 2),
        (2, "best_effort", 1),
    ];
    let mut admission = AdmissionConfig::default();
    for (id, _, weight) in CLASS_META {
        admission.classes.insert(
            id,
            ClassConfig {
                weight,
                ..Default::default()
            },
        );
    }
    if let Some(best) = admission.classes.get_mut(&2) {
        best.queue_cap = (n_best / 2).max(1);
    }
    let plan = ChaosPlan::uniform(CHAOS_BENCH_SEED, FaultRate::ppm(rate_ppm));
    let mut resilience = ResilienceConfig::default();
    if resilient {
        resilience = ResilienceConfig::standard();
        for (class, deadline) in CHAOS_BENCH_DEADLINES {
            resilience.deadlines.insert(ClassId(class), deadline);
        }
        // A tighter trip wire than the serving preset: at 1e-2 per
        // lane-tick the fleet sees ~0.1 faults/tick, and the bench
        // wants the breaker's open→close span (the MTTR column) on the
        // record, not just in the drill.
        if let Some(b) = resilience.breaker.as_mut() {
            b.fault_threshold = 3;
        }
    }
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads,
        workers: ASYNC_BENCH_WORKERS,
        mode: SchedMode::FuelSliced {
            slice: ASYNC_BENCH_SLICE,
        },
        admission,
        chaos: plan.clone(),
        resilience,
        ..Default::default()
    });

    let class_of = |id: u32| -> u8 {
        let id = id as usize - 1;
        if id < n_interactive {
            0
        } else if id < n_interactive + n_batch {
            1
        } else {
            2
        }
    };
    for id in 1..=tenants as u32 {
        fleet
            .register_tenant(
                TenantId(id),
                KeySet::from_seed(0x5EED_0000 + id as u64),
                ClassId(class_of(id)),
            )
            .unwrap_or_else(|e| panic!("fresh driver: {e:?}"));
    }
    for s in 0..CHAOS_BENCH_STORM_TENANTS as u32 {
        let id = tenants as u32 + 1 + s;
        fleet
            .register_tenant(
                TenantId(id),
                KeySet::from_seed(0x5709_0000 + id as u64),
                ClassId(2),
            )
            .unwrap_or_else(|e| panic!("fresh driver: {e:?}"));
    }

    // Deterministic arrival generator — same LCG and split as the WFQ
    // bench, so the zero-chaos point is the familiar serving workload.
    let mut lcg: u64 = 0x2545F491_4F6CDD1D;
    let mut draw = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % bound
    };
    let horizon: u64 = 400u64.max(400 * tenants as u64 / 1000);
    let batch_job = |id: u32, round: u32| {
        JobSpec::new(
            TenantId(id),
            wfq_job_src(120 + (id % 7) * 10 + round * 3),
            200_000,
        )
    };
    for id in 1..=tenants as u32 {
        match class_of(id) {
            0 => {
                for _ in 0..2 {
                    let spec = JobSpec::new(TenantId(id), wfq_job_src(8 + (id % 16)), 100_000);
                    let tick = draw(horizon);
                    fleet.submit_at(spec, tick);
                }
            }
            1 => {
                fleet.submit_at(batch_job(id, 0), draw(8));
            }
            _ => {
                let spec = JobSpec::new(TenantId(id), wfq_job_src(40 + (id % 11)), 150_000);
                fleet.submit_at(spec, 0);
            }
        }
    }

    let mut rounds_left: BTreeMap<u32, u32> = (1..=tenants as u32)
        .filter(|&id| class_of(id) == 1)
        .map(|id| (id, 2))
        .collect();
    let mut records = Vec::new();
    loop {
        // The storm process: per tick, per storm tenant, a seeded draw
        // decides whether a sabotaged burst job arrives. Harness-drawn
        // (the fleet cannot invent tenants), so the harness also files
        // the typed fault event.
        let now = fleet.now();
        if now < horizon {
            for s in 0..CHAOS_BENCH_STORM_TENANTS as u32 {
                let id = tenants as u32 + 1 + s;
                if plan.strikes(Seam::Storm, now, 0x5702_0000 + s as u64) {
                    fleet.note_harness_fault(Seam::Storm, None, Some(TenantId(id)));
                    let spec = JobSpec::new(TenantId(id), wfq_job_src(24), 150_000)
                        .with_sabotage(Sabotage::FlipRomWord { word: 9, mask: 1 });
                    fleet.submit_at(spec, now + 1);
                }
            }
        }
        fleet.tick();
        for r in fleet.drain_finished() {
            if let Some(left) = rounds_left.get_mut(&r.tenant.0) {
                if *left > 0 {
                    let round = 3 - *left;
                    *left -= 1;
                    fleet.submit_at(batch_job(r.tenant.0, round), fleet.now());
                }
            }
            records.push(r);
        }
        if fleet.queued_jobs() == 0 && fleet.pending_arrivals() == 0 && fleet.now() >= horizon {
            break;
        }
    }
    let rejections = fleet.drain_rejected();

    // Every fault strike must be accounted for by exactly one typed
    // event — the chaos layer's accounting contract.
    let events = fleet.drain_resilience_events();
    let fault_events = events
        .iter()
        .filter(|e| matches!(e, ResilienceEvent::FaultInjected { .. }))
        .count() as u64;
    let res = fleet.resilience_stats();
    assert_eq!(
        res.faults_injected, fault_events,
        "every injected fault must land exactly one typed event"
    );

    let mut digest: u64 = 0xcbf29ce484222325;
    for r in &records {
        for word in [
            r.job.0,
            r.tenant.0 as u64,
            r.stats.exec.cycles,
            r.stats.exec.instret,
            r.arrival_tick,
            r.start_tick,
            r.end_tick,
            r.sojourn_cycles,
            r.slices as u64,
        ] {
            fnv1a(&mut digest, &word.to_le_bytes());
        }
        fnv1a(&mut digest, format!("{:?}", r.outcome).as_bytes());
        for w in &r.out_words {
            fnv1a(&mut digest, &w.to_le_bytes());
        }
    }
    for rej in &rejections {
        fnv1a(&mut digest, &rej.job.0.to_le_bytes());
        fnv1a(&mut digest, &rej.tick.to_le_bytes());
        fnv1a(&mut digest, format!("{}", rej.error).as_bytes());
    }
    ChaosRun {
        stats: fleet.stats(),
        res,
        records,
        digest,
    }
}

/// Runs the chaos sweep: every rate of [`CHAOS_BENCH_RATES_PPM`], each
/// point asserted bit-identical at 1 and `threads` host threads, and
/// the zero point asserted bit-identical against a driver with the
/// chaos and resilience machinery absent.
///
/// # Panics
///
/// Panics if any determinism or accounting assertion fails, if the zero
/// point serves less than everything it accepted, or if the top rate
/// injects no faults.
pub fn chaos_report(threads: usize) -> ChaosReport {
    const CLASS_META: [(u8, &str); 3] = [(0, "interactive"), (1, "batch"), (2, "best_effort")];
    let honest = |tenant: u32| tenant as usize <= CHAOS_BENCH_TENANTS;
    let mut points = Vec::new();
    for rate_ppm in CHAOS_BENCH_RATES_PPM {
        let serial = chaos_run(rate_ppm, 1, true);
        let run = chaos_run(rate_ppm, threads, true);
        assert_eq!(
            (&serial.stats, &serial.res, serial.digest),
            (&run.stats, &run.res, run.digest),
            "chaos results at rate {rate_ppm} ppm depend on the host thread count"
        );
        if rate_ppm == 0 {
            let baseline = chaos_run(0, threads, false);
            assert_eq!(
                baseline.digest, run.digest,
                "ChaosPlan::none + idle resilience must be bit-identical to \
                 a driver without the machinery"
            );
            assert_eq!(run.res.faults_injected, 0);
            for r in &run.records {
                assert!(
                    r.outcome.is_halted(),
                    "{}: {:?} at zero fault rate",
                    r.job,
                    r.outcome
                );
            }
        }
        let accepted = run.records.iter().filter(|r| honest(r.tenant.0)).count();
        let served = run
            .records
            .iter()
            .filter(|r| honest(r.tenant.0) && r.outcome.is_halted())
            .count();
        let availability = served as f64 / accepted.max(1) as f64;
        let res = run.res;
        let deadline_miss_rate =
            (res.deadline_shed + res.deadline_late) as f64 / accepted.max(1) as f64;
        let mttr_ticks = if res.breaker_closes == 0 {
            0.0
        } else {
            res.breaker_open_ticks as f64 / res.breaker_closes as f64
        };
        let classes = CLASS_META
            .iter()
            .map(|&(class, label)| {
                let mut sojourns: Vec<u64> = run
                    .records
                    .iter()
                    .filter(|r| honest(r.tenant.0) && chaos_class_of(r.tenant.0) == class)
                    .map(|r| r.sojourn_cycles)
                    .collect();
                sojourns.sort_unstable();
                let pct = |p: usize| -> u64 {
                    if sojourns.is_empty() {
                        0
                    } else {
                        sojourns[(sojourns.len() - 1) * p / 100]
                    }
                };
                ChaosClassRow {
                    class,
                    label,
                    finished: sojourns.len(),
                    p50_sojourn_cycles: pct(50),
                    p99_sojourn_cycles: pct(99),
                }
            })
            .collect();
        points.push(ChaosPoint {
            rate_ppm,
            stats: run.stats,
            res,
            accepted,
            served,
            availability,
            deadline_miss_rate,
            mttr_ticks,
            classes,
            digest: run.digest,
        });
    }
    let top = points
        .last()
        .unwrap_or_else(|| panic!("sweep produced no points"));
    assert!(
        top.res.faults_injected > 0,
        "the top rate must actually inject faults"
    );
    assert!(
        top.availability > 0.0,
        "the fleet must keep serving through the top fault rate"
    );
    ChaosReport {
        tenants: CHAOS_BENCH_TENANTS,
        storm_tenants: CHAOS_BENCH_STORM_TENANTS,
        threads,
        seed: CHAOS_BENCH_SEED,
        points,
    }
}

/// The class of an honest chaos-workload tenant (mirrors the 70/20/10
/// split used at submission).
fn chaos_class_of(tenant: u32) -> u8 {
    let n_interactive = CHAOS_BENCH_TENANTS * 7 / 10;
    let n_batch = CHAOS_BENCH_TENANTS * 2 / 10;
    let id = tenant as usize - 1;
    if id < n_interactive {
        0
    } else if id < n_interactive + n_batch {
        1
    } else {
        2
    }
}

/// Serialises a [`ChaosReport`] to the `BENCH_chaos.json` schema.
/// `availability` is formatted to four places so CI can grep the
/// zero-rate pin literally (`"availability": 1.0000`).
pub fn chaos_json(report: &ChaosReport) -> String {
    let mut out = String::from("{\n  \"bench\": \"chaos\",\n");
    out.push_str(&format!(
        "  \"tenants\": {}, \"storm_tenants\": {}, \"threads\": {},\n  \"seed\": {},\n",
        report.tenants, report.storm_tenants, report.threads, report.seed
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        let s = p.stats;
        let r = p.res;
        out.push_str(&format!(
            "    {{ \"rate_ppm\": {}, \"availability\": {:.4}, \"deadline_miss_rate\": {:.4},\n      \
             \"served\": {}, \"accepted\": {}, \"rejected\": {}, \"ticks\": {}, \
             \"makespan_cycles\": {},\n      \
             \"faults_injected\": {}, \"seal_faults\": {}, \"snapshot_corruptions\": {}, \
             \"worker_stalls\": {}, \"worker_panics_injected\": {}, \"storm_bursts\": {},\n      \
             \"retries_scheduled\": {}, \"retries_exhausted\": {}, \"deadline_shed\": {}, \
             \"deadline_late\": {}, \"load_shed\": {},\n      \
             \"breaker_opens\": {}, \"breaker_closes\": {}, \"breaker_open_ticks\": {}, \
             \"mttr_ticks\": {:.1},\n      \
             \"digest\": \"{:#018x}\",\n      \"classes\": [\n",
            p.rate_ppm,
            p.availability,
            p.deadline_miss_rate,
            p.served,
            p.accepted,
            s.rejected,
            s.ticks,
            s.makespan_cycles,
            r.faults_injected,
            r.seal_faults,
            r.snapshot_corruptions,
            r.worker_stalls,
            r.worker_panics_injected,
            r.storm_bursts,
            r.retries_scheduled,
            r.retries_exhausted,
            r.deadline_shed,
            r.deadline_late,
            r.load_shed,
            r.breaker_opens,
            r.breaker_closes,
            r.breaker_open_ticks,
            p.mttr_ticks,
            p.digest,
        ));
        for (j, c) in p.classes.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"class\": {}, \"label\": \"{}\", \"finished\": {}, \
                 \"p50_sojourn_cycles\": {}, \"p99_sojourn_cycles\": {} }}{}\n",
                c.class,
                c.label,
                c.finished,
                c.p50_sojourn_cycles,
                c.p99_sojourn_cycles,
                if j + 1 == p.classes.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "      ] }}{}\n",
            if i + 1 == report.points.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to `BENCH_chaos.json` at the workspace root, like the
/// sibling bench emitters.
pub fn write_chaos_json(json: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("BENCH_chaos.json not written: {e}"),
    }
}

// ---------------------------------------------------------------------
// Attack economics: campaigns over the fleet, per quarantine policy
// ---------------------------------------------------------------------

/// Honest tenants serving while the attacks-bench probing campaign runs.
pub const ATTACKS_BENCH_HONEST_TENANTS: u32 = 16;

/// Admitted probes per policy in the attacks-bench probing campaign.
pub const ATTACKS_BENCH_PROBES: u32 = 8;

/// Monte-Carlo trials per MAC length in the forgery-scaling sweep.
pub const ATTACKS_BENCH_TRIALS: u64 = 1 << 12;

/// MAC lengths swept (64 is the paper's real parameter — the row the CI
/// pins at zero acceptances).
pub const ATTACKS_BENCH_MAC_BITS: [u32; 4] = [8, 10, 12, 64];

/// Campaign seed.
pub const ATTACKS_BENCH_SEED: u64 = 0xA77AC5;

/// One quarantine policy's row set in the attacks report.
#[derive(Clone, Debug, PartialEq)]
pub struct AttacksPolicyRow {
    /// Stable policy label (`suspend` / `retry_with_reboot` / `evict`).
    pub label: &'static str,
    /// The multi-tenant probing campaign's measurements.
    pub probe: sofia_attacks::campaigns::ProbeCampaignReport,
    /// Per-probe oracle profile (queries/ticks/cycles per probe).
    pub profile: sofia_attacks::campaigns::OracleProfile,
    /// Truncated-MAC scaling rows, re-priced for the policy.
    pub forgery: Vec<sofia_attacks::campaigns::PolicyForgeryRow>,
    /// The migration-tamper sweep under the policy.
    pub migration: sofia_attacks::campaigns::MigrationSweepReport,
    /// Closed-form §IV-A work for the real 64-bit MAC under the policy.
    pub expected_work_64: sofia_attacks::campaigns::ExpectedWork,
}

/// The full attacks report behind `BENCH_attacks.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct AttacksReport {
    /// Host threads of the threaded run (results are asserted identical
    /// to a serial run before this report exists).
    pub threads: usize,
    /// One row per [`sofia_attacks::campaigns::POLICIES`] entry.
    pub rows: Vec<AttacksPolicyRow>,
    /// FNV-1a digest over every row's content.
    pub digest: u64,
}

/// Runs the three campaign families under every quarantine policy and
/// folds them into one report. Every probing campaign is run at 1 host
/// thread and at `threads`, and the two reports are asserted equal
/// field-for-field before anything is emitted — the determinism
/// invariant, applied to security measurements.
pub fn attacks_report(threads: usize) -> AttacksReport {
    use sofia_attacks::campaigns::{
        expected_work, forgery_scaling, migration_sweep, oracle_profile, policy_label,
        probe_campaign, ProbeCampaignConfig, POLICIES,
    };
    let keys = KeySet::from_seed(0x5EC8);
    let mut rows = Vec::new();
    for policy in POLICIES {
        let config = ProbeCampaignConfig {
            policy,
            honest_tenants: ATTACKS_BENCH_HONEST_TENANTS,
            probes: ATTACKS_BENCH_PROBES,
            threads: 1,
            seed: ATTACKS_BENCH_SEED,
        };
        let serial = probe_campaign(&config);
        let probe = probe_campaign(&ProbeCampaignConfig { threads, ..config });
        assert_eq!(
            serial, probe,
            "attack-campaign results under {policy:?} depend on the host thread count"
        );
        assert!(
            probe.bystander_bit_identical,
            "campaign under {policy:?} perturbed a bystander"
        );
        let profile = oracle_profile(policy);
        rows.push(AttacksPolicyRow {
            label: policy_label(policy),
            probe,
            profile,
            forgery: forgery_scaling(
                policy,
                &keys,
                &ATTACKS_BENCH_MAC_BITS,
                ATTACKS_BENCH_TRIALS,
                ATTACKS_BENCH_SEED,
            ),
            migration: migration_sweep(policy, 0),
            expected_work_64: expected_work(&profile, 64),
        });
    }
    let mut digest = 0xcbf29ce484222325u64;
    for row in &rows {
        fnv1a(&mut digest, format!("{row:?}").as_bytes());
    }
    AttacksReport {
        threads,
        rows,
        digest,
    }
}

/// Stable lower-case label for a tenant state in JSON rows.
fn tenant_state_json(state: sofia_fleet::TenantState) -> &'static str {
    match state {
        sofia_fleet::TenantState::Active => "active",
        sofia_fleet::TenantState::Suspended => "suspended",
        sofia_fleet::TenantState::Evicted => "evicted",
    }
}

/// Renders the attacks report as the `BENCH_attacks.json` document.
pub fn attacks_json(report: &AttacksReport) -> String {
    let mut out = String::from("{\n  \"bench\": \"attacks\",\n");
    out.push_str(&format!(
        "  \"threads\": {}, \"honest_tenants\": {}, \"probes\": {}, \"trials\": {},\n",
        report.threads, ATTACKS_BENCH_HONEST_TENANTS, ATTACKS_BENCH_PROBES, ATTACKS_BENCH_TRIALS
    ));
    out.push_str("  \"policies\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let p = &row.probe;
        out.push_str(&format!(
            "    {{ \"policy\": \"{}\",\n      \"probing\": {{ \"probes_submitted\": {}, \
             \"probes_admitted\": {}, \"probes_refused\": {}, \"detections\": {}, \
             \"successes\": {},\n        \"oracle_queries\": {}, \"attacker_cycles\": {}, \
             \"releases\": {}, \"identities_burned\": {}, \"wall_ticks\": {},\n        \
             \"honest_submitted\": {}, \"honest_finished\": {}, \"honest_clean\": {}, \
             \"bystander_availability\": {:.4}, \"bystander_bit_identical\": {} }},\n",
            row.label,
            p.probes_submitted,
            p.probes_admitted,
            p.probes_refused,
            p.detections,
            p.successes,
            p.oracle_queries,
            p.attacker_cycles,
            p.releases,
            p.identities_burned,
            p.wall_ticks,
            p.honest_submitted,
            p.honest_finished,
            p.honest_clean,
            p.bystander_availability,
            p.bystander_bit_identical,
        ));
        out.push_str(&format!(
            "      \"oracle_profile\": {{ \"queries_per_probe\": {}, \"ticks_per_probe\": {}, \
             \"cycles_per_probe\": {} }},\n",
            row.profile.queries_per_probe,
            row.profile.ticks_per_probe,
            row.profile.cycles_per_probe
        ));
        out.push_str("      \"forgery\": [\n");
        for (j, f) in row.forgery.iter().enumerate() {
            let c = f.campaign;
            out.push_str(&format!(
                "        {{ \"mac_bits\": {}, \"trials\": {}, \"completed\": {}, \
                 \"accepted\": {}, \"measured_rate\": {:.6}, \"expected_probes\": {:.3e}, \
                 \"expected_wall_ticks\": {:.3e} }}{}\n",
                c.mac_bits,
                c.trials,
                c.completed,
                c.accepted,
                c.measured_rate(),
                f.work.probes,
                f.work.wall_ticks,
                if j + 1 == row.forgery.len() { "" } else { "," }
            ));
        }
        out.push_str("      ],\n      \"migration\": [\n");
        for (j, m) in row.migration.rows.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"variant\": \"{}\", \"outcome\": \"{}\", \"violations\": {}, \
                 \"retried\": {}, \"tenant_after\": \"{}\" }}{}\n",
                m.variant.label(),
                m.outcome.label(),
                m.violations,
                m.retried,
                tenant_state_json(m.tenant_after),
                if j + 1 == row.migration.rows.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        let w = &row.expected_work_64;
        out.push_str(&format!(
            "      ],\n      \"expected_work_64\": {{ \"oracle_queries\": {:.3e}, \
             \"probes\": {:.3e}, \"identities\": {:.3e}, \"wall_ticks\": {:.3e} }} }}{}\n",
            w.oracle_queries,
            w.probes,
            w.identities,
            w.wall_ticks,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"digest\": \"{:#018x}\"\n}}\n",
        report.digest
    ));
    out
}

/// Writes `BENCH_attacks.json` at the workspace root.
pub fn write_attacks_json(json: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_attacks.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("BENCH_attacks.json not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_consistent_row() {
        let keys = KeySet::from_seed(11);
        let w = sofia_workloads::kernels::fib(50);
        let row = measure(&w, &keys);
        assert!(row.sofia_cycles > row.vanilla_cycles);
        assert!(row.expansion() > 1.3);
        assert!(row.time_overhead_pct() > row.cycle_overhead_pct());
        assert!(!format_row(&row).is_empty());
    }

    #[test]
    fn host_json_schema_is_stable() {
        let report = HostReport {
            box_shape: BoxShape {
                logical_cores: 1,
                arch: "x86_64".into(),
                os: "linux".into(),
                target: "x86_64-unknown-linux-gnu".into(),
            },
            keystream: KeystreamRates {
                blocks: 16,
                scalar_blocks_per_sec: 1e6,
                bitsliced_blocks_per_sec: 8e6,
                lanes_for_batch: vec![(8, 8), (16, 16), (16384, 64)],
                refill: RefillCipherCost {
                    counters: 8,
                    pads_ns: 212.5,
                    mac_blocks: 3,
                    mac_ns: 230.0,
                },
                widths: vec![
                    KeystreamWidthRate {
                        lanes: 16,
                        blocks_per_sec: 6e6,
                    },
                    KeystreamWidthRate {
                        lanes: 32,
                        blocks_per_sec: 8e6,
                    },
                ],
            },
            mips: vec![HostMipsRow {
                machine: "vanilla".into(),
                instret: 1000,
                mips: 12.5,
            }],
            seal: SealRates {
                workload: "adpcm600".into(),
                seals_per_sec: 25.0,
            },
            fleet: vec![FleetHostPoint {
                workers: 4,
                jobs: 24,
                jobs_per_sec: 100.0,
            }],
        };
        assert!((report.keystream.speedup() - 8.0).abs() < 1e-9);
        let json = host_json(&report);
        for field in [
            "\"bench\": \"host\"",
            "\"profile\"",
            "\"box\": { \"logical_cores\": 1, \"arch\": \"x86_64\"",
            "\"bitsliced_speedup\": 8.00",
            "\"lanes_for_batch\": [{ \"batch\": 8, \"lanes\": 8 }, \
             { \"batch\": 16, \"lanes\": 16 }, { \"batch\": 16384, \"lanes\": 64 }]",
            "\"refill\": { \"counters\": 8, \"pads_ns\": 212.5, \"mac_blocks\": 3, \"mac_ns\": 230.0 }",
            "\"widths\"",
            "\"lanes\": 16, \"blocks_per_sec\": 6000000, \"speedup_vs_scalar\": 6.00",
            "\"machine_mips\"",
            "\"seal\": { \"workload\": \"adpcm600\", \"seals_per_sec\": 25.00 }",
            "\"fleet_host\"",
            "\"workers\": 4, \"jobs\": 24, \"jobs_per_sec\": 100.00",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn async_wfq_workload_is_thread_invariant_and_backpressured() {
        // A scaled-down point (the bench emits the 1k-tenant one): the
        // full report must be bit-identical across host thread counts,
        // rejections must flow, and the heavy class must see lower tail
        // latency than the light one.
        let serial = async_wfq_report(60, 1);
        let threaded = async_wfq_report(60, 4);
        // Everything but the host-side `threads` knob must match.
        assert_eq!(
            (&serial.stats, &serial.classes, serial.digest),
            (&threaded.stats, &threaded.classes, threaded.digest)
        );
        assert!(serial.stats.rejected > 0);
        assert_eq!(serial.classes.len(), 3);
        let interactive = &serial.classes[0];
        let best_effort = &serial.classes[2];
        assert!(interactive.rejected == 0, "interactive class was capped");
        assert!(best_effort.rejected > 0, "burst class was never capped");
        assert!(
            interactive.p99_sojourn_cycles < best_effort.p99_sojourn_cycles,
            "weight 8 class no faster than weight 1: {} vs {}",
            interactive.p99_sojourn_cycles,
            best_effort.p99_sojourn_cycles
        );
        let json = fleet_json(&[], &[], &serial);
        for field in [
            "\"async_wfq\"",
            "\"label\": \"interactive\"",
            "\"p99_sojourn_cycles\"",
            "\"digest\": \"0x",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }

    #[test]
    fn worker_cap_parsing_is_loud_about_garbage() {
        assert_eq!(parse_worker_cap(None), Ok(None));
        assert_eq!(parse_worker_cap(Some("4")), Ok(Some(4)));
        assert_eq!(parse_worker_cap(Some(" 8 ")), Ok(Some(8)));
        // Zero workers is nonsense; clamp to the serial point.
        assert_eq!(parse_worker_cap(Some("0")), Ok(Some(1)));
        // The regression: these used to silently mean "no cap".
        for bad in ["fouR", "", "4x", "-1", "1e3"] {
            let err = parse_worker_cap(Some(bad)).unwrap_err();
            assert!(
                err.contains("SOFIA_BENCH_MAX_WORKERS") && err.contains(bad),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn fleet_10k_flag_parsing_is_loud_about_garbage() {
        assert_eq!(parse_fleet_10k(None), Ok(false));
        for on in ["1", "true", " yes ", "on"] {
            assert_eq!(parse_fleet_10k(Some(on)), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "no", "off"] {
            assert_eq!(parse_fleet_10k(Some(off)), Ok(false), "{off:?}");
        }
        let err = parse_fleet_10k(Some("maybe")).unwrap_err();
        assert!(
            err.contains("SOFIA_BENCH_FLEET_10K") && err.contains("maybe"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn host_worker_counts_honour_the_env_cap() {
        // The env var is process-global, so only pin the shape this
        // process actually sees (CI sets the cap in its own process).
        let counts = host_worker_counts();
        assert!(counts.starts_with(&[1]), "serial point always present");
        assert!(counts.iter().all(|&w| [1, 2, 4, 8].contains(&w)));
        if std::env::var("SOFIA_BENCH_MAX_WORKERS").is_err() {
            assert_eq!(counts, vec![1, 2, 4, 8]);
        }
    }

    #[test]
    fn backends_report_orders_the_schemes_and_pins_the_schema() {
        let keys = KeySet::from_seed(0x5EC6);
        let w = sofia_workloads::kernels::crc32(16);
        let report = backends_report(&w, &keys);

        // Cycles: vanilla < fipac < sponge (the serial permute is the
        // most expensive fetch path; FIPAC's check is off it).
        let cycles: std::collections::BTreeMap<&str, u64> = report
            .overhead
            .iter()
            .map(|p| (p.backend, p.cycles))
            .collect();
        assert!(report.vanilla_cycles < cycles["fipac"]);
        assert!(cycles["fipac"] < cycles["sponge"]);
        assert!(report.overhead.iter().all(|p| p.overhead_pct > 0.0));

        // Area: vanilla < fipac < sponge < sofia; FIPAC keeps the
        // vanilla clock.
        let hw: std::collections::BTreeMap<&str, &BackendHwPoint> =
            report.hardware.iter().map(|p| (p.backend, p)).collect();
        assert!(hw["fipac"].slices < hw["sponge"].slices);
        assert!(hw["sponge"].slices < hw["sofia"].slices);
        assert!((hw["fipac"].clock_mhz - hw["vanilla"].clock_mhz).abs() < 1e-9);

        // Detection latency: SOFIA refuses the block before the tampered
        // slot, the sponge flags within a couple of garbage decodes, and
        // FIPAC runs to the halt signature — the deferral is the entire
        // remaining sled.
        let lat: std::collections::BTreeMap<&str, u64> = report
            .detection
            .iter()
            .map(|p| (p.backend, p.latency_instructions))
            .collect();
        assert_eq!(lat["sofia"], 0);
        assert!(lat["sponge"] <= 4, "sponge latency {}", lat["sponge"]);
        assert_eq!(
            lat["fipac"],
            (BACKENDS_SLED_WORDS + 1 - BACKENDS_TAMPER_WORD) as u64
        );

        let json = backends_json(&report);
        for field in [
            "\"bench\": \"backends\"",
            "\"workload\": \"crc32\"",
            "\"overhead\"",
            "\"backend\": \"sponge\"",
            "\"backend\": \"fipac\"",
            "\"hardware\"",
            "\"detection_latency\"",
            "\"sled_words\": 64",
            "\"attack_matrix\"",
            "\"attack\": \"word-tamper\"",
            "\"fipac\": \"compromised-flagged\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn attacks_report_prices_every_policy_and_emits_a_stable_schema() {
        let report = attacks_report(2);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(
            report.rows.iter().map(|r| r.label).collect::<Vec<_>>(),
            ["suspend", "retry_with_reboot", "evict"]
        );
        for row in &report.rows {
            assert_eq!(row.probe.successes, 0);
            assert_eq!(row.probe.detections, row.probe.probes_admitted);
            assert!(row.probe.bystander_bit_identical);
            let full = row.forgery.iter().find(|f| f.campaign.mac_bits == 64);
            assert_eq!(full.expect("64-bit row").campaign.accepted, 0);
        }
        // The retry policy hands the attacker the cheapest oracle; evict
        // makes every probe cost a fresh identity.
        let by_label = |l: &str| report.rows.iter().find(|r| r.label == l).unwrap();
        assert!(
            by_label("retry_with_reboot").profile.queries_per_probe
                > by_label("suspend").profile.queries_per_probe
        );
        assert_eq!(by_label("evict").expected_work_64.identities, {
            by_label("evict").expected_work_64.probes
        });
        assert_eq!(by_label("suspend").expected_work_64.identities, 1.0);

        let json = attacks_json(&report);
        for field in [
            "\"bench\": \"attacks\"",
            "\"policy\": \"suspend\"",
            "\"policy\": \"retry_with_reboot\"",
            "\"policy\": \"evict\"",
            "\"probing\"",
            "\"successes\": 0",
            "\"bystander_bit_identical\": true",
            "\"oracle_profile\"",
            "\"mac_bits\": 64",
            "\"variant\": \"bit_flip_in_transit\"",
            "\"outcome\": \"detected_in_transit\"",
            "\"expected_work_64\"",
            "\"digest\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // Same inputs, same digest: the report re-runs bit-identically.
        assert_eq!(attacks_report(2).digest, report.digest);
    }

    #[test]
    fn vcache_row_orders_the_three_machines() {
        let keys = KeySet::from_seed(12);
        let w = sofia_workloads::kernels::fib(200);
        let row = vcache_row(&w, &keys, VCacheConfig::enabled(64, 4));
        assert!(row.vanilla_cycles < row.sofia_cached_cycles);
        assert!(row.sofia_cached_cycles < row.sofia_uncached_cycles);
        assert!(row.reduction() > 0.2, "reduction {}", row.reduction());
        let json = vcache_rows_json(VCacheConfig::enabled(64, 4), &[row]);
        assert!(json.contains("\"bench\": \"vcache\""));
        assert!(json.contains("\"name\": \"fib\""));
    }
}
