//! # sofia-bench — measurement helpers for the reproduction harness
//!
//! Shared machinery for the `repro` binary (which regenerates every table
//! and figure of the paper, see README, *Reproducing the paper*) and the
//! Criterion benches: run a workload on both machines under arbitrary
//! configurations and reduce the statistics to the paper's metrics.
//!
//! It also builds the `BENCH_*.json` records at the workspace root, each
//! written by [`write_bench`]. Five are **virtual time** — simulated
//! cycles and counts, byte-identical on any host at any thread count:
//! `BENCH_vcache.json` ([`vcache_rows_json`]), `BENCH_fleet.json`
//! ([`fleet_json`]), `BENCH_backends.json` ([`backends_json`]),
//! `BENCH_chaos.json` ([`chaos_json`]) and `BENCH_attacks.json`
//! ([`attacks_json`]). `BENCH_host.json` ([`host_json`]) is the one
//! **wall-clock** record: how fast this host seals and simulates, as the
//! median, minimum and maximum over repeated runs.

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
use sofia_fleet::{ClassId, JobSpec, TenantId};
use sofia_isa::asm::DEFAULT_RAM_SIZE;
use sofia_transform::{BlockFormat, BlockKind, SealPlan, TransformReport, Transformer};
use sofia_workloads::{serving, Workload};

/// Fuel for measurement runs.
pub const FUEL: u64 = 500_000_000;

/// Writes `json` to `BENCH_<name>.json` at the workspace root, next to
/// `CHANGES.md`, and reports the path on stdout.
///
/// # Errors
///
/// The write's I/O error, with the path in its message.
pub fn write_bench(name: &str, json: &str) -> std::io::Result<()> {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{path} not written: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Joins pre-formatted JSON rows, one per line, with a comma after every
/// row but the last. Each row carries its own indent; an empty list
/// joins to nothing.
fn join_rows(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().collect();
    if rows.is_empty() {
        return String::new();
    }
    rows.join(",\n") + "\n"
}

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
    let uncached = measure(workload, keys);
    let config = SofiaConfig {
        vcache,
        ..Default::default()
    };
    let cached = measure_with(workload, keys, BlockFormat::default(), &config).sofia;
    VCacheRow {
        name: workload.name.to_string(),
        vanilla_cycles: uncached.vanilla_cycles,
        sofia_uncached_cycles: uncached.sofia_cycles,
        sofia_cached_cycles: cached.exec.cycles,
        vcache_hits: cached.vcache_hits,
        vcache_misses: cached.vcache_misses,
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
    out.push_str(&join_rows(rows.iter().map(|r| {
        format!(
            "    {{ \"name\": \"{}\", \"vanilla_cycles\": {}, \"sofia_uncached_cycles\": {}, \
             \"sofia_cached_cycles\": {}, \"vcache_hits\": {}, \"vcache_misses\": {}, \
             \"reduction_pct\": {:.2} }}",
            r.name,
            r.vanilla_cycles,
            r.sofia_uncached_cycles,
            r.sofia_cached_cycles,
            r.vcache_hits,
            r.vcache_misses,
            r.reduction() * 100.0,
        )
    })));
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
pub fn fleet_mix() -> Vec<JobSpec> {
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

/// A fresh fleet at `workers` and `mode` with the [`fleet_mix`] tenants
/// registered and the whole mix submitted, ready for `run_batch`.
///
/// # Panics
///
/// Panics if the fleet refuses a registration or a job — a harness bug.
pub fn mix_fleet(workers: usize, mode: sofia_fleet::SchedMode) -> sofia_fleet::Fleet {
    use sofia_fleet::{Fleet, FleetConfig};
    let mut fleet = Fleet::new(FleetConfig {
        workers,
        mode,
        ..Default::default()
    });
    for (id, seed) in [(1u32, 0xF1Bu64), (2, 0xC3C32), (3, 0xADBC)] {
        fleet
            .register_tenant(TenantId(id), KeySet::from_seed(seed))
            .unwrap_or_else(|e| panic!("fresh fleet: {e:?}"));
    }
    for spec in fleet_mix() {
        fleet
            .submit(spec)
            .unwrap_or_else(|e| panic!("mix tenants are registered: {e:?}"));
    }
    fleet
}

/// Runs a [`mix_fleet`] batch and returns its job count.
///
/// # Panics
///
/// Panics if any job of the mix fails to halt — measurement runs must be
/// correct runs.
fn run_mix(fleet: &mut sofia_fleet::Fleet) -> usize {
    let records = fleet.run_batch();
    for r in &records {
        assert!(r.outcome.is_halted(), "{}: {:?}", r.job, r.outcome);
    }
    records.len()
}

/// Runs the [`fleet_mix`] at one worker count and scheduling mode.
///
/// # Panics
///
/// Panics if any job of the mix fails to halt — measurement runs must be
/// correct runs.
pub fn fleet_scaling_point(workers: usize, mode: sofia_fleet::SchedMode) -> FleetScalingPoint {
    let mut fleet = mix_fleet(workers, mode);
    let jobs = run_mix(&mut fleet);
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

/// The fleet experiment's two scheduling modes, labelled as in
/// `BENCH_fleet.json`.
pub const FLEET_BENCH_MODES: [(&str, sofia_fleet::SchedMode); 2] = [
    ("run_to_completion", sofia_fleet::SchedMode::RunToCompletion),
    (
        "fuel_sliced",
        sofia_fleet::SchedMode::FuelSliced {
            slice: FLEET_BENCH_SLICE,
        },
    ),
];

// ---------------------------------------------------------------------
// Async serving (`BENCH_fleet.json` § "async_wfq")
//
// The 1k-tenant WFQ serving mix, defined once in
// `sofia_workloads::serving` and run here at seed 0, on the `AsyncFleet`
// driver: three weighted service classes, seeded LCG arrivals, admission
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

/// One service class's latency roll-up over the WFQ mix's honest tenants,
/// in the async serving report and at each chaos point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassRow {
    /// Raw class id.
    pub class: u8,
    /// Human label, from the mix's class table.
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
    pub classes: Vec<ClassRow>,
    /// FNV-1a over all records and rejections, in completion order.
    pub digest: u64,
}

/// A serving-mix job as a fleet job.
fn wfq_spec(job: &serving::Job) -> JobSpec {
    JobSpec::new(TenantId(job.tenant), job.source.clone(), job.fuel)
}

/// The bench's driver glue for the [`serving::Mix`] at seed 0, which
/// [`async_wfq_report`] runs and the chaos sweep runs under faults.
struct WfqDrive {
    mix: serving::Mix,
    /// Jobs each tenant has finished: its next closed-loop round.
    finished: std::collections::BTreeMap<u32, u32>,
    /// Golden output of every job submitted through the glue.
    expected: std::collections::BTreeMap<sofia_fleet::JobId, Vec<u32>>,
}

impl WfqDrive {
    fn new(tenants: usize) -> WfqDrive {
        WfqDrive {
            mix: serving::Mix::new(tenants),
            finished: Default::default(),
            expected: Default::default(),
        }
    }

    /// The driver configuration: class weights, the best-effort queue
    /// cap, and the bench's lanes and slice.
    fn config(&self, threads: usize) -> sofia_fleet::AsyncConfig {
        use sofia_fleet::{AdmissionConfig, AsyncConfig, ClassConfig, SchedMode};
        let mut admission = AdmissionConfig::default();
        for (id, _, weight) in serving::CLASSES {
            admission.classes.insert(
                id,
                ClassConfig {
                    weight,
                    ..Default::default()
                },
            );
        }
        if let Some(best) = admission.classes.get_mut(&2) {
            best.queue_cap = self.mix.best_effort_cap();
        }
        AsyncConfig {
            threads,
            workers: ASYNC_BENCH_WORKERS,
            mode: SchedMode::FuelSliced {
                slice: ASYNC_BENCH_SLICE,
            },
            admission,
            ..Default::default()
        }
    }

    /// A driver on `config` with every honest tenant registered into its
    /// class and the mix's initial submissions queued at their ticks.
    fn start(&mut self, config: sofia_fleet::AsyncConfig) -> sofia_fleet::AsyncFleet {
        let mut fleet = sofia_fleet::AsyncFleet::new(config);
        for id in 1..=self.mix.tenants as u32 {
            fleet
                .register_tenant(
                    TenantId(id),
                    serving::tenant_keys(0, id),
                    ClassId(self.mix.class_of(id)),
                )
                .unwrap_or_else(|e| panic!("fresh driver: {e:?}"));
        }
        for (tick, job) in self.mix.submissions(0) {
            let id = fleet.submit_at(wfq_spec(&job), tick);
            self.expected.insert(id, job.expected);
        }
        fleet
    }

    /// The closed loop: the batch job that follows one of `tenant`'s
    /// finished jobs, while a batch tenant has rounds left.
    fn next_round(&mut self, tenant: u32) -> Option<serving::Job> {
        let round = self.finished.entry(tenant).or_default();
        *round += 1;
        (self.mix.class_of(tenant) == 1 && *round < serving::BATCH_ROUNDS)
            .then(|| serving::batch(tenant, *round))
    }

    /// One row per class over the honest tenants' records and rejections.
    fn class_rows(
        &self,
        records: &[sofia_fleet::JobRecord],
        rejections: &[sofia_fleet::Rejection],
    ) -> Vec<ClassRow> {
        let m = self.mix;
        serving::CLASSES
            .iter()
            .map(|&(class, label, weight)| {
                let in_class = |tenant: TenantId| {
                    tenant.0 as usize <= m.tenants && m.class_of(tenant.0) == class
                };
                let (finished, p50, p99) =
                    sojourn_stats(records.iter().filter(|r| in_class(r.tenant)));
                ClassRow {
                    class,
                    label,
                    weight,
                    tenants: m.split[class as usize],
                    finished,
                    rejected: rejections.iter().filter(|rej| in_class(rej.tenant)).count(),
                    p50_sojourn_cycles: p50,
                    p99_sojourn_cycles: p99,
                }
            })
            .collect()
    }
}

/// `(finished, p50, p99)` of the sojourns of `records`, in simulated
/// cycles: percentile `p` is the sorted sojourn at `(n - 1) * p / 100`,
/// and all three are zero for no records.
fn sojourn_stats<'a>(
    records: impl Iterator<Item = &'a sofia_fleet::JobRecord>,
) -> (usize, u64, u64) {
    let mut sojourns: Vec<u64> = records.map(|r| r.sojourn_cycles).collect();
    sojourns.sort_unstable();
    let pct = |p: usize| match sojourns.len() {
        0 => 0,
        n => sojourns[(n - 1) * p / 100],
    };
    (sojourns.len(), pct(50), pct(99))
}

/// Runs the async serving workload — the WFQ serving mix of `tenants`
/// tenants (interactive, batch and best-effort classes, weighted 8/2/1)
/// on a driver over `threads` host threads — and asserts the report
/// bit-identical to a run at one host thread.
///
/// # Panics
///
/// Panics if the report depends on the host thread count, if the
/// workload's rejections are not [`serving::Mix::expected_rejections`],
/// or if any record did not halt with its job's golden output — the
/// experiment must exercise both admission backpressure and clean
/// completion.
pub fn async_wfq_report(tenants: usize, threads: usize) -> AsyncWfqReport {
    let report = wfq_run(tenants, threads);
    if threads != 1 {
        let serial = wfq_run(tenants, 1);
        assert_eq!(
            (&serial.stats, &serial.classes, serial.digest),
            (&report.stats, &report.classes, report.digest),
            "async driver results depend on the host thread count"
        );
    }
    report
}

/// One drive of [`async_wfq_report`]'s workload.
fn wfq_run(tenants: usize, threads: usize) -> AsyncWfqReport {
    assert!(
        tenants >= 20,
        "the 70/20/10 split needs at least 20 tenants"
    );
    let mut drive = WfqDrive::new(tenants);
    let mut fleet = drive.start(drive.config(threads));

    // Drive the clock; feed the closed loop as its jobs complete.
    let mut records = Vec::new();
    loop {
        fleet.tick();
        for r in fleet.drain_finished() {
            if let Some(job) = drive.next_round(r.tenant.0) {
                let id = fleet.submit(wfq_spec(&job)).unwrap_or_else(|e| {
                    panic!("closed-loop batch tenant is active and under quota: {e:?}")
                });
                drive.expected.insert(id, job.expected);
            }
            records.push(r);
        }
        if fleet.queued_jobs() == 0 && fleet.pending_arrivals() == 0 {
            break;
        }
    }
    let rejections = fleet.drain_rejected();
    let stats = fleet.stats();
    assert_eq!(
        stats.rejected,
        drive.mix.expected_rejections() as u64,
        "the best-effort burst must trip admission control by exactly its excess"
    );
    for r in &records {
        assert!(r.outcome.is_halted(), "{}: {:?}", r.job, r.outcome);
        assert_eq!(
            Some(&r.out_words),
            drive.expected.get(&r.job),
            "{}: wrong output",
            r.job
        );
    }

    AsyncWfqReport {
        tenants,
        threads,
        stats,
        classes: drive.class_rows(&records, &rejections),
        digest: sofia_fleet::records_digest(&records, &rejections),
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
        let rows = join_rows(points.iter().map(|p| {
            format!(
                "      {{ \"workers\": {}, \"makespan_cycles\": {}, \"ticks\": {}, \
                 \"total_cycles\": {}, \"jobs_per_sec\": {:.3} }}",
                p.workers, p.makespan_cycles, p.ticks, p.total_cycles, p.jobs_per_sec,
            )
        }));
        format!("[\n{rows}    ]")
    };
    let class_rows = join_rows(wfq.classes.iter().map(|c| {
        format!(
            "      {{ \"class\": {}, \"label\": \"{}\", \"weight\": {}, \"tenants\": {}, \
             \"finished\": {}, \"rejected\": {}, \"p50_sojourn_cycles\": {}, \
             \"p99_sojourn_cycles\": {} }}",
            c.class,
            c.label,
            c.weight,
            c.tenants,
            c.finished,
            c.rejected,
            c.p50_sojourn_cycles,
            c.p99_sojourn_cycles,
        )
    }));
    let s = wfq.stats;
    let async_wfq = format!(
        "{{\n    \"tenants\": {}, \"workers\": {}, \"slice_slots\": {},\n    \
         \"ticks\": {}, \"makespan_cycles\": {}, \"admitted\": {}, \"finished\": {}, \
         \"rejected\": {},\n    \"parks\": {}, \"revives\": {}, \
         \"peak_resident_machines\": {},\n    \"digest\": \"{:#018x}\",\n    \
         \"classes\": [\n{}    ]\n  }}",
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
use sofia_backends::{BackendConfig, FipacFetch, SpongeFetch};
use sofia_core::machine::Machine;
use sofia_cpu::fetch::FetchUnit;
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

/// Runs any machine — SOFIA, sponge or FIPAC — and returns its engine
/// counters. A clean run passes its golden output as `expected` and must
/// halt with it; a tampered run passes `None` and must stop on a
/// violation.
///
/// # Panics
///
/// Panics on a trap or an outcome of the wrong kind.
fn run_backend<F: FetchUnit>(
    backend: &str,
    mut m: Machine<F>,
    expected: Option<&[u32]>,
) -> ExecStats {
    let outcome = m
        .run(FUEL)
        .unwrap_or_else(|e| panic!("{backend} run traps: {e:?}"));
    match expected {
        Some(out) => {
            assert!(outcome.is_halted(), "{backend} outcome {outcome:?}");
            assert_eq!(m.mem().mmio.out_words, out, "{backend} output mismatch");
        }
        None => assert!(
            outcome.violation().is_some(),
            "{backend} missed the tamper: {outcome:?}"
        ),
    }
    m.exec_stats()
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
    let point = |backend, cycles: u64| BackendCyclePoint {
        backend,
        cycles,
        overhead_pct: (cycles as f64 / vanilla as f64 - 1.0) * 100.0,
    };
    let module = workload.module();
    let sponge = seal_sponge(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("workload seals for the sponge: {e:?}"));
    let fipac = install_fipac(&module, keys, Nonce::new(1))
        .unwrap_or_else(|e| panic!("workload installs for FIPAC: {e:?}"));
    let expected = Some(&workload.expected[..]);
    let config = BackendConfig::default();
    let sponge = run_backend(
        "sponge",
        SpongeFetch::machine(&sponge, keys, &config),
        expected,
    );
    let fipac = run_backend(
        "fipac",
        FipacFetch::machine(&fipac, keys, &config),
        expected,
    );
    let points = vec![
        point("sofia", row.sofia_cycles),
        point("sponge", sponge.cycles),
        point("fipac", fipac.cycles),
    ];
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
    let point = |backend, instret: u64| DetectionLatencyPoint {
        backend,
        latency_instructions: instret.saturating_sub(k as u64),
    };

    // SOFIA's stored layout is block-structured: the word holding linear
    // instruction k sits after the two MAC words of its block.
    let image = Transformer::new(keys.clone())
        .transform(&module)
        .unwrap_or_else(|e| panic!("sled victim transforms: {e:?}"));
    let block_words = image.format.block_words();
    let per_block = block_words - 2;
    let stored = (k / per_block) * block_words + 2 + (k % per_block);
    let mut sofia = SofiaMachine::new(&image, keys);
    sofia.mem_mut().rom_mut()[stored] = evil;

    let config = BackendConfig::default();
    let mut sponge = SpongeFetch::machine(
        &seal_sponge(&module, keys, Nonce::new(1))
            .unwrap_or_else(|e| panic!("sled victim seals: {e:?}")),
        keys,
        &config,
    );
    sponge.mem_mut().rom_mut()[k] = evil;
    let mut fipac = FipacFetch::machine(
        &install_fipac(&module, keys, Nonce::new(1))
            .unwrap_or_else(|e| panic!("sled victim installs: {e:?}")),
        keys,
        &config,
    );
    fipac.mem_mut().rom_mut()[k] = evil;
    vec![
        point("sofia", run_backend("sofia", sofia, None).instret),
        point("sponge", run_backend("sponge", sponge, None).instret),
        point("fipac", run_backend("fipac", fipac, None).instret),
    ]
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
    out.push_str(&join_rows(report.overhead.iter().map(|p| {
        format!(
            "    {{ \"backend\": \"{}\", \"cycles\": {}, \"cycle_overhead_pct\": {:.1} }}",
            p.backend, p.cycles, p.overhead_pct,
        )
    })));
    out.push_str("  ],\n  \"hardware\": [\n");
    out.push_str(&join_rows(report.hardware.iter().map(|p| {
        format!(
            "    {{ \"backend\": \"{}\", \"slices\": {:.0}, \"clock_mhz\": {:.1}, \
             \"area_overhead_pct\": {:.1} }}",
            p.backend, p.slices, p.clock_mhz, p.area_overhead_pct,
        )
    })));
    out.push_str(&format!(
        "  ],\n  \"detection_latency\": {{ \"sled_words\": {}, \"tamper_word\": {}, \
         \"points\": [\n",
        BACKENDS_SLED_WORDS, BACKENDS_TAMPER_WORD
    ));
    out.push_str(&join_rows(report.detection.iter().map(|p| {
        format!(
            "    {{ \"backend\": \"{}\", \"latency_instructions\": {} }}",
            p.backend, p.latency_instructions,
        )
    })));
    out.push_str("  ] },\n  \"attack_matrix\": [\n");
    out.push_str(&join_rows(report.matrix.iter().map(|row| {
        format!(
            "    {{ \"attack\": \"{}\", \"sofia\": \"{}\", \"sponge\": \"{}\", \
             \"fipac\": \"{}\" }}",
            row.attack,
            row.sofia.label(),
            row.sponge.label(),
            row.fipac.label(),
        )
    })));
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Host throughput (`BENCH_host.json`)
//
// Unlike every other trajectory file in this repo, these numbers are
// **wall-clock**: how fast *this host* seals and simulates. They are
// informational — no CI thresholds — but they are the first record of
// wins that land on real silicon (the bitsliced cipher, the borrowed
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

/// The median, minimum and maximum of a set of repeated measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The middle sample (the mean of the middle two for an even count).
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
}

/// Reduces `samples` to their [`Spread`], sorting them in place.
///
/// # Panics
///
/// Panics on an empty slice.
fn spread(samples: &mut [f64]) -> Spread {
    assert!(!samples.is_empty(), "a spread needs at least one sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Spread {
        median: (samples[(n - 1) / 2] + samples[n / 2]) / 2.0,
        min: samples[0],
        max: samples[n - 1],
    }
}

impl Spread {
    /// `work` per unit of this spread of seconds: the fastest run gives
    /// the largest rate.
    fn rate(self, work: f64) -> Spread {
        Spread {
            median: work / self.median,
            min: work / self.max,
            max: work / self.min,
        }
    }

    /// The JSON members `"key": median, "key_min": min, "key_max": max`
    /// at `prec` decimals.
    fn json(self, key: &str, prec: usize) -> String {
        format!(
            "\"{key}\": {:.prec$}, \"{key}_min\": {:.prec$}, \"{key}_max\": {:.prec$}",
            self.median, self.min, self.max
        )
    }
}

/// Wall-clock seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The [`Spread`] of `reps` samples (at least one) of `sample`.
fn sampled(reps: u32, mut sample: impl FnMut() -> f64) -> Spread {
    let mut samples: Vec<f64> = (0..reps.max(1)).map(|_| sample()).collect();
    spread(&mut samples)
}

/// Scalar-vs-bitsliced keystream generation rates (blocks/sec).
#[derive(Clone, Debug)]
pub struct KeystreamRates {
    /// Counters ciphered per timed sweep.
    pub blocks: usize,
    /// One [`sofia_crypto::ctr::pad`] call per counter.
    pub scalar_blocks_per_sec: Spread,
    /// One [`sofia_crypto::ctr::pads`] sweep for the whole batch, eight
    /// counters per bitsliced pass.
    pub bitsliced_blocks_per_sec: Spread,
    /// The cipher cost of one uncached block refill.
    pub refill: RefillCipherCost,
}

/// The cipher work of one uncached refill of a default execution block:
/// the CTR sweep over its counters and the CBC-MAC chain over its
/// instructions, in host ns per call — and, beside it, what the host pays
/// instead when the refill memo serves the block.
#[derive(Clone, Debug)]
pub struct RefillCipherCost {
    /// Counters per sweep (the words one block fetch decrypts).
    pub counters: usize,
    /// ns per [`sofia_crypto::ctr::pads`] call over those counters.
    pub pads_ns: Spread,
    /// Dependent cipher blocks per MAC chain.
    pub mac_blocks: usize,
    /// ns per [`sofia_crypto::mac::mac_words`] chain.
    pub mac_ns: Spread,
    /// ns per [`sofia_core::memo::RefillMemo::get_or_refill`] hit on one
    /// execution block (its ciphertext re-read and compared).
    pub memo_hit_ns: Spread,
}

impl KeystreamRates {
    /// Median bitsliced throughput relative to the median scalar one.
    pub fn speedup(&self) -> f64 {
        self.bitsliced_blocks_per_sec.median / self.scalar_blocks_per_sec.median
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
    pub mips: Spread,
}

/// Secure-installation rates: the full install and its two halves.
#[derive(Clone, Debug)]
pub struct SealRates {
    /// Workload label.
    pub workload: String,
    /// Full secure installations per second ([`Transformer::transform`]).
    pub seals_per_sec: Spread,
    /// Key-free plans per second ([`SealPlan::new`]).
    pub plans_per_sec: Spread,
    /// Keyed seals of one plan per second ([`SealPlan::seal`]): what a
    /// seal-cache miss of an already planned source costs.
    pub keyed_seals_per_sec: Spread,
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
    pub jobs_per_sec: Spread,
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

/// Measures scalar vs bitsliced keystream generation over `blocks`
/// distinct control-flow counters, `reps` sweeps each.
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
    let sweep = |f: &mut dyn FnMut()| sampled(reps, || secs(&mut *f)).rate(blocks as f64);
    let scalar = sweep(&mut || {
        let mut acc = 0u32;
        for &c in &counters {
            acc ^= sofia_crypto::ctr::pad(&cipher, c);
        }
        std::hint::black_box(acc);
    });
    let bitsliced = sweep(&mut || {
        std::hint::black_box(sofia_crypto::ctr::pads(&cipher, &counters));
    });
    KeystreamRates {
        blocks,
        scalar_blocks_per_sec: scalar,
        bitsliced_blocks_per_sec: bitsliced,
        refill: host_refill_cipher(reps),
    }
}

/// Measures [`RefillCipherCost`] on the counters and instruction words
/// of one default execution block, `reps` timed loops each.
///
/// # Panics
///
/// Panics if the memo row's sealed entry block fails to verify.
fn host_refill_cipher(reps: u32) -> RefillCipherCost {
    use sofia_core::memo::RefillMemo;
    use sofia_core::vcache::CachedBlock;
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
    // The memo row: one sealed entry block, verified once and then
    // served from the memo over its sealed edge.
    let image = sofia_workloads::kernels::fib(10).secure_image(&KeySet::from_seed(0x4057));
    let rom = |addr: u32| {
        image
            .ctext
            .get(((addr - image.text_base) / 4) as usize)
            .copied()
    };
    let edge = (sofia_transform::RESET_PREV_PC, image.entry);
    let refill = || {
        sofia_core::fetch::fetch_block(
            &mut |addr| rom(addr),
            &keys,
            image.nonce,
            &image.format,
            image.text_base,
            image.ctext.len() as u32,
            edge.1,
            edge.0,
            true,
        )
        .map(|block| {
            let last = block.last_word_addr(&image.format);
            let line =
                CachedBlock::new(block.base, last, block.path, block.words_fetched, [].into());
            (line, block)
        })
    };
    let mut memo = RefillMemo::new(image.format);
    if let Err(v) = memo.get_or_refill(edge, rom, refill) {
        panic!("the sealed entry block verifies: {v:?}");
    }
    let per_call = |f: &mut dyn FnMut()| {
        sampled(reps, || {
            secs(|| (0..CALLS).for_each(|_| f())) * 1e9 / CALLS as f64
        })
    };
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
        memo_hit_ns: per_call(&mut || {
            std::hint::black_box(
                memo.get_or_refill(std::hint::black_box(edge), rom, refill)
                    .is_ok(),
            );
        }),
    }
}

/// Measures host MIPS of the three machines (vanilla, SOFIA uncached,
/// SOFIA cached at the trajectory geometry) on `fib(5000)`, `reps` runs
/// each.
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
    let sofia = |config: &SofiaConfig| {
        let mut m = SofiaMachine::with_config(&image, &keys, config);
        assert!(m
            .run(FUEL)
            .unwrap_or_else(|e| panic!("sofia traps: {e:?}"))
            .is_halted());
        m.stats().exec.instret
    };
    let runs: [(&str, &dyn Fn() -> u64); 3] = [
        ("vanilla", &|| {
            let mut m = VanillaMachine::new(&assembly);
            assert!(m
                .run(FUEL)
                .unwrap_or_else(|e| panic!("vanilla traps: {e:?}"))
                .is_halted());
            m.stats().instret
        }),
        ("sofia-uncached", &|| sofia(&SofiaConfig::default())),
        ("sofia-cached", &|| sofia(&cached)),
    ];
    runs.iter()
        .map(|&(machine, run)| {
            let mut instret = 0;
            let secs = sampled(reps, || secs(|| instret = run()));
            HostMipsRow {
                machine: machine.to_string(),
                instret,
                mips: secs.rate(instret as f64 / 1e6),
            }
        })
        .collect()
}

/// Measures, on ADPCM, `reps` samples each of: the full secure
/// installation (lower → CFG → pack → trees → resolve → MAC → CTR), its
/// key-free plan alone, and the keyed seal of that plan alone.
///
/// # Panics
///
/// Panics if the workload fails to transform.
pub fn host_seal_rates(reps: u32) -> SealRates {
    let keys = KeySet::from_seed(0x5EA1);
    let module = sofia_workloads::adpcm::workload(600).module();
    let transformer = Transformer::new(keys.clone());
    let plan = || {
        SealPlan::new(&module, BlockFormat::default(), DEFAULT_RAM_SIZE)
            .unwrap_or_else(|e| panic!("adpcm plans: {e:?}"))
    };
    let full = sampled(reps, || {
        secs(|| {
            std::hint::black_box(
                transformer
                    .transform(&module)
                    .unwrap_or_else(|e| panic!("adpcm seals: {e:?}")),
            );
        })
    });
    let planning = sampled(reps, || secs(|| drop(std::hint::black_box(plan()))));
    let planned = plan();
    let keyed = sampled(reps, || {
        secs(|| drop(std::hint::black_box(planned.seal(&keys, Nonce::new(1)))))
    });
    SealRates {
        workload: "adpcm600".to_string(),
        seals_per_sec: full.rate(1.0),
        plans_per_sec: planning.rate(1.0),
        keyed_seals_per_sec: keyed.rate(1.0),
    }
}

/// Measures host wall-clock jobs/sec of the [`fleet_mix`] batch at each
/// worker count (fuel-sliced mode, so every tick is a wave of short
/// quanta), `reps` batches per point (each rep builds a fresh
/// [`mix_fleet`]; only `run_batch` is timed). Wall-clock scaling needs
/// real cores; on a single-core host the points simply document that.
///
/// # Panics
///
/// Panics if any job of the mix fails to halt.
pub fn host_fleet_points(workers_list: &[usize], reps: u32) -> Vec<FleetHostPoint> {
    let (_, fuel_sliced) = FLEET_BENCH_MODES[1];
    workers_list
        .iter()
        .map(|&workers| {
            let mut jobs = 0;
            let secs = sampled(reps, || {
                let mut fleet = mix_fleet(workers, fuel_sliced);
                secs(|| jobs = run_mix(&mut fleet))
            });
            FleetHostPoint {
                workers,
                jobs,
                jobs_per_sec: secs.rate(jobs as f64),
            }
        })
        .collect()
}

/// Repetitions of every timed section when measuring for the record
/// (`repro -- host`, `cargo bench --bench host`).
pub const HOST_BENCH_REPS: u32 = 5;

/// Runs the whole host-throughput experiment, `reps` timed runs per
/// section: [`HOST_BENCH_REPS`] for the record, 1 for the smoke run
/// under `cargo test`. The batch fleet rows sweep 1, 2, 4 and 8 workers.
pub fn host_report(reps: u32) -> HostReport {
    HostReport {
        box_shape: box_shape(),
        keystream: host_keystream(1 << 14, reps),
        mips: host_mips(reps),
        seal: host_seal_rates(reps),
        fleet: host_fleet_points(&[1, 2, 4, 8], reps),
    }
}

/// Serialises a [`HostReport`] to the `BENCH_host.json` schema. Each
/// timed key holds the median, with `_min`/`_max` siblings. The
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
    let r = &k.refill;
    out.push_str(&format!(
        "  \"keystream\": {{ \"blocks\": {}, {}, {}, \"bitsliced_speedup\": {:.2}, \
         \"refill\": {{ \"counters\": {}, {}, \"mac_blocks\": {}, {}, {} }} }},\n",
        k.blocks,
        k.scalar_blocks_per_sec.json("scalar_blocks_per_sec", 0),
        k.bitsliced_blocks_per_sec
            .json("bitsliced_blocks_per_sec", 0),
        k.speedup(),
        r.counters,
        r.pads_ns.json("pads_ns", 1),
        r.mac_blocks,
        r.mac_ns.json("mac_ns", 1),
        r.memo_hit_ns.json("memo_hit_ns", 1),
    ));
    out.push_str("  \"machine_mips\": [\n");
    out.push_str(&join_rows(report.mips.iter().map(|r| {
        format!(
            "    {{ \"machine\": \"{}\", \"instret\": {}, {} }}",
            r.machine,
            r.instret,
            r.mips.json("mips", 2),
        )
    })));
    out.push_str("  ],\n");
    let s = &report.seal;
    out.push_str(&format!(
        "  \"seal\": {{ \"workload\": \"{}\", {}, {}, {} }},\n",
        s.workload,
        s.seals_per_sec.json("seals_per_sec", 2),
        s.plans_per_sec.json("plans_per_sec", 2),
        s.keyed_seals_per_sec.json("keyed_seals_per_sec", 2)
    ));
    out.push_str("  \"fleet_host\": [\n");
    out.push_str(&join_rows(report.fleet.iter().map(|p| {
        format!(
            "    {{ \"workers\": {}, \"jobs\": {}, {} }}",
            p.workers,
            p.jobs,
            p.jobs_per_sec.json("jobs_per_sec", 2),
        )
    })));
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Chaos & resilience (`BENCH_chaos.json`)
//
// The WFQ serving mix (`sofia_workloads::serving`, seed 0) re-run under
// seeded host-fault injection
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
/// Honest tenants of the chaos workload: the [`serving::Mix`] that
/// [`async_wfq_report`] runs, at 200 tenants.
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
    pub classes: Vec<ClassRow>,
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
    classes: Vec<ClassRow>,
    digest: u64,
}

/// Drives the chaos workload once: the [`serving::Mix`] at seed 0
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
        AsyncConfig, ChaosPlan, FaultRate, ResilienceConfig, ResilienceEvent, Sabotage, Seam,
    };
    let tenants = CHAOS_BENCH_TENANTS;
    let mut drive = WfqDrive::new(tenants);
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
    // The serving bench's tenants and arrivals, so the zero-chaos point
    // is the familiar serving workload.
    let mut fleet = drive.start(AsyncConfig {
        chaos: plan.clone(),
        resilience,
        ..drive.config(threads)
    });
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

    let horizon = drive.mix.horizon();
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
                    let spec = JobSpec::new(TenantId(id), serving::loop_src(24), 150_000)
                        .with_sabotage(Sabotage::FlipRomWord { word: 9, mask: 1 });
                    fleet.submit_at(spec, now + 1);
                }
            }
        }
        fleet.tick();
        for r in fleet.drain_finished() {
            if let Some(job) = drive.next_round(r.tenant.0) {
                fleet.submit_at(wfq_spec(&job), fleet.now());
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
    ChaosRun {
        stats: fleet.stats(),
        res,
        classes: drive.class_rows(&records, &rejections),
        digest: sofia_fleet::records_digest(&records, &rejections),
        records,
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
        points.push(ChaosPoint {
            rate_ppm,
            stats: run.stats,
            res,
            accepted,
            served,
            availability,
            deadline_miss_rate,
            mttr_ticks,
            classes: run.classes,
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
    out.push_str(&join_rows(report.points.iter().map(|p| {
        let s = p.stats;
        let r = p.res;
        let classes = join_rows(p.classes.iter().map(|c| {
            format!(
                "        {{ \"class\": {}, \"label\": \"{}\", \"finished\": {}, \
                 \"p50_sojourn_cycles\": {}, \"p99_sojourn_cycles\": {} }}",
                c.class, c.label, c.finished, c.p50_sojourn_cycles, c.p99_sojourn_cycles,
            )
        }));
        format!(
            "    {{ \"rate_ppm\": {}, \"availability\": {:.4}, \"deadline_miss_rate\": {:.4},\n      \
             \"served\": {}, \"accepted\": {}, \"rejected\": {}, \"ticks\": {}, \
             \"makespan_cycles\": {},\n      \
             \"faults_injected\": {}, \"seal_faults\": {}, \"snapshot_corruptions\": {}, \
             \"worker_stalls\": {}, \"worker_panics_injected\": {}, \"storm_bursts\": {},\n      \
             \"retries_scheduled\": {}, \"retries_exhausted\": {}, \"deadline_shed\": {}, \
             \"deadline_late\": {}, \"load_shed\": {},\n      \
             \"breaker_opens\": {}, \"breaker_closes\": {}, \"breaker_open_ticks\": {}, \
             \"mttr_ticks\": {:.1},\n      \
             \"digest\": \"{:#018x}\",\n      \"classes\": [\n{}      ] }}",
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
            classes,
        )
    })));
    out.push_str("  ]\n}\n");
    out
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
    let digest = sofia_transform::decode::fnv64(
        rows.iter()
            .map(|row| format!("{row:?}"))
            .collect::<String>()
            .as_bytes(),
    );
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
    out.push_str(&join_rows(report.rows.iter().map(|row| {
        let p = &row.probe;
        let forgery = join_rows(row.forgery.iter().map(|f| {
            let c = f.campaign;
            format!(
                "        {{ \"mac_bits\": {}, \"trials\": {}, \"completed\": {}, \
                 \"accepted\": {}, \"measured_rate\": {:.6}, \"expected_probes\": {:.3e}, \
                 \"expected_wall_ticks\": {:.3e} }}",
                c.mac_bits,
                c.trials,
                c.completed,
                c.accepted,
                c.measured_rate(),
                f.work.probes,
                f.work.wall_ticks,
            )
        }));
        let migration = join_rows(row.migration.rows.iter().map(|m| {
            format!(
                "        {{ \"variant\": \"{}\", \"outcome\": \"{}\", \"violations\": {}, \
                 \"retried\": {}, \"tenant_after\": \"{}\" }}",
                m.variant.label(),
                m.outcome.label(),
                m.violations,
                m.retried,
                tenant_state_json(m.tenant_after),
            )
        }));
        let w = &row.expected_work_64;
        format!(
            "    {{ \"policy\": \"{}\",\n      \"probing\": {{ \"probes_submitted\": {}, \
             \"probes_admitted\": {}, \"probes_refused\": {}, \"detections\": {}, \
             \"successes\": {},\n        \"oracle_queries\": {}, \"attacker_cycles\": {}, \
             \"releases\": {}, \"identities_burned\": {}, \"wall_ticks\": {},\n        \
             \"honest_submitted\": {}, \"honest_finished\": {}, \"honest_clean\": {}, \
             \"bystander_availability\": {:.4}, \"bystander_bit_identical\": {} }},\n      \
             \"oracle_profile\": {{ \"queries_per_probe\": {}, \"ticks_per_probe\": {}, \
             \"cycles_per_probe\": {} }},\n      \
             \"forgery\": [\n{}      ],\n      \"migration\": [\n{}      ],\n      \
             \"expected_work_64\": {{ \"oracle_queries\": {:.3e}, \
             \"probes\": {:.3e}, \"identities\": {:.3e}, \"wall_ticks\": {:.3e} }} }}",
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
            row.profile.queries_per_probe,
            row.profile.ticks_per_probe,
            row.profile.cycles_per_probe,
            forgery,
            migration,
            w.oracle_queries,
            w.probes,
            w.identities,
            w.wall_ticks,
        )
    })));
    out.push_str(&format!(
        "  ],\n  \"digest\": \"{:#018x}\"\n}}\n",
        report.digest
    ));
    out
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
        let sp = |median, min, max| Spread { median, min, max };
        let report = HostReport {
            box_shape: BoxShape {
                logical_cores: 1,
                arch: "x86_64".into(),
                os: "linux".into(),
                target: "x86_64-unknown-linux-gnu".into(),
            },
            keystream: KeystreamRates {
                blocks: 16,
                scalar_blocks_per_sec: sp(1e6, 0.9e6, 1.1e6),
                bitsliced_blocks_per_sec: sp(8e6, 7e6, 9e6),
                refill: RefillCipherCost {
                    counters: 8,
                    pads_ns: sp(212.5, 200.0, 230.0),
                    mac_blocks: 3,
                    mac_ns: sp(230.0, 220.0, 250.0),
                    memo_hit_ns: sp(40.0, 35.0, 50.0),
                },
            },
            mips: vec![HostMipsRow {
                machine: "vanilla".into(),
                instret: 1000,
                mips: sp(12.5, 12.0, 13.0),
            }],
            seal: SealRates {
                workload: "adpcm600".into(),
                seals_per_sec: sp(25.0, 20.0, 30.0),
                plans_per_sec: sp(40.0, 35.0, 45.0),
                keyed_seals_per_sec: sp(90.0, 80.0, 95.0),
            },
            fleet: vec![FleetHostPoint {
                workers: 4,
                jobs: 24,
                jobs_per_sec: sp(100.0, 90.0, 110.0),
            }],
        };
        assert!((report.keystream.speedup() - 8.0).abs() < 1e-9);
        let json = host_json(&report);
        for field in [
            "\"bench\": \"host\"",
            "\"profile\"",
            "\"box\": { \"logical_cores\": 1, \"arch\": \"x86_64\"",
            "\"keystream\": { \"blocks\": 16, \"scalar_blocks_per_sec\": 1000000, \
             \"scalar_blocks_per_sec_min\": 900000, \"scalar_blocks_per_sec_max\": 1100000, \
             \"bitsliced_blocks_per_sec\": 8000000, \"bitsliced_blocks_per_sec_min\": 7000000, \
             \"bitsliced_blocks_per_sec_max\": 9000000, \"bitsliced_speedup\": 8.00, \
             \"refill\": { \"counters\": 8, \"pads_ns\": 212.5, \"pads_ns_min\": 200.0, \
             \"pads_ns_max\": 230.0, \"mac_blocks\": 3, \"mac_ns\": 230.0, \"mac_ns_min\": 220.0, \
             \"mac_ns_max\": 250.0, \"memo_hit_ns\": 40.0, \"memo_hit_ns_min\": 35.0, \
             \"memo_hit_ns_max\": 50.0 } },\n",
            "\"machine_mips\"",
            "\"mips\": 12.50, \"mips_min\": 12.00, \"mips_max\": 13.00",
            "\"seal\": { \"workload\": \"adpcm600\", \"seals_per_sec\": 25.00, \
             \"seals_per_sec_min\": 20.00, \"seals_per_sec_max\": 30.00, \
             \"plans_per_sec\": 40.00, \"plans_per_sec_min\": 35.00, \"plans_per_sec_max\": 45.00, \
             \"keyed_seals_per_sec\": 90.00, \"keyed_seals_per_sec_min\": 80.00, \
             \"keyed_seals_per_sec_max\": 95.00 }",
            "\"fleet_host\"",
            "\"workers\": 4, \"jobs\": 24, \"jobs_per_sec\": 100.00, \
             \"jobs_per_sec_min\": 90.00, \"jobs_per_sec_max\": 110.00",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        for gone in ["\"widths\"", "\"lanes"] {
            assert!(!json.contains(gone), "stale {gone} in {json}");
        }
    }

    #[test]
    fn spread_takes_the_middle_and_the_extremes() {
        let sp = |median, min, max| Spread { median, min, max };
        assert_eq!(spread(&mut [5.0]), sp(5.0, 5.0, 5.0));
        assert_eq!(spread(&mut [3.0, 1.0, 2.0]), sp(2.0, 1.0, 3.0));
        assert_eq!(spread(&mut [4.0, 1.0, 3.0, 2.0]), sp(2.5, 1.0, 4.0));
        // Rates invert seconds: the fastest run is the largest rate.
        assert_eq!(sp(2.0, 1.0, 4.0).rate(8.0), sp(4.0, 2.0, 8.0));
    }

    #[test]
    fn join_rows_commas_all_but_the_last_row() {
        let rows = |n: usize| join_rows((0..n).map(|i| format!("  {{ {i} }}")));
        assert_eq!(rows(0), "");
        assert_eq!(rows(1), "  { 0 }\n");
        assert_eq!(rows(3), "  { 0 },\n  { 1 },\n  { 2 }\n");
    }

    #[test]
    fn async_wfq_workload_is_thread_invariant_and_backpressured() {
        // A scaled-down point (the bench emits the 1k-tenant one): the
        // report asserts itself bit-identical to a serial run, rejections
        // must flow, and the heavy class must see lower tail latency than
        // the light one.
        let report = async_wfq_report(60, 4);
        assert_eq!(report.stats.rejected, 3);
        // The mix's digest at 60 tenants, pinned; the report equals the
        // serial run's, so this is `async_wfq_report(60, 1).digest` too.
        assert_eq!(report.digest, 0xdc25_4f5e_9403_9948);
        assert_eq!(report.classes.len(), 3);
        let interactive = &report.classes[0];
        let best_effort = &report.classes[2];
        assert!(interactive.rejected == 0, "interactive class was capped");
        assert!(best_effort.rejected > 0, "burst class was never capped");
        assert!(
            interactive.p99_sojourn_cycles < best_effort.p99_sojourn_cycles,
            "weight 8 class no faster than weight 1: {} vs {}",
            interactive.p99_sojourn_cycles,
            best_effort.p99_sojourn_cycles
        );
        let json = fleet_json(&[], &[], &report);
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
