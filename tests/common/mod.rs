//! The shared test harness, compiled into each suite that declares
//! `mod common;` (so helpers a given suite does not use are expected).
//!
//! Two engines live here:
//!
//! * the differential engine: runs one program under a family of SOFIA
//!   configurations (verified-block cache on/off across geometries, SI
//!   on/off) or on another backend, and reduces each run to its
//!   [`ArchResult`] — the executable form of the claim that the fetch
//!   path is architecturally invisible;
//! * the fleet harness: one seeded job [`Mix`], one serial reference,
//!   the record views the equalities compare ([`unpriced`], [`arch`])
//!   and one driver per fleet type. Every fleet suite and
//!   `equalities.rs` take their mixes and views from it.
#![allow(dead_code)]

use sofia::crypto::KeySet;
use sofia::prelude::*;

/// Fuel for differential runs (generated programs are small; workloads
/// match `sofia_workloads`' own verification fuel).
pub const FUEL: u64 = 200_000_000;

/// Everything the architecture lets software (or an attached observer)
/// see about a run: how it ended, what it wrote, how many instructions
/// retired, and which violations were reported. Cycle counts are
/// deliberately absent — timing is the one thing the cache may change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchResult {
    /// `Debug` form of the run outcome, or `trap: …` for architectural
    /// traps.
    pub outcome: String,
    /// Words emitted on the MMIO word port.
    pub mmio: Vec<u32>,
    /// Words written to the actuator port.
    pub actuators: Vec<u32>,
    /// Retired instruction slots.
    pub instret: u64,
    /// `Debug` form of every violation reported.
    pub violations: Vec<String>,
}

/// Runs `image` under `config` and reduces the run to its [`ArchResult`].
pub fn run_config(image: &SecureImage, keys: &KeySet, config: &SofiaConfig) -> ArchResult {
    reduce(SofiaMachine::with_config(image, keys, config), FUEL).arch
}

/// The cache geometries the differential suite sweeps: disabled (the
/// reference), a direct-mapped toy, a small set-associative cache, and a
/// large one — plus a tiny thrashing cache that exercises eviction.
pub fn geometries() -> Vec<(&'static str, VCacheConfig)> {
    vec![
        ("vcache-off", VCacheConfig::default()),
        ("vcache-1x1", VCacheConfig::enabled(1, 1)),
        ("vcache-8x2", VCacheConfig::enabled(8, 2)),
        ("vcache-64x4", VCacheConfig::enabled(64, 4)),
        ("vcache-256x8", VCacheConfig::enabled(256, 8)),
    ]
}

/// The full configuration family for one image: every cache geometry
/// with SI enforced, plus the CFI-only ablation with and without the
/// cache (the cache must be invisible there too).
pub fn config_family() -> Vec<(String, SofiaConfig)> {
    let mut family: Vec<(String, SofiaConfig)> = geometries()
        .into_iter()
        .map(|(label, vcache)| {
            (
                label.to_string(),
                SofiaConfig {
                    vcache,
                    ..Default::default()
                },
            )
        })
        .collect();
    for (label, vcache) in [
        ("si-off", VCacheConfig::default()),
        ("si-off+vcache-64x4", VCacheConfig::enabled(64, 4)),
    ] {
        family.push((
            label.to_string(),
            SofiaConfig {
                enforce_si: false,
                vcache,
                ..Default::default()
            },
        ));
    }
    family
}

/// Runs `image` under every configuration in `family` and asserts all
/// [`ArchResult`]s equal the first (the reference). `what` labels the
/// program in failure messages.
pub fn assert_invisible_across(
    what: &str,
    image: &SecureImage,
    keys: &KeySet,
    family: &[(String, SofiaConfig)],
) {
    let (ref_label, ref_config) = &family[0];
    let reference = run_config(image, keys, ref_config);
    for (label, config) in &family[1..] {
        let got = run_config(image, keys, config);
        assert_eq!(
            got, reference,
            "{what}: architectural divergence between {ref_label} and {label}"
        );
    }
}

/// The two fetch-path configurations every *tamper* scenario must
/// survive — a deliberately small pair (the 64-case fault-injection
/// properties re-run every scenario per config, so the full
/// [`geometries`] sweep would multiply their runtime for no extra
/// security signal; the cold-tamper parity test covers the geometries).
pub fn tamper_configs() -> [(&'static str, SofiaConfig); 2] {
    [
        ("vcache-off", SofiaConfig::default()),
        (
            "vcache-on",
            SofiaConfig {
                vcache: VCacheConfig::enabled(16, 4),
                ..Default::default()
            },
        ),
    ]
}

/// [`assert_invisible_across`] over the default [`config_family`],
/// transforming `src` first.
pub fn assert_invisible(what: &str, src: &str, keys: &KeySet) {
    let module = asm::parse(src).unwrap_or_else(|e| panic!("{what}: parse: {e:?}"));
    let image = Transformer::new(keys.clone())
        .transform(&module)
        .unwrap_or_else(|e| panic!("{what}: transform: {e:?}"));
    assert_invisible_across(what, &image, keys, &config_family());
}

// ---------------------------------------------------------------------
// Cross-backend harness: the same programs, tampers and attack rows run
// against SOFIA and the two alternative backends (`sofia-backends`),
// reduced to the same string-typed [`ArchResult`] so one assertion
// vocabulary covers all three.
// ---------------------------------------------------------------------

use sofia::cpu::FetchUnit;
use sofia::crypto::Nonce;

/// The three integrity schemes under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The paper's machine: MAC-then-Encrypt blocks, immediate detection.
    Sofia,
    /// Sponge-based CFP: implicit integrity via decrypt-absorb.
    Sponge,
    /// FIPAC-style keyed CFI state: deferred detection at check points.
    Fipac,
}

impl Backend {
    /// Every backend, in comparison order.
    pub const ALL: [Backend; 3] = [Backend::Sofia, Backend::Sponge, Backend::Fipac];

    /// Stable label for failure messages and reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sofia => "sofia",
            Backend::Sponge => "sponge",
            Backend::Fipac => "fipac",
        }
    }
}

/// Cycle counts alongside the architectural result, for the overhead
/// invariants (which, unlike [`ArchResult`], ARE backend-specific).
pub struct BackendRun {
    /// Architecturally visible results.
    pub arch: ArchResult,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Runs any machine and reduces the run; the three backends differ only
/// in the fetch unit, so one reduction serves all of them.
fn reduce<F: FetchUnit>(mut m: Machine<F>, fuel: u64) -> BackendRun {
    let outcome = match m.run(fuel) {
        Ok(o) => format!("{o:?}"),
        Err(t) => format!("trap: {t:?}"),
    };
    BackendRun {
        arch: ArchResult {
            outcome,
            mmio: m.mem().mmio.out_words.clone(),
            actuators: m.mem().mmio.actuator_writes.clone(),
            instret: m.exec_stats().instret,
            violations: m.violations().iter().map(|v| format!("{v:?}")).collect(),
        },
        cycles: m.exec_stats().cycles,
    }
}

/// Installs `src` for `backend`, applies `prepare` to the ROM words
/// (identity for clean runs; 1:1 word indexing holds for the sponge and
/// FIPAC images, while SOFIA's block layout gets the tamper at the same
/// *stored-word* index), runs, and reduces the run.
pub fn run_backend_with(
    backend: Backend,
    src: &str,
    keys: &KeySet,
    fuel: u64,
    prepare: &dyn Fn(&mut Vec<u32>),
) -> BackendRun {
    let module = asm::parse(src).unwrap_or_else(|e| panic!("{}: parse: {e:?}", backend.label()));
    match backend {
        Backend::Sofia => {
            let image = Transformer::new(keys.clone())
                .transform(&module)
                .unwrap_or_else(|e| panic!("sofia: transform: {e:?}"));
            let mut m = SofiaMachine::new(&image, keys);
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
        Backend::Sponge => {
            let image = seal_sponge(&module, keys, Nonce::new(1))
                .unwrap_or_else(|e| panic!("sponge: seal: {e:?}"));
            let mut m = SpongeFetch::machine(&image, keys, &BackendConfig::default());
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
        Backend::Fipac => {
            let image = install_fipac(&module, keys, Nonce::new(1))
                .unwrap_or_else(|e| panic!("fipac: install: {e:?}"));
            let mut m = FipacFetch::machine(&image, keys, &BackendConfig::default());
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
    }
}

/// Clean run of `src` on `backend`.
pub fn run_backend(backend: Backend, src: &str, keys: &KeySet, fuel: u64) -> BackendRun {
    run_backend_with(backend, src, keys, fuel, &|_| {})
}

// ---------------------------------------------------------------------
// The fleet harness.
// ---------------------------------------------------------------------

use std::collections::BTreeMap;
use std::fmt;

use proptest::prelude::*;
use sofia::core::SofiaStats;
use sofia::crypto::util::SplitMix64;
use sofia::fleet::{
    AsyncConfig, AsyncFleet, AsyncStats, ClassId, JobRecord, Rejection, ResilienceStats, Sabotage,
    TenantState, TenantStats,
};
use sofia::transform::cache::{ImageCacheStats, SealError};
use sofia::workloads::{gen::random_program, suite, Scale};

/// Fuel no job of a drawn mix exhausts; a starving job gets 1–2,000.
const AMPLE_FUEL: u64 = 20_000_000;

/// Sums `n` down to 1 and writes the total to the MMIO word port.
pub fn loop_job(n: u32) -> String {
    format!(
        "main: li t0, {n}
               li t1, 0
         loop: add t1, t1, t0
               subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t1, 0(a0)
               halt"
    )
}

/// A misaligned load: the trap escapes a verified block.
pub const TRAP_JOB: &str = "main: li a0, 3\n lw t0, 0(a0)\n halt";

/// Tenants (keys and service class each), their jobs in submission
/// order, and each job's arrival tick for async runs.
#[derive(Clone)]
pub struct Mix {
    /// Registered tenants; the batch fleet ignores the class.
    pub tenants: Vec<(TenantId, KeySet, ClassId)>,
    /// The jobs; job `i` gets `JobId(i)`.
    pub jobs: Vec<JobSpec>,
    /// Arrival tick per job; empty submits every job before the first
    /// tick.
    pub arrivals: Vec<u64>,
    /// What each job runs, for failure reports.
    kinds: Vec<String>,
}

impl Mix {
    /// A hand-picked mix: every tenant in class 0, every job up front.
    pub fn new(tenants: Vec<(TenantId, KeySet)>, jobs: Vec<JobSpec>) -> Mix {
        let tenants = tenants.into_iter().map(|(id, k)| (id, k, ClassId(0)));
        let (arrivals, kinds) = (vec![], vec![]);
        Mix {
            tenants: tenants.collect(),
            jobs,
            arrivals,
            kinds,
        }
    }

    /// The mix seeded by `seed`: 2–6 tenants in classes 0–2 and 4–12
    /// jobs, each a loop job, a `Scale::Test` kernel, a random program,
    /// a source that does not parse, a trapping program or an earlier
    /// job's program resubmitted with it; on ample or starving fuel,
    /// sometimes with a ROM-word flip or a worker panic, arriving at
    /// ticks 0–15.
    pub fn draw(seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: u64| rng.next_below(n);
        let tenants: Vec<_> = (1..=2 + below(5) as u32)
            .map(|id| {
                (
                    TenantId(id),
                    KeySet::from_seed(below(!0)),
                    ClassId(below(3) as u8),
                )
            })
            .collect();
        let kernels = suite(Scale::Test);
        let mut mix = Mix::new(vec![], vec![]);
        for _ in 0..4 + below(9) {
            let tenant = TenantId(1 + below(tenants.len() as u64) as u32);
            let (kind, source) = match (below(6), below(150) as u32 + 1, below(!0)) {
                (5, n, _) if !mix.jobs.is_empty() => {
                    let earlier = n as usize % mix.jobs.len();
                    let repeat = format!("job {earlier}'s program again");
                    let job = JobSpec {
                        sabotage: None,
                        ..mix.jobs[earlier].clone()
                    };
                    mix.push(job, mix.arrivals.get(earlier).copied(), repeat);
                    continue;
                }
                (0, n, _) => (format!("loop_job({n})"), loop_job(n)),
                (1, n, _) => {
                    let w = &kernels[n as usize % kernels.len()];
                    (w.name.to_string(), w.source.clone())
                }
                (2, _, s) => (format!("random_program({s})"), random_program(s)),
                (3, ..) => ("an unparsable source".into(), "main: frobnicate t0".into()),
                _ => ("a trapping load".into(), TRAP_JOB.into()),
            };
            let fuel = [1 + below(2_000), AMPLE_FUEL, AMPLE_FUEL, AMPLE_FUEL][below(4) as usize];
            let mut job = JobSpec::new(tenant, source, fuel);
            job.sabotage = match below(8) {
                0 => Some(Sabotage::FlipRomWord {
                    word: below(48) as usize,
                    mask: 1 << below(32),
                }),
                1 => Some(Sabotage::PanicInWorker),
                _ => None,
            };
            mix.push(job, Some(below(16)), kind);
        }
        Mix { tenants, ..mix }
    }

    fn push(&mut self, job: JobSpec, arrival: Option<u64>, kind: String) {
        self.jobs.push(job);
        self.arrivals.extend(arrival);
        self.kinds.push(kind);
    }

    /// The mix plus one random program per seed on `fuel`, dealt to its
    /// tenants in turn and arriving at ticks 0–15.
    pub fn with_random_programs(mut self, seeds: &[u64], fuel: u64) -> Mix {
        for (i, &seed) in seeds.iter().enumerate() {
            let tenant = self.tenants[i % self.tenants.len()].0;
            let job = JobSpec::new(tenant, random_program(seed), fuel);
            self.push(job, Some(seed % 16), format!("random_program({seed})"));
        }
        self
    }

    /// The same mix with every job submitted before the first tick.
    pub fn at_tick_zero(&self) -> Mix {
        Mix {
            arrivals: vec![],
            ..self.clone()
        }
    }

    /// The mix without the jobs `drop` picks.
    pub fn without(&self, drop: impl Fn(&JobSpec) -> bool) -> Mix {
        let mut mix = Mix {
            jobs: vec![],
            arrivals: vec![],
            kinds: vec![],
            ..self.clone()
        };
        for (i, job) in self.jobs.iter().enumerate().filter(|(_, job)| !drop(job)) {
            mix.push(job.clone(), self.arrivals.get(i).copied(), self.kind(i));
        }
        mix
    }

    fn kind(&self, job: usize) -> String {
        self.kinds
            .get(job)
            .cloned()
            .unwrap_or_else(|| "a given source".into())
    }

    /// The keys `tenant` registered.
    pub fn keys(&self, tenant: TenantId) -> &KeySet {
        let known = self.tenants.iter().find(|t| t.0 == tenant);
        &known.expect("job for a known tenant").1
    }
}

impl fmt::Debug for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mix {{ tenants (id:class)")?;
        for (id, _, class) in &self.tenants {
            write!(f, " {}:{}", id.0, class.0)?;
        }
        for (i, job) in self.jobs.iter().enumerate() {
            let (tenant, kind) = (job.tenant.0, self.kind(i));
            write!(
                f,
                "; job {i}: tenant {tenant} runs {kind} on fuel {}",
                job.fuel
            )?;
            write!(
                f,
                " with {:?} arriving {:?}",
                job.sabotage,
                self.arrivals.get(i)
            )?;
        }
        write!(f, " }}")
    }
}

/// Mixes drawn from a random seed.
pub fn mixes() -> impl Strategy<Value = Mix> {
    any::<u64>().prop_map(Mix::draw)
}

/// The architectural view of a job: how it ended, the words it wrote
/// to the MMIO word port, its violations and its retired slots — what
/// [`ArchResult`] says of a machine run, without the actuator port a
/// record does not carry. Cycles are absent: timing is what the vcache
/// may change.
pub type Arch = (JobOutcome, Vec<u32>, Vec<Violation>, u64);

/// The architectural view of a record.
pub fn arch(r: &JobRecord) -> Arch {
    let (words, violations) = (r.out_words.clone(), r.violations.clone());
    (r.outcome.clone(), words, violations, r.stats.exec.instret)
}

/// What serial execution can say of a record: its architectural view
/// and its full statistics.
pub fn serial_view(r: &JobRecord) -> (Arch, SofiaStats) {
    (arch(r), r.stats)
}

/// A record with the schedule's four fields cleared (`arrival_tick`,
/// `start_tick`, `end_tick`, `sojourn_cycles`): everything two drivers
/// that price time differently must still agree on.
pub fn unpriced(r: &JobRecord) -> JobRecord {
    let mut r = r.clone();
    (r.arrival_tick, r.start_tick, r.end_tick, r.sojourn_cycles) = (0, 0, 0, 0);
    r
}

/// `r`, finished by a fleet that adopted the job from a checkpoint, in
/// the terms of `reference`, the same job's record from a run that
/// never migrated: unpriced, under the reference's job id and with its
/// seal attribution, since the adopting fleet seals through its own
/// cache.
pub fn adopted_as(r: &JobRecord, reference: &JobRecord) -> JobRecord {
    let mut r = unpriced(r);
    (r.job, r.seal_cache_hit) = (reference.job, reference.seal_cache_hit);
    r
}

/// Per-tenant stats with `queue_latency_ticks`, the one schedule field,
/// cleared.
pub fn unpriced_stats(stats: &BTreeMap<u32, TenantStats>) -> BTreeMap<u32, TenantStats> {
    let mut stats = stats.clone();
    stats.values_mut().for_each(|s| s.queue_latency_ticks = 0);
    stats
}

/// What one SOFIA machine does with each job of `mix`, one after
/// another and with no fleet: the architectural view and the full
/// statistics, in job order. A worker panic is a host fault with no
/// serial meaning, so a `PanicInWorker` job runs here untouched.
pub fn serial_reference(mix: &Mix) -> Vec<(Arch, SofiaStats)> {
    let run = |job: &JobSpec| {
        let keys = mix.keys(job.tenant);
        let module = match asm::parse(&job.source) {
            Ok(m) => m,
            Err(e) => {
                let failed = JobOutcome::SealFailed(SealError::Parse(e.to_string()).to_string());
                return ((failed, vec![], vec![], 0), SofiaStats::default());
            }
        };
        let image = Transformer::new(keys.clone())
            .transform(&module)
            .expect("jobs that parse seal");
        let mut m = SofiaMachine::new(&image, keys);
        if let Some(Sabotage::FlipRomWord { word, mask }) = job.sabotage {
            if let Some(w) = m.mem_mut().rom_mut().get_mut(word) {
                *w ^= mask;
            }
        }
        let outcome = match m.run(job.fuel) {
            Ok(o) => JobOutcome::Completed(o),
            Err(t) => JobOutcome::Trapped(t),
        };
        let (words, stats) = (m.mem().mmio.out_words.clone(), m.stats());
        let arch = (outcome, words, m.violations().to_vec(), stats.exec.instret);
        (arch, stats)
    };
    mix.jobs.iter().map(run).collect()
}

/// A batch fleet's configuration; the SOFIA machine is the default.
pub fn batch_config(workers: usize, mode: SchedMode, quarantine: QuarantinePolicy) -> FleetConfig {
    FleetConfig {
        workers,
        mode,
        quarantine,
        ..Default::default()
    }
}

/// An async fleet's configuration: `threads` host threads serving
/// `workers` lanes in `mode`, parking after `park_after` idle ticks,
/// and the defaults for the rest.
pub fn async_config(
    threads: usize,
    workers: usize,
    mode: SchedMode,
    park_after: Option<u64>,
) -> AsyncConfig {
    AsyncConfig {
        threads,
        workers,
        mode,
        park_after,
        ..Default::default()
    }
}

/// A batch fleet under `config` with `mix`'s tenants registered and
/// its jobs submitted.
pub fn batch_fleet(mix: &Mix, config: FleetConfig) -> Fleet {
    let mut fleet = Fleet::new(config);
    for (id, keys, _) in &mix.tenants {
        fleet.register_tenant(*id, keys.clone()).unwrap();
    }
    for job in &mix.jobs {
        fleet.submit(job.clone()).unwrap();
    }
    fleet
}

/// [`batch_fleet`] run for one whole batch.
pub fn run_batch(mix: &Mix, config: FleetConfig) -> (Fleet, Vec<JobRecord>) {
    let mut fleet = batch_fleet(mix, config);
    let records = fleet.run_batch();
    (fleet, records)
}

/// An async fleet under `config` with `mix`'s tenants registered in
/// their classes and its jobs submitted (at their arrival ticks, if the
/// mix has them).
pub fn async_fleet(mix: &Mix, config: AsyncConfig) -> AsyncFleet {
    let mut fleet = AsyncFleet::new(config);
    for (id, keys, class) in &mix.tenants {
        fleet.register_tenant(*id, keys.clone(), *class).unwrap();
    }
    for (i, job) in mix.jobs.iter().enumerate() {
        match mix.arrivals.get(i) {
            Some(&tick) => drop(fleet.submit_at(job.clone(), tick)),
            None => drop(fleet.submit(job.clone()).unwrap()),
        }
    }
    fleet
}

/// Everything an async run reports that host threads must not move.
#[derive(Debug, PartialEq)]
pub struct AsyncRun {
    /// Finished records, by job id.
    pub records: Vec<JobRecord>,
    /// Deferred admission refusals.
    pub rejections: Vec<Rejection>,
    /// Driver counters.
    pub stats: AsyncStats,
    /// Per-tenant roll-ups.
    pub tenant_stats: BTreeMap<u32, TenantStats>,
    /// Each mix tenant's quarantine state, in mix order.
    pub tenant_states: Vec<Option<TenantState>>,
    /// The image cache's counters.
    pub seal_cache: ImageCacheStats,
    /// Resilience counters.
    pub resilience: ResilienceStats,
}

/// [`async_fleet`] run until idle.
pub fn run_async(mix: &Mix, config: AsyncConfig) -> (AsyncFleet, AsyncRun) {
    let mut fleet = async_fleet(mix, config);
    fleet.run_until_idle();
    let mut records = fleet.drain_finished();
    records.sort_by_key(|r| r.job);
    let rejections = fleet.drain_rejected();
    let tenant_states = mix.tenants.iter().map(|t| fleet.tenant_state(t.0));
    let run = AsyncRun {
        records,
        rejections,
        stats: fleet.stats(),
        tenant_stats: fleet.tenant_stats(),
        tenant_states: tenant_states.collect(),
        seal_cache: fleet.seal_cache_stats(),
        resilience: fleet.resilience_stats(),
    };
    (fleet, run)
}
