//! The fleet runs: each workload driven through the public fleet API
//! (`AsyncFleet`, `Fleet`) with host timing, output checks and the
//! exact simulated counts.

use std::collections::BTreeMap;
use std::time::Instant;

use sofia_core::{SofiaConfig, VCacheConfig};
use sofia_fleet::{
    AdmissionConfig, AdmitError, AsyncConfig, AsyncFleet, ClassConfig, ClassId, Fleet, FleetConfig,
    JobCheckpoint, JobRecord, JobSpec, Rejection, SchedMode, TenantId,
};

use crate::gen::{self, JobDef, Size, WfqMix, Workload};
use crate::report::percentile;
use crate::trace::Tracer;

/// Exact simulated counts of one run. They depend only on the workload,
/// seed and size, never on the host: a host-only change leaves every
/// field identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Final job records.
    pub records: u64,
    /// Jobs admitted (async workloads).
    pub admitted: u64,
    /// Admission refusals.
    pub rejected: u64,
    /// Simulated instruction slots retired.
    pub instret: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Scheduler quanta served.
    pub quanta: u64,
    /// Machines parked to snapshot bytes.
    pub parks: u64,
    /// Machines revived from snapshot bytes.
    pub revives: u64,
    /// Seal-cache misses: programs sealed.
    pub seals: u64,
    /// Seal-cache hits.
    pub seal_hits: u64,
    /// Virtual ticks.
    pub ticks: u64,
    /// Virtual makespan, cycles.
    pub makespan: u64,
    /// p99 virtual sojourn of the latency class, cycles.
    pub sojourn_p99_v: u64,
    /// p99 queue wait of the latency class, ticks.
    pub queue_wait_p99: u64,
    /// Blocks fetched and verified.
    pub blocks: u64,
    /// CTR operations issued by the simulated cipher.
    pub ctr_ops: u64,
    /// CBC-MAC operations issued by the simulated cipher.
    pub cbc_ops: u64,
    /// Verified-block cache hits.
    pub vcache_hits: u64,
    /// Verified-block cache misses.
    pub vcache_misses: u64,
    /// Violations detected (must be 0).
    pub violations: u64,
    /// Peak live machines resident at a tick boundary.
    pub peak_resident: u64,
    /// Jobs checkpointed out of fleet A and adopted by fleet B.
    pub migrated: u64,
    /// Summed `SOFJ1` checkpoint bytes.
    pub checkpoint_bytes: u64,
    /// FNV-1a digest over every record and rejection.
    pub digest: u64,
}

/// One fleet run's results.
#[derive(Debug)]
pub struct Drive {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Host seconds of set-up: fleet construction, tenant registration,
    /// job generation and submission.
    pub setup_s: f64,
    /// Host seconds of the drive loop, up to the last record.
    pub drive_s: f64,
    /// Every final record, in the order the fleet returned it, beside the
    /// job the benchmark defined.
    pub finished: Vec<(JobRecord, JobDef)>,
    /// Admission refusals.
    pub rejections: Vec<Rejection>,
    /// Refusals the design calls for.
    pub expected_rejections: u64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Operations the fleet refused that the design says succeed
    /// (closed-loop resubmissions, checkpoint, adopt).
    pub refused: Vec<String>,
    /// Host sojourn of each latency-class job, ms.
    pub sojourn_ms: Vec<f64>,
    /// The exact simulated counts.
    pub counts: Counts,
}

/// A workload ready to drive: the fleet built, tenants registered, jobs
/// submitted.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    setup_s: f64,
    inner: Inner,
}

enum Inner {
    Async {
        fleet: Box<AsyncFleet>,
        /// `Some` for `serve_wfq`: drives the closed loop and picks the
        /// interactive class as the latency class.
        mix: Option<WfqMix>,
        defs: BTreeMap<u64, JobDef>,
        attempted: u64,
    },
    Batch {
        a: Box<Fleet>,
        b: Box<Fleet>,
        defs: BTreeMap<u32, JobDef>,
    },
}

fn spec(def: &JobDef) -> JobSpec {
    JobSpec::new(TenantId(def.tenant), def.source.clone(), def.fuel)
}

/// Builds the fleet of `workload` and submits its jobs, timing it.
pub fn prepare(
    workload: Workload,
    seed: u64,
    size: Size,
    kernels: &[sofia_workloads::Workload],
) -> Prepared {
    let start = Instant::now();
    let inner = match workload {
        Workload::ServeWfq => prepare_wfq(seed, size),
        Workload::SimUncached => prepare_sim(seed, kernels),
        Workload::BatchMigrate => prepare_batch(seed, size, kernels),
    };
    Prepared {
        workload,
        seed,
        setup_s: start.elapsed().as_secs_f64(),
        inner,
    }
}

fn prepare_wfq(seed: u64, size: Size) -> Inner {
    let mix = WfqMix::new(size.wfq_tenants);
    let mut admission = AdmissionConfig::default();
    for (id, weight) in mix.weights() {
        admission.classes.insert(
            id,
            ClassConfig {
                weight,
                ..Default::default()
            },
        );
    }
    if let Some(best) = admission.classes.get_mut(&2) {
        best.queue_cap = mix.best_effort_cap();
    }
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: Workload::ServeWfq.host_threads(),
        workers: gen::WFQ_LANES,
        mode: SchedMode::FuelSliced {
            slice: gen::WFQ_SLICE,
        },
        admission,
        ..Default::default()
    });
    for id in 1..=mix.tenants as u32 {
        fleet
            .register_tenant(
                TenantId(id),
                gen::tenant_keys(seed, id),
                ClassId(mix.class_of(id)),
            )
            .expect("a fresh fleet has no tenants yet");
    }
    let mut arrivals = gen::Arrivals::new(seed);
    let mut defs = BTreeMap::new();
    for id in 1..=mix.tenants as u32 {
        match mix.class_of(id) {
            0 => {
                for _ in 0..2 {
                    let def = gen::wfq_interactive(id);
                    let job = fleet.submit_at(spec(&def), arrivals.draw(mix.horizon()));
                    defs.insert(job.0, def);
                }
            }
            1 => {
                let def = gen::wfq_batch(id, 0);
                let job = fleet.submit_at(spec(&def), arrivals.draw(8));
                defs.insert(job.0, def);
            }
            _ => {
                let def = gen::wfq_best_effort(id);
                let job = fleet.submit_at(spec(&def), 0);
                defs.insert(job.0, def);
            }
        }
    }
    Inner::Async {
        fleet: Box::new(fleet),
        mix: Some(mix),
        defs,
        attempted: mix.jobs() as u64,
    }
}

fn prepare_sim(seed: u64, kernels: &[sofia_workloads::Workload]) -> Inner {
    let mut fleet = AsyncFleet::new(AsyncConfig {
        threads: Workload::SimUncached.host_threads(),
        workers: 2,
        mode: SchedMode::FuelSliced {
            slice: gen::KERNEL_SLICE,
        },
        ..Default::default()
    });
    let jobs = gen::sim_jobs(kernels);
    let mut defs = BTreeMap::new();
    for def in jobs {
        fleet
            .register_tenant(
                TenantId(def.tenant),
                gen::tenant_keys(seed, def.tenant),
                ClassId(0),
            )
            .expect("one tenant per kernel");
        let job = fleet
            .submit(spec(&def))
            .expect("default admission admits every job");
        defs.insert(job.0, def);
    }
    let attempted = defs.len() as u64;
    Inner::Async {
        fleet: Box::new(fleet),
        mix: None,
        defs,
        attempted,
    }
}

fn prepare_batch(seed: u64, size: Size, kernels: &[sofia_workloads::Workload]) -> Inner {
    let config = FleetConfig {
        workers: Workload::BatchMigrate.host_threads(),
        mode: SchedMode::FuelSliced {
            slice: gen::KERNEL_SLICE,
        },
        sofia: SofiaConfig {
            vcache: VCacheConfig::enabled(gen::MIGRATE_VCACHE.0, gen::MIGRATE_VCACHE.1),
            ..Default::default()
        },
        ..Default::default()
    };
    let (mut a, mut b) = (Box::new(Fleet::new(config)), Box::new(Fleet::new(config)));
    let mut defs = BTreeMap::new();
    for def in gen::migrate_jobs(kernels, size.copies) {
        let keys = gen::tenant_keys(seed, def.tenant);
        for fleet in [&mut a, &mut b] {
            fleet
                .register_tenant(TenantId(def.tenant), keys.clone())
                .expect("one job per tenant");
        }
        a.submit(spec(&def)).expect("registered, active tenant");
        defs.insert(def.tenant, def);
    }
    Inner::Batch { a, b, defs }
}

impl Prepared {
    /// Host seconds the set-up took.
    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// Drives the workload to its last record. Spans go to `tracer`
    /// (a disabled tracer for the untraced run).
    pub fn drive(self, tracer: &mut Tracer) -> Drive {
        let (workload, seed, setup_s) = (self.workload, self.seed, self.setup_s);
        let mut drive = match self.inner {
            Inner::Async {
                fleet,
                mix,
                defs,
                attempted,
            } => drive_async(fleet, mix, defs, attempted, tracer),
            Inner::Batch { a, b, defs } => drive_batch(a, b, defs, tracer),
        };
        drive.workload = workload;
        drive.seed = seed;
        drive.setup_s = setup_s;
        drive
    }
}

fn drive_async(
    mut fleet: Box<AsyncFleet>,
    mix: Option<WfqMix>,
    mut defs: BTreeMap<u64, JobDef>,
    attempted: u64,
    tracer: &mut Tracer,
) -> Drive {
    let mut rounds_left: BTreeMap<u32, u32> = match mix {
        Some(mix) => (1..=mix.tenants as u32)
            .filter(|&id| mix.class_of(id) == 1)
            .map(|id| (id, gen::WFQ_BATCH_ROUNDS - 1))
            .collect(),
        None => BTreeMap::new(),
    };
    let mut records = Vec::new();
    let mut refused = Vec::new();
    let (mut tick_start, mut tick_end) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        tracer.enter("fleet.step");
        tick_start.push(Instant::now());
        fleet.tick();
        let done = fleet.drain_finished();
        for r in &done {
            if let Some(left) = rounds_left.get_mut(&r.tenant.0) {
                if *left > 0 {
                    let round = gen::WFQ_BATCH_ROUNDS - *left;
                    *left -= 1;
                    let def = gen::wfq_batch(r.tenant.0, round);
                    match fleet.submit(spec(&def)) {
                        Ok(job) => {
                            defs.insert(job.0, def);
                        }
                        Err(e) => refused.push(format!("closed-loop resubmission refused: {e}")),
                    }
                }
            }
        }
        tick_end.push(Instant::now());
        tracer.exit();
        records.extend(done);
        if fleet.queued_jobs() == 0 && fleet.pending_arrivals() == 0 {
            break;
        }
    }
    let drive_s = start.elapsed().as_secs_f64();
    let rejections = fleet.drain_rejected();

    // The latency class: interactive tenants under the WFQ mix, every job
    // otherwise. Host sojourn runs from the start of the arrival tick to
    // the end of the tick the job finished in.
    let latency = |r: &JobRecord| mix.is_none_or(|m| m.class_of(r.tenant.0) == 0);
    let sojourn_ms = records
        .iter()
        .filter(|r| latency(r))
        .map(|r| {
            let from = tick_start[r.arrival_tick as usize];
            let to = tick_end[r.end_tick as usize - 1];
            (to - from).as_secs_f64() * 1e3
        })
        .collect();

    let st = fleet.stats();
    let cache = fleet.seal_cache_stats();
    let mut counts = sum_records(&records, &latency);
    counts.admitted = st.admitted;
    counts.rejected = st.rejected;
    counts.quanta = st.quanta;
    counts.parks = st.parks;
    counts.revives = st.revives;
    counts.seals = cache.misses;
    counts.seal_hits = cache.hits;
    counts.ticks = st.ticks;
    counts.makespan = st.makespan_cycles;
    counts.peak_resident = st.peak_resident_machines;
    counts.digest = digest(&records, &rejections);

    let finished = pair_defs(records, &mut refused, |r| defs.get(&r.job.0));
    Drive {
        workload: Workload::ServeWfq,
        seed: 0,
        setup_s: 0.0,
        drive_s,
        finished,
        expected_rejections: mix.map_or(0, |m| m.expected_rejections() as u64),
        rejections,
        attempted,
        refused,
        sojourn_ms,
        counts,
    }
}

fn drive_batch(
    mut a: Box<Fleet>,
    mut b: Box<Fleet>,
    defs: BTreeMap<u32, JobDef>,
    tracer: &mut Tracer,
) -> Drive {
    let mut refused = Vec::new();
    let (mut migrated, mut checkpoint_bytes) = (0u64, 0u64);
    let start = Instant::now();
    let first = tracer.span("fleet.step", || {
        a.run_batch_capped(gen::MIGRATE_AFTER_QUANTA)
    });
    let first_ms = start.elapsed().as_secs_f64() * 1e3;
    for id in a.queued_jobs() {
        tracer.enter("fleet.checkpoint");
        let bytes = a.checkpoint_job(id).map(|c| c.to_bytes());
        tracer.exit();
        let bytes = match bytes {
            Ok(bytes) => bytes,
            Err(e) => {
                refused.push(format!("checkpoint of {id} refused: {e}"));
                continue;
            }
        };
        tracer.enter("fleet.adopt");
        let adopted = JobCheckpoint::from_bytes(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|c| b.adopt_job(c).map_err(|e| e.to_string()));
        tracer.exit();
        match adopted {
            Ok(_) => {
                migrated += 1;
                checkpoint_bytes += bytes.len() as u64;
            }
            Err(e) => refused.push(format!("adoption of {id} refused: {e}")),
        }
    }
    let second = tracer.span("fleet.step", || b.run_batch());
    let drive_s = start.elapsed().as_secs_f64();
    let sojourn_ms = std::iter::repeat_n(first_ms, first.len())
        .chain(std::iter::repeat_n(drive_s * 1e3, second.len()))
        .collect();

    let (sa, sb) = (a.stats(), b.stats());
    let (ca, cb) = (a.seal_cache_stats(), b.seal_cache_stats());
    let records: Vec<JobRecord> = first.into_iter().chain(second).collect();
    let mut counts = sum_records(&records, &|_| true);
    counts.admitted = defs.len() as u64;
    counts.quanta = records.iter().map(|r| u64::from(r.slices)).sum();
    counts.seals = ca.misses + cb.misses;
    counts.seal_hits = ca.hits + cb.hits;
    counts.ticks = sa.last_ticks + sb.last_ticks;
    counts.makespan = sa.last_makespan_cycles + sb.last_makespan_cycles;
    counts.migrated = migrated;
    counts.checkpoint_bytes = checkpoint_bytes;
    counts.digest = digest(&records, &[]);

    let finished = pair_defs(records, &mut refused, |r| defs.get(&r.tenant.0));
    Drive {
        workload: Workload::BatchMigrate,
        seed: 0,
        setup_s: 0.0,
        drive_s,
        finished,
        rejections: Vec::new(),
        expected_rejections: 0,
        attempted: defs.len() as u64,
        refused,
        sojourn_ms,
        counts,
    }
}

/// Pairs each record with the job the benchmark defined for it.
fn pair_defs<'a>(
    records: Vec<JobRecord>,
    refused: &mut Vec<String>,
    def_of: impl Fn(&JobRecord) -> Option<&'a JobDef>,
) -> Vec<(JobRecord, JobDef)> {
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        match def_of(&r) {
            Some(def) => out.push((r, def.clone())),
            None => refused.push(format!("record {} matches no submitted job", r.job)),
        }
    }
    out
}

/// The counts that are sums over records, plus the latency-class
/// percentiles.
fn sum_records(records: &[JobRecord], latency: &dyn Fn(&JobRecord) -> bool) -> Counts {
    let mut c = Counts {
        records: records.len() as u64,
        ..Default::default()
    };
    for r in records {
        let s = &r.stats;
        c.instret += s.exec.instret;
        c.cycles += s.exec.cycles;
        c.blocks += s.blocks;
        c.ctr_ops += s.ctr_ops;
        c.cbc_ops += s.cbc_ops;
        c.vcache_hits += s.vcache_hits;
        c.vcache_misses += s.vcache_misses;
        c.violations += s.violations + r.violations.len() as u64;
    }
    let class: Vec<&JobRecord> = records.iter().filter(|r| latency(r)).collect();
    let mut sojourn: Vec<u64> = class.iter().map(|r| r.sojourn_cycles).collect();
    let mut wait: Vec<u64> = class.iter().map(|r| r.queue_latency_ticks()).collect();
    sojourn.sort_unstable();
    wait.sort_unstable();
    c.sojourn_p99_v = percentile(&sojourn, 99).unwrap_or(0);
    c.queue_wait_p99 = percentile(&wait, 99).unwrap_or(0);
    c
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The determinism digest of the repository's `async_wfq` experiment:
/// FNV-1a over everything each record and rejection claims, in order.
pub fn digest(records: &[JobRecord], rejections: &[Rejection]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for word in [
            r.job.0,
            u64::from(r.tenant.0),
            r.stats.exec.cycles,
            r.stats.exec.instret,
            r.arrival_tick,
            r.start_tick,
            r.end_tick,
            r.sojourn_cycles,
            u64::from(r.slices),
        ] {
            fnv1a(&mut h, &word.to_le_bytes());
        }
        fnv1a(&mut h, format!("{:?}", r.outcome).as_bytes());
        for w in &r.out_words {
            fnv1a(&mut h, &w.to_le_bytes());
        }
    }
    for rej in rejections {
        fnv1a(&mut h, &rej.job.0.to_le_bytes());
        fnv1a(&mut h, &rej.tick.to_le_bytes());
        fnv1a(&mut h, format!("{}", rej.error).as_bytes());
    }
    h
}

/// The output check of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Jobs that halted with the golden output.
    pub ok: u64,
    /// Jobs whose outcome is wrong: not halted, wrong output, refused or
    /// lost against the design.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

impl Drive {
    /// Checks every record against its golden output, and the refusals
    /// against the ones the design calls for: only the best-effort burst
    /// beyond its queue cap, refused as a full class queue.
    pub fn verdict(&self) -> Verdict {
        let mut v = Verdict {
            problems: self.refused.clone(),
            ..Default::default()
        };
        for (r, def) in &self.finished {
            if !r.outcome.is_halted() {
                v.problems
                    .push(format!("{}: outcome {:?}", r.job, r.outcome));
            } else if r.out_words != def.expected {
                v.problems.push(format!(
                    "{}: output {:x?} != golden {:x?}",
                    r.job, r.out_words, def.expected
                ));
            } else {
                v.ok += 1;
                continue;
            }
            v.failed += 1;
        }
        let typed = self
            .rejections
            .iter()
            .filter(|rej| {
                matches!(
                    rej.error,
                    AdmitError::ClassQueueFull {
                        class: ClassId(2),
                        ..
                    }
                )
            })
            .count() as u64;
        let rejected = self.rejections.len() as u64;
        if typed != rejected || rejected != self.expected_rejections {
            v.problems.push(format!(
                "{rejected} refusals ({typed} best-effort queue-full), design calls for {}",
                self.expected_rejections
            ));
        }
        // Everything attempted that neither served correctly nor was a
        // designed refusal failed: wrong records, lost jobs, extra or
        // mistyped refusals.
        let designed = typed.min(self.expected_rejections);
        v.failed = self.attempted.saturating_sub(v.ok + designed);
        v
    }
}
