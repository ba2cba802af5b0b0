//! The traced replay and the per-layer metrics.
//!
//! The replay runs a workload's jobs again, serially, through the
//! layers' public functions, with a span around every call: `asm::parse`
//! (isa), `Transformer::transform` (transform), `SofiaMachine::with_config`
//! and `run_slice` (core over cpu and crypto), `snapshot`/`to_bytes` and
//! `from_bytes`/`restore` (core snapshot), and on `batch_migrate` the
//! `JobCheckpoint` codec (fleet). It uses the fleet run's inputs in the
//! fleet run's order and must reproduce its counts exactly: every
//! record's statistics, quanta and output, the seal count, and the park,
//! revive and migration counts.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sofia_core::machine::{SliceOutcome, SofiaMachine};
use sofia_core::{MachineSnapshot, SofiaConfig, VCacheConfig};
use sofia_cpu::machine::{MachineConfig, VanillaMachine};
use sofia_crypto::{ctr, mac, CounterBlock, KeySet};
use sofia_fleet::{JobCheckpoint, JobRecord, TenantId};
use sofia_isa::asm;
use sofia_transform::cache::{image_key, ImageKey};
use sofia_transform::{BlockKind, SecureImage, Transformer};

use crate::drive::Drive;
use crate::gen::{self, JobDef, Workload};
use crate::report::{metric, percentile, Metric};
use crate::trace::{SpanStats, Tracer};

/// What the replay did, and where it disagreed with the fleet run.
#[derive(Debug, Default)]
pub struct Replay {
    /// Programs sealed (one per fleet seal-cache miss).
    pub seals: u64,
    /// Park and revive round trips taken.
    pub round_trips: u64,
    /// Jobs migrated between the two fleets' caches.
    pub migrated: u64,
    /// Summed `SOFJ1` checkpoint bytes.
    pub checkpoint_bytes: u64,
    /// Summed machine snapshot bytes.
    pub snapshot_bytes: u64,
    /// Summed RAM bytes the snapshots captured.
    pub ram_bytes: u64,
    /// Disagreements with the fleet run, one line each (must be empty).
    pub mismatches: Vec<String>,
    /// The largest sealed image and its keys, for the cipher probes.
    pub largest: Option<(Arc<SecureImage>, KeySet)>,
    /// Host seconds the replay took.
    pub wall_s: f64,
}

/// One seal cache: one seal per distinct `(keys, source)`.
#[derive(Default)]
struct Sealer {
    images: HashMap<ImageKey, Arc<SecureImage>>,
}

impl Sealer {
    fn get(
        &mut self,
        keys: &KeySet,
        source: &str,
        tracer: &mut Tracer,
        out: &mut Replay,
    ) -> Result<Arc<SecureImage>, String> {
        let key = image_key(keys, source);
        if let Some(image) = self.images.get(&key) {
            return Ok(Arc::clone(image));
        }
        let module = tracer
            .span("isa.parse", || asm::parse(source))
            .map_err(|e| format!("parse: {e}"))?;
        let image = tracer
            .span("transform.seal", || {
                Transformer::new(keys.clone()).transform(&module)
            })
            .map_err(|e| format!("seal: {e:?}"))?;
        let image = Arc::new(image);
        out.seals += 1;
        if out
            .largest
            .as_ref()
            .is_none_or(|(l, _)| l.ctext.len() < image.ctext.len())
        {
            out.largest = Some((Arc::clone(&image), keys.clone()));
        }
        self.images.insert(key, Arc::clone(&image));
        Ok(image)
    }
}

/// One job being replayed.
struct Job<'a> {
    record: &'a JobRecord,
    def: &'a JobDef,
    keys: KeySet,
    image: Arc<SecureImage>,
    machine: SofiaMachine,
    remaining: u64,
    slices: u32,
    slice_cycles: Vec<u64>,
}

impl<'a> Job<'a> {
    fn start(
        seed: u64,
        (record, def): &'a (JobRecord, JobDef),
        config: &SofiaConfig,
        sealer: &mut Sealer,
        tracer: &mut Tracer,
        out: &mut Replay,
    ) -> Option<Job<'a>> {
        let keys = gen::tenant_keys(seed, def.tenant);
        let image = match sealer.get(&keys, &def.source, tracer, out) {
            Ok(image) => image,
            Err(e) => {
                out.mismatches.push(format!("{}: {e}", record.job));
                return None;
            }
        };
        let machine = tracer.span("core.machine_new", || {
            SofiaMachine::with_config(&image, &keys, config)
        });
        Some(Job {
            record,
            def,
            keys,
            image,
            machine,
            remaining: def.fuel,
            slices: 0,
            slice_cycles: Vec::new(),
        })
    }

    /// Runs one quantum; returns whether the job is still runnable.
    fn quantum(&mut self, slice: u64, tracer: &mut Tracer) -> bool {
        let quantum = slice.min(self.remaining);
        let before = self.machine.stats().exec.cycles;
        let machine = &mut self.machine;
        let run = tracer.span("core.quantum", || machine.run_slice(quantum));
        self.slices += 1;
        self.slice_cycles
            .push(self.machine.stats().exec.cycles - before);
        match run {
            Ok(s) => {
                self.remaining = self.remaining.saturating_sub(s.consumed);
                s.outcome == SliceOutcome::Preempted && self.remaining > 0
            }
            Err(_) => false,
        }
    }

    /// Parks the machine to snapshot bytes and revives it, as the
    /// `AsyncFleet` does with a cold job.
    fn round_trip(&mut self, tracer: &mut Tracer, out: &mut Replay) {
        let (machine, remaining) = (&self.machine, self.remaining);
        let bytes = tracer.span("core.park", || machine.snapshot(remaining).to_bytes());
        out.round_trips += 1;
        self.revive(&bytes, &Arc::clone(&self.image), tracer, out);
    }

    /// Restores the machine from snapshot `bytes` against `image`.
    fn revive(&mut self, bytes: &[u8], image: &SecureImage, tracer: &mut Tracer, out: &mut Replay) {
        out.snapshot_bytes += bytes.len() as u64;
        out.ram_bytes += u64::from(self.machine.config().machine.ram_size);
        let keys = &self.keys;
        let revived = tracer.span("core.revive", || {
            MachineSnapshot::from_bytes(bytes)
                .map_err(|e| e.to_string())
                .and_then(|snap| {
                    SofiaMachine::restore(image, keys, &snap).map_err(|e| format!("{e:?}"))
                })
        });
        match revived {
            Ok(machine) => self.machine = machine,
            Err(e) => out
                .mismatches
                .push(format!("{}: revive failed: {e}", self.record.job)),
        }
    }

    /// Compares the finished replay with the fleet's record.
    fn finish(self, out: &mut Replay) {
        let r = self.record;
        let same = self.machine.stats() == r.stats
            && self.slices == r.slices
            && self.slice_cycles == r.slice_cycles
            && self.machine.mem().mmio.out_words == r.out_words;
        if !same {
            out.mismatches.push(format!(
                "{} (tenant {}): replay ran {} quanta, {} slots, output {:x?}; \
                 the fleet reported {} quanta, {} slots, output {:x?}",
                r.job,
                self.def.tenant,
                self.slices,
                self.machine.stats().exec.instret,
                self.machine.mem().mmio.out_words,
                r.slices,
                r.stats.exec.instret,
                r.out_words
            ));
        }
    }
}

/// Replays `drive`'s jobs serially, spans into `tracer`.
pub fn replay(drive: &Drive, tracer: &mut Tracer) -> Replay {
    let start = Instant::now();
    let mut out = match drive.workload {
        Workload::ServeWfq => replay_async(drive, gen::WFQ_SLICE, tracer),
        Workload::SimUncached => replay_async(drive, gen::KERNEL_SLICE, tracer),
        Workload::BatchMigrate => replay_batch(drive, tracer),
    };
    let c = &drive.counts;
    for (what, replayed, fleet) in [
        ("seals", out.seals, c.seals),
        ("migrations", out.migrated, c.migrated),
        ("checkpoint bytes", out.checkpoint_bytes, c.checkpoint_bytes),
    ] {
        if replayed != fleet {
            out.mismatches
                .push(format!("replay {what} {replayed} != fleet {fleet}"));
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The async workloads: every job from its first quantum to its last at
/// the workload's slice, in the fleet's completion order. The fleet's
/// park count is spread evenly over the replay's preemption boundaries,
/// one round trip each.
fn replay_async(drive: &Drive, slice: u64, tracer: &mut Tracer) -> Replay {
    let mut out = Replay::default();
    let mut sealer = Sealer::default();
    let config = SofiaConfig::default();
    let boundaries: u64 = drive
        .finished
        .iter()
        .map(|(r, _)| u64::from(r.slices.saturating_sub(1)))
        .sum();
    let parks = drive.counts.parks.min(boundaries);
    let mut k = 0u64;
    for pair in &drive.finished {
        let Some(mut job) = Job::start(drive.seed, pair, &config, &mut sealer, tracer, &mut out)
        else {
            continue;
        };
        while job.quantum(slice, tracer) {
            if boundaries > 0 && (k + 1) * parks / boundaries > k * parks / boundaries {
                job.round_trip(tracer, &mut out);
            }
            k += 1;
        }
        job.finish(&mut out);
    }
    // A sanity check, not a fidelity check: the round-trip count is the
    // fleet's park count, so this fails only if the fleet parked more
    // often than its jobs have quantum boundaries. Fidelity is checked by
    // `Job::finish`, record by record, after every round trip.
    let c = &drive.counts;
    if out.round_trips != c.parks || out.round_trips != c.revives {
        out.mismatches.push(format!(
            "replay took {} round trips; the fleet parked {} and revived {}",
            out.round_trips, c.parks, c.revives
        ));
    }
    out
}

/// `batch_migrate`: fleet A's capped batch for every job, then the
/// checkpoint → bytes → adopt migration of every unfinished job (a
/// re-seal in fleet B's cache and a restore that re-verifies the warm
/// vcache lines), then fleet B's batch to completion.
fn replay_batch(drive: &Drive, tracer: &mut Tracer) -> Replay {
    let mut out = Replay::default();
    let (mut sealer_a, mut sealer_b) = (Sealer::default(), Sealer::default());
    let config = SofiaConfig {
        vcache: VCacheConfig::enabled(gen::MIGRATE_VCACHE.0, gen::MIGRATE_VCACHE.1),
        ..Default::default()
    };
    // Submission order is tenant order.
    let by_tenant: BTreeMap<u32, &(JobRecord, JobDef)> = drive
        .finished
        .iter()
        .map(|pair| (pair.1.tenant, pair))
        .collect();
    let mut running = Vec::new();
    for pair in by_tenant.into_values() {
        let Some(mut job) = Job::start(drive.seed, pair, &config, &mut sealer_a, tracer, &mut out)
        else {
            continue;
        };
        let mut quanta = 0;
        let mut runnable = true;
        while runnable && quanta < gen::MIGRATE_AFTER_QUANTA {
            runnable = job.quantum(gen::KERNEL_SLICE, tracer);
            quanta += 1;
        }
        if runnable {
            running.push(job);
        } else {
            job.finish(&mut out);
        }
    }
    for job in &mut running {
        tracer.enter("fleet.migrate");
        let (machine, remaining) = (&job.machine, job.remaining);
        let (snapshot, bytes) = tracer.span("core.park", || {
            let snapshot = machine.snapshot(remaining);
            let bytes = snapshot.to_bytes();
            (snapshot, bytes)
        });
        let codec = tracer.span("fleet.checkpoint_codec", || {
            let ckpt = JobCheckpoint {
                tenant: TenantId(job.def.tenant),
                source: job.def.source.clone(),
                fuel: job.def.fuel,
                sabotage: None,
                remaining: job.remaining,
                retried: false,
                prior: None,
                slices: job.slices,
                slice_cycles: job.slice_cycles.clone(),
                machine: Some(snapshot),
            };
            let wire = ckpt.to_bytes();
            JobCheckpoint::from_bytes(&wire).map(|back| (wire.len(), back.source))
        });
        match codec {
            Ok((len, source)) => {
                out.checkpoint_bytes += len as u64;
                match sealer_b.get(&job.keys, &source, tracer, &mut out) {
                    Ok(image) => {
                        job.revive(&bytes, &image, tracer, &mut out);
                        job.image = image;
                        out.migrated += 1;
                    }
                    Err(e) => out.mismatches.push(format!("{}: {e}", job.record.job)),
                }
            }
            Err(e) => out
                .mismatches
                .push(format!("{}: checkpoint codec: {e}", job.record.job)),
        }
        tracer.exit();
    }
    for mut job in running {
        while job.quantum(gen::KERNEL_SLICE, tracer) {}
        job.finish(&mut out);
    }
    out
}

// ---------------------------------------------------------------------
// Probes outside the replay: the cipher per block, and the engine alone.
// ---------------------------------------------------------------------

/// Per-block cipher costs, measured on the largest image the replay
/// sealed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CipherProbe {
    /// `ctr::pads` on one block's counters (the refill's CTR sweep), ns.
    pub refill_pad_ns: f64,
    /// Scalar `mac::mac_words` chain of one execution block, ns.
    pub mac_ns: f64,
    /// `ctr::pads` on a whole image's counters, per block, ns.
    pub seal_pad_ns: f64,
}

/// ns per call of `f`: the median of five batches, each calling `f` for
/// at least 20 ms.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..64 {
                    f();
                }
                calls += 64;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= 0.02 {
                    return elapsed * 1e9 / calls as f64;
                }
            }
        })
        .collect();
    crate::report::median(&batches)
}

/// Measures the cipher on `image`'s counters.
pub fn cipher_probe(image: &SecureImage, keys: &KeySet) -> CipherProbe {
    let ek = keys.expand();
    let format = image.format;
    let counters: Vec<CounterBlock> = (0..image.ctext.len() as u32)
        .map(|w| {
            let pc = image.text_base + 4 * w;
            CounterBlock::from_edge(image.nonce, pc.wrapping_sub(4), pc)
        })
        .collect();
    let block = &counters[..format.block_words().min(counters.len())];
    let insts = format.insts(BlockKind::Exec).min(image.ctext.len());
    let words = &image.ctext[..insts];
    let padded = format.mac_padded_words(BlockKind::Exec);
    let blocks = image.blocks().max(1) as f64;
    CipherProbe {
        refill_pad_ns: ns_per_call(|| {
            black_box(ctr::pads(&ek.ctr, black_box(block)));
        }),
        mac_ns: ns_per_call(|| {
            black_box(mac::mac_words(&ek.mac_exec, black_box(words), padded));
        }),
        seal_pad_ns: ns_per_call(|| {
            black_box(ctr::pads(&ek.ctr, black_box(&counters)));
        }) / blocks,
    }
}

/// The engine-only ceiling: the workload's distinct programs on the
/// unprotected `VanillaMachine`, Σ slots ÷ Σ `run` time, in MIPS.
pub fn vanilla_mips(drive: &Drive) -> f64 {
    let sources: BTreeSet<(&str, u64)> = drive
        .finished
        .iter()
        .map(|(_, d)| (d.source.as_str(), d.fuel))
        .collect();
    let programs: Vec<(sofia_isa::asm::Assembly, u64)> = sources
        .into_iter()
        .filter_map(|(s, fuel)| asm::assemble(s).ok().map(|a| (a, fuel)))
        .collect();
    let (mut slots, mut secs) = (0u64, 0.0f64);
    while secs < 0.05 && !programs.is_empty() {
        for (program, fuel) in &programs {
            let mut m = VanillaMachine::with_config(program, &MachineConfig::default());
            let start = Instant::now();
            let run = m.run(*fuel);
            secs += start.elapsed().as_secs_f64();
            if run.is_ok() {
                slots += m.stats().instret;
            }
        }
    }
    if secs > 0.0 {
        slots as f64 / secs / 1e6
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics.
// ---------------------------------------------------------------------

/// Everything one traced repetition measured.
pub struct Traced<'a> {
    /// The untraced fleet run of the same seed.
    pub untraced: &'a Drive,
    /// The traced fleet run.
    pub traced: &'a Drive,
    /// Spans of the traced fleet run.
    pub fleet_spans: &'a BTreeMap<&'static str, SpanStats>,
    /// The replay.
    pub replay: &'a Replay,
    /// Spans of the replay.
    pub replay_spans: &'a BTreeMap<&'static str, SpanStats>,
    /// Summed root-span time of the replay, ns.
    pub replay_root_ns: u64,
    /// Cipher probe.
    pub cipher: CipherProbe,
    /// Engine-only MIPS.
    pub vanilla_mips: f64,
    /// The cost of an empty span, ns.
    pub floor_ns: u64,
}

/// The layers whose self times the traced run compares, in report order.
/// The fleet's own self time is `fleet.overhead_s`.
const SELF_TIME_LAYERS: [&str; 7] = [
    "fleet.overhead_s",
    "self.isa_s",
    "self.transform_s",
    "self.core_s",
    "self.snapshot_s",
    "self.cpu_s",
    "self.crypto_s",
];

impl Traced<'_> {
    fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.replay_spans
            .get(name)
            .or_else(|| self.fleet_spans.get(name))
    }

    /// Mean span duration of `name` in µs; a layer never called reads as
    /// the empty-span floor.
    fn mean_us(&self, name: &str) -> f64 {
        match self.stats(name) {
            Some(s) if s.count > 0 => s.total_ns as f64 / s.count as f64 / 1e3,
            _ => self.floor_ns as f64 / 1e3,
        }
    }

    fn pct_us(&self, name: &str, p: usize) -> f64 {
        let mut d = self
            .stats(name)
            .map(|s| s.durations_ns.clone())
            .unwrap_or_default();
        d.sort_unstable();
        percentile(&d, p).unwrap_or(self.floor_ns) as f64 / 1e3
    }

    fn self_s(&self, name: &str) -> f64 {
        self.stats(name).map_or(0.0, |s| s.self_ns as f64 / 1e9)
    }

    fn total_s(&self, name: &str) -> f64 {
        self.stats(name).map_or(0.0, |s| s.total_ns as f64 / 1e9)
    }

    /// Every per-layer metric, in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.traced.counts;
        let r = self.replay;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let quantum_s = self.total_s("core.quantum");
        let refilled = c.blocks.saturating_sub(c.vcache_hits);
        // The refill's cipher work, estimated from the probe: it can exceed
        // the measured quantum time by the probe's error, so the self-time
        // split caps it there.
        let refill_s = refilled as f64 * (self.cipher.refill_pad_ns + self.cipher.mac_ns) / 1e9;
        let crypto_s = refill_s.min(quantum_s);
        let overhead_s = self.traced.drive_s - self.replay_root_ns as f64 / 1e9;
        let snapshots = r.round_trips + r.migrated;
        vec![
            metric("fleet.step_p50_us", "us", self.pct_us("fleet.step", 50)),
            metric("fleet.step_p99_us", "us", self.pct_us("fleet.step", 99)),
            metric(
                "fleet.steps",
                "count",
                self.stats("fleet.step").map_or(0, |s| s.count) as f64,
            ),
            metric("fleet.drive_s", "s", self.traced.drive_s),
            metric("fleet.overhead_s", "s", overhead_s),
            metric("fleet.ticks", "count", c.ticks as f64),
            metric("fleet.quanta", "count", c.quanta as f64),
            metric("fleet.admitted", "count", c.admitted as f64),
            metric("fleet.rejected", "count", c.rejected as f64),
            metric(
                "fleet.queue_wait_p99_ticks",
                "ticks",
                c.queue_wait_p99 as f64,
            ),
            metric("fleet.parks", "count", c.parks as f64),
            metric("fleet.revives", "count", c.revives as f64),
            metric(
                "fleet.peak_resident_machines",
                "count",
                c.peak_resident as f64,
            ),
            metric(
                "fleet.checkpoint_us",
                "us",
                self.mean_us("fleet.checkpoint"),
            ),
            metric("fleet.adopt_us", "us", self.mean_us("fleet.adopt")),
            metric("fleet.checkpoint_bytes", "bytes", c.checkpoint_bytes as f64),
            metric("fleet.migrated", "count", c.migrated as f64),
            metric("transform.seals", "count", c.seals as f64),
            metric(
                "transform.seal_hit_ratio",
                "ratio",
                ratio(c.seal_hits, c.seal_hits + c.seals),
            ),
            metric("transform.seal_us", "us", self.mean_us("transform.seal")),
            metric("isa.parse_us", "us", self.mean_us("isa.parse")),
            metric("core.quantum_p50_us", "us", self.pct_us("core.quantum", 50)),
            metric("core.quantum_p99_us", "us", self.pct_us("core.quantum", 99)),
            metric(
                "core.machine_new_us",
                "us",
                self.mean_us("core.machine_new"),
            ),
            metric("core.blocks", "count", c.blocks as f64),
            metric("core.violations", "count", c.violations as f64),
            metric(
                "core.vcache_hit_ratio",
                "ratio",
                ratio(c.vcache_hits, c.vcache_hits + c.vcache_misses),
            ),
            metric("core.park_us", "us", self.mean_us("core.park")),
            metric("core.revive_us", "us", self.mean_us("core.revive")),
            metric(
                "core.snapshot_bytes",
                "bytes",
                ratio(r.snapshot_bytes, snapshots),
            ),
            metric(
                "core.snapshot_yield",
                "ratio",
                ratio(r.snapshot_bytes, r.ram_bytes),
            ),
            metric("core.ctr_ops", "count", c.ctr_ops as f64),
            metric("core.cbc_ops", "count", c.cbc_ops as f64),
            metric("cpu.instret", "count", c.instret as f64),
            metric(
                "cpu.ns_per_slot",
                "ns",
                quantum_s * 1e9 / c.instret.max(1) as f64,
            ),
            metric("cpu.vanilla_mips", "MIPS", self.vanilla_mips),
            metric("crypto.refill_pad_ns", "ns", self.cipher.refill_pad_ns),
            metric("crypto.mac_ns", "ns", self.cipher.mac_ns),
            metric("crypto.seal_pad_ns", "ns", self.cipher.seal_pad_ns),
            metric(
                "crypto.refill_share",
                "ratio",
                if quantum_s > 0.0 {
                    refill_s / quantum_s
                } else {
                    0.0
                },
            ),
            metric("self.isa_s", "s", self.self_s("isa.parse")),
            metric("self.transform_s", "s", self.self_s("transform.seal")),
            metric("self.core_s", "s", self.self_s("core.machine_new")),
            metric(
                "self.snapshot_s",
                "s",
                self.self_s("core.park")
                    + self.self_s("core.revive")
                    + self.self_s("fleet.checkpoint_codec")
                    + self.self_s("fleet.migrate"),
            ),
            metric("self.cpu_s", "s", quantum_s - crypto_s),
            metric("self.crypto_s", "s", crypto_s),
            metric(
                "trace.overhead_s",
                "s",
                self.traced.drive_s - self.untraced.drive_s,
            ),
            metric("replay.wall_s", "s", r.wall_s),
        ]
    }
}

/// The self-time layer with the largest value among `metrics`.
pub fn largest_self_time(metrics: &[Metric]) -> Option<&'static str> {
    metrics
        .iter()
        .filter(|m| SELF_TIME_LAYERS.contains(&m.name))
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .map(|m| m.name)
}
