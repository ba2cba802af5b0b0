//! # fleetbench — host wall-clock benchmark of the sealed-program fleet
//!
//! Three workloads drive the public fleet API (`AsyncFleet`, `Fleet`)
//! from seeded inputs. An untraced run reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run replays the same jobs serially through
//! every layer's public functions and reports the per-layer metrics. See
//! `README.md` for the workloads, the metrics and how to run them.

pub mod drive;
pub mod gen;
pub mod layers;
pub mod pins;
pub mod report;
pub mod trace;

use std::time::Instant;

use drive::{prepare, Counts, Drive, Verdict};
use gen::{Size, Workload};
use report::{median, median_metrics, metric, percentile_f64, Metric};
use trace::Tracer;

/// The end-to-end metrics, `(name, unit)`, in report order. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_mips", "MIPS"),
    ("sojourn_p50_ms", "ms"),
    ("sojourn_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("served_frac", "ratio"),
    ("sim_cycles_v", "cycles"),
    ("sojourn_p99_v", "cycles"),
    ("makespan_v", "cycles"),
];

/// Set-ups per `setup_s` sample. One set-up takes under a millisecond,
/// and on a shared host single set-ups run at one of two speeds for tens
/// of milliseconds at a time, so each repetition times a batch of about
/// 100 ms and `setup_s` is the median of the batch means.
const SETUP_BATCH: usize = 128;

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every output matched its golden value, every count repeated, and
    /// the pinned counts (if the seed is pinned) held.
    pub correct: bool,
    /// Jobs attempted across the run's fleet runs.
    pub attempted: u64,
    /// Jobs among them whose outcome was wrong.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines that go before the result line.
    pub notes: Vec<String>,
    /// The exact simulated counts of the run.
    pub counts: Counts,
}

/// Runs `workload` at `seed` for about `seconds` host seconds (at least
/// one repetition): untraced with end-to-end metrics, or traced with
/// per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let kernels = gen::kernels(size);
    let mut run = Run::default();
    let start = Instant::now();
    let mut reps = Vec::new();
    if trace {
        let floor = trace::floor_ns();
        let mut probes = None;
        loop {
            // Alternate which fleet run goes first, so warm-up does not
            // bias the tracing overhead.
            let mut fleet_tracer = Tracer::new(true);
            let (untraced, traced) = if reps.len() % 2 == 0 {
                let untraced =
                    prepare(workload, seed, size, &kernels).drive(&mut Tracer::new(false));
                (
                    untraced,
                    prepare(workload, seed, size, &kernels).drive(&mut fleet_tracer),
                )
            } else {
                let traced = prepare(workload, seed, size, &kernels).drive(&mut fleet_tracer);
                let untraced =
                    prepare(workload, seed, size, &kernels).drive(&mut Tracer::new(false));
                (untraced, traced)
            };
            run.absorb(&untraced);
            run.absorb(&traced);
            let mut replay_tracer = Tracer::new(true);
            let replay = layers::replay(&traced, &mut replay_tracer);
            run.problems.extend(replay.mismatches.iter().cloned());
            let (cipher, vanilla_mips) = *probes.get_or_insert_with(|| {
                let cipher = replay
                    .largest
                    .as_ref()
                    .map(|(image, keys)| layers::cipher_probe(image, keys))
                    .unwrap_or_default();
                (cipher, layers::vanilla_mips(&traced))
            });
            let traced_rep = layers::Traced {
                untraced: &untraced,
                traced: &traced,
                fleet_spans: &fleet_tracer.summary(),
                replay: &replay,
                replay_spans: &replay_tracer.summary(),
                replay_root_ns: replay_tracer.root_ns(),
                cipher,
                vanilla_mips,
                floor_ns: floor,
            };
            reps.push(traced_rep.metrics());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    } else {
        loop {
            let setup_s = setup_batch(workload, seed, size, &kernels);
            let d = prepare(workload, seed, size, &kernels).drive(&mut Tracer::new(false));
            let v = run.absorb(&d);
            if reps.is_empty() {
                // The peak of one fleet run from a fresh process: later
                // repetitions reuse (and fragment) the allocator's heap.
                run.peak_rss_mib = peak_rss_mib();
            }
            eprintln!(
                "rep {}: drive {:.4} s, setup {:.6} s",
                reps.len(),
                d.drive_s,
                setup_s
            );
            reps.push(end_to_end(&d, &v, setup_s));
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        // The first repetition warms caches, branch predictors and the
        // allocator; its times are left out whenever later ones exist.
        if reps.len() > 1 {
            reps.remove(0);
        }
    }
    run.finish(workload, seed, size, trace, reps)
}

/// Accumulates correctness over a run's fleet runs.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    counts: Option<Counts>,
    failed_frac: Vec<f64>,
    peak_rss_mib: f64,
}

impl Run {
    /// Checks one fleet run: outputs against the golden values, counts
    /// against the run's first fleet run (they must repeat exactly,
    /// traced or not).
    fn absorb(&mut self, d: &Drive) -> Verdict {
        let v = d.verdict();
        self.attempted += d.attempted;
        self.failed += v.failed;
        self.problems.extend(v.problems.iter().cloned());
        self.failed_frac
            .push((d.attempted - v.ok) as f64 / d.attempted.max(1) as f64);
        match self.counts {
            None => self.counts = Some(d.counts),
            Some(c) if c != d.counts => self.problems.push(format!(
                "counts differ between fleet runs of one seed:\n  first {c:?}\n  later {:?}",
                d.counts
            )),
            Some(_) => {}
        }
        v
    }

    fn finish(
        mut self,
        workload: Workload,
        seed: u64,
        size: Size,
        trace: bool,
        reps: Vec<Vec<Metric>>,
    ) -> Outcome {
        let counts = self.counts.unwrap_or_default();
        let mut metrics = median_metrics(&reps);
        let mut notes = Vec::new();
        if !trace {
            for m in &mut metrics {
                if m.name == "peak_rss_mib" {
                    m.value = self.peak_rss_mib;
                }
            }
            notes.push(format!(
                "failed_frac {:?} ratio (refusals + unhalted + wrong outputs per job attempted)",
                median(&self.failed_frac)
            ));
        } else if let Some(layer) = layers::largest_self_time(&metrics) {
            notes.push(format!("largest self time: {layer}"));
        }
        notes.push(format!("digest {:#018x}", counts.digest));
        notes.push(format!("pin {}", pins::pin_line(workload, seed, &counts)));
        if size == Size::full() {
            match pins::check(workload, seed, &counts) {
                Ok(true) => notes.push("pinned counts: match".to_string()),
                Ok(false) => notes.push("pinned counts: seed not pinned".to_string()),
                Err(e) => self.problems.push(e),
            }
        }
        if metrics.iter().any(|m| !m.value.is_finite()) {
            self.problems
                .push("a metric is not a finite number".to_string());
        }
        notes.extend(self.problems.iter().map(|p| format!("PROBLEM: {p}")));
        Outcome {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
            counts,
        }
    }
}

/// The mean host time of one set-up over [`SETUP_BATCH`] set-ups. Each
/// prepared fleet is dropped outside its own timed span.
fn setup_batch(
    workload: Workload,
    seed: u64,
    size: Size,
    kernels: &[sofia_workloads::Workload],
) -> f64 {
    let total: f64 = (0..SETUP_BATCH)
        .map(|_| prepare(workload, seed, size, kernels).setup_s())
        .sum();
    total / SETUP_BATCH as f64
}

/// The end-to-end metrics of one untraced fleet run, with the run's
/// set-up sample.
fn end_to_end(d: &Drive, v: &Verdict, setup_s: f64) -> Vec<Metric> {
    let c = &d.counts;
    let values = [
        setup_s,
        v.ok as f64 / d.drive_s,
        c.instret as f64 / d.drive_s / 1e6,
        percentile_f64(&d.sojourn_ms, 50),
        percentile_f64(&d.sojourn_ms, 99),
        0.0, // peak RSS: read once, after the first fleet run
        v.ok as f64 / d.attempted.max(1) as f64,
        c.cycles as f64,
        c.sojourn_p99_v as f64,
        c.makespan as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect()
}

/// The process's peak resident set (`VmHWM`), MiB; NaN where the
/// kernel does not report it. `getrusage`'s `ru_maxrss` would not do: it
/// carries the launching process's peak across `exec` (under `cargo run`,
/// cargo's own).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
