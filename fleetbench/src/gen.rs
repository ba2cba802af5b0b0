//! Workload generation. Every input the fleet receives is derived here
//! from the `--seed` argument and nothing else: tenant keys, arrival
//! ticks and job programs.
//!
//! Seed 0 is the default seed. It reproduces the historical fixed
//! streams of the repository's `async_wfq` experiment exactly (tenant
//! keys `0x5EED_0000 + id`, the LCG start `0x2545F491_4F6CDD1D`), so the
//! `serve_wfq` digest at seed 0 is the one `BENCH_fleet.json` pins.

use sofia_crypto::KeySet;
use sofia_workloads::{suite, Scale};

/// The seed the benchmark's pinned counts and digests refer to.
pub const DEFAULT_SEED: u64 = 0;

/// A second pinned seed, kept out of tuning, on which later claims are
/// re-checked.
pub const HELD_OUT_SEED: u64 = 2016;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `AsyncFleet` under the 1k-tenant WFQ mix: parking and the
    /// coordinator dominate.
    ServeWfq,
    /// `AsyncFleet` running the bench-scale kernels uncached: the refill
    /// path (CTR sweep, CBC-MAC, decode) dominates.
    SimUncached,
    /// Two batch `Fleet`s with a checkpoint migration between them,
    /// vcache on: the engine dominates.
    BatchMigrate,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeWfq,
        Workload::SimUncached,
        Workload::BatchMigrate,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWfq => "serve_wfq",
            Workload::SimUncached => "sim_uncached",
            Workload::BatchMigrate => "batch_migrate",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the workload's fleet runs on.
    pub fn host_threads(self) -> usize {
        match self {
            Workload::ServeWfq | Workload::BatchMigrate => 2,
            Workload::SimUncached => 1,
        }
    }
}

/// Problem size. [`Size::full`] is the benchmark; [`Size::small`] keeps
/// every shape (classes, rejections, parking, migration) at a size the
/// tests can run in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Tenants of the `serve_wfq` mix.
    pub wfq_tenants: usize,
    /// Kernel scale of `sim_uncached` and `batch_migrate`.
    pub kernels: Scale,
    /// `batch_migrate` tenants per kernel.
    pub copies: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            wfq_tenants: 1000,
            kernels: Scale::Bench,
            copies: 12,
        }
    }

    /// A small size with the same shapes, for tests.
    pub fn small() -> Size {
        Size {
            wfq_tenants: 60,
            kernels: Scale::Test,
            copies: 2,
        }
    }
}

/// The device keys of `tenant` under `seed`.
pub fn tenant_keys(seed: u64, tenant: u32) -> KeySet {
    KeySet::from_seed((0x5EED_0000 + u64::from(tenant)) ^ seed.rotate_left(32))
}

/// One job as the benchmark defines it: who submits it, the program,
/// its fuel, and the output its run must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobDef {
    /// Submitting tenant.
    pub tenant: u32,
    /// SL32 assembly source.
    pub source: String,
    /// Fuel budget.
    pub fuel: u64,
    /// Golden MMIO word output.
    pub expected: Vec<u32>,
}

// ---------------------------------------------------------------------
// serve_wfq
// ---------------------------------------------------------------------

/// Fuel slice of `serve_wfq`.
pub const WFQ_SLICE: u64 = 150;
/// Virtual lanes of `serve_wfq`.
pub const WFQ_LANES: usize = 8;
/// Closed-loop rounds per batch tenant.
pub const WFQ_BATCH_ROUNDS: u32 = 3;

/// The 70/20/10 tenant split of the WFQ mix over three classes:
/// interactive (weight 8, open loop), batch (weight 2, closed loop) and
/// best effort (weight 1, a tick-0 burst against a queue cap of half
/// the class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WfqMix {
    /// Tenants in all.
    pub tenants: usize,
    /// Interactive tenants (ids `1..=interactive`).
    pub interactive: usize,
    /// Batch tenants (the next ids).
    pub batch: usize,
    /// Best-effort tenants (the remaining ids).
    pub best_effort: usize,
}

impl WfqMix {
    /// The split for `tenants` tenants.
    pub fn new(tenants: usize) -> WfqMix {
        let interactive = tenants * 7 / 10;
        let batch = tenants * 2 / 10;
        WfqMix {
            tenants,
            interactive,
            batch,
            best_effort: tenants - interactive - batch,
        }
    }

    /// The class id of `tenant`: 0 interactive, 1 batch, 2 best effort.
    pub fn class_of(&self, tenant: u32) -> u8 {
        let i = tenant as usize - 1;
        if i < self.interactive {
            0
        } else if i < self.interactive + self.batch {
            1
        } else {
            2
        }
    }

    /// `(class id, weight)` of each class.
    pub fn weights(&self) -> [(u8, u64); 3] {
        [(0, 8), (1, 2), (2, 1)]
    }

    /// The open-loop arrival window in ticks: 400 at 1k tenants, wider
    /// for larger mixes.
    pub fn horizon(&self) -> u64 {
        400u64.max(400 * self.tenants as u64 / 1000)
    }

    /// Queue cap of the best-effort class.
    pub fn best_effort_cap(&self) -> usize {
        (self.best_effort / 2).max(1)
    }

    /// Admission refusals the design calls for: the part of the
    /// best-effort burst beyond its queue cap.
    pub fn expected_rejections(&self) -> usize {
        self.best_effort.saturating_sub(self.best_effort_cap())
    }

    /// Jobs the mix submits in all.
    pub fn jobs(&self) -> usize {
        2 * self.interactive + WFQ_BATCH_ROUNDS as usize * self.batch + self.best_effort
    }
}

/// A counted loop that stores its (zero) counter on the MMIO word port.
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

/// An interactive tenant's job.
pub fn wfq_interactive(tenant: u32) -> JobDef {
    JobDef {
        tenant,
        source: wfq_job_src(8 + (tenant % 16)),
        fuel: 100_000,
        expected: vec![0],
    }
}

/// Round `round` of a batch tenant's closed loop.
pub fn wfq_batch(tenant: u32, round: u32) -> JobDef {
    JobDef {
        tenant,
        source: wfq_job_src(120 + (tenant % 7) * 10 + round * 3),
        fuel: 200_000,
        expected: vec![0],
    }
}

/// A best-effort tenant's job.
pub fn wfq_best_effort(tenant: u32) -> JobDef {
    JobDef {
        tenant,
        source: wfq_job_src(40 + (tenant % 11)),
        fuel: 150_000,
        expected: vec![0],
    }
}

/// The seeded open-loop arrival stream: a 64-bit LCG. Seed 0 starts it
/// where the historical fixed stream starts.
#[derive(Clone, Debug)]
pub struct Arrivals(u64);

impl Arrivals {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Arrivals {
        Arrivals(0x2545_F491_4F6C_DD1D ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next draw in `0..bound`.
    pub fn draw(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

// ---------------------------------------------------------------------
// sim_uncached and batch_migrate
// ---------------------------------------------------------------------

/// Fuel slice of the two kernel workloads.
pub const KERNEL_SLICE: u64 = 20_000;
/// Fuel budget of a kernel job (far above any kernel's need).
pub const KERNEL_FUEL: u64 = 500_000_000;
/// Quanta each job gets on fleet A of `batch_migrate` before migration.
pub const MIGRATE_AFTER_QUANTA: u32 = 3;
/// Verified-block cache geometry of `batch_migrate`: entries, ways.
pub const MIGRATE_VCACHE: (u32, u32) = (256, 8);

/// The kernel suite at `size` — program sources with their golden
/// outputs, built once per process.
pub fn kernels(size: Size) -> Vec<sofia_workloads::Workload> {
    suite(size.kernels)
}

/// `sim_uncached`: one tenant per kernel (tenant `i + 1` runs kernel
/// `i`).
pub fn sim_jobs(kernels: &[sofia_workloads::Workload]) -> Vec<JobDef> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| kernel_job(i as u32 + 1, k))
        .collect()
}

/// `batch_migrate`: `copies` tenants per kernel, interleaved (tenant `t`
/// runs kernel `(t - 1) % kernels`), each with its own keys.
pub fn migrate_jobs(kernels: &[sofia_workloads::Workload], copies: usize) -> Vec<JobDef> {
    (0..kernels.len() * copies)
        .map(|i| kernel_job(i as u32 + 1, &kernels[i % kernels.len()]))
        .collect()
}

fn kernel_job(tenant: u32, kernel: &sofia_workloads::Workload) -> JobDef {
    JobDef {
        tenant,
        source: kernel.source.clone(),
        fuel: KERNEL_FUEL,
        expected: kernel.expected.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_the_documented_shape() {
        let mix = WfqMix::new(1000);
        assert_eq!(
            (mix.interactive, mix.batch, mix.best_effort),
            (700, 200, 100)
        );
        assert_eq!(mix.jobs(), 2100);
        assert_eq!(mix.expected_rejections(), 50);
        assert_eq!(mix.horizon(), 400);
    }

    #[test]
    fn seed_zero_keeps_the_historical_streams() {
        assert_eq!(tenant_keys(0, 7), KeySet::from_seed(0x5EED_0007));
        let mut a = Arrivals::new(0);
        let mut lcg: u64 = 0x2545F491_4F6CDD1D;
        for _ in 0..4 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            assert_eq!(a.draw(400), (lcg >> 33) % 400);
        }
        assert_ne!(tenant_keys(1, 7), tenant_keys(0, 7));
    }
}
