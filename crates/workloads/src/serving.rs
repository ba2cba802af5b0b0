//! The WFQ serving mix, defined once: the workload of `BENCH_fleet.json`'s
//! `async_wfq`, the `BENCH_chaos.json` sweep and fleetbench's `serve_wfq`.
//! Tenants split 70/20/10 over three weighted [`CLASSES`]: interactive
//! (open loop, two short jobs at seeded ticks), batch (closed loop,
//! [`BATCH_ROUNDS`] jobs, each submitted when the last one finishes) and
//! best effort (a tick-0 burst against a queue cap of half the class).
//! Plain data from one `u64` seed; seed 0 gives the historical streams.

use sofia_crypto::KeySet;

/// The service classes: `(class id, label, WFQ weight)`, ascending id.
pub const CLASSES: [(u8, &str, u64); 3] = [
    (0, "interactive", 8),
    (1, "batch", 2),
    (2, "best_effort", 1),
];

/// Closed-loop rounds each batch tenant submits.
pub const BATCH_ROUNDS: u32 = 3;

/// The device keys of tenant `id` under `seed`; seed 0 gives `0x5EED_0000 + id`.
pub fn tenant_keys(seed: u64, id: u32) -> KeySet {
    KeySet::from_seed((0x5EED_0000 + u64::from(id)) ^ seed.rotate_left(32))
}

/// The seeded arrival stream: a 64-bit LCG, from `0x2545F491_4F6CDD1D` at seed 0.
#[derive(Clone, Debug)]
pub struct Arrivals(u64);

impl Arrivals {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Arrivals {
        Arrivals(0x2545F491_4F6CDD1D ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
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

/// The mix's unit of work: `n` loop turns, then a 0 on the MMIO word port.
pub fn loop_src(n: u32) -> String {
    format!(
        "main: li t0, {n}
         loop: subi t0, t0, 1
               bnez t0, loop
               li a0, 0xFFFF0000
               sw t0, 0(a0)
               halt"
    )
}

/// One job of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Submitting tenant.
    pub tenant: u32,
    /// SL32 assembly source.
    pub source: String,
    /// Fuel budget.
    pub fuel: u64,
    /// Golden MMIO word output.
    pub expected: Vec<u32>,
}

fn loop_job(tenant: u32, n: u32, fuel: u64) -> Job {
    let (source, expected) = (loop_src(n), vec![0]);
    Job {
        tenant,
        source,
        fuel,
        expected,
    }
}

/// An interactive tenant's job.
pub fn interactive(tenant: u32) -> Job {
    loop_job(tenant, 8 + tenant % 16, 100_000)
}

/// Round `round` of a batch tenant's closed loop.
pub fn batch(tenant: u32, round: u32) -> Job {
    loop_job(tenant, 120 + (tenant % 7) * 10 + round * 3, 200_000)
}

/// A best-effort tenant's job.
pub fn best_effort(tenant: u32) -> Job {
    loop_job(tenant, 40 + tenant % 11, 150_000)
}

/// The 70/20/10 tenant split of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Tenants in all.
    pub tenants: usize,
    /// Tenants per class in [`CLASSES`] order, which is also id order.
    pub split: [usize; 3],
}

impl Mix {
    /// The split for `tenants` tenants.
    pub fn new(tenants: usize) -> Mix {
        let (interactive, batch) = (tenants * 7 / 10, tenants * 2 / 10);
        let split = [interactive, batch, tenants - interactive - batch];
        Mix { tenants, split }
    }

    /// The class id of tenant `id`: 0 interactive, 1 batch, 2 best effort.
    pub fn class_of(&self, id: u32) -> u8 {
        match id as usize - 1 {
            i if i < self.split[0] => 0,
            i if i < self.split[0] + self.split[1] => 1,
            _ => 2,
        }
    }

    /// The open-loop arrival window: 400 ticks, widened beyond 1k tenants
    /// so a larger fleet's arrivals are not squeezed into one burst.
    pub fn horizon(&self) -> u64 {
        400u64.max(400 * self.tenants as u64 / 1000)
    }

    /// Queue cap of the best-effort class: half the class.
    pub fn best_effort_cap(&self) -> usize {
        (self.split[2] / 2).max(1)
    }

    /// Admission refusals due: the best-effort burst beyond its cap.
    pub fn expected_rejections(&self) -> usize {
        self.split[2].saturating_sub(self.best_effort_cap())
    }

    /// Jobs the mix submits in all, closed-loop rounds included.
    pub fn jobs(&self) -> usize {
        2 * self.split[0] + BATCH_ROUNDS as usize * self.split[1] + self.split[2]
    }

    /// The initial `(arrival tick, job)` submissions under `seed`, in the
    /// order a fleet must number them; later batch rounds are [`batch`].
    pub fn submissions(&self, seed: u64) -> Vec<(u64, Job)> {
        let mut arrivals = Arrivals::new(seed);
        let mut out = Vec::new();
        for id in 1..=self.tenants as u32 {
            match self.class_of(id) {
                0 => out.extend((0..2).map(|_| (arrivals.draw(self.horizon()), interactive(id)))),
                1 => out.push((arrivals.draw(8), batch(id, 0))),
                _ => out.push((0, best_effort(id))),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_the_documented_shape() {
        let mix = Mix::new(1000);
        assert_eq!(mix.split, [700, 200, 100]);
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
    }

    #[test]
    fn a_nonzero_seed_moves_keys_and_arrivals() {
        assert_ne!(tenant_keys(1, 7), tenant_keys(0, 7));
        let draws = |seed| {
            let mut a = Arrivals::new(seed);
            (0..8).map(|_| a.draw(1 << 20)).collect::<Vec<_>>()
        };
        assert_ne!(draws(2016), draws(0));
        let ticks = |seed| {
            Mix::new(100)
                .submissions(seed)
                .into_iter()
                .map(|(tick, _)| tick)
                .collect::<Vec<_>>()
        };
        assert_ne!(ticks(2016), ticks(0));
    }

    #[test]
    fn every_job_runs_to_its_golden_output() {
        let mix = Mix::new(20);
        let mut jobs: Vec<Job> = mix.submissions(0).into_iter().map(|(_, j)| j).collect();
        jobs.extend((1..BATCH_ROUNDS).map(|round| batch(15, round)));
        for job in jobs {
            let w = crate::Workload {
                name: "serving",
                description: "serving mix job",
                source: job.source,
                expected: job.expected,
            };
            w.verify_on_vanilla()
                .unwrap_or_else(|e| panic!("tenant {}: {e}", job.tenant));
        }
    }
}
