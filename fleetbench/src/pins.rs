//! Pinned simulated counts at the default and the held-out seed.
//!
//! They describe the simulated work, not the host: a host-only change
//! must leave every one of them identical, and a run at a pinned seed
//! (full size) whose counts differ is reported as incorrect. A change
//! that is meant to alter the simulated work re-pins here, and says why.

use crate::drive::Counts;
use crate::gen::Workload;

/// The exact counts of one workload at one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Σ simulated slots retired.
    pub instret: u64,
    /// Σ simulated cycles.
    pub cycles: u64,
    /// Scheduler quanta.
    pub quanta: u64,
    /// Parks.
    pub parks: u64,
    /// Revives.
    pub revives: u64,
    /// Seals (seal-cache misses).
    pub seals: u64,
    /// Record digest.
    pub digest: u64,
}

/// Every pin. The `serve_wfq` digest at seed 0 is the `async_wfq` digest
/// `BENCH_fleet.json` records.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "serve_wfq",
        seed: 0,
        instret: 602880,
        cycles: 1612178,
        quanta: 4926,
        parks: 2810,
        revives: 2810,
        seals: 1350,
        digest: 0xb4c0f992e7454086,
    },
    Pin {
        workload: "serve_wfq",
        seed: 2016,
        instret: 602880,
        cycles: 1612178,
        quanta: 4926,
        parks: 2816,
        revives: 2816,
        seals: 1350,
        digest: 0x14179ee6b2a45470,
    },
    Pin {
        workload: "sim_uncached",
        seed: 0,
        instret: 5703070,
        cycles: 11265829,
        quanta: 289,
        parks: 0,
        revives: 0,
        seals: 10,
        digest: 0xe68f6000ea3afcb7,
    },
    Pin {
        workload: "sim_uncached",
        seed: 2016,
        instret: 5703070,
        cycles: 11265829,
        quanta: 289,
        parks: 0,
        revives: 0,
        seals: 10,
        digest: 0xe68f6000ea3afcb7,
    },
    Pin {
        workload: "batch_migrate",
        seed: 0,
        instret: 68436840,
        cycles: 88694028,
        quanta: 3468,
        parks: 0,
        revives: 0,
        seals: 228,
        digest: 0xf03691df8ea4089a,
    },
    Pin {
        workload: "batch_migrate",
        seed: 2016,
        instret: 68436840,
        cycles: 88694028,
        quanta: 3468,
        parks: 0,
        revives: 0,
        seals: 228,
        digest: 0xf03691df8ea4089a,
    },
];

impl Pin {
    fn of(workload: Workload, seed: u64, c: &Counts) -> Pin {
        Pin {
            workload: workload.name(),
            seed,
            instret: c.instret,
            cycles: c.cycles,
            quanta: c.quanta,
            parks: c.parks,
            revives: c.revives,
            seals: c.seals,
            digest: c.digest,
        }
    }
}

/// Checks full-size counts against the pin of `(workload, seed)`.
/// `Ok(true)`: pinned and equal; `Ok(false)`: the seed is not pinned.
///
/// # Errors
///
/// The pinned and measured counts, when they differ.
pub fn check(workload: Workload, seed: u64, counts: &Counts) -> Result<bool, String> {
    let Some(pin) = PINS
        .iter()
        .find(|p| p.workload == workload.name() && p.seed == seed)
    else {
        return Ok(false);
    };
    let got = Pin::of(workload, seed, counts);
    if got == *pin {
        Ok(true)
    } else {
        Err(format!(
            "counts differ from the pin:\n  pinned   {pin:?}\n  measured {got:?}"
        ))
    }
}

/// The pin line for `counts`, in the form [`PINS`] holds it.
pub fn pin_line(workload: Workload, seed: u64, c: &Counts) -> String {
    let p = Pin::of(workload, seed, c);
    format!(
        "Pin {{ workload: \"{}\", seed: {}, instret: {}, cycles: {}, quanta: {}, parks: {}, \
         revives: {}, seals: {}, digest: {:#018x} }},",
        p.workload, p.seed, p.instret, p.cycles, p.quanta, p.parks, p.revives, p.seals, p.digest
    )
}
