//! # sofia-fleet — multi-tenant sealed-program serving
//!
//! The paper's deployment story scaled out: one software provider seals
//! programs for a *fleet* of devices that share nothing but their device
//! keys (§II: "these keys are known only by the software provider").
//! This crate turns the single-machine reproduction into a concurrent
//! execution service:
//!
//! * **Tenants** register a device [`sofia_crypto::KeySet`]; every
//!   tenant's program is sealed **once** into the shared
//!   [`sofia_transform::cache::ImageCache`] under those keys, so two
//!   tenants submitting the same program still run *different*
//!   ciphertexts — key isolation is structural. The key-free plan of a
//!   program is made once and shared by every tenant that runs it.
//! * **Jobs** (tenant + program + fuel budget) run on a few host
//!   threads, either run-to-completion or **fuel-sliced**: preemptive
//!   round-robin built on the engine's metered fuel seam
//!   ([`sofia_cpu::engine::Pipeline::run_metered`]), suspending jobs
//!   between blocks on the fetch unit's edge registers
//!   ([`sofia_core::ResumeEdge`]) so a long ADPCM job cannot starve
//!   short ones.
//! * **One driver**: [`AsyncFleet`] multiplexes thousands of tenants
//!   over a few OS threads — weighted fair queueing across service
//!   classes ([`admission`]), typed admission-control backpressure,
//!   cold jobs parked to `SOFS1` snapshot bytes, checkpoint migration
//!   between fleets — with results bit-identical to serial execution
//!   at any thread count. The batch [`Fleet`] is a facade over it: all
//!   jobs arrive at once, every queued job gets one quantum per tick,
//!   and a batch runs until idle.
//! * **Quarantine**: a violation (MAC mismatch, forged edge) contains
//!   exactly one tenant per the configured [`QuarantinePolicy`] —
//!   suspend, retry-with-reboot, or evict — while the rest of the fleet
//!   keeps serving.
//! * **Statistics** roll up per tenant from the existing
//!   [`sofia_core::SofiaStats`]: cycles, vcache hit rates, violations,
//!   seal-cache hits, queue latency in deterministic scheduler ticks
//!   (see [`schedule`]).
//!
//! The load-bearing invariant, pinned by the workspace `fleet` test
//! suites: for any job set, fleet execution at **any worker count** and
//! in **either scheduling mode** produces bit-identical per-job results,
//! traps and violation reports to serial single-machine execution.
//!
//! # Examples
//!
//! Two tenants, one of them under attack — the victim is quarantined,
//! the fleet keeps serving:
//!
//! ```
//! use sofia_crypto::KeySet;
//! use sofia_fleet::{Fleet, FleetConfig, JobSpec, Sabotage, TenantId};
//!
//! let mut fleet = Fleet::new(FleetConfig::default());
//! let (alice, mallory) = (TenantId(1), TenantId(2));
//! fleet.register_tenant(alice, KeySet::from_seed(1))?;
//! fleet.register_tenant(mallory, KeySet::from_seed(2))?;
//!
//! let program = "main: li t0, 7
//!                     li a0, 0xFFFF0000
//!                     sw t0, 0(a0)
//!                     halt";
//! fleet.submit(JobSpec::new(alice, program, 10_000))?;
//! fleet.submit(
//!     JobSpec::new(mallory, program, 10_000)
//!         .with_sabotage(Sabotage::FlipRomWord { word: 2, mask: 1 }),
//! )?;
//! let records = fleet.run_batch();
//!
//! assert_eq!(records[0].out_words, vec![7]); // alice unperturbed
//! assert!(records[1].outcome.is_violation()); // mallory detected
//! assert!(fleet.submit(JobSpec::new(mallory, program, 1)).is_err());
//! assert!(fleet.submit(JobSpec::new(alice, program, 10_000)).is_ok());
//! # Ok::<(), sofia_fleet::FleetError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A fleet exists to contain per-tenant faults; an `unwrap`/`expect` on a
// shared lock is how one tenant's panic became a fleet-wide abort (the
// lock-poisoning cascade this crate's panic-isolation suite pins
// against). Non-test code must route every lock through the driver's
// poison-shrugging `lock_clean` and every "impossible" state through a
// typed record or `unreachable!` with a stated invariant.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod chaos;
mod checkpoint;
pub mod executor;
mod fleet;
mod job;
mod quarantine;
pub mod resilience;
pub mod schedule;
mod stats;

pub use admission::{AdmissionConfig, AdmitError, ClassConfig, ClassId, Rejection};
pub use chaos::{ChaosPlan, FaultRate, Seam};
pub use checkpoint::{AdoptError, JobCheckpoint};
pub use executor::{AsyncConfig, AsyncFleet, AsyncStats, FleetError, SchedMode};
pub use fleet::{Fleet, FleetConfig};
pub use job::{records_digest, JobId, JobOutcome, JobRecord, JobSpec, Sabotage, TenantId};
pub use quarantine::{QuarantinePolicy, TenantState};
pub use resilience::{BreakerConfig, ResilienceConfig, ResilienceEvent, ResilienceStats};
pub use stats::{FleetStats, TenantStats};
