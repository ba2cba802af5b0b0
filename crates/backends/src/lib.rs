//! # sofia-backends — alternative integrity backends
//!
//! Two complete code-integrity schemes from the literature, implemented
//! behind the same [`FetchUnit`] seam as SOFIA itself and run by the
//! same [`Machine`] — one [`Pipeline`] engine, one [`ResetPolicy`]
//! dispatch, one violation log — so the three can be compared
//! attack-for-attack and cycle-for-cycle on identical workloads. Only
//! the fetch unit differs: [`SpongeMachine`] and [`FipacMachine`] are
//! aliases of `Machine<SpongeFetch>` and `Machine<FipacFetch>`, built by
//! [`SpongeFetch::machine`] and [`FipacFetch::machine`].
//!
//! * [`SpongeFetch`] / [`SpongeMachine`] — **sponge-based control-flow
//!   protection** (Werner et al., SCFP). The text is encrypted against a
//!   running sponge state that absorbs every fetched word; control-flow
//!   edges carry public patch values that re-align the state across
//!   joins. There is no MAC: a tampered word or an out-of-CFG fetch
//!   desynchronises the state, and everything after it decrypts to
//!   garbage that fails instruction decode — *implicit* integrity with a
//!   short probabilistic detection latency, paid for with a serial
//!   permutation on the fetch critical path.
//!
//! * [`FipacFetch`] / [`FipacMachine`] — **FIPAC-style keyed CFI state**
//!   (Nasahl et al.). The text stays in plaintext; a CBC-MAC-style keyed
//!   state over executed words (patched across edges the same way) is
//!   compared against installed signatures at justifying check points
//!   (returns and exits). Near-zero fetch overhead — the state update
//!   pipelines off the critical path — but detection is deferred to the
//!   next check, so tampered instructions *execute* before being caught.
//!
//! Both installers live in `sofia_transform` ([`seal_sponge`],
//! [`install_fipac`]) and share one chain/patch pass; neither needs
//! SOFIA's block packing or mux trees, which is the structural contrast
//! the comparison harness (`tests/`, `BENCH_backends.json`) quantifies.
//! At run time the two units likewise share one chain sequencer (edge
//! registers, text bounds, batch loop, boot, patch-on-transfer, hijack)
//! and differ only in their per-word rule: the sponge decrypts, checks
//! for garbage, absorbs and pays the permutation latency; FIPAC decodes,
//! gates signature points and unjustified halts, absorbs and pays one
//! cycle per word.
//!
//! # Examples
//!
//! ```
//! use sofia_backends::{BackendConfig, SpongeFetch};
//! use sofia_crypto::{KeySet, Nonce};
//! use sofia_isa::asm;
//! use sofia_transform::seal_sponge;
//!
//! let keys = KeySet::from_seed(3);
//! let module = asm::parse(
//!     "main: li t0, 5
//!            li a0, 0xFFFF0000
//!            sw t0, 0(a0)
//!            halt",
//! )?;
//! let image = seal_sponge(&module, &keys, Nonce::new(1))?;
//! let mut m = SpongeFetch::machine(&image, &keys, &BackendConfig::default());
//! assert!(m.run(10_000)?.is_halted());
//! assert_eq!(m.mem().mmio.out_words, vec![5]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`FetchUnit`]: sofia_cpu::FetchUnit
//! [`Machine`]: sofia_core::machine::Machine
//! [`ResetPolicy`]: sofia_core::machine::ResetPolicy
//! [`Pipeline`]: sofia_cpu::engine::Pipeline
//! [`seal_sponge`]: sofia_transform::seal_sponge
//! [`install_fipac`]: sofia_transform::install_fipac

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Same wall as `sofia-fleet`: a backend is a comparison *subject*, and a
// stray `unwrap` in one scheme's fetch path would abort the whole
// cross-backend harness instead of producing that scheme's typed
// `RunOutcome`. Non-test code routes every fallible step through the
// typed error surface.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod chain;
pub mod fipac;
pub mod sponge;

use sofia_core::machine::ResetPolicy;
use sofia_cpu::machine::MachineConfig;

pub use fipac::{FipacFetch, FipacMachine, FipacStats, FipacTiming, FipacViolation};
pub use sponge::{SpongeFetch, SpongeMachine, SpongeStats, SpongeTiming, SpongeViolation};

/// Configuration shared by all backend machines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendConfig {
    /// Baseline machine parameters (RAM, I-cache, pipeline penalties).
    pub machine: MachineConfig,
    /// Reset-line behaviour, reusing the SOFIA core's policy type.
    pub reset_policy: ResetPolicy,
}
