//! # sofia-core — the SOFIA architecture
//!
//! The run-time half of the paper's contribution: a processor extension
//! that (Fig. 1) fetches **encrypted** instructions through the I-cache,
//! decrypts them with control-flow-bound counters (CFI unit), verifies a
//! per-block CBC-MAC over the decrypted words (SI unit), and pulls the
//! reset line before any store of an unverified block can reach the
//! Memory Access pipeline stage.
//!
//! Built directly on the `sofia-cpu` baseline — same executor, memory,
//! I-cache and pipeline models — so vanilla-vs-SOFIA comparisons isolate
//! exactly the cost of the security architecture:
//!
//! * [`fetch`] — the block sequencer + CFI decrypt + SI verify unit;
//! * [`machine`] — [`machine::Machine`], the one machine around any fetch
//!   unit (the shared engine, a reset/reboot policy and the violation
//!   log), which the alternative backends (`sofia-backends`) reuse, and
//!   [`machine::SofiaMachine`], its SOFIA instance;
//! * [`timing`] — the cipher schedule and store-gate model (Figs. 5/6);
//! * [`vcache`] — the verified-block cache: post-verification caching
//!   keyed by the control-flow edge `(prevPC, PC)`, so hot edges skip
//!   decrypt + MAC entirely (architecturally invisible, off by default);
//! * [`memo`] — the refill memo: a host-only memo keyed by the edge and
//!   the ciphertext, so the simulator verifies each distinct refill once
//!   while every counter and cycle stays as if the cipher ran;
//! * [`snapshot`] — suspend/restore: serialise a preempted machine so a
//!   job can migrate across processes/hosts and resume bit-for-bit (no
//!   ciphertext, keys or decrypted plaintext ever travel — the image's
//!   MACs cover transit);
//! * [`security`] — the closed-form attack economics of §IV-A.
//!
//! # Examples
//!
//! Detecting a control-flow violation (the paper's Fig. 2 scenario):
//!
//! ```
//! use sofia_core::machine::{RunOutcome, SofiaMachine};
//! use sofia_crypto::KeySet;
//! use sofia_isa::asm;
//! use sofia_transform::Transformer;
//!
//! let keys = KeySet::from_seed(2);
//! let module = asm::parse("main: li t0, 1\n halt")?;
//! let image = Transformer::new(keys.clone()).transform(&module)?;
//!
//! // Untampered: runs to completion.
//! let mut ok = SofiaMachine::new(&image, &keys);
//! assert!(ok.run(10_000)?.is_halted());
//!
//! // Tampered image: the SI unit resets the core before execution.
//! let mut bad = SofiaMachine::new(&image, &keys);
//! bad.mem_mut().rom_mut()[2] ^= 1;
//! assert!(matches!(bad.run(10_000)?, RunOutcome::ViolationStop(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fetch;
pub mod machine;
pub mod memo;
pub mod security;
pub mod snapshot;
pub mod timing;
pub mod vcache;
mod violation;

pub use machine::{ResetPolicy, ResumeEdge, SliceOutcome, SliceRun, SofiaConfig, SofiaStats};
pub use memo::RefillMemoStats;
pub use snapshot::{MachineSnapshot, RestoreError};
pub use timing::{CipherSchedule, SofiaTiming};
pub use vcache::{VCacheConfig, VCacheStats};
pub use violation::Violation;
