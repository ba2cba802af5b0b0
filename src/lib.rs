//! # SOFIA — Software and Control Flow Integrity Architecture
//!
//! A full-system reproduction of *"SOFIA: Software and Control Flow
//! Integrity Architecture"* (de Clercq et al., DATE 2016) in pure Rust.
//!
//! SOFIA protects bare-metal software against code-injection and
//! code-reuse attacks with two cooperating hardware mechanisms:
//!
//! * **CFI** — every instruction word is encrypted under a counter derived
//!   from the control-flow edge that reaches it (`{ω ‖ prevPC ‖ PC}`), so
//!   any transfer not in the static CFG decrypts the destination to noise;
//! * **SI** — instructions are grouped into fixed-size blocks carrying a
//!   CBC-MAC which the hardware re-verifies before any store of the block
//!   can reach the memory-access pipeline stage; a mismatch resets the CPU.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`isa`] | the SL32 instruction set, assembler and disassembler |
//! | [`crypto`] | RECTANGLE-80 (scalar + bitsliced engines), CTR keystream and CBC-MAC |
//! | [`cfg`](mod@cfg) | instruction-level control-flow-graph analysis |
//! | [`cpu`] | the vanilla 7-stage pipeline simulator (LEON3-like baseline) |
//! | [`transform`] | the secure installer (blocks, mux trees, MAC-then-Encrypt) |
//! | [`core`] | the one `Machine<F>` around any fetch unit (engine, reset policy, violation log) and SOFIA's CFI decrypt + SI verify fetch unit |
//! | [`backends`] | alternative integrity backends (sponge CFP, FIPAC): fetch units for the same `Machine<F>` |
//! | [`workloads`] | ADPCM and other embedded kernels with golden models |
//! | [`attacks`] | the adversary harness (injection, relocation, hijack, forgery) |
//! | [`hwmodel`] | the calibrated FPGA area / critical-path cost model |
//! | [`fleet`] | multi-tenant sealed-program serving with fuel-sliced scheduling |
//!
//! # Quickstart
//!
//! ```
//! use sofia::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Write a program and assemble it.
//! let src = r#"
//!     .text
//! main:
//!     li   t0, 6
//!     li   t1, 7
//!     mul  a0, t0, t1
//!     li   t2, 0xFFFF0000   # MMIO word-output port
//!     sw   a0, 0(t2)
//!     halt
//! "#;
//! let module = sofia::isa::asm::parse(src)?;
//!
//! // 2. Securely install it (MAC-then-Encrypt under fresh keys).
//! let keys = KeySet::from_seed(42);
//! let image = Transformer::new(keys.clone()).transform(&module)?;
//!
//! // 3. Run it on a SOFIA machine: it executes normally.
//! let mut machine = SofiaMachine::new(&image, &keys);
//! let outcome = machine.run(1_000_000)?;
//! assert!(outcome.is_halted());
//! # Ok(())
//! # }
//! ```

pub use sofia_attacks as attacks;
pub use sofia_backends as backends;
pub use sofia_cfg as cfg;
pub use sofia_core as core;
pub use sofia_cpu as cpu;
pub use sofia_crypto as crypto;
pub use sofia_fleet as fleet;
pub use sofia_hwmodel as hwmodel;
pub use sofia_isa as isa;
pub use sofia_transform as transform;
pub use sofia_workloads as workloads;

/// The most commonly used types, re-exported for `use sofia::prelude::*`.
/// Every protected machine is a `Machine<F>`: [`SofiaMachine`],
/// [`SpongeMachine`] (built by [`SpongeFetch::machine`]) and
/// [`FipacMachine`] (built by [`FipacFetch::machine`]).
///
/// [`SofiaMachine`]: prelude::SofiaMachine
/// [`SpongeMachine`]: prelude::SpongeMachine
/// [`SpongeFetch::machine`]: prelude::SpongeFetch::machine
/// [`FipacMachine`]: prelude::FipacMachine
/// [`FipacFetch::machine`]: prelude::FipacFetch::machine
pub mod prelude {
    pub use sofia_backends::{BackendConfig, FipacFetch, FipacMachine, SpongeFetch, SpongeMachine};
    pub use sofia_core::{
        machine::{Machine, RunOutcome, SofiaMachine},
        security, ResumeEdge, SliceOutcome, SofiaConfig, VCacheConfig, Violation,
    };
    pub use sofia_cpu::{machine::VanillaMachine, Trap};
    pub use sofia_crypto::{KeySet, Nonce};
    pub use sofia_fleet::{
        Fleet, FleetConfig, FleetStats, JobOutcome, JobSpec, QuarantinePolicy, SchedMode, TenantId,
    };
    pub use sofia_isa::{
        asm::{self, Module},
        Instruction, Reg,
    };
    pub use sofia_transform::{
        install_fipac, seal_sponge, BlockFormat, FipacImage, SecureImage, SpongeImage,
        TransformReport, Transformer,
    };
}
