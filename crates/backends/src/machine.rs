//! A generic machine around any [`FetchUnit`] — the same shared
//! [`Pipeline`] engine as `SofiaMachine` and `VanillaMachine`, with the
//! same [`ResetPolicy`] dispatch, parameterised over the backend's fetch
//! unit so the sponge and FIPAC machines are one wrapper, not two.

use sofia_core::machine::ResetPolicy;
use sofia_cpu::engine::{EngineOutcome, Pipeline};
use sofia_cpu::exec::RegFile;
use sofia_cpu::icache::ICacheStats;
use sofia_cpu::machine::MachineConfig;
use sofia_cpu::mem::Memory;
use sofia_cpu::{ExecStats, FetchUnit, Trap};
use sofia_crypto::KeySet;
use sofia_transform::{FipacImage, SpongeImage};

use crate::fipac::{FipacFetch, FipacTiming};
use crate::sponge::{SpongeFetch, SpongeTiming};

/// Configuration shared by all backend machines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendConfig {
    /// Baseline machine parameters (RAM, I-cache, pipeline penalties).
    pub machine: MachineConfig,
    /// Reset-line behaviour, reusing the SOFIA core's policy type.
    pub reset_policy: ResetPolicy,
}

/// Why a [`BackendMachine::run`] call returned. Generic over the
/// backend's violation type — the shape mirrors
/// [`sofia_core::machine::RunOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendOutcome<V> {
    /// The program executed `halt` normally.
    Halted,
    /// The step budget ran out.
    OutOfFuel,
    /// A violation was detected (policy [`ResetPolicy::HaltAndReport`]).
    ViolationStop(V),
    /// Persistent tampering kept resetting the core
    /// (policy [`ResetPolicy::Reboot`]).
    ResetLoop {
        /// Resets performed before giving up.
        resets: u32,
    },
}

impl<V: Copy> BackendOutcome<V> {
    /// Whether the program reached `halt` untampered.
    pub fn is_halted(&self) -> bool {
        matches!(self, BackendOutcome::Halted)
    }

    /// The violation that stopped the run, if any.
    pub fn violation(&self) -> Option<V> {
        match self {
            BackendOutcome::ViolationStop(v) => Some(*v),
            _ => None,
        }
    }
}

/// A processor built from the shared pipeline engine and an arbitrary
/// integrity backend's fetch unit.
#[derive(Clone, Debug)]
pub struct BackendMachine<F: FetchUnit> {
    engine: Pipeline<F>,
    reset_policy: ResetPolicy,
    violations: Vec<F::Violation>,
}

/// The sponge-CFP machine (Werner et al. SCFP).
pub type SpongeMachine = BackendMachine<SpongeFetch>;

/// The FIPAC-style machine (Nasahl et al.).
pub type FipacMachine = BackendMachine<FipacFetch>;

impl<F: FetchUnit> BackendMachine<F> {
    /// Wraps a ready fetch unit around the shared pipeline, loading
    /// `text` into ROM and `data` into RAM.
    ///
    /// # Panics
    ///
    /// Panics if the data section does not fit in RAM.
    pub fn from_parts(
        fetch: F,
        text_base: u32,
        text: Vec<u32>,
        data_base: u32,
        data: &[u8],
        config: &BackendConfig,
    ) -> BackendMachine<F> {
        BackendMachine {
            engine: Pipeline::new(fetch, text_base, text, data_base, data, &config.machine),
            reset_policy: config.reset_policy,
            violations: Vec::new(),
        }
    }

    /// Runs until `halt`, a stopping violation, a trap, or `max_slots`
    /// executed instruction slots, with this machine's [`ResetPolicy`]
    /// deciding each violation's fate — the same dispatch as
    /// `SofiaMachine::run`.
    ///
    /// # Errors
    ///
    /// Propagates architectural traps.
    pub fn run(&mut self, max_slots: u64) -> Result<BackendOutcome<F::Violation>, Trap> {
        let policy = self.reset_policy;
        let violations = &mut self.violations;
        let (outcome, _consumed) = self.engine.run_metered(max_slots, |v, resets_so_far| {
            violations.push(v);
            policy.dispose(resets_so_far)
        })?;
        let outcome = match outcome {
            EngineOutcome::Halted => match self.violations.last() {
                Some(&v) if matches!(self.reset_policy, ResetPolicy::HaltAndReport) => {
                    BackendOutcome::ViolationStop(v)
                }
                _ => BackendOutcome::Halted,
            },
            EngineOutcome::OutOfFuel => BackendOutcome::OutOfFuel,
            EngineOutcome::Stopped(v) => BackendOutcome::ViolationStop(v),
            EngineOutcome::ResetLoop { resets } => BackendOutcome::ResetLoop { resets },
        };
        Ok(outcome)
    }

    /// The architectural registers.
    pub fn regs(&self) -> &RegFile {
        self.engine.regs()
    }

    /// The physical memory (MMIO log included).
    pub fn mem(&self) -> &Memory {
        self.engine.mem()
    }

    /// Mutable memory access — the attack harness's tamper channel.
    pub fn mem_mut(&mut self) -> &mut Memory {
        self.engine.mem_mut()
    }

    /// Baseline execution counters.
    pub fn stats(&self) -> ExecStats {
        self.engine.stats()
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> ICacheStats {
        self.engine.icache_stats()
    }

    /// Violations detected so far (all of them, across reboots).
    pub fn violations(&self) -> &[F::Violation] {
        &self.violations
    }

    /// Resets performed (reboot policy).
    pub fn resets(&self) -> u64 {
        self.engine.resets()
    }

    /// Whether the machine reached `halt` (or stopped on a violation).
    pub fn is_halted(&self) -> bool {
        self.engine.is_halted()
    }

    /// The backend's fetch unit.
    pub fn fetch(&self) -> &F {
        self.engine.fetch()
    }

    /// Mutable fetch-unit access — hijack and fault channels.
    pub fn fetch_mut(&mut self) -> &mut F {
        self.engine.fetch_mut()
    }
}

impl SpongeMachine {
    /// Builds a sponge-CFP machine with default configuration.
    pub fn new(image: &SpongeImage, keys: &KeySet) -> SpongeMachine {
        Self::sponge_with_config(image, keys, &BackendConfig::default())
    }

    /// Builds a sponge-CFP machine, loading ciphertext into ROM.
    pub fn sponge_with_config(
        image: &SpongeImage,
        keys: &KeySet,
        config: &BackendConfig,
    ) -> SpongeMachine {
        let unit = SpongeFetch::new(image, keys, SpongeTiming::default());
        BackendMachine::from_parts(
            unit,
            image.text_base,
            image.ctext.clone(),
            image.data_base,
            &image.data,
            config,
        )
    }
}

impl FipacMachine {
    /// Builds a FIPAC machine with default configuration.
    pub fn new(image: &FipacImage, keys: &KeySet) -> FipacMachine {
        Self::fipac_with_config(image, keys, &BackendConfig::default())
    }

    /// Builds a FIPAC machine, loading plaintext words into ROM.
    pub fn fipac_with_config(
        image: &FipacImage,
        keys: &KeySet,
        config: &BackendConfig,
    ) -> FipacMachine {
        let unit = FipacFetch::new(image, keys, FipacTiming::default());
        BackendMachine::from_parts(
            unit,
            image.text_base,
            image.words.clone(),
            image.data_base,
            &image.data,
            config,
        )
    }
}
