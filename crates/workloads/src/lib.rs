//! # sofia-workloads — benchmark programs with golden models
//!
//! The software side of the paper's evaluation (§IV-B): the MediaBench
//! **IMA ADPCM** codec in hand-written SL32 assembly ([`adpcm`]), plus a
//! suite of embedded kernels ([`kernels`]) that extend the evaluation
//! beyond the paper's single benchmark, and the fleet's serving mix ([`serving`]).
//!
//! Every [`Workload`] couples an assembly program with the outputs a
//! bit-exact golden Rust model predicts, so correctness of the entire
//! stack (assembler → transformer → SOFIA machine) is checked end to end:
//! the program emits checksums on the MMIO word port and the harness
//! compares them.
//!
//! # Examples
//!
//! ```
//! use sofia_crypto::KeySet;
//!
//! let w = sofia_workloads::kernels::fib(20);
//! let vanilla = w.verify_on_vanilla()?;
//! let (sofia, report) = w.verify_on_sofia(&KeySet::from_seed(1))?;
//! assert!(sofia.exec.cycles > vanilla.cycles); // protection costs cycles
//! assert!(report.expansion() > 1.3); // and code size
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adpcm;
pub mod gen;
pub mod kernels;
pub mod serving;

use sofia_core::machine::SofiaMachine;
use sofia_core::SofiaStats;
use sofia_cpu::machine::VanillaMachine;
use sofia_cpu::ExecStats;
use sofia_crypto::KeySet;
use sofia_isa::asm::{self, Assembly, Module};
use sofia_transform::{SecureImage, TransformReport, Transformer};

/// Execution fuel for workload verification runs.
const FUEL: u64 = 200_000_000;

/// An assembly program paired with its golden-model expected output.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short identifier (`adpcm`, `crc32`, …).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
    /// SL32 assembly source.
    pub source: String,
    /// Words the program must emit on the MMIO word port.
    pub expected: Vec<u32>,
}

impl Workload {
    /// Parses the workload into a symbolic module.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source does not parse — a workload bug.
    pub fn module(&self) -> Module {
        asm::parse(&self.source).expect("workload source parses")
    }

    /// Assembles the workload for the vanilla machine.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source does not assemble — a workload bug.
    pub fn assembly(&self) -> Assembly {
        asm::assemble(&self.source).expect("workload source assembles")
    }

    /// Securely installs the workload for a SOFIA machine.
    ///
    /// # Panics
    ///
    /// Panics if the transformer rejects the workload — a workload bug.
    pub fn secure_image(&self, keys: &KeySet) -> SecureImage {
        Transformer::new(keys.clone())
            .transform(&self.module())
            .expect("workload transforms")
    }

    /// Runs on the vanilla machine and checks the output against the
    /// golden model.
    ///
    /// # Errors
    ///
    /// Returns a description of any trap, non-termination, or output
    /// mismatch.
    pub fn verify_on_vanilla(&self) -> Result<ExecStats, String> {
        let mut m = VanillaMachine::new(&self.assembly());
        let outcome = m
            .run(FUEL)
            .map_err(|t| format!("{}: trap: {t}", self.name))?;
        if !outcome.is_halted() {
            return Err(format!("{}: did not halt", self.name));
        }
        if m.mem().mmio.out_words != self.expected {
            return Err(format!(
                "{}: output {:x?} != expected {:x?}",
                self.name,
                m.mem().mmio.out_words,
                self.expected
            ));
        }
        Ok(m.stats())
    }

    /// Transforms, runs on the SOFIA machine, and checks the output
    /// against the golden model.
    ///
    /// # Errors
    ///
    /// Returns a description of any violation, trap, non-termination, or
    /// output mismatch.
    pub fn verify_on_sofia(&self, keys: &KeySet) -> Result<(SofiaStats, TransformReport), String> {
        let image = self.secure_image(keys);
        let report = image.report.clone();
        let mut m = SofiaMachine::new(&image, keys);
        let outcome = m
            .run(FUEL)
            .map_err(|t| format!("{}: trap: {t}", self.name))?;
        if !outcome.is_halted() {
            return Err(format!("{}: outcome {outcome:?}", self.name));
        }
        if m.mem().mmio.out_words != self.expected {
            return Err(format!(
                "{}: output {:x?} != expected {:x?}",
                self.name,
                m.mem().mmio.out_words,
                self.expected
            ));
        }
        Ok((m.stats(), report))
    }
}

/// Problem sizes for the workload suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit/integration tests.
    Test,
    /// The sizes used by the reproduction benches.
    Bench,
}

/// The full workload suite at a given scale (ADPCM first — the paper's
/// benchmark — then the extension kernels).
pub fn suite(scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Test => vec![
            adpcm::workload(200),
            kernels::fib(30),
            kernels::crc32(96),
            kernels::bubble_sort(32),
            kernels::fir(48),
            kernels::matmul(),
            kernels::memcpy(97),
            kernels::dispatch(64),
            kernels::quicksort(48),
            kernels::strsearch(220),
        ],
        Scale::Bench => vec![
            adpcm::workload(4000),
            kernels::fib(100_000),
            kernels::crc32(4096),
            kernels::bubble_sort(256),
            kernels::fir(2048),
            kernels::matmul(),
            kernels::memcpy(8192),
            kernels::dispatch(20_000),
            kernels::quicksort(2000),
            kernels::strsearch(4096),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        let names: Vec<_> = suite(Scale::Test).iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn whole_test_suite_verifies_on_vanilla() {
        for w in suite(Scale::Test) {
            w.verify_on_vanilla()
                .unwrap_or_else(|e| panic!("vanilla {e}"));
        }
    }

    #[test]
    fn whole_test_suite_verifies_on_sofia() {
        let keys = KeySet::from_seed(0xD15C);
        for w in suite(Scale::Test) {
            w.verify_on_sofia(&keys)
                .unwrap_or_else(|e| panic!("sofia {e}"));
        }
    }

    #[test]
    fn adpcm_text_size_expansion_matches_paper_ballpark() {
        // Paper §IV-B: 6,976 B → 16,816 B, a 2.41× expansion. Our
        // transformer lands in the same regime, somewhat higher (≈3.4×)
        // because hand-written assembly has shorter basic blocks than the
        // paper's compiler output, costing more last-slot padding; the
        // delta is discussed in README, *Reproducing the paper*.
        let keys = KeySet::from_seed(1);
        let img = adpcm::workload(200).secure_image(&keys);
        let e = img.report.expansion();
        assert!((1.8..4.0).contains(&e), "expansion {e}");
    }
}
