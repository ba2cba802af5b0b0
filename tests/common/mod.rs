//! The differential test engine: runs one program under a family of
//! SOFIA configurations (verified-block cache on/off across geometries,
//! SI on/off) and asserts the architecturally visible results are
//! identical — the executable form of the claim that the verified-block
//! cache (and the rest of the fetch-path machinery) is invisible.
//!
//! Shared by `vcache_differential.rs` (the full geometry family) and
//! `fault_injection.rs` (the two-config [`tamper_configs`] pair); each
//! test crate compiles its own copy, so helpers unused by a given crate
//! are expected.
#![allow(dead_code)]

use sofia::crypto::KeySet;
use sofia::prelude::*;

/// Fuel for differential runs (generated programs are small; workloads
/// match `sofia_workloads`' own verification fuel).
pub const FUEL: u64 = 200_000_000;

/// Everything the architecture lets software (or an attached observer)
/// see about a run: how it ended, what it wrote, how many instructions
/// retired, and which violations were reported. Cycle counts are
/// deliberately absent — timing is the one thing the cache may change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchResult {
    /// `Debug` form of the run outcome, or `trap: …` for architectural
    /// traps.
    pub outcome: String,
    /// Words emitted on the MMIO word port.
    pub mmio: Vec<u32>,
    /// Words written to the actuator port.
    pub actuators: Vec<u32>,
    /// Retired instruction slots.
    pub instret: u64,
    /// `Debug` form of every violation reported.
    pub violations: Vec<String>,
}

/// Runs `image` under `config` and reduces the run to its [`ArchResult`].
pub fn run_config(image: &SecureImage, keys: &KeySet, config: &SofiaConfig) -> ArchResult {
    reduce(SofiaMachine::with_config(image, keys, config), FUEL).arch
}

/// The cache geometries the differential suite sweeps: disabled (the
/// reference), a direct-mapped toy, a small set-associative cache, and a
/// large one — plus a tiny thrashing cache that exercises eviction.
pub fn geometries() -> Vec<(&'static str, VCacheConfig)> {
    vec![
        ("vcache-off", VCacheConfig::default()),
        ("vcache-1x1", VCacheConfig::enabled(1, 1)),
        ("vcache-8x2", VCacheConfig::enabled(8, 2)),
        ("vcache-64x4", VCacheConfig::enabled(64, 4)),
        ("vcache-256x8", VCacheConfig::enabled(256, 8)),
    ]
}

/// The full configuration family for one image: every cache geometry
/// with SI enforced, plus the CFI-only ablation with and without the
/// cache (the cache must be invisible there too).
pub fn config_family() -> Vec<(String, SofiaConfig)> {
    let mut family: Vec<(String, SofiaConfig)> = geometries()
        .into_iter()
        .map(|(label, vcache)| {
            (
                label.to_string(),
                SofiaConfig {
                    vcache,
                    ..Default::default()
                },
            )
        })
        .collect();
    for (label, vcache) in [
        ("si-off", VCacheConfig::default()),
        ("si-off+vcache-64x4", VCacheConfig::enabled(64, 4)),
    ] {
        family.push((
            label.to_string(),
            SofiaConfig {
                enforce_si: false,
                vcache,
                ..Default::default()
            },
        ));
    }
    family
}

/// Runs `image` under every configuration in `family` and asserts all
/// [`ArchResult`]s equal the first (the reference). `what` labels the
/// program in failure messages.
pub fn assert_invisible_across(
    what: &str,
    image: &SecureImage,
    keys: &KeySet,
    family: &[(String, SofiaConfig)],
) {
    let (ref_label, ref_config) = &family[0];
    let reference = run_config(image, keys, ref_config);
    for (label, config) in &family[1..] {
        let got = run_config(image, keys, config);
        assert_eq!(
            got, reference,
            "{what}: architectural divergence between {ref_label} and {label}"
        );
    }
}

/// The two fetch-path configurations every *tamper* scenario must
/// survive — a deliberately small pair (the 64-case fault-injection
/// properties re-run every scenario per config, so the full
/// [`geometries`] sweep would multiply their runtime for no extra
/// security signal; the cold-tamper parity test covers the geometries).
pub fn tamper_configs() -> [(&'static str, SofiaConfig); 2] {
    [
        ("vcache-off", SofiaConfig::default()),
        (
            "vcache-on",
            SofiaConfig {
                vcache: VCacheConfig::enabled(16, 4),
                ..Default::default()
            },
        ),
    ]
}

/// [`assert_invisible_across`] over the default [`config_family`],
/// transforming `src` first.
pub fn assert_invisible(what: &str, src: &str, keys: &KeySet) {
    let module = asm::parse(src).unwrap_or_else(|e| panic!("{what}: parse: {e:?}"));
    let image = Transformer::new(keys.clone())
        .transform(&module)
        .unwrap_or_else(|e| panic!("{what}: transform: {e:?}"));
    assert_invisible_across(what, &image, keys, &config_family());
}

// ---------------------------------------------------------------------
// Cross-backend harness: the same programs, tampers and attack rows run
// against SOFIA and the two alternative backends (`sofia-backends`),
// reduced to the same string-typed [`ArchResult`] so one assertion
// vocabulary covers all three.
// ---------------------------------------------------------------------

use sofia::cpu::FetchUnit;
use sofia::crypto::Nonce;

/// The three integrity schemes under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The paper's machine: MAC-then-Encrypt blocks, immediate detection.
    Sofia,
    /// Sponge-based CFP: implicit integrity via decrypt-absorb.
    Sponge,
    /// FIPAC-style keyed CFI state: deferred detection at check points.
    Fipac,
}

impl Backend {
    /// Every backend, in comparison order.
    pub const ALL: [Backend; 3] = [Backend::Sofia, Backend::Sponge, Backend::Fipac];

    /// Stable label for failure messages and reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sofia => "sofia",
            Backend::Sponge => "sponge",
            Backend::Fipac => "fipac",
        }
    }
}

/// Cycle counts alongside the architectural result, for the overhead
/// invariants (which, unlike [`ArchResult`], ARE backend-specific).
pub struct BackendRun {
    /// Architecturally visible results.
    pub arch: ArchResult,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Runs any machine and reduces the run; the three backends differ only
/// in the fetch unit, so one reduction serves all of them.
fn reduce<F: FetchUnit>(mut m: Machine<F>, fuel: u64) -> BackendRun {
    let outcome = match m.run(fuel) {
        Ok(o) => format!("{o:?}"),
        Err(t) => format!("trap: {t:?}"),
    };
    BackendRun {
        arch: ArchResult {
            outcome,
            mmio: m.mem().mmio.out_words.clone(),
            actuators: m.mem().mmio.actuator_writes.clone(),
            instret: m.exec_stats().instret,
            violations: m.violations().iter().map(|v| format!("{v:?}")).collect(),
        },
        cycles: m.exec_stats().cycles,
    }
}

/// Installs `src` for `backend`, applies `prepare` to the ROM words
/// (identity for clean runs; 1:1 word indexing holds for the sponge and
/// FIPAC images, while SOFIA's block layout gets the tamper at the same
/// *stored-word* index), runs, and reduces the run.
pub fn run_backend_with(
    backend: Backend,
    src: &str,
    keys: &KeySet,
    fuel: u64,
    prepare: &dyn Fn(&mut Vec<u32>),
) -> BackendRun {
    let module = asm::parse(src).unwrap_or_else(|e| panic!("{}: parse: {e:?}", backend.label()));
    match backend {
        Backend::Sofia => {
            let image = Transformer::new(keys.clone())
                .transform(&module)
                .unwrap_or_else(|e| panic!("sofia: transform: {e:?}"));
            let mut m = SofiaMachine::new(&image, keys);
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
        Backend::Sponge => {
            let image = seal_sponge(&module, keys, Nonce::new(1))
                .unwrap_or_else(|e| panic!("sponge: seal: {e:?}"));
            let mut m = SpongeFetch::machine(&image, keys, &BackendConfig::default());
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
        Backend::Fipac => {
            let image = install_fipac(&module, keys, Nonce::new(1))
                .unwrap_or_else(|e| panic!("fipac: install: {e:?}"));
            let mut m = FipacFetch::machine(&image, keys, &BackendConfig::default());
            prepare(m.mem_mut().rom_mut());
            reduce(m, fuel)
        }
    }
}

/// Clean run of `src` on `backend`.
pub fn run_backend(backend: Backend, src: &str, keys: &KeySet, fuel: u64) -> BackendRun {
    run_backend_with(backend, src, keys, fuel, &|_| {})
}
