//! Pins every engine and fetch-path counter, not only cycles.
//!
//! The fleetbench digest and the `BENCH_*` records pin `cycles` and
//! `instret`; this test pins the rest: branch, load, store, call and
//! load-use counts, the I-cache counters, and each fetch unit's own
//! statistics. Every `Scale::Test` kernel runs on five machines —
//! vanilla, SOFIA with the verified-block cache off and on, sponge-CFP
//! and FIPAC — and each run's counters are one line of
//! `counter_pins.txt`. The vanilla and cached SOFIA runs repeat under
//! [`PipelineModel::paper_memory`], whose data-memory wait states the
//! default model leaves at zero, so the load/store penalty is pinned
//! too. A host-speed change to the engine or a fetch unit must leave
//! that file's lines unchanged.

use sofia::backends::{BackendConfig, FipacFetch, SpongeFetch};
use sofia::core::machine::SofiaMachine;
use sofia::core::{SofiaConfig, VCacheConfig};
use sofia::cpu::engine::MachineConfig;
use sofia::cpu::machine::VanillaMachine;
use sofia::cpu::pipeline::PipelineModel;
use sofia::crypto::{KeySet, Nonce};
use sofia::transform::{install_fipac, seal_sponge};
use sofia_workloads::{suite, Scale};

const FUEL: u64 = 200_000_000;

const PINS: &str = include_str!("counter_pins.txt");

/// One line per `(machine, kernel)` run, in suite order per machine:
/// the five machines under the default model, then vanilla and cached
/// SOFIA under the paper's memory model.
fn counter_lines() -> Vec<String> {
    let keys = KeySet::from_seed(0xC0DE);
    let mut lines = Vec::new();
    for w in suite(Scale::Test) {
        let mut vm = VanillaMachine::new(&w.assembly());
        assert!(vm.run(FUEL).unwrap().is_halted(), "{}", w.name);
        assert_eq!(vm.mem().mmio.out_words, w.expected, "{}", w.name);
        lines.push(format!(
            "vanilla {} {:?} {:?}",
            w.name,
            vm.stats(),
            vm.icache_stats()
        ));

        let image = w.secure_image(&keys);
        for (label, vcache) in [
            ("sofia", VCacheConfig::default()),
            ("sofia+vcache", VCacheConfig::enabled(256, 8)),
        ] {
            let config = SofiaConfig {
                vcache,
                ..SofiaConfig::default()
            };
            let mut m = SofiaMachine::with_config(&image, &keys, &config);
            assert!(m.run(FUEL).unwrap().is_halted(), "{label} {}", w.name);
            assert_eq!(m.mem().mmio.out_words, w.expected, "{label} {}", w.name);
            lines.push(format!(
                "{label} {} {:?} {:?} {:?}",
                w.name,
                m.stats(),
                m.icache_stats(),
                m.vcache_stats()
            ));
        }

        let module = w.module();
        let sponge = seal_sponge(&module, &keys, Nonce::new(1)).unwrap();
        let mut m = SpongeFetch::machine(&sponge, &keys, &BackendConfig::default());
        assert!(m.run(FUEL).unwrap().is_halted(), "sponge {}", w.name);
        assert_eq!(m.mem().mmio.out_words, w.expected, "sponge {}", w.name);
        lines.push(format!(
            "sponge {} {:?} {:?} {:?}",
            w.name,
            m.exec_stats(),
            m.icache_stats(),
            m.fetch().stats()
        ));

        let fipac = install_fipac(&module, &keys, Nonce::new(1)).unwrap();
        let mut m = FipacFetch::machine(&fipac, &keys, &BackendConfig::default());
        assert!(m.run(FUEL).unwrap().is_halted(), "fipac {}", w.name);
        assert_eq!(m.mem().mmio.out_words, w.expected, "fipac {}", w.name);
        lines.push(format!(
            "fipac {} {:?} {:?} {:?}",
            w.name,
            m.exec_stats(),
            m.icache_stats(),
            m.fetch().stats()
        ));
    }

    let machine = MachineConfig {
        pipeline: PipelineModel::paper_memory(),
        ..MachineConfig::default()
    };
    for w in suite(Scale::Test) {
        let mut vm = VanillaMachine::with_config(&w.assembly(), &machine);
        assert!(vm.run(FUEL).unwrap().is_halted(), "{}", w.name);
        assert_eq!(vm.mem().mmio.out_words, w.expected, "{}", w.name);
        lines.push(format!(
            "vanilla@paper_memory {} {:?} {:?}",
            w.name,
            vm.stats(),
            vm.icache_stats()
        ));

        let config = SofiaConfig {
            machine,
            vcache: VCacheConfig::enabled(256, 8),
            ..SofiaConfig::default()
        };
        let mut m = SofiaMachine::with_config(&w.secure_image(&keys), &keys, &config);
        assert!(m.run(FUEL).unwrap().is_halted(), "{}", w.name);
        assert_eq!(m.mem().mmio.out_words, w.expected, "{}", w.name);
        lines.push(format!(
            "sofia+vcache@paper_memory {} {:?} {:?} {:?}",
            w.name,
            m.stats(),
            m.icache_stats(),
            m.vcache_stats()
        ));
    }
    lines
}

#[test]
fn every_counter_of_every_machine_is_pinned() {
    let actual = counter_lines();
    let pinned: Vec<&str> = PINS.lines().collect();
    let moved: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a.as_str() != **p)
        .map(|(a, p)| format!("pinned: {p}\nactual: {a}"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == pinned.len(),
        "{} of {} counter lines moved ({} pinned):\n{}\n--- all actual lines ---\n{}",
        moved.len(),
        actual.len(),
        pinned.len(),
        moved.join("\n"),
        actual.join("\n")
    );
}
