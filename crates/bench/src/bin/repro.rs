//! `repro` — regenerates every table and figure of the SOFIA paper.
//!
//! ```text
//! cargo run -p sofia-bench --bin repro --release -- all
//! cargo run -p sofia-bench --bin repro --release -- tab1 adpcm fig9
//! ```
//!
//! Experiment ids (README, *Reproducing the paper*): `fig1 fig2 fig3 fig4
//! fig5 fig6 fig7 fig9 tab1 sec adpcm suite vcache fleet host backends
//! chaos attacks ablate-block ablate-unroll ablate-sched confid`. An
//! unknown id, or a `BENCH_*.json` record that cannot be written, exits
//! non-zero.

use sofia_bench::{format_row, measure, measure_with, row_header};
use sofia_core::machine::SofiaMachine;
use sofia_core::timing::{store_gate_table, CipherSchedule, SofiaTiming};
use sofia_core::{security, SofiaConfig};
use sofia_cpu::machine::VanillaMachine;
use sofia_crypto::{ctr, CounterBlock, KeySet, Nonce};
use sofia_isa::{asm, disasm, Instruction};
use sofia_transform::{BlockFormat, Transformer, RESET_PREV_PC};
use sofia_workloads::{adpcm, Scale};

/// Every experiment as `(id, run)`, in the order `all` runs them.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", || {
        fig56(BlockFormat::exec4(), "fig5: 4-instruction execution block")
    }),
    ("fig6", || {
        fig56(
            BlockFormat::default(),
            "fig6: 6-instruction execution block",
        )
    }),
    ("fig7", fig7),
    ("fig9", fig9),
    ("tab1", tab1),
    ("sec", security_eval),
    ("adpcm", adpcm_eval),
    ("suite", suite_eval),
    ("vcache", vcache_eval),
    ("fleet", fleet_eval),
    ("host", host_eval),
    ("backends", backends_eval),
    ("chaos", chaos_eval),
    ("attacks", attacks_eval),
    ("ablate-block", ablate_block),
    ("ablate-unroll", ablate_unroll),
    ("ablate-sched", ablate_sched),
    ("confid", confid),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<fn()> = if args.is_empty() || args.iter().any(|a| a == "all" || a == "--all") {
        EXPERIMENTS.iter().map(|&(_, run)| run).collect()
    } else {
        args.iter()
            .map(|arg| match EXPERIMENTS.iter().find(|(id, _)| id == arg) {
                Some(&(_, run)) => run,
                None => {
                    eprintln!(
                        "unknown experiment `{arg}` (see README, *Reproducing the paper*, \
                         for the ids)"
                    );
                    std::process::exit(2);
                }
            })
            .collect()
    };
    for run in wanted {
        run();
    }
}

/// Writes `BENCH_<name>.json`, exiting non-zero if the write fails: a
/// record left stale must not pass for a fresh one.
fn emit(name: &str, json: &str) {
    if let Err(e) = sofia_bench::write_bench(name, json) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Fig. 1 — architecture walk: block-by-block fetch → decrypt → verify →
/// execute trace of a small program.
fn fig1() {
    banner("fig1: architecture trace (fetch -> decrypt -> verify -> execute)");
    let keys = KeySet::from_seed(1);
    let module = asm::parse(
        "main: li t0, 2
         loop: subi t0, t0, 1
               bnez t0, loop
               halt",
    )
    .unwrap();
    let image = Transformer::new(keys.clone()).transform(&module).unwrap();
    let mut m = SofiaMachine::new(&image, &keys);
    let mut step = 0;
    while !m.is_halted() && step < 12 {
        let target = m.next_target();
        let s = m.step_block().unwrap();
        step += 1;
        println!(
            "  block {step}: target={target:#06x}  slots executed={}  violations={}",
            s.executed_slots,
            s.violation
                .map(|v| v.to_string())
                .unwrap_or_else(|| "none".into())
        );
    }
    let st = m.stats();
    println!(
        "  total: {} blocks ({} exec, {} mux), {} CTR ops, {} CBC ops, {} cycles",
        st.blocks, st.exec_blocks, st.mux_blocks, st.ctr_ops, st.cbc_ops, st.exec.cycles
    );
}

/// Fig. 2 — valid vs invalid control-flow edge decryption.
fn fig2() {
    banner("fig2: CFG-edge-bound decryption (valid path vs invalid path)");
    let keys = KeySet::from_seed(2).expand();
    let nonce = Nonce::new(0xA5);
    let addr = |node: u32| node * 4;
    // Instruction 5 of the paper's example, encrypted on edge 2 -> 5.
    let plain = Instruction::Addi {
        rt: sofia_isa::Reg::T1,
        rs: sofia_isa::Reg::T2,
        imm: 0,
    }
    .encode();
    let good = CounterBlock::from_edge(nonce, addr(2), addr(5));
    let bad = CounterBlock::from_edge(nonce, addr(1), addr(5));
    let c = ctr::apply(&keys.ctr, good, plain);
    let via_good = ctr::apply(&keys.ctr, good, c);
    let via_bad = ctr::apply(&keys.ctr, bad, c);
    println!(
        "  I5 = {{w || 2 || 5}} (valid):   {via_good:#010x} -> {}",
        disasm::word(via_good, addr(5))
    );
    println!(
        "  I5' = {{w || 1 || 5}} (invalid): {via_bad:#010x} -> {}",
        disasm::word(via_bad, addr(5))
    );
    println!(
        "  valid edge recovers the instruction: {}",
        via_good == plain
    );
    println!(
        "  invalid edge garbles it:             {}",
        via_bad != plain
    );
}

/// Fig. 3 — stored vs run-time MAC comparison on a tampered block.
fn fig3() {
    banner("fig3: SI verification (stored MAC vs run-time MAC)");
    let keys = KeySet::from_seed(3);
    let module = asm::parse("main: li t0, 7\n halt").unwrap();
    let image = Transformer::new(keys.clone()).transform(&module).unwrap();
    let mut clean = SofiaMachine::new(&image, &keys);
    println!("  clean image:    {:?}", clean.run(1000).unwrap());
    let mut tampered = SofiaMachine::new(&image, &keys);
    tampered.mem_mut().rom_mut()[3] ^= 0x10;
    println!("  tampered image: {:?}", tampered.run(1000).unwrap());
}

/// Fig. 4 — execution-block layout.
fn fig4() {
    banner("fig4: execution block layout (M1 M2 inst1..inst6)");
    let keys = KeySet::from_seed(4);
    let module = asm::parse("main: li t0, 1\n li t1, 2\n add t2, t0, t1\n halt").unwrap();
    let image = Transformer::new(keys.clone()).transform(&module).unwrap();
    let ks = keys.expand();
    // Decrypt block 0 along the reset edge to show its structure.
    let mut prev = RESET_PREV_PC;
    for w in 0..image.format.block_words() {
        let pc = image.text_base + 4 * w as u32;
        let p = ctr::apply(
            &ks.ctr,
            CounterBlock::from_edge(image.nonce, prev, pc),
            image.ctext[w],
        );
        let role = match w {
            0 => "M1   ",
            1 => "M2   ",
            n => {
                // instruction slot n-2
                let _ = n;
                "inst "
            }
        };
        let shown = if w < 2 {
            format!("{p:#010x} (MAC word)")
        } else {
            disasm::word(p, pc)
        };
        println!("  word {w}: {role} {shown}");
        prev = pc;
    }
    println!(
        "  report: {} blocks, {} pad nops, {} B -> {} B",
        image.report.blocks,
        image.report.pad_nops,
        image.report.text_bytes_in,
        image.report.text_bytes_out
    );
}

/// Figs. 5/6 — the store gate vs block geometry.
fn fig56(format: BlockFormat, title: &str) {
    banner(title);
    let timing = SofiaTiming::default();
    println!(
        "  block = {} words, verification verdict at cycle {}",
        format.block_words(),
        timing.verify_done(&format)
    );
    println!("  slot  word  store-allowed  gate-stall(if store)");
    for row in store_gate_table(&format, &timing) {
        println!(
            "  {:>4}  {:>4}  {:>13}  {:>6}",
            row.slot, row.word_pos, row.allowed, row.stall
        );
    }
}

/// Figs. 7/8 — multiplexor block with two verified entries.
fn fig7() {
    banner("fig7/8: multiplexor block (two entries, shared M2)");
    let keys = KeySet::from_seed(7);
    let module = asm::parse(
        "main: jal f
               jal f
               halt
         f:    ret",
    )
    .unwrap();
    let image = Transformer::new(keys.clone()).transform(&module).unwrap();
    println!(
        "  mux blocks: {}, exec blocks: {}",
        image.report.mux_blocks, image.report.exec_blocks
    );
    let mut m = SofiaMachine::new(&image, &keys);
    let outcome = m.run(10_000).unwrap();
    let st = m.stats();
    println!(
        "  run: {outcome:?}; mux paths fetched {} times (7 words each vs 8 for exec)",
        st.mux_blocks
    );
}

/// Fig. 9 — multiplexor trees: cost vs number of callers.
fn fig9() {
    banner("fig9: multiplexor trees (k callers -> k-2 tree nodes)");
    println!("  callers  tree-nodes  mux-blocks  sealed-bytes  sofia-cycles");
    let keys = KeySet::from_seed(9);
    for k in [2usize, 3, 4, 6, 8, 12, 16] {
        let mut src = String::from("main:\n");
        for _ in 0..k {
            src.push_str("    jal f\n");
        }
        src.push_str("    halt\nf:  addi v0, a0, 1\n    ret\n");
        let module = asm::parse(&src).unwrap();
        let image = Transformer::new(keys.clone()).transform(&module).unwrap();
        let mut m = SofiaMachine::new(&image, &keys);
        let outcome = m.run(100_000).unwrap();
        assert!(outcome.is_halted());
        println!(
            "  {:>7}  {:>10}  {:>10}  {:>12}  {:>12}",
            k,
            image.report.tree_blocks,
            image.report.mux_blocks,
            image.text_bytes(),
            m.stats().exec.cycles
        );
    }
}

/// Table I — hardware area and clock.
fn tab1() {
    banner("tab1: hardware comparison (Table I)");
    let (v, s) = sofia_hwmodel::table1();
    println!("  Design    Slices    Clock Speed");
    println!("  Vanilla   {:>6.0}    {:.1} MHz", v.slices, v.clock_mhz());
    println!("  SOFIA     {:>6.0}    {:.1} MHz", s.slices, s.clock_mhz());
    println!(
        "  area +{:.1}% (paper: +28.2%), clock {:.1}% slower (paper: 84.6%)",
        s.area_overhead_vs(&v),
        s.clock_slowdown_vs(&v)
    );
}

/// §IV-A — security evaluation: closed forms + Monte-Carlo scaling.
fn security_eval() {
    banner("sec: security evaluation (SIV-A)");
    println!(
        "  SI : 64-bit MAC, 8 cycles/trial @50MHz -> {:.0} years (paper: 46,795)",
        security::paper_si_attack_years()
    );
    println!(
        "  CFI: divert+forge, 16 cycles/trial     -> {:.0} years (paper: 93,590)",
        security::paper_cfi_attack_years()
    );
    println!("  Monte-Carlo forgery on truncated MACs (2^16 trials each):");
    println!("  bits  accepted  expected");
    let keys = KeySet::from_seed(0x5EC);
    for c in sofia_attacks::forgery::scaling_series(&keys, &[4, 8, 12, 16], 1 << 16, 99) {
        println!(
            "  {:>4}  {:>8}  {:>8.1}",
            c.mac_bits, c.accepted, c.expected
        );
    }
}

/// §IV-B — the ADPCM benchmark table.
fn adpcm_eval() {
    banner("adpcm: MediaBench ADPCM overheads (SIV-B)");
    let keys = KeySet::from_seed(0xADC);
    let w = adpcm::workload(4000);
    let row = measure(&w, &keys);
    println!("  {}", row_header());
    println!("  {}", format_row(&row));
    // The paper's baseline was memory-bound (114 M cycles for ADPCM ->
    // CPI >> 1 from external-memory wait states); under a comparable
    // memory system the relative overhead shrinks toward the published
    // 13.7 % (README, *Reproducing the paper*, discusses the calibration).
    let mut paper_cfg = SofiaConfig::default();
    paper_cfg.machine.pipeline = sofia_cpu::pipeline::PipelineModel::paper_memory();
    let mut prow = measure_with(&w, &keys, BlockFormat::default(), &paper_cfg);
    prow.name = "adpcm/slowmem".into();
    println!("  {}", format_row(&prow));
    println!(
        "  paper: 6,976 B -> 16,816 B (2.41x); 114,188,673 -> 130,840,013 cycles (+13.7%); time +110%"
    );
    let s = &row.sofia;
    println!(
        "  breakdown: {} blocks, {} mac-nop slots, {} redirect-fill cyc, {} cipher-stall cyc, {} store-gate cyc, icache stalls {}",
        s.blocks,
        s.mac_nop_slots,
        s.redirect_fill_cycles,
        s.cipher_stall_cycles,
        s.store_gate_stall_cycles,
        s.exec.icache_stall_cycles
    );
}

/// Extension — the verified-block cache trajectory: vanilla vs
/// sofia-uncached vs sofia-cached cycles across the suite, plus the
/// hardware price of the cache.
fn vcache_eval() {
    banner("vcache: verified-block cache (edge-keyed, post-verification)");
    let keys = KeySet::from_seed(0xCA5E);
    let vcache = sofia_core::VCacheConfig::enabled(256, 8);
    println!(
        "  geometry: {} entries x {}-way, hit latency {}",
        vcache.entries, vcache.ways, vcache.hit_latency
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>12} {:>8} {:>10} {:>8}",
        "workload", "van cycles", "uncached", "cached", "saved", "hit-rate", "misses"
    );
    for w in sofia_workloads::suite(Scale::Test) {
        let r = sofia_bench::vcache_row(&w, &keys, vcache);
        println!(
            "  {:<12} {:>12} {:>12} {:>12} {:>7.1}% {:>9.1}% {:>8}",
            r.name,
            r.vanilla_cycles,
            r.sofia_uncached_cycles,
            r.sofia_cached_cycles,
            r.reduction() * 100.0,
            100.0 * r.vcache_hits as f64 / (r.vcache_hits + r.vcache_misses).max(1) as f64,
            r.vcache_misses,
        );
    }
    let base = sofia_hwmodel::sofia(sofia_hwmodel::PAPER_UNROLL);
    let cached = sofia_hwmodel::sofia_with_vcache(sofia_hwmodel::PAPER_UNROLL, vcache.entries);
    println!(
        "  hardware: {:.0} -> {:.0} slices (+{:.1}%), clock unchanged at {:.1} MHz",
        base.slices,
        cached.slices,
        (cached.slices / base.slices - 1.0) * 100.0,
        cached.clock_mhz()
    );
}

/// Extension — multi-tenant fleet serving: the jobs/sec scaling table
/// behind `BENCH_fleet.json` (virtual-time metrics on the deterministic
/// tick-synchronous schedule model; see `sofia-fleet`'s `schedule` docs).
fn fleet_eval() {
    use sofia_bench::{fleet_scaling_series, FLEET_BENCH_MODES};
    banner("fleet: multi-tenant serving (mixed fib/crc32/adpcm, 24 jobs)");
    let workers = [1usize, 2, 4, 8];
    for (label, mode) in FLEET_BENCH_MODES {
        println!("  {label}:");
        println!(
            "  {:>7} {:>16} {:>6} {:>12} {:>10}",
            "workers", "makespan(cyc)", "ticks", "jobs/sec", "speedup"
        );
        let series = fleet_scaling_series(&workers, mode);
        let base = series[0].jobs_per_sec;
        for p in &series {
            println!(
                "  {:>7} {:>16} {:>6} {:>12.1} {:>9.2}x",
                p.workers,
                p.makespan_cycles,
                p.ticks,
                p.jobs_per_sec,
                p.jobs_per_sec / base
            );
        }
    }
    println!("  (total simulated cycles are identical at every worker count — the");
    println!("   determinism invariant; jobs/sec is priced at the Table I SOFIA clock)");

    banner("fleet: async serving (WFQ admission-controlled open/closed loop)");
    // The arrival horizon scales with tenant count, so a larger point is
    // a genuinely wider open-loop window, not a denser burst.
    for tenants in [1_000usize, 4_000] {
        let report = sofia_bench::async_wfq_report(tenants, 4);
        let s = report.stats;
        println!(
            "  {tenants} tenants: {} finished, {} rejected, {} ticks, makespan {} cyc",
            s.finished, s.rejected, s.ticks, s.makespan_cycles
        );
        println!(
            "    parks {} / revives {} / peak resident machines {}  digest {:#018x}",
            s.parks, s.revives, s.peak_resident_machines, report.digest
        );
        println!(
            "    {:>12} {:>7} {:>8} {:>9} {:>15} {:>15}",
            "class", "weight", "finished", "rejected", "p50 sojourn", "p99 sojourn"
        );
        for c in &report.classes {
            println!(
                "    {:>12} {:>7} {:>8} {:>9} {:>15} {:>15}",
                c.label,
                c.weight,
                c.finished,
                c.rejected,
                c.p50_sojourn_cycles,
                c.p99_sojourn_cycles
            );
        }
    }
    println!("  (bit-identical at 1 and 4 host threads — asserted above; latency is");
    println!("   virtual-time sojourn on the tick-synchronous schedule model)");
}

/// Extension — host throughput: the wall-clock table behind
/// `BENCH_host.json` (re-emitted by this experiment, so the CI release
/// step keeps the record at release-build figures).
fn host_eval() {
    banner("host: host-side throughput (wall clock on this machine)");
    let report = sofia_bench::host_report(sofia_bench::HOST_BENCH_REPS);
    let b = &report.box_shape;
    println!(
        "  box: {} logical core{}, {} / {} ({})",
        b.logical_cores,
        if b.logical_cores == 1 { "" } else { "s" },
        b.arch,
        b.os,
        b.target
    );
    let k = &report.keystream;
    println!(
        "  keystream ({} blocks): scalar {:>10.0} blk/s   bitsliced {:>10.0} blk/s   {:>5.2}x",
        k.blocks,
        k.scalar_blocks_per_sec.median,
        k.bitsliced_blocks_per_sec.median,
        k.speedup()
    );
    let r = &k.refill;
    println!(
        "  refill: {}-counter pads {:>7.1} ns   {}-block MAC chain {:>7.1} ns   memo hit {:>7.1} ns",
        r.counters, r.pads_ns.median, r.mac_blocks, r.mac_ns.median, r.memo_hit_ns.median
    );
    let s = &report.seal;
    println!(
        "  seal ({}):      {:>10.2} seal/s",
        s.workload, s.seals_per_sec.median
    );
    println!("  simulation speed (fib5000):");
    for r in &report.mips {
        println!(
            "    {:<16} {:>8.2} host MIPS ({} slots)",
            r.machine, r.mips.median, r.instret
        );
    }
    println!("  fleet host throughput (mix24, fuel-sliced):");
    println!("    workers  jobs/sec");
    for p in &report.fleet {
        println!("    {:>7}  {:>8.2}", p.workers, p.jobs_per_sec.median);
    }
    println!(
        "  (wall-clock medians of {} runs, informational: scaling needs real cores;",
        sofia_bench::HOST_BENCH_REPS
    );
    println!("   BENCH_host.json adds each min and max; simulated-cycle");
    println!("   trajectories live in BENCH_vcache.json / BENCH_fleet.json)");
    emit("host", &sofia_bench::host_json(&report));
}

/// Extension — the cross-backend comparison: SOFIA vs the sponge-CFP
/// and FIPAC fetch units on cycles, area, detection latency and the
/// attack matrix (emits `BENCH_backends.json`).
fn backends_eval() {
    banner("backends: pluggable integrity backends (sofia / sponge-CFP / FIPAC)");
    let keys = KeySet::from_seed(0x5EC6);
    let w = sofia_workloads::kernels::crc32(512);
    let report = sofia_bench::backends_report(&w, &keys);

    println!(
        "  cycle overhead ({}, vanilla {} cycles):",
        report.workload, report.vanilla_cycles
    );
    for p in &report.overhead {
        println!(
            "    {:<8} {:>12} cycles  {:>+8.1}%",
            p.backend, p.cycles, p.overhead_pct
        );
    }
    println!("  hardware (Table-I model):");
    for p in &report.hardware {
        println!(
            "    {:<8} {:>6.0} slices  {:>6.1} MHz  area {:>+7.1}%",
            p.backend, p.slices, p.clock_mhz, p.area_overhead_pct
        );
    }
    println!(
        "  detection latency ({}-word sled, tamper at word {}):",
        sofia_bench::BACKENDS_SLED_WORDS,
        sofia_bench::BACKENDS_TAMPER_WORD
    );
    for p in &report.detection {
        println!(
            "    {:<8} {:>4} instructions retired before the flag",
            p.backend, p.latency_instructions
        );
    }
    println!("  attack matrix:");
    println!(
        "    {:<16} {:<22} {:<22} {:<22}",
        "attack", "sofia", "sponge", "fipac"
    );
    for row in &report.matrix {
        println!(
            "    {:<16} {:<22} {:<22} {:<22}",
            row.attack,
            row.sofia.label(),
            row.sponge.label(),
            row.fipac.label()
        );
    }
    println!("  (sponge: implicit detection, serial permute on the fetch path; FIPAC:");
    println!("   plaintext fetch at the vanilla clock, detection deferred to the next");
    println!("   signature point — the latency column is the price of that deferral)");
    emit("backends", &sofia_bench::backends_json(&report));
}

/// Extension — chaos & resilience: the serving workload under seeded
/// host-fault injection with the self-healing ladder armed, across a
/// fault-rate sweep (emits `BENCH_chaos.json`). Every point asserts
/// bit-identical results at 1 and 4 host threads, and the zero-fault
/// point asserts bit-identical records against a driver without the
/// chaos/resilience machinery — the `ChaosPlan::none()` invisibility
/// invariant at bench scale.
fn chaos_eval() {
    banner("chaos: host-fault injection + self-healing fleet (sweep 0 / 1e-3 / 1e-2)");
    let report = sofia_bench::chaos_report(4);
    println!(
        "  {} honest tenants + {} storm tenants, seed {:#x}",
        report.tenants, report.storm_tenants, report.seed
    );
    println!(
        "  {:>8} {:>7} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "rate_ppm", "avail", "miss", "faults", "retry", "shed", "late", "break", "mttr"
    );
    for p in &report.points {
        let r = p.res;
        println!(
            "  {:>8} {:>7.4} {:>7.4} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7.1}",
            p.rate_ppm,
            p.availability,
            p.deadline_miss_rate,
            r.faults_injected,
            r.retries_scheduled,
            r.deadline_shed + r.load_shed,
            r.deadline_late,
            r.breaker_opens,
            p.mttr_ticks,
        );
        for c in &p.classes {
            println!(
                "           {:>12}: {:>5} finished, p50 {:>8}, p99 {:>8}  (cycles)",
                c.label, c.finished, c.p50_sojourn_cycles, c.p99_sojourn_cycles
            );
        }
    }
    println!("  (bit-identical at 1 and 4 host threads at every rate; the zero point is");
    println!("   bit-identical to a driver without the chaos/resilience machinery)");
    emit("chaos", &sofia_bench::chaos_json(&report));
}

fn attacks_eval() {
    banner("attacks: fleet-scale attack economics (campaigns per quarantine policy)");
    let report = sofia_bench::attacks_report(4);
    println!(
        "  {} honest tenants, {} admitted probes, {} forgery trials/length",
        sofia_bench::ATTACKS_BENCH_HONEST_TENANTS,
        sofia_bench::ATTACKS_BENCH_PROBES,
        sofia_bench::ATTACKS_BENCH_TRIALS,
    );
    println!(
        "  {:>18} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "policy", "probes", "detect", "success", "queries", "release", "ident", "avail", "q/probe"
    );
    for row in &report.rows {
        let p = &row.probe;
        println!(
            "  {:>18} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7.4} {:>7}",
            row.label,
            p.probes_admitted,
            p.detections,
            p.successes,
            p.oracle_queries,
            p.releases,
            p.identities_burned,
            p.bystander_availability,
            row.profile.queries_per_probe,
        );
        assert_eq!(
            p.successes, 0,
            "a probe slipped through under {}",
            row.label
        );
        for f in &row.forgery {
            let c = f.campaign;
            println!(
                "      mac {:>2} bits: {:>5}/{:<5} trials, {:>3} accepted (rate {:.6}), \
                 ~{:.3e} probes to win",
                c.mac_bits,
                c.completed,
                c.trials,
                c.accepted,
                c.measured_rate(),
                f.work.probes,
            );
        }
        let full = row
            .forgery
            .iter()
            .find(|f| f.campaign.mac_bits == 64)
            .expect("64-bit row");
        assert_eq!(full.campaign.accepted, 0, "64-bit MAC forgery accepted");
        for m in &row.migration.rows {
            println!(
                "      migrate {:>22}: {:<20} tenant {:?}",
                m.variant.label(),
                m.outcome.label(),
                m.tenant_after,
            );
        }
        println!(
            "      expected work at 64 bits: {:.3e} oracle queries, {:.3e} probes, \
             {:.3e} identities, {:.3e} wall ticks",
            row.expected_work_64.oracle_queries,
            row.expected_work_64.probes,
            row.expected_work_64.identities,
            row.expected_work_64.wall_ticks,
        );
    }
    println!(
        "  digest {:#018x}  (bit-identical at 1 and 4 host threads)",
        report.digest
    );
    emit("attacks", &sofia_bench::attacks_json(&report));
}

/// Extension — the same overheads across the whole kernel suite.
fn suite_eval() {
    banner("suite: overheads across all workloads (extension)");
    let keys = KeySet::from_seed(0x517E);
    println!("  {}", row_header());
    for w in sofia_workloads::suite(Scale::Bench) {
        let row = measure(&w, &keys);
        println!("  {}", format_row(&row));
    }
}

/// Ablation — exec6-with-restriction vs exec4-no-restriction (Figs. 5/6
/// as an end-to-end trade-off).
fn ablate_block() {
    banner("ablate-block: 6-inst (restricted stores) vs 4-inst blocks");
    let keys = KeySet::from_seed(0xB10C);
    let w = adpcm::workload(1000);
    println!("  {}", row_header());
    for (label, format) in [
        ("exec6", BlockFormat::default()),
        ("exec4", BlockFormat::exec4()),
    ] {
        let mut row = measure_with(&w, &keys, format, &SofiaConfig::default());
        row.name = format!("adpcm/{label}");
        println!("  {}", format_row(&row));
    }
}

/// Ablation — cipher unrolling factor: area, clock and end-to-end time.
fn ablate_unroll() {
    banner("ablate-unroll: cipher unrolling (area/clock/time trade-off)");
    let keys = KeySet::from_seed(0xA11);
    let w = adpcm::workload(1000);
    let vrow = measure(&w, &keys); // vanilla cycles reused
    let vperiod = sofia_hwmodel::vanilla().period_ns;
    let vanilla_time = vrow.vanilla_cycles as f64 * vperiod;
    println!("  unroll  slices  clock(MHz)  cyc/op  sofia-cycles  time-overhead");
    for hw in sofia_hwmodel::unroll_sweep() {
        let timing = SofiaTiming {
            cipher_issue_interval: if hw.pipelined { 1 } else { hw.cycles_per_op },
            cipher_latency: hw.cycles_per_op.max(1),
            ..Default::default()
        };
        let config = SofiaConfig {
            timing,
            ..Default::default()
        };
        let row = measure_with(&w, &keys, BlockFormat::default(), &config);
        let time = row.sofia_cycles as f64 * hw.period_ns;
        println!(
            "  {:>6}  {:>6.0}  {:>10.1}  {:>6}  {:>12}  {:>+12.1}%",
            hw.unroll,
            hw.slices,
            hw.clock_mhz(),
            hw.cycles_per_op,
            row.sofia_cycles,
            (time / vanilla_time - 1.0) * 100.0
        );
    }
    println!("  (the paper's 13x point minimises end-to-end time: fewer cipher stalls than");
    println!("   iterated designs, less clock loss than single-cycle)");
}

/// Ablation — CTR scheduling granularity.
fn ablate_sched() {
    banner("ablate-sched: CTR op granularity (paper 2-words/op vs per-word)");
    let keys = KeySet::from_seed(0x5CED);
    let w = adpcm::workload(1000);
    println!("  {}", row_header());
    for (label, schedule) in [
        ("paper", CipherSchedule::Paper),
        ("per-word", CipherSchedule::PerWord),
    ] {
        let config = SofiaConfig {
            timing: SofiaTiming {
                schedule,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut row = measure_with(&w, &keys, BlockFormat::default(), &config);
        row.name = format!("adpcm/{label}");
        println!("  {}", format_row(&row));
    }
}

/// §I claim — code confidentiality of the sealed image.
fn confid() {
    banner("confid: code confidentiality (copyright protection)");
    let keys = KeySet::from_seed(0xC0DE);
    let w = adpcm::workload(500);
    let plain = w.assembly().words;
    let image = w.secure_image(&keys);
    let r = sofia_attacks::confidentiality::analyze(&plain, &image.ctext);
    println!("  plaintext entropy:  {:.2} bits/byte", r.plain_entropy);
    println!("  ciphertext entropy: {:.2} bits/byte", r.cipher_entropy);
    println!(
        "  legal-instruction fraction: plain {:.3}, cipher {:.3}",
        r.plain_legal_fraction, r.cipher_legal_fraction
    );
    println!("  identical words plain-vs-cipher: {}", r.matching_words);
    // Version separation under a fresh nonce.
    let module = w.module();
    let v2 = Transformer::new(keys.clone())
        .with_nonce(Nonce::new(2))
        .transform(&module)
        .unwrap();
    println!(
        "  ciphertext shared between versions (nonce 1 vs 2): {:.4}",
        sofia_attacks::confidentiality::shared_ciphertext_fraction(&image.ctext, &v2.ctext)
    );
    // A vanilla machine pointed at the ciphertext goes nowhere.
    let mut m = VanillaMachine::new(&sofia_isa::asm::Assembly {
        text_base: image.text_base,
        words: image.ctext.clone(),
        data_base: image.data_base,
        data: image.data.clone(),
        symbols: Default::default(),
        entry: image.text_base,
    });
    match m.run(10_000) {
        Err(t) => println!("  executing ciphertext on a plain core: trap `{t}`"),
        Ok(o) => println!("  executing ciphertext on a plain core: {o:?}"),
    }
}
