//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line, one line per metric and note, and as its last
//! line the JSON result object. See `README.md`.

use std::process::ExitCode;

use fleetbench::gen::{Size, Workload};
use fleetbench::report::result_json;

const USAGE: &str = "usage: fleetbench --workload <serve_wfq|sim_uncached|batch_migrate> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The checkout's git revision, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "fleetbench: refusing to report numbers from a debug build; build with --release"
        );
        return ExitCode::from(3);
    }
    println!(
        "# fleetbench workload={} seed={} seconds={} trace={} nproc={} arch={} target={} \
         profile={} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::ARCH,
        env!("FLEETBENCH_TARGET"),
        env!("FLEETBENCH_PROFILE"),
        git_revision(),
    );
    let outcome = fleetbench::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::full(),
    );
    for m in &outcome.metrics {
        println!("# {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "{}",
        result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
