//! Differential fuzzer for the whole implementation flow.
//!
//! Per seed: generate a random synthesizable design (knobs sampled from the
//! seed), implement it under one of the five TMR variants on an auto-sized
//! device, then cross-check all three oracles under all three fault models —
//! compiled vs interpreting simulator, static analysis vs dynamic outcomes
//! (including pruning transparency), and sharded vs sequential campaign
//! merge. Failing seeds are delta-debugged down to minimal designs and
//! emitted as self-contained regression cases.
//!
//! ```text
//! # fuzz seeds 0..200 with the default budget:
//! cargo run --release -p tmr-bench --bin tmr-fuzz -- 0 200
//!
//! # replay one seed verbosely and emit a shrunken case on failure:
//! cargo run --release -p tmr-bench --bin tmr-fuzz -- 17 18 \
//!     --emit tests/fuzz_regressions
//! ```
//!
//! Options:
//!
//! * `<start> <end>` — seed range to fuzz (half-open; default `0 50`).
//! * `--faults <n>` / `--cycles <n>` / `--shards <n>` — campaign budget per
//!   oracle check (defaults 120 / 8 / 4).
//! * `--emit <dir>` — shrink each failing seed and write a
//!   `seed<NNNN>-<kind>.case` file into `<dir>`.
//! * `--no-shrink` — with `--emit`, write the unshrunken design instead
//!   (fast triage of long-running failures).
//! * `--quiet` — only print failures and the final summary.
//!
//! Seeds are independent and run through `tmr_core::par_map`; reports are
//! printed in seed order and shrinking stays sequential, so the output does
//! not depend on the CPU count.
//!
//! Exit status is 0 when every seed passes all oracles, 1 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;
use tmr_core::par_map;
use tmr_fpga::fuzz::{run_seed, shrink_case, FuzzOptions, RegressionCase};

fn main() -> ExitCode {
    let mut range = Vec::new();
    let mut options = FuzzOptions::default();
    let mut emit: Option<PathBuf> = None;
    let mut do_shrink = true;
    let mut quiet = false;

    let mut arguments = std::env::args().skip(1);
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--faults" => match arguments.next().and_then(|n| n.parse().ok()) {
                Some(n) => options.faults = n,
                None => return usage("--faults needs a number"),
            },
            "--cycles" => match arguments.next().and_then(|n| n.parse().ok()) {
                Some(n) => options.cycles = n,
                None => return usage("--cycles needs a number"),
            },
            "--shards" => match arguments.next().and_then(|n| n.parse().ok()) {
                Some(n) => options.shards = n,
                None => return usage("--shards needs a number"),
            },
            "--emit" => emit = arguments.next().map(PathBuf::from),
            "--no-shrink" => do_shrink = false,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: tmr-fuzz [<start> <end>] [--faults <n>] \
                     [--cycles <n>] [--shards <n>] [--emit <dir>] [--no-shrink] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => match other.parse::<u64>() {
                Ok(seed) if range.len() < 2 => range.push(seed),
                _ => return usage(&format!("unknown argument {other:?}")),
            },
        }
    }
    let (start, end) = match range.as_slice() {
        [] => (0, 50),
        [start] => (*start, *start + 1),
        [start, end] => (*start, *end),
        _ => unreachable!(),
    };
    if end <= start {
        return usage("empty seed range");
    }

    let mut failed_seeds = 0usize;
    let mut failure_total = 0usize;
    for report in par_map((start..end).collect(), |seed| run_seed(seed, &options)) {
        let seed = report.seed;
        if report.passed() {
            if !quiet {
                println!("{report}");
            }
            continue;
        }
        failed_seeds += 1;
        failure_total += report.failures.len();
        println!("{report}");
        for failure in &report.failures {
            println!("    {failure}");
        }
        if let Some(dir) = &emit {
            let kind = report.failures[0].kind();
            let mut case = RegressionCase::from_seed(seed, kind, &options);
            if do_shrink {
                eprintln!(
                    "    shrinking seed {seed} ({} rows)...",
                    case.spec.rows.len()
                );
                case = shrink_case(&case);
            }
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("tmr-fuzz: cannot create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
            let path = dir.join(format!("seed{seed:04}-{kind}.case"));
            if let Err(err) = std::fs::write(&path, case.to_string()) {
                eprintln!("tmr-fuzz: cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "    wrote {} ({} rows)",
                path.display(),
                case.spec.rows.len()
            );
        }
    }

    let seeds = end - start;
    if failed_seeds == 0 {
        println!("tmr-fuzz: {seeds} seeds, all oracles held");
        ExitCode::SUCCESS
    } else {
        println!(
            "tmr-fuzz: {failed_seeds}/{seeds} seeds failed ({failure_total} oracle violations)"
        );
        ExitCode::FAILURE
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("tmr-fuzz: {message} (try --help)");
    ExitCode::FAILURE
}
