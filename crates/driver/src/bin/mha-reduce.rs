//! `mha-reduce` — minimize a failing kernel while preserving its failure
//! signature.
//!
//! ```text
//! mha-reduce <kernel.mlir | entry.finding> [--seed N] [--out PATH]
//!            [--max-attempts N] [--format text|json]
//!            [--step-limit N] [--fuel N] [--deadline-ms N]
//! ```
//!
//! The input is either a raw MLIR kernel or a corpus entry written by
//! `mha-fuzz` (recognized by the `.finding` extension; the stored kernel
//! text and seed are used). The kernel is first run through the oracle
//! stack to capture its failure signature, then delta-debugged: drop
//! loops/statements/buffers, shrink bounds, constant-fold subexpressions —
//! keeping only edits under which the kernel *still fails with the same
//! signature*.
//!
//! The minimized kernel goes to stdout (or `--out`); statistics go to
//! stderr. With `--format json`, stdout is instead one JSON document
//! carrying the text and the statistics.
//!
//! Exit codes: 0 reduction ran (even if nothing shrank), 1 the input does
//! not fail any oracle (nothing to reduce), 2 infrastructure/usage error.

use std::path::PathBuf;

use driver::cli::Args;
use driver::corpus::Corpus;
use fuzzing::reduce::{reduce, ReduceOpts};
use fuzzing::{run_oracles, OracleOpts};
use pass_core::report::json_str;

const USAGE: &str = "usage: mha-reduce <kernel.mlir | entry.finding> [--seed N] [--out PATH]\n\
\x20                 [--max-attempts N] [--format text|json]\n\
\x20                 [--step-limit N] [--fuel N] [--deadline-ms N]";

fn main() {
    let mut input: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut format_json = false;
    let mut ropts = ReduceOpts::default();
    let mut oracle = OracleOpts::default();

    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = Some(args.parse("--seed")),
            "--out" => out_path = Some(PathBuf::from(args.value("--out"))),
            "--max-attempts" => ropts.max_attempts = args.parse("--max-attempts"),
            "--format" => format_json = args.choose("--format", &[("text", false), ("json", true)]),
            "--step-limit" => oracle.step_limit = args.parse("--step-limit"),
            "--fuel" => oracle.fuel = Some(args.parse("--fuel")),
            "--deadline-ms" => oracle.deadline_ms = Some(args.parse("--deadline-ms")),
            _ if a.starts_with("--") => args.fail(format!("unknown flag '{a}'")),
            _ if input.is_none() => input = Some(PathBuf::from(a)),
            _ => args.fail("only one input file is accepted"),
        }
    }

    let Some(input) = input else {
        args.fail("no input file given")
    };

    // A corpus entry brings its own kernel text and seed; a raw file is
    // read verbatim with the seed from --seed (default 0).
    let (text, entry_seed) = if input.extension().map(|x| x == "finding").unwrap_or(false) {
        match Corpus::load(&input) {
            Ok(e) => (e.kernel, e.seed),
            Err(e) => {
                eprintln!("mha-reduce: {e}");
                std::process::exit(2);
            }
        }
    } else {
        match std::fs::read_to_string(&input) {
            Ok(t) => (t, 0),
            Err(e) => {
                eprintln!("mha-reduce: cannot read {}: {e}", input.display());
                std::process::exit(2);
            }
        }
    };
    let seed = seed.unwrap_or(entry_seed);

    let target = match run_oracles(&text, seed, &oracle) {
        Err(f) => f.signature(),
        Ok(()) => {
            eprintln!(
                "mha-reduce: {} passes every oracle at seed {seed}; nothing to reduce",
                input.display()
            );
            std::process::exit(1);
        }
    };
    eprintln!("mha-reduce: target signature: {target}");

    let result = reduce(
        &text,
        &ropts,
        &mut |cand| matches!(run_oracles(cand, seed, &oracle), Err(f) if f.signature() == target),
    );
    eprintln!(
        "mha-reduce: {} -> {} lines ({} attempts, {} accepted)",
        text.lines().count(),
        result.text.lines().count(),
        result.attempts,
        result.accepted
    );

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &result.text) {
            eprintln!("mha-reduce: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    if format_json {
        println!(
            "{{\"signature\":{},\"seed\":{seed},\"original_lines\":{},\"reduced_lines\":{},\"attempts\":{},\"accepted\":{},\"text\":{}}}",
            json_str(target.as_str()),
            text.lines().count(),
            result.text.lines().count(),
            result.attempts,
            result.accepted,
            json_str(&result.text)
        );
    } else if out_path.is_none() {
        print!("{}", result.text);
    }
    std::process::exit(0);
}
