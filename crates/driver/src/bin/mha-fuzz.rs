//! `mha-fuzz` — seeded structured fuzzing of the whole adaptor stack.
//!
//! ```text
//! mha-fuzz [--seed N] [--count N] [--format text|json] [--corpus DIR]
//!          [--step-limit N] [--fuel N] [--deadline-ms N]
//!          [--no-reduce] [--reduce-budget N] [--legality] [--isolate]
//! ```
//!
//! Walks seeds `[--seed, --seed + --count)`; each seed deterministically
//! becomes a kernel (same seed, same kernel, on every machine and every
//! build) and runs through the oracle stack: parse/verify, print∘parse
//! round-trips at both IR levels, the adaptor flow (verified after each
//! pass that changed the IR), the HLS-C++ flow, and bit-exact differential
//! execution. Panics and hangs are findings, not crashes.
//!
//! With `--legality`, each passing kernel additionally runs the
//! transform-legality oracle: every interchange the `analysis::depend`
//! engine approves is applied and the transformed kernel must stay
//! bit-exact with the original — a divergence is a `legality` finding.
//!
//! Failures are deduplicated by normalized signature; each *new* signature
//! is minimized by the built-in reducer (disable with `--no-reduce`) and
//! written to the corpus directory (default `target/mha-corpus`) as a
//! replayable `<sig>.finding` entry. Progress goes to stderr, so
//! `--format json` stdout is always one parseable document.
//!
//! `--isolate` runs every oracle stack in a worker *process*
//! (`driver::warden`): a stack overflow past the depth guards, an
//! allocator OOM, or any other process death becomes a reducible
//! `crash/warden` finding instead of a dead campaign. Reduction candidates
//! go through the same worker pool, so a crash finding minimizes exactly
//! like any other. The hidden `--warden-child` argv\[1\] mode is how the
//! re-exec'd workers enter their serve loop — never pass it by hand.
//!
//! Exit codes: 0 all seeds clean, 1 unique findings exist, 2
//! infrastructure/usage error.

use std::path::PathBuf;

use driver::corpus::Corpus;
use driver::{Warden, WardenConfig};
use fuzzing::reduce::ReduceOpts;
use fuzzing::{run_campaign, run_campaign_with, CampaignOpts};
use pass_core::report::json_str;

fn usage() -> ! {
    eprintln!(
        "usage: mha-fuzz [--seed N] [--count N] [--format text|json]\n\
         \x20               [--corpus DIR] [--step-limit N] [--fuel N]\n\
         \x20               [--deadline-ms N] [--no-reduce] [--reduce-budget N]\n\
         \x20               [--legality] [--isolate]"
    );
    std::process::exit(2);
}

fn flag_value(args: &mut std::env::Args, flag: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a value");
            usage();
        }
    }
}

fn parse_u64(s: &str, flag: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an integer, got '{s}'");
        usage();
    })
}

fn main() {
    // Worker mode: the warden re-execs this binary with `--warden-child`
    // as the only argument; dispatch before any flag parsing.
    if std::env::args().nth(1).as_deref() == Some("--warden-child") {
        driver::warden::child_main();
    }
    let mut seed_start = 0u64;
    let mut isolate = false;
    let mut count = 100u64;
    let mut format_json = false;
    let mut corpus_dir = Corpus::default_dir();
    let mut opts = CampaignOpts {
        reduce: Some(ReduceOpts::default()),
        ..CampaignOpts::default()
    };

    let mut args = std::env::args();
    args.next();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed_start = parse_u64(&flag_value(&mut args, "--seed"), "--seed"),
            "--count" => count = parse_u64(&flag_value(&mut args, "--count"), "--count"),
            "--format" => match flag_value(&mut args, "--format").as_str() {
                "text" => format_json = false,
                "json" => format_json = true,
                other => {
                    eprintln!("--format needs 'text' or 'json', got '{other}'");
                    usage();
                }
            },
            "--corpus" => corpus_dir = PathBuf::from(flag_value(&mut args, "--corpus")),
            "--step-limit" => {
                opts.oracle.step_limit =
                    parse_u64(&flag_value(&mut args, "--step-limit"), "--step-limit")
            }
            "--fuel" => {
                opts.oracle.fuel = Some(parse_u64(&flag_value(&mut args, "--fuel"), "--fuel"))
            }
            "--deadline-ms" => {
                opts.oracle.deadline_ms = Some(parse_u64(
                    &flag_value(&mut args, "--deadline-ms"),
                    "--deadline-ms",
                ))
            }
            "--no-reduce" => opts.reduce = None,
            "--legality" => opts.legality = true,
            "--isolate" => isolate = true,
            "--reduce-budget" => {
                let n = parse_u64(&flag_value(&mut args, "--reduce-budget"), "--reduce-budget");
                opts.reduce = Some(ReduceOpts {
                    max_attempts: n as usize,
                });
            }
            _ => {
                eprintln!("unknown argument '{a}'");
                usage();
            }
        }
    }

    let corpus = match Corpus::open(&corpus_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mha-fuzz: {e}");
            std::process::exit(2);
        }
    };

    // All narration goes to stderr; stdout carries only the final report.
    let mut progress = |line: &str| eprintln!("mha-fuzz: {line}");
    let result = if isolate {
        let warden = match Warden::new(WardenConfig::default()) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("mha-fuzz: --isolate worker pool: {e}");
                std::process::exit(2);
            }
        };
        run_campaign_with(
            seed_start,
            count,
            &opts,
            &|src, seed, opts| warden.execute_oracle(src, seed, opts),
            &mut progress,
        )
    } else {
        run_campaign(seed_start, count, &opts, &mut progress)
    };

    let mut stored: Vec<(String, PathBuf)> = Vec::new();
    for finding in result.findings.values() {
        match corpus.store(finding) {
            Ok(path) => stored.push((finding.signature.as_str().to_string(), path)),
            Err(e) => {
                eprintln!("mha-fuzz: {e}");
                std::process::exit(2);
            }
        }
    }

    if format_json {
        let mut out = String::from("{");
        out.push_str(&format!("\"seed_start\":{seed_start},"));
        out.push_str(&format!("\"count\":{count},"));
        out.push_str(&format!("\"attempts\":{},", result.attempts));
        out.push_str(&format!("\"passed\":{},", result.passed));
        out.push_str(&format!("\"interchanged\":{},", result.interchanged));
        out.push_str(&format!("\"unique_findings\":{},", result.findings.len()));
        out.push_str("\"findings\":[");
        for (i, f) in result.findings.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seed\":{},\"oracle\":{},\"stage\":{},\"signature\":{},\"hits\":{},\"kernel_lines\":{},\"reduced_lines\":{},\"path\":{}}}",
                f.seed,
                json_str(f.failure.oracle.as_str()),
                json_str(&f.failure.stage),
                json_str(f.signature.as_str()),
                f.hits,
                f.kernel.lines().count(),
                f.reduced
                    .as_ref()
                    .map(|r| r.lines().count().to_string())
                    .unwrap_or_else(|| "null".into()),
                json_str(&corpus.entry_path(&f.signature).display().to_string()),
            ));
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        let legality = if opts.legality {
            format!(
                ", {} interchange(s) verified bit-exact",
                result.interchanged
            )
        } else {
            String::new()
        };
        println!(
            "fuzzed seeds {seed_start}..{}: {} passed, {} unique signature(s){legality}",
            seed_start + count,
            result.passed,
            result.findings.len()
        );
        for f in result.findings.values() {
            let reduced = match &f.reduced {
                Some(r) => format!(", reduced to {} lines", r.lines().count()),
                None => String::new(),
            };
            println!(
                "  [{}] seed {} ({} hit(s){reduced}): {}",
                f.signature.hex_id(),
                f.seed,
                f.hits,
                f.failure
            );
        }
        for (_, path) in &stored {
            println!("  wrote {}", path.display());
        }
    }

    std::process::exit(if result.is_clean() { 0 } else { 1 });
}
