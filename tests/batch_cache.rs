//! Cache correctness suite for the batch driver (ISSUE 3).
//!
//! The contract under test: caching is invisible except in wall-clock — a
//! warm run reproduces the cold run byte-for-byte; any change to the pass
//! configuration or the kernel IR invalidates the affected entries; a
//! corrupted entry degrades to a recompute plus a warning, never to a wrong
//! answer; and a panicking kernel is isolated from the rest of the batch.

use std::path::PathBuf;

use driver::batch::{run_batch, BatchOptions, KernelArtifacts, RunOutcome};
use driver::{run_flow, Directives, Flow};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mha-batch-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &std::path::Path) -> BatchOptions {
    BatchOptions {
        jobs: 4,
        cache_dir: Some(dir.to_path_buf()),
        ..BatchOptions::default()
    }
}

fn artifacts(outcome: &RunOutcome) -> &KernelArtifacts {
    match outcome {
        RunOutcome::Completed(a) => a,
        other => panic!("kernel did not complete: {other:?}"),
    }
}

#[test]
fn warm_run_is_byte_identical_to_cold_and_fully_cached() {
    let dir = temp_cache("warm-identical");
    let o = opts(&dir);
    let ks = kernels::all_kernels();

    let cold = run_batch(ks, &o).unwrap();
    assert_eq!(cold.exit_code(), 0);
    assert_eq!(cold.cache_hits(), 0);
    assert_eq!(cold.cache_misses(), 3 * ks.len());

    let warm = run_batch(ks, &o).unwrap();
    assert_eq!(warm.exit_code(), 0);
    assert_eq!(warm.cache_misses(), 0, "warnings: {:?}", warm.warnings);
    assert_eq!(warm.cache_hits(), 3 * ks.len());

    for (c, w) in cold.runs.iter().zip(&warm.runs) {
        assert_eq!(c.kernel, w.kernel);
        let (ca, wa) = (artifacts(&c.outcome), artifacts(&w.outcome));
        // Byte-identical artifact, field-identical reports.
        assert_eq!(ca.module_text, wa.module_text, "{}", c.kernel);
        assert_eq!(ca.module_digest, wa.module_digest, "{}", c.kernel);
        assert_eq!(ca.csynth, wa.csynth, "{}", c.kernel);
        assert_eq!(
            ca.cosim_max_err.to_bits(),
            wa.cosim_max_err.to_bits(),
            "{}",
            c.kernel
        );
        assert_eq!(ca.cosim_steps, wa.cosim_steps, "{}", c.kernel);
        // Every warm stage is marked cached in the pipeline report.
        assert_eq!(wa.report.cached_stages(), 3, "{}", c.kernel);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_batch_matches_serial_run_flow() {
    // Acceptance criterion: `--jobs 8` over the full suite produces
    // per-kernel results identical to serial `run_flow`.
    let ks = kernels::all_kernels();
    let o = BatchOptions {
        jobs: 8,
        cache_dir: None,
        ..BatchOptions::default()
    };
    let batch = run_batch(ks, &o).unwrap();
    assert_eq!(batch.jobs, 8.min(ks.len()));
    for (k, r) in ks.iter().zip(&batch.runs) {
        let a = artifacts(&r.outcome);
        let serial = run_flow(k, &o.directives, Flow::Adaptor).unwrap();
        assert_eq!(
            a.module_text,
            llvm_lite::printer::print_module(&serial.module),
            "{}: batch module differs from serial flow",
            k.name
        );
        let serial_csynth = vitis_sim::csynth(&serial.module, &o.target).unwrap();
        assert_eq!(a.csynth, serial_csynth, "{}", k.name);
        let serial_cosim = driver::cosim(&serial.module, k, o.seed).unwrap();
        assert_eq!(
            a.cosim_max_err.to_bits(),
            serial_cosim.max_abs_err.to_bits()
        );
        assert_eq!(a.cosim_steps, serial_cosim.steps, "{}", k.name);
    }
}

#[test]
fn cache_invalidated_by_pass_config_change() {
    let dir = temp_cache("config-change");
    let ks = [*kernels::kernel("fir").unwrap()];

    let cold = run_batch(&ks, &opts(&dir)).unwrap();
    assert_eq!(cold.cache_misses(), 3);

    // Same kernel, different pipeline config: nothing may be reused.
    let mut changed = opts(&dir);
    changed.directives = Directives {
        pipeline_ii: Some(2),
        ..Directives::pipelined(2)
    };
    let after = run_batch(&ks, &changed).unwrap();
    assert_eq!(after.cache_hits(), 0, "config change must invalidate");
    assert_eq!(after.cache_misses(), 3);

    // The original config is still cached untouched.
    let back = run_batch(&ks, &opts(&dir)).unwrap();
    assert_eq!(back.cache_misses(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_invalidated_by_ir_edit() {
    let dir = temp_cache("ir-edit");
    let base = *kernels::kernel("jacobi2d").unwrap();

    let cold = run_batch(&[base], &opts(&dir)).unwrap();
    assert_eq!(cold.cache_misses(), 3);

    // Same kernel name, edited MLIR source: the content digest changes, so
    // every stage recomputes.
    let mut edited = base;
    edited.mlir = Box::leak(
        base.mlir
            .replace("arith.constant 0.2", "arith.constant 0.25")
            .into_boxed_str(),
    );
    assert_ne!(base.content_digest(), edited.content_digest());
    let after = run_batch(&[edited], &opts(&dir)).unwrap();
    assert_eq!(after.cache_hits(), 0, "IR edit must invalidate");
    assert_ne!(
        artifacts(&cold.runs[0].outcome).module_digest,
        artifacts(&after.runs[0].outcome).module_digest
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_falls_back_to_recompute_with_warning() {
    let dir = temp_cache("corrupt-entry");
    let ks = [*kernels::kernel("gemm").unwrap()];
    // One worker for one kernel, so the jobs-clamp warning stays out of the
    // warning-count assertions below.
    let o = BatchOptions {
        jobs: 1,
        ..opts(&dir)
    };

    let cold = run_batch(&ks, &o).unwrap();
    let reference = artifacts(&cold.runs[0].outcome).clone();

    // Vandalize every cache entry (the run journal shares the directory
    // and is left alone): flip payload bytes behind the headers.
    let mut vandalized = 0;
    for e in std::fs::read_dir(&dir).unwrap() {
        let path = e.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) == Some("entry") {
            std::fs::write(&path, "mha-cache 1 0000 0000 4\njunk").unwrap();
            vandalized += 1;
        }
    }
    assert_eq!(vandalized, 3);

    let warm = run_batch(&ks, &o).unwrap();
    assert_eq!(warm.exit_code(), 0);
    // Fell back to a full recompute, with one warning per damaged entry...
    assert_eq!(warm.cache_hits(), 0);
    assert_eq!(warm.cache_misses(), 3);
    assert_eq!(warm.warnings.len(), 3, "{:?}", warm.warnings);
    assert!(warm.warnings.iter().all(|w| w.contains("corrupt")));
    // ...and the answer is still byte-identical to the cold run.
    let recovered = artifacts(&warm.runs[0].outcome);
    assert_eq!(recovered.module_text, reference.module_text);
    assert_eq!(recovered.csynth, reference.csynth);

    // The rewritten entries serve the next run in full.
    let healed = run_batch(&ks, &o).unwrap();
    assert_eq!(healed.cache_misses(), 0);
    assert!(healed.warnings.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warnings_go_to_stderr_keeping_json_stdout_parseable() {
    // Satellite (ISSUE 4): cache warnings must not pollute stdout — with
    // `--format json`, stdout is exactly one parseable JSON document even
    // when corrupt entries are healed, and the warnings appear on stderr.
    let dir = temp_cache("stderr-warnings");
    let run = |extra: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_mha-batch"));
        cmd.args(["--jobs", "1", "--format", "json", "--cache-dir"])
            .arg(&dir)
            .args(extra)
            .arg("fir");
        cmd.output().unwrap()
    };

    let cold = run(&[]);
    assert!(cold.status.success(), "{cold:?}");

    // Vandalize the cache entries, then re-run: healed with warnings.
    for e in std::fs::read_dir(&dir).unwrap() {
        let path = e.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) == Some("entry") {
            std::fs::write(&path, "mha-cache 1 0000 0000 4\njunk").unwrap();
        }
    }
    let healed = run(&[]);
    assert!(healed.status.success(), "{healed:?}");
    let stdout = String::from_utf8(healed.stdout).unwrap();
    let stderr = String::from_utf8(healed.stderr).unwrap();
    // stdout parses as a single JSON document...
    let doc = pass_core::json::parse(stdout.trim()).unwrap();
    // ...which still carries the warnings in its own field...
    let warnings = doc.get("warnings").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(warnings.len(), 3, "stdout: {stdout}\nstderr: {stderr}");
    // ...while the human-readable copies went to stderr.
    assert!(stderr.contains("corrupt cache entry"), "stderr: {stderr}");
    assert!(!stdout.contains("warning:"), "stdout: {stdout}");

    // Over-asking for workers warns (once, on stderr) and clamps.
    let clamped = run(&["--jobs", "64"]);
    assert!(clamped.status.success(), "{clamped:?}");
    let stderr = String::from_utf8(clamped.stderr).unwrap();
    assert_eq!(stderr.matches("exceeds the").count(), 1, "stderr: {stderr}");
    let doc = pass_core::json::parse(String::from_utf8(clamped.stdout).unwrap().trim()).unwrap();
    assert_eq!(doc.get("jobs").and_then(|j| j.as_u64()), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_is_isolated_from_other_kernels() {
    // Acceptance criterion: an injected per-kernel panic yields exit code 1
    // with the other kernels' results intact.
    let ks = kernels::all_kernels();
    let clean = run_batch(
        ks,
        &BatchOptions {
            jobs: 4,
            cache_dir: None,
            ..BatchOptions::default()
        },
    )
    .unwrap();

    let poisoned = run_batch(
        ks,
        &BatchOptions {
            jobs: 4,
            cache_dir: None,
            inject_panic: Some("two_mm".into()),
            ..BatchOptions::default()
        },
    )
    .unwrap();
    assert_eq!(poisoned.exit_code(), 1);
    assert_eq!(poisoned.failed_count(), 1);
    assert_eq!(poisoned.ok_count(), ks.len() - 1);

    for (c, p) in clean.runs.iter().zip(&poisoned.runs) {
        if p.kernel == "two_mm" {
            match &p.outcome {
                RunOutcome::Panicked { message } => {
                    assert!(message.contains("injected panic"), "{message}")
                }
                other => panic!("expected panic outcome, got {other:?}"),
            }
        } else {
            // Every other kernel's artifacts are unaffected by the panic.
            assert_eq!(
                artifacts(&c.outcome).module_text,
                artifacts(&p.outcome).module_text,
                "{}",
                p.kernel
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Disk-full / I-O robustness (ISSUE 10 satellite)
// ---------------------------------------------------------------------------

use driver::cache::{Cache, KeyBuilder};
use driver::{ChaosConfig, ChaosEngine, ChaosFault, RetryPolicy};

/// `atomic_write` failures are typed infra faults that name the failing
/// path — the disk-full story. The cache directory vanishing out from
/// under the staging write stands in for ENOSPC (either way the write
/// syscall fails and the caller needs to know *where*).
#[test]
fn cache_write_failure_surfaces_the_failing_path() {
    let dir = temp_cache("enospc");
    let cache = Cache::open(&dir).expect("cache opens");
    std::fs::remove_dir_all(&dir).expect("pull the directory out");

    let key = KeyBuilder::new("flow").text("kernel", "gemm").finish();
    let err = cache
        .store(&key, "payload")
        .expect_err("a dead directory must fail the store");
    let rendered = err.to_string();
    assert!(
        rendered.contains(&dir.display().to_string()),
        "the error must carry the failing path: {rendered}"
    );
}

/// The `store/<stage>` chaos I/O site: an injected write error that
/// outlives the retry budget downgrades the store to a warning — the
/// kernel still completes and the summary says what failed and why.
#[test]
fn chaos_injected_store_error_is_a_warning_not_a_failure() {
    // Seed search: the flow-store site must draw the I/O fault while the
    // stage boundaries for the same kernel stay quiet (Delay is harmless).
    let rate = 0.4;
    let quiet = |eng: &ChaosEngine, site: &str| {
        // The boundary menus are panic/delay/fuel(/adaptor-reject); any
        // roll other than None or Delay changes the outcome.
        matches!(
            eng.roll(
                "gemm",
                site,
                0,
                &[
                    ChaosFault::Panic,
                    ChaosFault::Delay,
                    ChaosFault::FuelExhaustion,
                    ChaosFault::AdaptorReject,
                ],
            ),
            None | Some(ChaosFault::Delay)
        )
    };
    let seed = (0..200_000u64)
        .find(|&seed| {
            let eng = ChaosEngine::new(ChaosConfig { seed, rate });
            eng.roll("gemm", "store/flow", 0, &[ChaosFault::IoError])
                .is_some()
                && eng
                    .roll("gemm", "cache/flow", 0, &[ChaosFault::IoError])
                    .is_none()
                && quiet(&eng, "flow")
                && quiet(&eng, "csynth")
                && quiet(&eng, "cosim")
        })
        .expect("a store-only chaos seed exists");

    let dir = temp_cache("chaos-store");
    let batch_opts = BatchOptions {
        chaos: Some(ChaosConfig { seed, rate }),
        // One attempt: the injected store error must not be healed by a
        // lucky retry, so the warning path is pinned deterministically.
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..opts(&dir)
    };
    let gemm = *kernels::kernel("gemm").expect("gemm exists");
    let summary = run_batch(&[gemm], &batch_opts).expect("batch runs");
    artifacts(&summary.runs[0].outcome); // completes despite the store fault
    assert!(
        summary
            .warnings
            .iter()
            .any(|w| w.contains("cache store failed") && w.contains("injected cache write error")),
        "warnings must name the failed store: {:?}",
        summary.warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

use driver::batch::{run_source, run_supervised, Source};
use driver::{FaultClass, StageError};

/// A partition directive must survive the print/parse boundary between
/// the flow and csynth stages, and a 2^31 factor must not stall port
/// arbitration: both reach the in-memory latency.
#[test]
fn partition_directives_survive_the_print_parse_boundary() {
    let gemm = kernels::kernel("gemm").unwrap();
    for factor in [4, 1 << 31] {
        let directives = Directives {
            partition_factor: Some(factor),
            ..Directives::pipelined(1)
        };
        let in_memory = run_flow(gemm, &directives, Flow::Adaptor).unwrap();
        let expect = vitis_sim::csynth(&in_memory.module, &vitis_sim::Target::default()).unwrap();
        let opts = BatchOptions {
            directives,
            cache_dir: None,
            ..BatchOptions::default()
        };
        let (outcome, _) = run_supervised(gemm, &opts).unwrap();
        let a = artifacts(&outcome);
        assert_eq!(a.cosim_max_err, 0.0, "partition {factor}");
        assert_eq!(a.csynth.latency, expect.latency, "partition {factor}");
        assert_eq!(a.csynth.latency, 31317, "partition {factor}");
    }
}

/// Raw MLIR runs the same engine as suite kernels: flow → csynth through
/// the stage cache, with no co-simulation and no C++ fallback.
#[test]
fn raw_sources_share_the_engine_but_skip_cosim_and_never_degrade() {
    let dir = temp_cache("raw-source");
    let gemm = kernels::kernel("gemm").unwrap();
    let raw = Source::Raw {
        name: gemm.name,
        mlir: gemm.mlir,
    };
    let run = |src: Source<'_>, opts: &BatchOptions| {
        let mut stages = Vec::new();
        let (outcome, _) = run_source(src, opts, &mut |s| stages.push(s.to_string())).unwrap();
        (outcome, stages)
    };
    let no_cache = BatchOptions {
        cache_dir: None,
        ..BatchOptions::default()
    };
    let (suite, suite_stages) = run(Source::Suite(gemm), &no_cache);
    let (cold, stages) = run(raw, &opts(&dir));
    assert_eq!(suite_stages, ["flow", "csynth", "cosim"]);
    assert_eq!(stages, ["flow", "csynth"]);
    let (s, r) = (artifacts(&suite), artifacts(&cold));
    assert_eq!(r.module_text, s.module_text);
    assert_eq!(r.csynth.latency, s.csynth.latency);
    assert_eq!((r.cosim_max_err, r.cosim_steps), (0.0, 0));
    let names: Vec<&str> = r.report.passes.iter().map(|p| p.pass.as_str()).collect();
    assert_eq!(names, ["flow/lower", "flow/adaptor", "csynth"]);
    assert_eq!((r.cache_hits, r.cache_misses), (0, 2));

    // The rerun is served from the stage cache, byte for byte.
    let (warm, _) = run(raw, &opts(&dir));
    let w = artifacts(&warm);
    assert_eq!((w.cache_hits, w.cache_misses), (2, 0));
    assert_eq!(w.module_text, r.module_text);
    assert_eq!(w.csynth, r.csynth);

    // A chaos seed whose adaptor-flow roll for "gemm" is a legalization
    // rejection, with a harmless C++-flow retry and quiet later stages.
    const ADAPTOR_MENU: [ChaosFault; 4] = [
        ChaosFault::Panic,
        ChaosFault::Delay,
        ChaosFault::FuelExhaustion,
        ChaosFault::AdaptorReject,
    ];
    const BOUNDARY_MENU: [ChaosFault; 3] = [
        ChaosFault::Panic,
        ChaosFault::Delay,
        ChaosFault::FuelExhaustion,
    ];
    let chaos = (0..10_000u64)
        .map(|seed| ChaosConfig { seed, rate: 0.5 })
        .find(|&cfg| {
            let e = ChaosEngine::new(cfg);
            e.roll("gemm", "flow", 0, &ADAPTOR_MENU) == Some(ChaosFault::AdaptorReject)
                && e.roll("gemm", "flow", 0, &BOUNDARY_MENU) == Some(ChaosFault::Delay)
                && e.roll("gemm", "csynth", 0, &BOUNDARY_MENU).is_none()
                && e.roll("gemm", "cosim", 0, &BOUNDARY_MENU).is_none()
        })
        .expect("a lone adaptor-rejection seed exists");
    let chaotic = BatchOptions {
        chaos: Some(chaos),
        ..no_cache
    };
    assert!(matches!(
        run(Source::Suite(gemm), &chaotic).0,
        RunOutcome::Degraded { .. }
    ));
    match run(raw, &chaotic).0 {
        RunOutcome::Failed(StageError::Fault { stage, class, .. }) => {
            assert_eq!((stage.as_str(), class), ("flow", FaultClass::Deterministic));
        }
        other => panic!("a raw adaptor rejection must not degrade: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
