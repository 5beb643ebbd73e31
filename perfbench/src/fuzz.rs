//! fuzz-oracle: the candidate-evaluation loop.
//!
//! One op is one generated kernel through `fuzzing::run_oracles`:
//! MLIR and LLVM round trips, adaptor flow, C++ flow and differential
//! interpretation of both outputs. On these small kernels the interpreter
//! is a minority of the op, and the C++ flow runs nowhere else. The
//! kernels come from a pinned seed range, in the order `--seed` picks.
//! fuzz-oracle has no result cache; its warm path is `mha-fuzz --isolate`,
//! a candidate evaluated on a pre-spawned, pinged worker process.

use driver::{run_flow_on_text, Directives, Flow, Warden, WardenConfig};
use fuzzing::{run_oracles, CampaignOpts, OracleOpts, TOP_NAME};
use llvm_lite::interp::{Interpreter, RtVal};
use mlir_lite::MType;
use pass_core::Budget;
use vitis_sim::Target;

use crate::inputs::{self, FuzzKernel};
use crate::trace::Tracer;
use crate::{sliced_loop, stats, timed, timed_loop, Phase, Report, RunCfg, TracedOps, SETUP_REPS};

/// Share of each slice of `--seconds` spent on in-process ops; the rest
/// on the warm worker pool.
const COLD_SHARE: f64 = 0.85;
/// Kernels run untimed in each set-up.
const WARM_UP: usize = 16;
/// Traced ops over which the exact counters are averaged.
const COUNT_OPS: usize = 256;

fn check(k: &FuzzKernel, opts: &OracleOpts) -> Result<(), String> {
    run_oracles(&k.text, k.seed, opts).map_err(|f| format!("seed {}: {f}", k.seed))
}

struct Setup {
    kernels: Vec<FuzzKernel>,
    warden: Warden,
}

/// Input generation, an untimed warm-up and the warm worker pool.
fn setup(cfg: &RunCfg, report: &mut Report) -> Result<Setup, String> {
    let kernels = inputs::generate_range(inputs::FUZZ_RANGE, cfg.seed);
    let opts = OracleOpts::default();
    for k in &kernels[..WARM_UP] {
        if let Err(e) = check(k, &opts) {
            report.fail(format!("warm-up: {e}"));
        }
    }
    let warden = Warden::new(WardenConfig {
        pool: 1,
        ..WardenConfig::default()
    })?;
    Ok(Setup { kernels, warden })
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous pool first so set-ups never overlap.
        drop(last.take());
        let (s, secs) = timed(|| setup(cfg, &mut report))?;
        setups.push(secs);
        last = Some(s);
    }
    let Setup { kernels, warden } = last.expect("at least one set-up");
    eprintln!(
        "fuzz-oracle: seeds {:?} in seed-{} order, inputs {}",
        inputs::FUZZ_RANGE,
        cfg.seed,
        inputs::kernels_digest("fuzz-oracle/v1", &kernels)
    );
    let opts = OracleOpts::default();
    let at = |i: usize| &kernels[i % kernels.len()];

    if cfg.trace {
        let r = traced(cfg, &kernels, &warden, report);
        warden.shutdown();
        return r;
    }

    let mut verdicts = Vec::new();
    let mut warm_verdicts = Vec::new();
    let copts = CampaignOpts::default();
    let (cold, warm) = sliced_loop(
        cfg.budget(1.0),
        COLD_SHARE,
        stats::min_samples(0.99),
        |i| verdicts.push(check(at(i), &opts)),
        |i| {
            let k = at(i);
            warm_verdicts.push(match warden.execute_oracle(&k.text, k.seed, &copts) {
                Ok(false) => Ok(()),
                Ok(true) => Err(format!("seed {}: unexpected interchange verdict", k.seed)),
                Err(f) => Err(format!("seed {} (isolated): {f}", k.seed)),
            });
        },
    );
    verdicts.extend(warm_verdicts);
    warden.shutdown();
    for v in verdicts {
        report.check(v);
    }
    match qor_geomean(&kernels, cfg.workers()) {
        Ok(g) => report.set("qor_geomean_cycles", g),
        Err(e) => report.fail(e),
    }
    report.set_common(&setups, &cold, &warm);
    Ok(report)
}

/// Geomean csynth latency of the adaptor-flow modules the oracle builds
/// for this range (parse, lower, adaptor — no directives), computed
/// outside the timed phases on `threads` threads.
fn qor_geomean(kernels: &[FuzzKernel], threads: usize) -> Result<f64, String> {
    let chunk = kernels.len().div_ceil(threads.max(1));
    let lats: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = kernels
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|k| {
                            let art = run_flow_on_text(
                                TOP_NAME,
                                &k.text,
                                &Directives::default(),
                                Flow::Adaptor,
                                &Budget::unlimited(),
                            )
                            .map_err(|e| format!("seed {} qor flow: {e}", k.seed))?;
                            vitis_sim::csynth(&art.module, &Target::default())
                                .map(|r| r.latency.max(1) as f64)
                                .map_err(|e| format!("seed {} csynth: {e}", k.seed))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("qor thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(kernels.len());
    for part in lats {
        all.extend(part?);
    }
    Ok(stats::geomean(&all))
}

fn traced(
    cfg: &RunCfg,
    kernels: &[FuzzKernel],
    warden: &Warden,
    mut report: Report,
) -> Result<Report, String> {
    let opts = OracleOpts::default();
    let at = |i: usize| &kernels[i % kernels.len()];
    let usage = crate::procfs::Usage::now();
    let mut verdicts = Vec::new();
    let plain: Phase = timed_loop(cfg.budget(0.4), 0, |i| verdicts.push(check(at(i), &opts)));
    let (cpu, runq) = usage.per_op(plain.lat.len() as u64, 0);

    let mut t = Tracer::new(false);
    let mut ops = TracedOps::default();
    let _ = timed_loop(cfg.budget(0.6), COUNT_OPS, |i| {
        let k = at(i);
        let start = std::time::Instant::now();
        let real = check(k, &opts);
        ops.op_ns.push(start.elapsed().as_nanos() as u64);
        let replayed = ops.replay(&mut t, i as u32, |t| replay(t, k, opts.step_limit));
        verdicts
            .push(real.and_then(|_| replayed.map_err(|e| format!("seed {}: replay: {e}", k.seed))));
    });
    for v in verdicts {
        report.check(v);
    }
    ops.layer_metrics(&t, COUNT_OPS as u32, &["fuzzing.generate"], &mut report);
    report.set("process.cpu_ms_per_op", cpu);
    report.set("process.runq_wait_ms", runq);
    let w = warden.stats();
    report.set("warden.spawned", w.spawned as f64);
    report.set("warden.recycled", w.recycled as f64);
    report.set("warden.crashes", w.crashes as f64);
    report.absent(&["serve.", "warden."]);
    report.tracer = Some(t);
    Ok(report)
}

/// A campaign step — generate, then `run_oracles`' stages — one public
/// layer call per span, with the oracle's verdicts checked inline.
fn replay(t: &mut Tracer, k: &FuzzKernel, step_limit: u64) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let seed = k.seed;
    let text = t.span("fuzzing.generate", |_| {
        fuzzing::generate(seed, &fuzzing::GenConfig::default()).text
    });
    if text != k.text {
        return Err("the generator no longer reproduces the input".into());
    }
    let budget = Budget::unlimited();
    let m = t
        .span("mlir_lite.parse", |_| {
            mlir_lite::parser::parse_module(TOP_NAME, &text)
        })
        .map_err(|e| err(&e))?;
    t.span("mlir_lite.verify", |_| {
        mlir_lite::verifier::verify_module(&m)
    })
    .map_err(|e| err(&e))?;
    let t1 = t.span("mlir_lite.print", |_| mlir_lite::printer::print_module(&m));
    let m2 = t
        .span("mlir_lite.parse", |_| {
            mlir_lite::parser::parse_module(TOP_NAME, &t1)
        })
        .map_err(|e| err(&e))?;
    if t.span("mlir_lite.print", |_| mlir_lite::printer::print_module(&m2)) != t1 {
        return Err("MLIR round trip is not the identity".into());
    }
    let mut adapted = t
        .span("lowering.lower", |_| lowering::lower(m.deep_clone()))
        .map_err(|e| err(&e))?;
    t.count("lowering.insts_out", crate::insts(&adapted));
    let rep = t
        .span("adaptor.run", |_| {
            adaptor::run_adaptor_budgeted(&mut adapted, &adaptor::AdaptorConfig::default(), &budget)
        })
        .map_err(|e| err(&e))?;
    t.count("adaptor.insts_out", crate::insts(&adapted));
    t.count("adaptor.iterations", rep.pipeline.iterations as u64);
    t.span("llvm_lite.verify", |_| {
        llvm_lite::verifier::verify_module(&adapted)
    })
    .map_err(|e| err(&e))?;
    let l1 = t.span("llvm_lite.print", |_| {
        llvm_lite::printer::print_module(&adapted)
    });
    let l2 = t
        .span("llvm_lite.parse", |_| {
            llvm_lite::parser::parse_module(TOP_NAME, &l1)
        })
        .map_err(|e| err(&e))?;
    if t.span("llvm_lite.print", |_| llvm_lite::printer::print_module(&l2)) != l1 {
        return Err("LLVM round trip is not the identity".into());
    }
    let cpp = t
        .span("hls_cpp.emit", |_| hls_cpp::emit_cpp(&m))
        .map_err(|e| err(&e))?;
    let mut cpp_mod = t
        .span("hls_cpp.frontend", |_| hls_cpp::compile_cpp(TOP_NAME, &cpp))
        .map_err(|e| err(&e))?;
    let cleanup = t
        .span("llvm_lite.cleanup", |_| {
            llvm_lite::transforms::standard_cleanup().run_to_fixpoint_budgeted(
                &mut cpp_mod,
                4,
                &budget,
            )
        })
        .map_err(|e| err(&e))?;
    t.count("llvm_lite.cleanup_iterations", cleanup.iterations as u64);
    let shapes = buffer_shapes(&m)?;
    let a = execute(t, &adapted, &shapes, seed, step_limit)?;
    let c = execute(t, &cpp_mod, &shapes, seed, step_limit)?;
    if a.iter()
        .flatten()
        .zip(c.iter().flatten())
        .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        return Err("flows diverged".into());
    }
    Ok(())
}

/// Element counts of the top function's memref parameters.
fn buffer_shapes(m: &mlir_lite::MlirModule) -> Result<Vec<usize>, String> {
    let f = m.func(TOP_NAME).ok_or("no top function")?;
    f.regions[0]
        .entry()
        .arg_types
        .iter()
        .map(|ty| match ty {
            MType::MemRef { shape, .. } => Ok(shape.iter().product::<i64>().max(1) as usize),
            other => Err(format!("parameter is not a memref: {other:?}")),
        })
        .collect()
}

/// One differential execution, inputs as the oracle derives them.
fn execute(
    t: &mut Tracer,
    module: &llvm_lite::Module,
    shapes: &[usize],
    seed: u64,
    step_limit: u64,
) -> Result<Vec<Vec<f32>>, String> {
    let name = module
        .top_function()
        .map_or(TOP_NAME.to_string(), |f| f.name.clone());
    let (out, steps) = t.span("llvm_lite.interp", |_| {
        let mut interp = Interpreter::new(module);
        interp.step_limit = step_limit;
        let ptrs: Vec<u64> = shapes
            .iter()
            .enumerate()
            .map(|(b, &n)| {
                let data: Vec<f32> = (0..n)
                    .map(|e| fuzzing::oracle::input_value(seed, b, e))
                    .collect();
                interp.mem.alloc_f32(&data)
            })
            .collect();
        let args: Vec<RtVal> = ptrs.iter().map(|p| RtVal::P(*p)).collect();
        interp.call(&name, &args).map_err(|e| e.to_string())?;
        let out = ptrs
            .iter()
            .zip(shapes)
            .map(|(p, &n)| interp.mem.read_f32(*p, n).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((out, interp.stats.steps))
    })?;
    t.count("llvm_lite.interp_steps", steps);
    Ok(out)
}
