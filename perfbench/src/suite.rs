//! suite-cold: the paper's T1/F3 pipeline, one kernel per op.
//!
//! One op is one `driver::batch::run_supervised` call without a cache:
//! adaptor flow → csynth → co-simulation against the Rust reference, on
//! one thread, in repeated passes over the ten suite kernels. Cosim (the
//! `llvm_lite` interpreter) dominates each op, so an interpreter change
//! shows here and a flow change barely does. The warm path is the
//! `mha-batch` rerun: the same call over a primed artifact cache.

use std::collections::BTreeMap;

use driver::batch::{run_supervised, BatchOptions, KernelArtifacts, RunOutcome};
use driver::Directives;
use kernels::Kernel;
use llvm_lite::interp::{Interpreter, RtVal};
use mlir_lite::passes::MlirPass;
use pass_core::Budget;
use vitis_sim::Target;

use crate::inputs::{self, SuiteInputs};
use crate::trace::Tracer;
use crate::{sliced_loop, stats, timed, timed_loop, Phase, Report, RunCfg, TracedOps, SETUP_REPS};

/// The paper's Table 1, whose adaptor column every op must reproduce.
const TABLE1: &str = "results/table1_latency.txt";

/// Share of each slice of `--seconds` spent on cold ops; the rest times
/// warm hits.
const COLD_SHARE: f64 = 0.85;

fn options(seed: u64, cache_dir: Option<std::path::PathBuf>) -> BatchOptions {
    BatchOptions {
        jobs: 1,
        cache_dir,
        seed,
        ..BatchOptions::default()
    }
}

/// Kernel → adaptor-flow latency (cycles) from the Table 1 file.
fn table1() -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(TABLE1).map_err(|e| format!("{TABLE1}: {e}"))?;
    let rows: BTreeMap<String, u64> = text
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next()?;
            let cycles = f.next()?.parse().ok()?;
            kernels::kernel(name).map(|_| (name.to_string(), cycles))
        })
        .collect();
    if rows.len() != kernels::all_kernels().len() {
        return Err(format!(
            "{TABLE1}: found {} of the suite's kernels",
            rows.len()
        ));
    }
    Ok(rows)
}

/// One op; the verdict checks completion, a zero cosim error and the
/// Table 1 latency, and the artifacts come back for further checks.
fn op(
    k: &Kernel,
    opts: &BatchOptions,
    t1: &BTreeMap<String, u64>,
) -> Result<KernelArtifacts, String> {
    let (outcome, _warnings) = run_supervised(k, opts).map_err(|e| format!("{}: {e}", k.name))?;
    let a = match outcome {
        RunOutcome::Completed(a) => *a,
        other => {
            let json = driver::batch::outcome_to_json(&other);
            return Err(format!(
                "{}: not completed: {}",
                k.name,
                &json[..json.len().min(300)]
            ));
        }
    };
    if a.cosim_max_err != 0.0 {
        return Err(format!(
            "{}: cosim error {} (want exactly 0)",
            k.name, a.cosim_max_err
        ));
    }
    if Some(&a.csynth.latency) != t1.get(k.name) {
        return Err(format!(
            "{}: latency {} cycles, Table 1 says {:?}",
            k.name,
            a.csynth.latency,
            t1.get(k.name)
        ));
    }
    Ok(a)
}

/// The module must be the one the first (cache-priming) pass produced.
fn same_as(
    first: &BTreeMap<&str, (String, u64)>,
    k: &Kernel,
    a: &KernelArtifacts,
) -> Result<(), String> {
    match first.get(k.name) {
        Some((d, _)) if *d == a.module_digest => Ok(()),
        _ => Err(format!("{}: module differs from the first pass", k.name)),
    }
}

/// Input generation plus an untimed warm-up pass.
fn setup(cfg: &RunCfg, t1: &BTreeMap<String, u64>, report: &mut Report) -> SuiteInputs {
    let s = inputs::suite(cfg.seed);
    let digest = inputs::suite_digest(&s);
    let opts = options(s.cosim_seed, None);
    for k in &s.kernels {
        if let Err(e) = op(k, &opts, t1) {
            report.fail(format!("warm-up: {e}"));
        }
    }
    eprintln!("suite-cold: seed {} inputs {digest}", cfg.seed);
    s
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let t1 = table1()?;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = timed(|| Ok(setup(cfg, &t1, &mut report)))?;
        setups.push(secs);
        inputs = Some(s);
    }
    let s = inputs.expect("at least one set-up");
    let ks = &s.kernels;
    let cold_opts = options(s.cosim_seed, None);
    let min_ops = stats::min_samples(0.99);

    if cfg.trace {
        return traced(cfg, &s, &t1, report);
    }

    // The warm path reads an artifact cache primed by one cold pass; cold
    // and warm ops then alternate in slices of the measured time.
    let dir = cfg.fresh_dir("suite-cache")?;
    let warm_opts = options(s.cosim_seed, Some(dir));
    let mut first: BTreeMap<&str, (String, u64)> = BTreeMap::new();
    for k in ks {
        match op(k, &warm_opts, &t1) {
            Ok(a) => {
                first.insert(k.name, (a.module_digest, a.csynth.latency));
            }
            Err(e) => report.fail(format!("cache prime: {e}")),
        }
    }
    let mut verdicts = Vec::new();
    let mut warm_verdicts = Vec::new();
    let (cold, warm) = sliced_loop(
        cfg.budget(1.0),
        COLD_SHARE,
        min_ops,
        |i| {
            let k = ks[i % ks.len()];
            verdicts.push(op(k, &cold_opts, &t1).and_then(|a| same_as(&first, k, &a)));
        },
        |i| {
            let k = ks[i % ks.len()];
            warm_verdicts.push(op(k, &warm_opts, &t1).and_then(|a| {
                if a.cache_hits != 3 {
                    return Err(format!(
                        "{}: warm op hit {} of 3 stages",
                        k.name, a.cache_hits
                    ));
                }
                same_as(&first, k, &a)
            }));
        },
    );
    for v in verdicts.into_iter().chain(warm_verdicts) {
        report.check(v);
    }

    let qor: Vec<f64> = first.values().map(|(_, lat)| *lat as f64).collect();
    if qor.len() == ks.len() {
        report.set("qor_geomean_cycles", stats::geomean(&qor));
    }
    report.set_common(&setups, &cold, &warm);
    Ok(report)
}

/// The traced run: an untraced phase for process figures, then per op the
/// real op (timed) and its layer-by-layer replay with and without spans.
fn traced(
    cfg: &RunCfg,
    s: &SuiteInputs,
    t1: &BTreeMap<String, u64>,
    mut report: Report,
) -> Result<Report, String> {
    let ks = &s.kernels;
    let opts = options(s.cosim_seed, None);
    let usage = crate::procfs::Usage::now();
    let mut verdicts = Vec::new();
    let plain: Phase = timed_loop(cfg.budget(0.4), ks.len(), |i| {
        verdicts.push(op(ks[i % ks.len()], &opts, t1).map(|_| ()));
    });
    let (cpu, runq) = usage.per_op(plain.lat.len() as u64, 0);

    let mut t = Tracer::new(false);
    let mut ops = TracedOps::default();
    let _ = timed_loop(cfg.budget(0.6), ks.len(), |i| {
        let k = ks[i % ks.len()];
        let start = std::time::Instant::now();
        let real = op(k, &opts, t1);
        ops.op_ns.push(start.elapsed().as_nanos() as u64);
        let replayed = ops.replay(&mut t, i as u32, |t| replay(t, k, s.cosim_seed));
        verdicts.push(real.and_then(|a| match replayed {
            Ok((digest, latency, steps))
                if digest == a.module_digest
                    && latency == a.csynth.latency
                    && steps == a.cosim_steps =>
            {
                Ok(())
            }
            Ok(_) => Err(format!("{}: replay disagrees with the op", k.name)),
            Err(e) => Err(format!("{}: replay: {e}", k.name)),
        }));
    });
    for v in verdicts {
        report.check(v);
    }
    ops.layer_metrics(&t, ks.len() as u32, &[], &mut report);
    report.set("process.cpu_ms_per_op", cpu);
    report.set("process.runq_wait_ms", runq);
    report.absent(&["serve.", "warden."]);
    report.tracer = Some(t);
    Ok(report)
}

/// `run_supervised`'s work, one public layer call per span. Returns the
/// module digest, csynth latency and interpreter steps.
fn replay(t: &mut Tracer, k: &Kernel, seed: u64) -> Result<(String, u64, u64), String> {
    let d = Directives::pipelined(1);
    let budget = Budget::unlimited();
    let mut m = t
        .span("mlir_lite.parse", |_| {
            mlir_lite::parser::parse_module(k.name, k.mlir)
        })
        .map_err(|e| e.to_string())?;
    t.span("mlir_lite.verify", |_| {
        mlir_lite::verifier::verify_module(&m)
    })
    .map_err(|e| e.to_string())?;
    let ii = d.pipeline_ii.expect("pipelined directives");
    t.span("mlir_lite.passes", |_| {
        mlir_lite::passes::PipelineInnermost { ii }.run(&mut m)
    })
    .map_err(|e| e.to_string())?;
    let mut module = t
        .span("lowering.lower", |_| lowering::lower(m))
        .map_err(|e| e.to_string())?;
    t.count("lowering.insts_out", crate::insts(&module));
    let rep = t
        .span("adaptor.run", |_| {
            adaptor::run_adaptor_budgeted(&mut module, &adaptor::AdaptorConfig::default(), &budget)
        })
        .map_err(|e| e.to_string())?;
    t.count("adaptor.insts_out", crate::insts(&module));
    t.count("adaptor.iterations", rep.pipeline.iterations as u64);
    let text = t.span("llvm_lite.print", |_| {
        llvm_lite::printer::print_module(&module)
    });
    let digest = format!("{:016x}", kernels::fnv1a64(text.as_bytes()));
    let parsed = t
        .span("llvm_lite.parse", |_| {
            llvm_lite::parser::parse_module(k.name, &text)
        })
        .map_err(|e| e.to_string())?;
    let cs = t
        .span("vitis_sim.csynth", |_| {
            vitis_sim::csynth_budgeted(&parsed, &Target::default(), &budget)
        })
        .map_err(|e| e.to_string())?;
    let args = t.span("kernels.inputs", |_| kernels::gen_inputs(k, seed));
    let mut expect = args.clone();
    t.span("kernels.reference", |_| (k.reference)(&mut expect));
    let top = parsed
        .top_function()
        .ok_or("module has no top function")?
        .name
        .clone();
    let (outputs, steps) = t.span("llvm_lite.interp", |_| {
        let mut interp = Interpreter::new(&parsed);
        let ptrs: Vec<u64> = args.iter().map(|b| interp.mem.alloc_f32(b)).collect();
        let call: Vec<RtVal> = ptrs.iter().map(|p| RtVal::P(*p)).collect();
        interp.call(&top, &call).map_err(|e| e.to_string())?;
        let outs = k
            .args
            .iter()
            .zip(&ptrs)
            .filter(|(spec, _)| spec.output)
            .map(|(spec, p)| interp.mem.read_f32(*p, spec.len).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((outs, interp.stats.steps))
    })?;
    t.count("llvm_lite.interp_steps", steps);
    let want = k.args.iter().zip(&expect).filter(|(spec, _)| spec.output);
    let mut max_err = 0.0f32;
    for (got, (_, want)) in outputs.iter().zip(want) {
        for (g, w) in got.iter().zip(want) {
            max_err = max_err.max((g - w).abs());
        }
    }
    if max_err != 0.0 {
        return Err(format!("replayed cosim error {max_err}"));
    }
    Ok((digest, cs.latency, steps))
}
