//! The printer/parser pair round-trips the modules both flows produce.
//!
//! Every printed module must re-parse, verify, and print again to the same
//! text: `mha-batch` and `mha-serve` cache the printed flow output and
//! re-parse it before csynth and cosim, so a printed name defined twice
//! would silently retarget its later uses. The ten suite kernels run
//! through both flows under the directive sets of Figures 1 and 4; the
//! `#[ignore]`d test adds fuzz seeds 0..5000 through both flows (run it in
//! release mode:
//! `cargo test --release -p driver --test printer_roundtrip -- --ignored`).
//!
//! The printed text of each suite kernel through both flows at the batch
//! default directives is also pinned by FNV-1a digest, so any change to
//! what mem2reg, DCE or the printer emit fails here.

#[path = "support/figure_sets.rs"]
mod figure_sets;

use driver::{run_flow, Directives, Flow};
use fuzzing::{GenConfig, TOP_NAME};
use llvm_lite::parser::parse_module;
use llvm_lite::printer::print_module;
use llvm_lite::verifier::verify_module;
use pass_core::Budget;

/// Print, re-parse, verify and print again; fails on any difference.
fn assert_round_trips(label: &str, name: &str, m: &llvm_lite::Module) {
    let text = print_module(m);
    let again = parse_module(name, &text)
        .unwrap_or_else(|e| panic!("{label}: printed module does not re-parse: {e}"));
    if let Err(e) = verify_module(&again) {
        panic!("{label}: re-parsed module does not verify: {e}");
    }
    assert!(
        print_module(&again) == text,
        "{label}: print∘parse∘print is not a fixed point"
    );
}

#[test]
fn suite_modules_round_trip_under_the_figure_directive_sets() {
    let sets = figure_sets::figure_directive_sets();
    assert_eq!(sets.len(), 10);
    for k in kernels::all_kernels() {
        for d in &sets {
            for flow in [Flow::Adaptor, Flow::Cpp] {
                let art = run_flow(k, d, flow).unwrap();
                assert_round_trips(
                    &format!("{} via {flow:?} at {d:?}", k.name),
                    k.name,
                    &art.module,
                );
            }
        }
    }
}

/// FNV-1a of `print_module` for each suite kernel through both flows at
/// `Directives::pipelined(1)`, the `mha-batch` default.
const PINNED: [(&str, u64, u64); 10] = [
    ("gemm", 0x82b45d1a242cc6aa, 0x83f51ee56fd5e998),
    ("bicg", 0xdc016bfc9ab76af6, 0x781501d1d54254bd),
    ("atax", 0xa9207051a04c77e1, 0x21f489da1afc66fb),
    ("gesummv", 0x048c3da5ec7c1eb9, 0x6bd2d8a0805aa95d),
    ("mvt", 0x080d3341d5f16b46, 0x4373ba83cc575496),
    ("two_mm", 0xb37bcbb66297700a, 0x66b3f563f756e038),
    ("fir", 0xb061ba4147639cd1, 0xaf818609f08ef1c2),
    ("conv2d", 0x2fd1f0570b215a77, 0x0cdb887ae00733af),
    ("jacobi2d", 0x2560651ee6dc4098, 0xa86869722a09195f),
    ("seidel2d", 0xb3376d024c8dc599, 0xfc4398ca9b1894c4),
];

#[test]
fn printed_suite_modules_match_their_pinned_digests() {
    let d = Directives::pipelined(1);
    let mut got = Vec::new();
    for k in kernels::all_kernels() {
        let digest = |flow| {
            kernels::fnv1a64(print_module(&run_flow(k, &d, flow).unwrap().module).as_bytes())
        };
        got.push((k.name, digest(Flow::Adaptor), digest(Flow::Cpp)));
    }
    let want: Vec<(&str, u64, u64)> = PINNED.to_vec();
    assert_eq!(got, want, "printed suite modules changed");
}

fn fuzz_both_flows(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let text = fuzzing::generate(seed, &GenConfig::default()).text;
        let m = mlir_lite::parser::parse_module(TOP_NAME, &text).unwrap();
        for flow in [Flow::Adaptor, Flow::Cpp] {
            let label = format!("seed {seed} via {flow:?}");
            let art = fuzzing::flow::run(m.deep_clone(), flow, &Budget::unlimited(), &mut |_| {})
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_round_trips(&label, TOP_NAME, &art.module);
        }
    }
}

#[test]
fn fuzz_seed_prefix_round_trips_in_both_flows() {
    fuzz_both_flows(0..48);
}

#[test]
#[ignore = "5000 seeds; run in release mode"]
fn fuzz_5000_seeds_round_trip_in_both_flows() {
    fuzz_both_flows(0..5000);
}
