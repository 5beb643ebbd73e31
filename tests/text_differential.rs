//! Old-vs-new differential for the text layers: the MLIR-lite parser and
//! printer and the llvm-lite parser.
//!
//! The parsers now borrow their tokens from the input and the MLIR printer
//! writes into one buffer. The versions they replaced survive in
//! `support/reference_{mlir_parser,mlir_printer,llvm_parser}.rs` as this
//! test's oracles. For the ten suite kernels under the Figure 1/4
//! directive sets and for generated kernels:
//!
//! * both MLIR printers print the same text for the directive-applied
//!   module and for the module after each lowering stage (full unroll,
//!   affine → scf, scf → cf, where the generic form prints);
//! * both parsers of each level read the same printed result from the
//!   printed MLIR module, the generator's own text, and the printed LLVM
//!   module of each flow;
//! * on seeded truncations, byte flips and token splices of those texts,
//!   both parsers of each level give the same printed result or the same
//!   error text.
//!
//! The one allowed difference: where the old parser panicked (an
//! `affine.for` step that is not positive, a load of a non-memref value),
//! the new one must return an error. The new parsers never panic.
//!
//! Tier-1 covers the suite and fuzz seeds 0..48. The `#[ignore]`d test
//! covers seeds 0..5000 plus the suite; run it in release mode:
//! `cargo test --release -p driver --test text_differential -- --ignored`.

#[path = "support/figure_sets.rs"]
mod figure_sets;
#[path = "support/quiet.rs"]
mod quiet;
#[allow(dead_code)]
#[path = "support/reference_llvm_parser.rs"]
mod reference_llvm_parser;
#[allow(dead_code)]
#[path = "support/reference_mlir_parser.rs"]
mod reference_mlir_parser;
#[allow(dead_code)]
#[path = "support/reference_mlir_printer.rs"]
mod reference_mlir_printer;

use driver::Flow;
use fuzzing::rng::Rng;
use fuzzing::{GenConfig, TOP_NAME};
use mlir_lite::MlirModule;
use pass_core::Budget;
use quiet::catch_quiet;

/// What each seeded edit does to a text.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// Cut the text at a character boundary.
    Truncate,
    /// Replace one character with one from [`FLIPS`].
    Flip,
    /// Copy one whitespace-delimited token over, or in front of, another.
    Splice,
}

const EDITS: [Edit; 3] = [Edit::Truncate, Edit::Flip, Edit::Splice];

/// Replacement characters for [`Edit::Flip`]: the grammar's punctuation,
/// digits, sigils, letters, whitespace and one multi-byte character.
const FLIPS: &[char] = &[
    '0', '1', '7', '-', '+', '*', 'x', 'e', '.', ',', ':', '=', '(', ')', '[', ']', '{', '}', '<',
    '>', '%', '@', '!', '"', ';', '/', ' ', '\n', 'a', 'i', '_', 'é',
];

fn apply(text: &str, edit: Edit, rng: &mut Rng) -> String {
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    if boundaries.is_empty() {
        return String::new();
    }
    match edit {
        Edit::Truncate => text[..*rng.pick(&boundaries)].to_string(),
        Edit::Flip => {
            let at = *rng.pick(&boundaries);
            let len = text[at..].chars().next().map_or(0, char::len_utf8);
            format!("{}{}{}", &text[..at], rng.pick(FLIPS), &text[at + len..])
        }
        Edit::Splice => {
            let tokens = token_spans(text);
            let (src, dst) = (*rng.pick(&tokens), *rng.pick(&tokens));
            let token = &text[src.0..src.1];
            if rng.chance(1, 2) {
                format!("{}{token}{}", &text[..dst.0], &text[dst.1..])
            } else {
                format!("{}{token} {}", &text[..dst.0], &text[dst.0..])
            }
        }
    }
}

/// Byte spans of the maximal non-whitespace runs of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c.is_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    if spans.is_empty() {
        spans.push((0, 0));
    }
    spans
}

/// How many inputs each parser pair saw, and how many of them only the
/// old parser panicked on.
#[derive(Default)]
struct Tally {
    parsed: u32,
    rejected: u32,
    old_panics: u32,
}

/// Compare one parser pair on `text`. Each side parses and then prints
/// with its own printer; the two must agree on the printed module or on
/// the error text, except that an old-parser panic must now be an error.
fn agree<E: ToString, F: ToString>(
    label: &str,
    new: impl FnOnce() -> Result<String, E>,
    old: impl FnOnce() -> Result<String, F>,
    tally: &mut Tally,
) {
    let new = catch_quiet(|| new().map_err(|e| e.to_string()));
    let old = catch_quiet(|| old().map_err(|e| e.to_string()));
    match (new, old) {
        (Err(panic), _) => panic!("{label}: the new parser panicked: {panic}"),
        (Ok(Err(_)), Err(_)) => tally.old_panics += 1,
        (Ok(new), Ok(old)) => {
            assert_eq!(new, old, "{label}: parsers disagree");
            match new {
                Ok(_) => tally.parsed += 1,
                Err(_) => tally.rejected += 1,
            }
        }
        (Ok(new), Err(panic)) => {
            panic!("{label}: the old parser panicked ({panic}), the new one returned {new:?}")
        }
    }
}

fn agree_mlir(label: &str, text: &str, tally: &mut Tally) {
    agree(
        label,
        || mlir_lite::parser::parse_module(TOP_NAME, text).map(|m| print_mlir(label, &m)),
        || {
            reference_mlir_parser::parse_module(TOP_NAME, text)
                .map(|m| reference_mlir_printer::print_module(&m))
        },
        tally,
    );
}

fn agree_llvm(label: &str, text: &str, tally: &mut Tally) {
    let print = |m: llvm_lite::Module| llvm_lite::printer::print_module(&m);
    agree(
        label,
        || llvm_lite::parser::parse_module(TOP_NAME, text).map(print),
        || reference_llvm_parser::parse_module(TOP_NAME, text).map(print),
        tally,
    );
}

/// Print with the new printer, checking it against the old one on the
/// module and on each top-level op.
fn print_mlir(label: &str, m: &MlirModule) -> String {
    let text = mlir_lite::printer::print_module(m);
    assert!(
        text == reference_mlir_printer::print_module(m),
        "{label}: printers disagree on\n{text}"
    );
    for op in &m.ops {
        assert_eq!(
            mlir_lite::printer::print_op(op),
            reference_mlir_printer::print_op(op),
            "{label}: printers disagree on a top-level op"
        );
    }
    text
}

/// The MLIR module after each lowering stage that stays in MLIR.
fn print_lowering_stages(label: &str, m: &MlirModule) {
    let mut m = m.deep_clone();
    lowering::unroll::expand_full_unroll(&mut m).expect("full unroll");
    print_mlir(&format!("{label} after full unroll"), &m);
    lowering::affine_to_scf::run(&mut m).expect("affine to scf");
    print_mlir(&format!("{label} after affine to scf"), &m);
    lowering::scf_to_cf::run(&mut m).expect("scf to cf");
    print_mlir(&format!("{label} after scf to cf"), &m);
}

/// Both parser pairs on `text` and on `edits` seeded edits of it.
fn agree_with_edits(
    label: &str,
    text: &str,
    level: fn(&str, &str, &mut Tally),
    rng: &mut Rng,
    edits: usize,
    tally: &mut Tally,
) {
    level(label, text, tally);
    for k in 0..edits {
        let edit = EDITS[k % EDITS.len()];
        let mutated = apply(text, edit, rng);
        level(&format!("{label}, {edit:?} #{k}"), &mutated, tally);
    }
}

/// Every text boundary of one kernel: its MLIR (as written, when given,
/// and as printed), the lowering stages, and each flow's printed module.
fn check_kernel(
    label: &str,
    source: Option<&str>,
    m: &MlirModule,
    seed: u64,
    edits: usize,
    tally: &mut Tally,
) {
    let mut rng = Rng::new(seed);
    if let Some(source) = source {
        agree_with_edits(
            &format!("{label} source"),
            source,
            agree_mlir,
            &mut rng,
            edits,
            tally,
        );
    }
    let printed = print_mlir(label, m);
    agree_with_edits(
        &format!("{label} mlir"),
        &printed,
        agree_mlir,
        &mut rng,
        edits,
        tally,
    );
    print_lowering_stages(label, m);
    for flow in [Flow::Adaptor, Flow::Cpp] {
        let label = format!("{label} via {flow:?}");
        let art = fuzzing::flow::run(m.deep_clone(), flow, &Budget::unlimited(), &mut |_| {})
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let text = llvm_lite::printer::print_module(&art.module);
        agree_with_edits(&label, &text, agree_llvm, &mut rng, edits, tally);
    }
}

fn suite(edits: usize, tally: &mut Tally) {
    for (ki, k) in kernels::all_kernels().iter().enumerate() {
        for (di, d) in figure_sets::figure_directive_sets().iter().enumerate() {
            let m = driver::flow::prepare_mlir(k, d).unwrap();
            let label = format!("{} at {d:?}", k.name);
            check_kernel(&label, None, &m, (ki * 100 + di) as u64, edits, tally);
        }
    }
}

fn fuzz(seeds: std::ops::Range<u64>, edits: usize, tally: &mut Tally) {
    for seed in seeds {
        let text = fuzzing::generate(seed, &GenConfig::default()).text;
        let m = mlir_lite::parser::parse_module(TOP_NAME, &text).unwrap();
        let label = format!("seed {seed}");
        check_kernel(&label, Some(&text), &m, seed, edits, tally);
    }
}

/// Every outcome class was reached, so no part of the comparison is idle.
fn assert_every_outcome_reached(tally: &Tally) {
    assert!(tally.parsed > 0, "no input parsed");
    assert!(tally.rejected > 0, "no input was rejected");
}

#[test]
fn suite_and_fuzz_prefix_agree_with_the_old_parsers_and_printer() {
    let mut tally = Tally::default();
    suite(6, &mut tally);
    fuzz(0..48, 12, &mut tally);
    assert_every_outcome_reached(&tally);
}

#[test]
#[ignore = "5000 seeds; run in release mode"]
fn fuzz_5000_seeds_and_suite_agree_with_the_old_parsers_and_printer() {
    let mut tally = Tally::default();
    suite(12, &mut tally);
    fuzz(0..5000, 6, &mut tally);
    assert_every_outcome_reached(&tally);
}

#[test]
fn old_parser_panics_are_new_parser_errors() {
    let mut tally = Tally::default();
    for (label, text) in [
        (
            "step 0",
            "func.func @f() {\n  affine.for %i = 0 to 4 step 0 {\n  }\n  func.return\n}\n",
        ),
        (
            "load of a float",
            "func.func @f() {\n  %c = arith.constant 1.0 : f32\n  %v = memref.load %c[] : memref<f32>\n  func.return\n}\n",
        ),
    ] {
        agree_mlir(label, text, &mut tally);
    }
    assert_eq!(tally.old_panics, 2);
}
