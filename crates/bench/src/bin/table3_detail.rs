//! **Table 3** — "expression details" retained by each representation:
//! the structured information available to the backend in the adaptor flow
//! (affine maps, loop attributes, typed arrays) versus what survives the
//! C++ detour (strings the frontend must re-derive).
//!
//! Metrics per kernel:
//! * MLIR structure: affine accesses and how many carry non-identity maps;
//! * adaptor flow: structured (array-typed) GEPs in the final IR;
//! * C++ flow: structured GEPs after the frontend re-derives them, plus the
//!   frontend-introduced temporaries (extra IR the detour manufactures).

use driver::{flow::prepare_mlir, run_flow, Directives, Flow};
use hls_bench::render_table;
use llvm_lite::{InstData, Opcode, Type};

fn structured_geps(m: &llvm_lite::Module) -> (usize, usize) {
    let mut structured = 0;
    let mut flat = 0;
    for f in &m.functions {
        if f.is_declaration {
            continue;
        }
        for (_, id) in f.inst_ids() {
            let inst = f.inst(id);
            if inst.opcode != Opcode::Gep {
                continue;
            }
            if let InstData::Gep { base_ty, .. } = &inst.data {
                if matches!(base_ty, Type::Array(..)) {
                    structured += 1;
                } else {
                    flat += 1;
                }
            }
        }
    }
    (structured, flat)
}

fn main() {
    let d = Directives::pipelined(1);
    let mut rows = Vec::new();
    for k in kernels::all_kernels() {
        let adaptor = run_flow(k, &d, Flow::Adaptor).expect("adaptor flow");
        let cpp = run_flow(k, &d, Flow::Cpp).expect("cpp flow");
        let s = mlir_lite::stats::module_stats(&prepare_mlir(k, &d).expect("parse"));
        let (a_struct, a_flat) = structured_geps(&adaptor.module);
        let (c_struct, c_flat) = structured_geps(&cpp.module);
        let a_insts = adaptor
            .module
            .top_function()
            .map(|f| f.num_insts())
            .unwrap_or(0);
        let c_insts = cpp
            .module
            .top_function()
            .map(|f| f.num_insts())
            .unwrap_or(0);
        rows.push(vec![
            k.name.to_string(),
            s.affine_accesses.to_string(),
            s.structured_accesses.to_string(),
            s.directive_loops.to_string(),
            format!("{a_struct}/{a_flat}"),
            format!("{c_struct}/{c_flat}"),
            a_insts.to_string(),
            c_insts.to_string(),
        ]);
    }
    println!("Table 3: expression detail retained per representation (PIPELINE II=1)");
    println!("  acc      = affine accesses in the MLIR source");
    println!("  maps     = accesses with non-identity affine maps");
    println!("  dir      = loops carrying HLS directives");
    println!("  geps s/f = structured/flat getelementptrs in the final IR");
    print!(
        "{}",
        render_table(
            &[
                "kernel",
                "acc",
                "maps",
                "dir",
                "adaptor geps s/f",
                "cpp geps s/f",
                "adaptor insts",
                "cpp insts"
            ],
            &rows
        )
    );
    println!();
    println!("The adaptor flow carries the affine structure to the backend directly;");
    println!("the C++ flow re-derives it from source text (and only for what C array");
    println!("syntax can spell).");
}
