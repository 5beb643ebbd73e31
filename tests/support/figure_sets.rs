//! The directive sets of Figures 1 and 4, shared by the tests that walk
//! every suite kernel under each of them.

use driver::Directives;

/// PIPELINE II=1 with unroll 1/2/4/8, and unroll 1/2/4 × cyclic partition
/// 1/2/4: ten distinct sets.
pub fn figure_directive_sets() -> Vec<Directives> {
    let set = |u: u32, p: u32| Directives {
        pipeline_ii: Some(1),
        unroll_factor: (u > 1).then_some(u),
        partition_factor: (p > 1).then_some(p),
        flatten: false,
    };
    let mut sets: Vec<Directives> = [1, 2, 4, 8].iter().map(|&u| set(u, 1)).collect();
    for u in [1, 2, 4] {
        for p in [1, 2, 4] {
            if !sets.contains(&set(u, p)) {
                sets.push(set(u, p));
            }
        }
    }
    sets
}
