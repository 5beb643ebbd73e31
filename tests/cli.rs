//! The binaries' shared flag reader, end to end: a malformed,
//! out-of-range or unknown flag exits 2 with the usage text before any
//! work runs, and a value is read in its field's own integer type.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

#[test]
fn mha_csynth_rejects_bad_flags_with_exit_2() {
    let exe = env!("CARGO_BIN_EXE_mha-csynth");
    for args in [
        &["gemm", "--ii", "abc"][..],
        &["gemm", "--ii", "4294967297"],
        &["gemm", "--flow", "bogus"],
        &["gemm", "--bogus-flag", "3"],
        &["gemm", "--fuel"],
    ] {
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mha-csynth"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran work before refusing");
    }
}

#[test]
fn mha_batch_reads_fuel_as_u64() {
    let out = run(
        env!("CARGO_BIN_EXE_mha-batch"),
        &["--no-cache", "--jobs", "1", "--fuel", "5000000000", "fir"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let out = run(
        env!("CARGO_BIN_EXE_mha-batch"),
        &["--ii", "4294967297", "fir"],
    );
    assert_eq!(out.status.code(), Some(2));
}
