//! The `reproduce` binary's contract with `results/`: one artifact per
//! committed table, and an artifact's stdout is its committed file byte
//! for byte. Table 2 solves
//! nothing, so this holds in a debug build and under fault injection; CI's
//! `reproduce` job diffs the other artifacts in release.

use std::path::Path;
use std::process::Command;

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

#[test]
fn artifacts_are_the_committed_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).output().expect("reproduce runs");
    assert_eq!(out.status.code(), Some(2), "no argument is a usage error");
    let usage = String::from_utf8(out.stderr).expect("usage is UTF-8");
    let mut artifacts: Vec<&str> = usage
        .lines()
        .find_map(|line| line.strip_prefix("artifacts:"))
        .expect("usage lists the artifacts")
        .split_whitespace()
        .collect();
    artifacts.sort_unstable();

    let mut stems: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().expect("named file").to_string_lossy().into_owned())
        .collect();
    stems.sort_unstable();
    assert_eq!(artifacts, stems);
}

#[test]
fn table2_prints_its_committed_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("table2")
        .output()
        .expect("reproduce runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let committed = std::fs::read(results_dir().join("table2.txt")).expect("table2.txt exists");
    assert_eq!(String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&committed));
}
