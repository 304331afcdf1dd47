//! End-to-end checkpoint/resume contract, exercised through the real
//! `rtrpart` binary: a run killed with SIGKILL mid-exploration and resumed
//! from its checkpoint must produce a final CSV byte-identical to an
//! uninterrupted run at the same thread count.
//!
//! Every run here uses `--solve-nodes` (a node budget instead of a
//! wall-clock one) so window outcomes do not depend on machine speed, and
//! `--threads 1`: the sequential path is bit-deterministic even when a
//! window exhausts its node budget, whereas the parallel intra-window
//! search documents limit-hit results as best-effort (which nodes a shared
//! budget covers depends on scheduling).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rtrpart");

/// Per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rtr_ckpt_{}_{label}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn write_dct(dir: &Scratch) -> PathBuf {
    let graph = dir.path("dct.tg");
    let text = rtrpart::workloads::dct::dct_4x4().to_text();
    fs::write(&graph, text).expect("write graph");
    graph
}

/// The shared deterministic argument set; `extra` appends run-specific flags.
fn run_args(graph: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "partition",
        "--graph",
        graph.to_str().unwrap(),
        "--rmax",
        "576",
        "--mmax",
        "512",
        "--ct",
        "1us",
        "--gamma",
        "2",
        "--solve-nodes",
        "150000",
        "--threads",
        "1",
        "--quiet",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

fn run_ok(graph: &Path, extra: &[&str]) {
    let out = Command::new(BIN).args(run_args(graph, extra)).output().expect("spawn rtrpart");
    assert!(out.status.success(), "rtrpart failed: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn kill_mid_run_then_resume_yields_byte_identical_csv() {
    let dir = Scratch::new("kill_resume");
    let graph = write_dct(&dir);
    let base_csv = dir.path("base.csv");
    let ck = dir.path("ck.json");
    let resumed_csv = dir.path("resumed.csv");

    // Reference: one uninterrupted run.
    run_ok(&graph, &["--csv", base_csv.to_str().unwrap()]);
    let baseline = fs::read(&base_csv).expect("baseline csv");

    // Victim: checkpoint after every window, killed as soon as the
    // checkpoint holds at least one completed window.
    let mut child = Command::new(BIN)
        .args(run_args(&graph, &["--checkpoint", ck.to_str().unwrap(), "--checkpoint-every", "0"]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let deadline = Instant::now() + Duration::from_secs(120);
    let killed = loop {
        if let Some(text) = fs::read_to_string(&ck).ok().filter(|t| t.contains("\"records\"")) {
            if text.contains("\"n\":") {
                break child.kill().is_ok();
            }
        }
        if child.try_wait().expect("poll victim").is_some() || Instant::now() > deadline {
            // The victim finished (or stalled) before we could kill it;
            // resuming from the complete checkpoint still must reproduce
            // the baseline, so the test stays meaningful.
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = child.wait();
    assert!(ck.exists(), "victim never wrote a checkpoint");

    // Resume from whatever survived the kill.
    run_ok(&graph, &["--resume", ck.to_str().unwrap(), "--csv", resumed_csv.to_str().unwrap()]);
    let resumed = fs::read(&resumed_csv).expect("resumed csv");
    assert_eq!(
        baseline, resumed,
        "resumed CSV differs from the uninterrupted run (victim killed mid-run: {killed})"
    );
}

#[test]
fn checkpointed_run_without_interruption_matches_plain_run() {
    let dir = Scratch::new("plain_vs_ckpt");
    let graph = write_dct(&dir);
    let base_csv = dir.path("base.csv");
    let ck_csv = dir.path("ck.csv");
    let ck = dir.path("ck.json");

    run_ok(&graph, &["--csv", base_csv.to_str().unwrap()]);
    run_ok(&graph, &["--csv", ck_csv.to_str().unwrap(), "--checkpoint", ck.to_str().unwrap()]);
    assert_eq!(
        fs::read(&base_csv).unwrap(),
        fs::read(&ck_csv).unwrap(),
        "checkpoint writes changed the exploration output"
    );
    // Under ambient fault injection `checkpoint.write` may have been forced
    // to fail (including the final flush), so the file's presence and
    // content are not guaranteed — the CSV equality above is the contract
    // that must survive.
    if std::env::var_os("RTR_FAILPOINTS").is_some() {
        return;
    }
    let text = fs::read_to_string(&ck).expect("checkpoint written");
    assert!(text.contains("\"version\": 1"), "checkpoint is not version 1: {text}");
}

#[test]
fn resume_rejects_a_checkpoint_from_different_parameters() {
    let dir = Scratch::new("fingerprint");
    let graph = write_dct(&dir);
    let ck = dir.path("ck.json");

    run_ok(&graph, &["--checkpoint", ck.to_str().unwrap()]);

    // Same graph, different device area: the fingerprint must not match.
    let mut args = run_args(&graph, &["--resume", ck.to_str().unwrap()]);
    let rmax = args.iter().position(|a| a == "--rmax").unwrap();
    args[rmax + 1] = "600".to_owned();
    let out = Command::new(BIN).args(args).output().expect("spawn rtrpart");
    assert!(!out.status.success(), "mismatched resume was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint"), "error does not mention the checkpoint: {stderr}");
}

#[test]
fn checkpoint_every_without_checkpoint_is_rejected() {
    let dir = Scratch::new("orphan_every");
    let graph = write_dct(&dir);
    let out = Command::new(BIN)
        .args(run_args(&graph, &["--checkpoint-every", "5"]))
        .output()
        .expect("spawn rtrpart");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));
}

/// The checkpoint/cache fingerprint must cover every parameter that can
/// change a solver answer — including the milp `SolveOptions` budgets —
/// while ignoring run-state knobs (thread count, cancel latch) that only
/// change how fast the same answer arrives.
#[test]
fn fingerprint_covers_solve_options_but_not_run_state() {
    use rtrpart::graph::{Area, Latency};
    use rtrpart::{Architecture, ExploreParams, TemporalPartitioner};

    let graph = rtrpart::workloads::dct::dct_4x4();
    let arch = Architecture::new(Area::new(576), 512, Latency::from_us(1.0));
    let fp = |params: ExploreParams| {
        TemporalPartitioner::new(&graph, &arch, params).expect("tasks fit").fingerprint()
    };
    let base = fp(ExploreParams::default());
    assert_eq!(base, fp(ExploreParams::default()), "fingerprint is stable");

    // Each SolveOptions budget must perturb the fingerprint: a cache entry
    // produced under one budget may legitimately differ (limit-hit windows)
    // from one produced under another.
    let mut p = ExploreParams::default();
    p.milp_options.node_limit /= 2;
    let smaller_milp_nodes = fp(p);
    assert_ne!(base, smaller_milp_nodes, "milp node budget must be covered");

    let mut p = ExploreParams::default();
    p.milp_options.time_limit = Some(Duration::from_secs(123));
    assert_ne!(base, fp(p), "milp time limit must be covered");

    let mut p = ExploreParams::default();
    p.limits.node_limit /= 2;
    assert_ne!(base, fp(p), "structured node budget must be covered");

    // Run-state knobs must NOT perturb it: the same instance solved with
    // more threads or an (unfired) cancel latch reuses the same entry.
    let p = ExploreParams { solver_threads: 8, ..ExploreParams::default() };
    assert_eq!(base, fp(p), "thread count is run state, not a parameter");

    let p = ExploreParams::default();
    p.cancel.cancel();
    assert_eq!(base, fp(p), "the cancel latch is run state, not a parameter");
}

#[test]
fn zero_rmax_is_rejected_with_a_clear_error() {
    let dir = Scratch::new("zero_rmax");
    let graph = write_dct(&dir);
    let mut args = run_args(&graph, &[]);
    let rmax = args.iter().position(|a| a == "--rmax").unwrap();
    args[rmax + 1] = "0".to_owned();
    let out = Command::new(BIN).args(args).output().expect("spawn rtrpart");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rmax"));
}
