//! Property test: no parser in the workspace panics on corrupted input.
//!
//! Each round takes a valid serialized artifact — a `.tg` task graph, a
//! checkpoint JSON, a trace JSONL line — applies a deterministic
//! byte-level mutation (flip, truncate, duplicate, insert, delete), and
//! feeds it back to the matching parser. The parser must return `Ok` or
//! its typed error; a panic aborts the test binary.

use rtrpart::graph::TaskGraph;
use rtrpart::workloads::rng::Rng;
use rtrpart::Checkpoint;

const ROUNDS: u64 = 400;

/// Applies one deterministic mutation to `bytes`; invalid UTF-8 produced
/// along the way is replaced lossily, which is exactly what a parser fed
/// from disk would see after `String::from_utf8_lossy`.
fn mutate(valid: &str, rng: &mut Rng) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    if bytes.is_empty() {
        bytes.push(rng.range_u64(0, 255) as u8);
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    // A few stacked mutations per round corrupt structure, not just one
    // character.
    for _ in 0..=rng.range_usize(0, 3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.range_usize(0, bytes.len() - 1);
        match rng.range_u64(0, 5) {
            0 => bytes[at] = rng.range_u64(0, 255) as u8,
            1 => bytes.truncate(at),
            2 => {
                let b = bytes[at];
                bytes.insert(at, b);
            }
            3 => bytes.insert(at, rng.range_u64(0, 255) as u8),
            4 => {
                bytes.remove(at);
            }
            _ => {
                // Swap two regions' first bytes — reorders tokens cheaply.
                let other = rng.range_usize(0, bytes.len() - 1);
                bytes.swap(at, other);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn task_graph_parser_never_panics() {
    let valid = rtrpart::workloads::dct::dct_4x4().to_text();
    let mut rng = Rng::new(0x7461_736b);
    for _ in 0..ROUNDS {
        let corrupt = mutate(&valid, &mut rng);
        let _ = TaskGraph::from_text(&corrupt);
    }
    // The uncorrupted round-trip still works after all that.
    assert!(TaskGraph::from_text(&valid).is_ok());
}

#[test]
fn checkpoint_parser_never_panics() {
    // A checkpoint with every record shape: feasible (placements),
    // infeasible, and limit.
    let valid = r#"{
  "version": 1,
  "fingerprint": "0x0123456789abcdef",
  "records": [
    {"n": 3, "iteration": 1, "d_min_ns": 100.5, "d_max_ns": 900.25,
     "result": "feasible", "latency_ns": 450.125, "eta": 3,
     "elapsed_us": 42, "placements": [[1, 0], [2, 1], [3, 0]]},
    {"n": 3, "iteration": 2, "d_min_ns": 100.5, "d_max_ns": 450.125,
     "result": "infeasible", "latency_ns": null, "eta": null,
     "elapsed_us": 7, "placements": null},
    {"n": 4, "iteration": 1, "d_min_ns": 90.0, "d_max_ns": 450.125,
     "result": "limit", "latency_ns": null, "eta": null,
     "elapsed_us": 9, "placements": null}
  ]
}"#;
    assert!(Checkpoint::from_json(valid).is_ok(), "fixture must be valid");
    let mut rng = Rng::new(0x636b_7074);
    for _ in 0..ROUNDS {
        let corrupt = mutate(valid, &mut rng);
        let _ = Checkpoint::from_json(&corrupt);
    }
}

#[test]
fn trace_jsonl_parser_never_panics() {
    let valid = "{\"ts_us\": 12, \"kind\": \"event\", \"name\": \"search.iteration\", \
                 \"fields\": {\"n\": 3, \"latency_ns\": 450.5, \"result\": \"feasible\"}}\n\
                 {\"ts_us\": 15, \"kind\": \"counter\", \"name\": \"milp.pivots\", \
                 \"fields\": {\"value\": 99}}\n";
    assert!(rtrpart::trace::parse_jsonl(valid).is_ok(), "fixture must be valid");
    let mut rng = Rng::new(0x6a73_6f6e);
    for _ in 0..ROUNDS {
        let corrupt = mutate(valid, &mut rng);
        let _ = rtrpart::trace::parse_jsonl(&corrupt);
    }
}

/// Round-tripping a real checkpoint through its own serializer stays
/// parseable — the generative side of the property.
#[test]
fn checkpoint_round_trips_through_json() {
    let valid = r#"{"version": 1, "fingerprint": "0x000000000000002a", "records": []}"#;
    let ck = Checkpoint::from_json(valid).expect("parses");
    let again = Checkpoint::from_json(&ck.to_json()).expect("round trip");
    assert_eq!(ck, again);
}
