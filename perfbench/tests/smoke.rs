//! The benchmark's own tests: a tiny-size run of every workload prints
//! exactly the metrics `BENCHMARK.json` names, with their units, and the
//! correctness gate catches a single flipped shot bit.

use ptsbe_perfbench::gate;
use ptsbe_perfbench::run::{self, Outcome};
use ptsbe_perfbench::workload::{Size, Workload};
use ptsbe_service::TelemetryConfig;
use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(kv) => {
            &kv.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
        }
        _ => panic!("not an object looking up {key}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = array(field(spec, key))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_string(),
                str_of(field(m, "unit")).to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = array(field(&spec, "workloads"))
        .iter()
        .map(|w| str_of(field(w, "name")).to_string())
        .collect();
    assert_eq!(workloads.len(), 4);
    for name in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_ptsbe_perfbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ])
                .args(["--size", "tiny"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let descriptor: Value =
                serde_json::from_str(lines[lines.len() - 2]).expect("descriptor");
            for k in [
                "nproc",
                "cpu_model",
                "target_cpu_native",
                "kernel_impl",
                "ptsbe_batch_kernels_set",
            ] {
                field(field(&descriptor, "machine"), k);
            }
            field(&descriptor, "seed");
            let result: Value = serde_json::from_str(lines[lines.len() - 1]).expect("result line");
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            let mut printed: Vec<(String, String)> = match field(&result, "metrics") {
                Value::Object(kv) => kv
                    .iter()
                    .map(|(k, v)| {
                        assert!(
                            matches!(field(v, "value"), Value::Number(_)),
                            "{k} is not a number"
                        );
                        (k.clone(), str_of(field(v, "unit")).to_string())
                    })
                    .collect(),
                other => panic!("metrics is not an object: {other:?}"),
            };
            printed.sort();
            assert_eq!(printed, declared(&spec, key), "{name} trace {trace}");
        }
    }
}

/// Decode, flip bit 0 of the first shot, re-encode with the format's
/// batch writer.
fn flipped(bytes: &[u8], binary: bool) -> Vec<u8> {
    let (header, mut records) = gate::decode(bytes, binary).expect("decodes");
    assert_eq!(
        gate::encode(&header, &records, binary).expect("encodes"),
        bytes,
        "re-encoding an untouched dataset must be byte-identical"
    );
    let shot = records
        .iter_mut()
        .find_map(|r| r.shots.first_mut())
        .expect("a dataset with shots");
    let v = u128::from_str_radix(shot, 16).expect("hex shot") ^ 1;
    *shot = ptsbe_dataset::record::hex_u128(v);
    gate::encode(&header, &records, binary).expect("encodes")
}

#[test]
fn one_flipped_shot_bit_fails_the_gate() {
    for name in ["sv-shared", "qec-frame"] {
        let w = Workload::new(name, Size::Tiny, 5).expect("workload");
        let cold = run::cold_start(&w, TelemetryConfig::off()).expect("cold start");
        let mut clean = Outcome::default();
        run::gate(&w, &cold.svc, &cold.plan, &cold.job.bytes, &mut clean);
        assert!(clean.failures.is_empty(), "{name}: {:?}", clean.failures);

        let bad = flipped(&cold.job.bytes, w.binary);
        // As a warm dataset, it differs from the cold one.
        assert!(gate::check_identical(&cold.job.bytes, &bad).is_err());
        if name == "sv-shared" {
            // As the cold dataset, it disagrees with the flat oracle.
            let mut out = Outcome::default();
            run::gate(&w, &cold.svc, &cold.plan, &bad, &mut out);
            assert!(
                out.failures.iter().any(|f| f.starts_with("oracle")),
                "{:?}",
                out.failures
            );
        }
    }
}
