//! The correctness gate: pure checks over delivered datasets. Every
//! check returns `Err(reason)` on the first violation it finds.

use ptsbe_core::PtsPlan;
use ptsbe_dataset::{binary, jsonl, DatasetHeader, TrajectoryRecord};

/// Decode a dataset through the public reader of its format.
///
/// # Errors
/// The reader's error, as text.
pub fn decode(
    bytes: &[u8],
    binary_format: bool,
) -> Result<(DatasetHeader, Vec<TrajectoryRecord>), String> {
    if binary_format {
        binary::decode(bytes::Bytes::from_vec(bytes.to_vec()))
    } else {
        jsonl::read(bytes)
    }
    .map_err(|e| format!("dataset does not decode: {e}"))
}

/// Re-encode a dataset with the batch writer of its format (byte-identical
/// to the streaming sinks the service writes through).
///
/// # Errors
/// The writer's error, as text.
pub fn encode(
    header: &DatasetHeader,
    records: &[TrajectoryRecord],
    binary_format: bool,
) -> Result<Vec<u8>, String> {
    if binary_format {
        binary::encode(header, records).map(|b| b.as_slice().to_vec())
    } else {
        let mut out = Vec::new();
        jsonl::write(&mut out, header, records).map(|()| out)
    }
    .map_err(|e| format!("dataset does not encode: {e}"))
}

/// Per-trajectory engines: exactly one record per planned trajectory, in
/// plan order, carrying the planned assignment and shot count.
/// Shot-block engines (`per_trajectory == false`): the shot budget is
/// delivered in full. Either way every shot fits in `n_measured` bits.
///
/// # Errors
/// The first mismatch.
pub fn check_planned(
    header: &DatasetHeader,
    records: &[TrajectoryRecord],
    plan: &PtsPlan,
    n_measured: usize,
    per_trajectory: bool,
) -> Result<(), String> {
    if header.n_measured != n_measured {
        return Err(format!(
            "header declares {} measured bits, circuit measures {n_measured}",
            header.n_measured
        ));
    }
    if per_trajectory {
        if records.len() != plan.trajectories.len() {
            return Err(format!(
                "{} records for {} planned trajectories",
                records.len(),
                plan.trajectories.len()
            ));
        }
        for (i, (r, t)) in records.iter().zip(&plan.trajectories).enumerate() {
            if r.meta.traj_id != i || r.meta.choices != t.choices || r.shots.len() != t.shots {
                return Err(format!("record {i} does not carry planned trajectory {i}"));
            }
        }
    } else {
        let shots: usize = records.iter().map(|r| r.shots.len()).sum();
        if shots != plan.total_shots() {
            return Err(format!(
                "{shots} shots delivered, {} planned",
                plan.total_shots()
            ));
        }
    }
    let limit = if n_measured >= 128 {
        u128::MAX
    } else {
        (1u128 << n_measured) - 1
    };
    for (i, r) in records.iter().enumerate() {
        let shots = r
            .decode_shots()
            .map_err(|s| format!("record {i} has a malformed shot '{s}'"))?;
        if shots.iter().any(|&s| s > limit) {
            return Err(format!(
                "record {i} has a shot wider than {n_measured} bits"
            ));
        }
    }
    Ok(())
}

/// The first `oracle.len()` records equal the oracle's, bit for bit
/// (provenance, realized probabilities and shots).
///
/// # Errors
/// The first differing record.
pub fn check_prefix(
    records: &[TrajectoryRecord],
    oracle: &[TrajectoryRecord],
) -> Result<(), String> {
    if records.len() < oracle.len() {
        return Err(format!(
            "{} records, oracle prefix has {}",
            records.len(),
            oracle.len()
        ));
    }
    for (i, (got, want)) in records.iter().zip(oracle).enumerate() {
        let same = got.shots == want.shots
            && serde_json::to_string(&got.meta).ok() == serde_json::to_string(&want.meta).ok();
        if !same {
            return Err(format!("record {i} differs from the oracle"));
        }
    }
    Ok(())
}

/// A warm dataset is byte-identical to the cold one.
///
/// # Errors
/// When the bytes differ.
pub fn check_identical(cold: &[u8], warm: &[u8]) -> Result<(), String> {
    if cold == warm {
        return Ok(());
    }
    let at = cold.iter().zip(warm).take_while(|(a, b)| a == b).count();
    Err(format!(
        "dataset differs from the cold dataset at byte {at} ({} vs {} bytes)",
        warm.len(),
        cold.len()
    ))
}

/// Per-bit firing counts over every shot, plus the shot count.
///
/// # Errors
/// On malformed shots.
fn firing_counts(records: &[TrajectoryRecord], n_bits: usize) -> Result<(Vec<u64>, u64), String> {
    let mut counts = vec![0u64; n_bits];
    let mut total = 0u64;
    for r in records {
        for mut s in r
            .decode_shots()
            .map_err(|s| format!("malformed shot '{s}'"))?
        {
            total += 1;
            while s != 0 {
                let b = s.trailing_zeros() as usize;
                if b >= n_bits {
                    return Err(format!("shot bit {b} beyond {n_bits} measured bits"));
                }
                counts[b] += 1;
                s &= s - 1;
            }
        }
    }
    Ok((counts, total))
}

/// Bernstein half-width: with `n` independent Bernoulli(`p`) draws the
/// empirical rate lies within this distance of `p` except with
/// probability `2·exp(-log_term)`.
fn bernstein(p: f64, n: f64, log_term: f64) -> f64 {
    (log_term / 3.0 + (log_term * log_term / 9.0 + 2.0 * n * p * (1.0 - p) * log_term).sqrt()) / n
}

/// Per-bit firing rates of `records` agree with `oracle` within the sum
/// of both sides' Bernstein bounds at a family-wise false-alarm
/// probability of 1e-6. Oracle shots must be independent draws (one
/// shot per trajectory), so its shot count is its sample size.
///
/// # Errors
/// The first bit whose rates disagree.
pub fn check_rates(
    records: &[TrajectoryRecord],
    oracle: &[TrajectoryRecord],
    n_bits: usize,
) -> Result<(), String> {
    let (c, n) = firing_counts(records, n_bits)?;
    let (co, no) = firing_counts(oracle, n_bits)?;
    if n == 0 || no == 0 {
        return Err("no shots to compare firing rates over".to_string());
    }
    let log_term = (2.0 * n_bits as f64 / 1e-6).ln();
    for b in 0..n_bits {
        let rate = c[b] as f64 / n as f64;
        let rate_o = co[b] as f64 / no as f64;
        let pooled = ((c[b] + co[b]) as f64 / (n + no) as f64).max(1.0 / no as f64);
        let bound = bernstein(pooled, n as f64, log_term) + bernstein(pooled, no as f64, log_term);
        if (rate - rate_o).abs() > bound {
            return Err(format!(
                "bit {b} fires at {rate:.5}, oracle {rate_o:.5} (bound {bound:.5})"
            ));
        }
    }
    Ok(())
}
