//! Bench-trajectory regression gate: compares freshly produced
//! `--json` bench files against the checked-in `BENCH_serving.json`
//! snapshot, field by field.
//!
//! The simulator is deterministic, so the gate has one rule: every
//! field of every row must equal the snapshot. A one-ULP or one-count
//! change fails it, and so does a row that was added, renamed or
//! dropped. Wall-clock is the only exception. `wall_seconds` is not
//! compared, and `sim_requests_per_second` only has to stay within
//! [`MAX_SIM_SPEED_DROP`] of the snapshot. An intended change is
//! accepted by regenerating the snapshot with
//! `check_regression --write-snapshot`. The logic lives in the library
//! (unit-tested) and the `check_regression` binary is a thin CLI over
//! it, so the gate also runs offline.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;

/// Relative simulated-requests-per-second drop that fails the gate
/// (30%). `sim_requests_per_second` measures *wall-clock* simulator
/// speed (see `bench --bin sim_speed`), which breathes with CI hardware
/// and load, so it is the one field not gated exactly: the floor only
/// catches a hot path growing dramatically slower, not
/// machine-to-machine jitter.
pub const MAX_SIM_SPEED_DROP: f64 = 0.30;

/// Merges per-bin bench documents into one snapshot document
/// (`{"benches": [...]}`), the on-disk format of `BENCH_serving.json`.
pub fn merge_snapshot(benches: Vec<Json>) -> Json {
    Json::obj([("benches", Json::Arr(benches))])
}

/// A row's fields, keyed by `(bench, row name)`.
type Rows<'a> = BTreeMap<(&'a str, &'a str), &'a [(String, Json)]>;

/// Keys every row of `benches`. A document without a `bench` name or a
/// `rows` array, a row that is not an object or has no `name`, and two
/// rows with the same key are all errors: each would otherwise gate a
/// row against the wrong snapshot row, or against none.
fn keyed(benches: &[Json]) -> Result<Rows<'_>, String> {
    let mut keyed = Rows::new();
    for doc in benches {
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("bench document without a \"bench\" name")?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{bench}: no \"rows\" array"))?;
        for row in rows {
            let (Json::Obj(fields), Some(name)) = (row, row.get("name").and_then(Json::as_str))
            else {
                return Err(format!("{bench}: row without a \"name\""));
            };
            if keyed.insert((bench, name), fields).is_some() {
                return Err(format!("{bench}/{name}: duplicate row"));
            }
        }
    }
    Ok(keyed)
}

/// The value of `key` in a row's fields.
fn field<'a>(row: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A field value as it appears in the JSON files.
fn render(value: Option<&Json>) -> String {
    value.map_or("(missing)".into(), |v| v.to_pretty().trim_end().into())
}

/// Compares fresh bench documents against a snapshot document. Returns
/// the number of fresh rows compared and one `bench/row.field: <snapshot>
/// -> <fresh>` line per difference (none = gate green), or an error for
/// malformed input. A snapshot row is reported missing only when its
/// bench was re-run at all, so one fresh bin can be gated on its own.
pub fn compare(snapshot: &Json, fresh: &[Json]) -> Result<(usize, Vec<String>), String> {
    let snap = keyed(
        snapshot
            .get("benches")
            .and_then(Json::as_arr)
            .ok_or("snapshot without a \"benches\" array")?,
    )?;
    let fresh = keyed(fresh)?;
    let mut diffs = Vec::new();
    for (&(bench, name), &now) in &fresh {
        let Some(&was) = snap.get(&(bench, name)) else {
            diffs.push(format!("{bench}/{name}: not in snapshot"));
            continue;
        };
        let keys: BTreeSet<&str> = was.iter().chain(now).map(|(k, _)| k.as_str()).collect();
        for key in keys {
            let (was, now) = (field(was, key), field(now, key));
            let same = match (key, was, now) {
                ("wall_seconds", _, _) => true,
                ("sim_requests_per_second", Some(Json::Num(was)), Some(Json::Num(now))) => {
                    *now >= was * (1.0 - MAX_SIM_SPEED_DROP)
                }
                _ => was == now,
            };
            if !same {
                diffs.push(format!(
                    "{bench}/{name}.{key}: {} -> {}",
                    render(was),
                    render(now)
                ));
            }
        }
    }
    let rerun: BTreeSet<&str> = fresh.keys().map(|&(bench, _)| bench).collect();
    for &(bench, name) in snap.keys() {
        if rerun.contains(bench) && !fresh.contains_key(&(bench, name)) {
            diffs.push(format!(
                "{bench}/{name}: in snapshot but missing from fresh run"
            ));
        }
    }
    Ok((fresh.len(), diffs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serving row shaped like the real ones: float, count, string
    /// and null fields.
    fn row(name: &str) -> Json {
        Json::obj([
            ("name", Json::str(name)),
            ("tokens_per_second", Json::num(100.0)),
            ("ttft_p99", Json::num(0.5)),
            ("tpot_p99", Json::num(0.012345)),
            ("evictions", Json::num(0.0)),
            ("prefix_hit_tokens", Json::num(10_000.0)),
            ("slo_attainment", Json::num(0.98)),
            ("goodput", Json::num(90.0)),
            ("kv_transferred_bytes", Json::num(1.5e9)),
            ("role", Json::str("decode")),
            ("slo_ttft_p99", Json::Null),
        ])
    }

    fn doc(bench: &str, rows: Vec<Json>) -> Json {
        Json::obj([("bench", Json::str(bench)), ("rows", Json::Arr(rows))])
    }

    /// `row` with `key` set to `value` (appended if absent).
    fn with(mut row: Json, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = &mut row else {
            unreachable!("rows are objects")
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        row
    }

    /// `row` without `key`.
    fn without(mut row: Json, key: &str) -> Json {
        if let Json::Obj(fields) = &mut row {
            fields.retain(|(k, _)| k != key);
        }
        row
    }

    fn one_ulp_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// The gate's output for one fresh row against one snapshot row.
    fn gate(snap: Json, fresh: Json) -> Vec<String> {
        let snap = merge_snapshot(vec![doc("lc", vec![snap])]);
        let (rows, diffs) = compare(&snap, &[doc("lc", vec![fresh])]).expect("well-formed");
        assert_eq!(rows, 1);
        diffs
    }

    #[test]
    fn identical_runs_pass() {
        let fresh = doc("lc", vec![row("a"), row("b")]);
        let snap = merge_snapshot(vec![fresh.clone()]);
        assert_eq!(compare(&snap, &[fresh]), Ok((2, vec![])));
    }

    #[test]
    fn one_ulp_drift_fails() {
        let diffs = gate(
            row("a"),
            with(row("a"), "ttft_p99", Json::num(one_ulp_up(0.5))),
        );
        assert_eq!(diffs, ["lc/a.ttft_p99: 0.5 -> 0.5000000000000001"]);
    }

    #[test]
    fn every_deterministic_field_is_gated_exactly() {
        let changes = [
            ("tokens_per_second", Json::num(one_ulp_up(100.0))),
            ("tpot_p99", Json::num(one_ulp_up(0.012345))),
            ("evictions", Json::num(1.0)),
            ("prefix_hit_tokens", Json::num(10_001.0)),
            ("slo_attainment", Json::num(one_ulp_up(0.98))),
            ("goodput", Json::num(one_ulp_up(90.0))),
            ("kv_transferred_bytes", Json::num(1.5e9 + 1.0)),
            ("role", Json::str("prefill")),
            ("slo_ttft_p99", Json::num(0.5)),
        ];
        for (key, value) in changes {
            let diffs = gate(row("a"), with(row("a"), key, value));
            assert_eq!(diffs.len(), 1, "{key}: {diffs:?}");
            assert!(diffs[0].starts_with(&format!("lc/a.{key}: ")), "{diffs:?}");
        }
        assert_eq!(
            gate(row("a"), with(row("a"), "role", Json::str("prefill"))),
            ["lc/a.role: \"decode\" -> \"prefill\""]
        );
    }

    /// Noise in ungated fields never trips a field; a change to the
    /// field itself always does, however small. A drop the old 5%
    /// tolerance forgave (one token) is a real drop now.
    #[test]
    fn prefix_hit_gate_trips_on_real_drops_only() {
        let noisy = with(row("a"), "wall_seconds", Json::num(3.0));
        assert!(gate(with(row("a"), "wall_seconds", Json::num(1.0)), noisy).is_empty());
        assert_eq!(
            gate(
                row("a"),
                with(row("a"), "prefix_hit_tokens", Json::num(9_000.0))
            ),
            ["lc/a.prefix_hit_tokens: 10000 -> 9000"]
        );
        assert_eq!(
            gate(
                row("a"),
                with(row("a"), "prefix_hit_tokens", Json::num(9_999.0))
            ),
            ["lc/a.prefix_hit_tokens: 10000 -> 9999"]
        );
    }

    /// Attainment is compared as an absolute value: a zero snapshot
    /// value is gated like any other, and a drop inside the old
    /// 5-point tolerance trips.
    #[test]
    fn attainment_gate_is_absolute_and_trips_on_real_drops_only() {
        let at = |v: f64| with(row("a"), "slo_attainment", Json::num(v));
        assert!(gate(at(0.0), at(0.0)).is_empty());
        assert_eq!(gate(at(0.0), at(0.01)), ["lc/a.slo_attainment: 0 -> 0.01"]);
        assert_eq!(
            gate(at(0.98), at(0.9)),
            ["lc/a.slo_attainment: 0.98 -> 0.9"]
        );
        assert_eq!(
            gate(at(0.98), at(0.97)),
            ["lc/a.slo_attainment: 0.98 -> 0.97"]
        );
    }

    /// A goodput drop trips whatever its size, the old 5% included;
    /// an unchanged goodput with noisy wall time does not.
    #[test]
    fn goodput_gate_trips_on_real_drops_only() {
        let noisy = with(row("a"), "wall_seconds", Json::num(2.0));
        assert!(gate(row("a"), noisy).is_empty());
        assert_eq!(
            gate(row("a"), with(row("a"), "goodput", Json::num(80.0))),
            ["lc/a.goodput: 90 -> 80"]
        );
        assert_eq!(
            gate(row("a"), with(row("a"), "goodput", Json::num(88.0))),
            ["lc/a.goodput: 90 -> 88"]
        );
    }

    #[test]
    fn throughput_drop_fails() {
        let diffs = gate(
            row("a"),
            with(row("a"), "tokens_per_second", Json::num(94.0)),
        );
        assert_eq!(diffs, ["lc/a.tokens_per_second: 100 -> 94"]);
    }

    #[test]
    fn ttft_rise_fails() {
        let diffs = gate(row("a"), with(row("a"), "ttft_p99", Json::num(0.53)));
        assert_eq!(diffs, ["lc/a.ttft_p99: 0.5 -> 0.53"]);
    }

    #[test]
    fn improvement_fails_until_accepted() {
        let better = doc(
            "lc",
            vec![with(row("a"), "tokens_per_second", Json::num(150.0))],
        );
        let snap = merge_snapshot(vec![doc("lc", vec![row("a")])]);
        let (_, diffs) = compare(&snap, std::slice::from_ref(&better)).expect("well-formed");
        assert_eq!(diffs, ["lc/a.tokens_per_second: 100 -> 150"]);
        // `--write-snapshot` of the fresh files is the accept step.
        let accepted = merge_snapshot(vec![better.clone()]);
        assert_eq!(compare(&accepted, &[better]), Ok((1, vec![])));
    }

    #[test]
    fn renamed_and_dropped_rows_are_flagged() {
        let snap = merge_snapshot(vec![doc("lc", vec![row("a"), row("b")])]);
        let (_, diffs) = compare(&snap, &[doc("lc", vec![row("renamed"), row("b")])]).unwrap();
        assert_eq!(
            diffs,
            [
                "lc/renamed: not in snapshot",
                "lc/a: in snapshot but missing from fresh run"
            ]
        );
        let (_, added) = compare(&snap, &[doc("lc", vec![row("a"), row("b"), row("c")])]).unwrap();
        assert_eq!(added, ["lc/c: not in snapshot"]);
        // A bench absent from the fresh set entirely is fine (offline
        // single-bin comparisons are supported).
        assert_eq!(compare(&snap, &[doc("other", vec![])]), Ok((0, vec![])));
    }

    #[test]
    fn sim_speed_gate_is_generous_but_real() {
        let speed = |rps: f64, wall: f64| {
            with(
                with(row("big"), "sim_requests_per_second", Json::num(rps)),
                "wall_seconds",
                Json::num(wall),
            )
        };
        let snap = speed(100_000.0, 1.0);
        // A 25% slowdown rides inside the 30% allowance (CI jitter)...
        assert_eq!(
            gate(snap.clone(), speed(75_000.0, 1.3)),
            Vec::<String>::new()
        );
        // ...a 40% slowdown does not.
        assert_eq!(
            gate(snap.clone(), speed(60_000.0, 1.7)),
            ["lc/big.sim_requests_per_second: 100000 -> 60000"]
        );
        // Speedups always pass, and no wall_seconds value is compared,
        // not even a missing one.
        assert!(gate(snap.clone(), speed(500_000.0, 0.2)).is_empty());
        assert!(gate(snap.clone(), speed(100_000.0, 1e9)).is_empty());
        assert!(gate(snap, without(speed(100_000.0, 1.0), "wall_seconds")).is_empty());
    }

    #[test]
    fn rows_without_sim_speed_field_are_not_gated_on_it() {
        assert!(gate(row("a"), row("a")).is_empty());
        // The field on one side only is a schema change, gated like any
        // other field.
        let fast = with(row("a"), "sim_requests_per_second", Json::num(1e5));
        assert_eq!(
            gate(row("a"), fast),
            ["lc/a.sim_requests_per_second: (missing) -> 100000"]
        );
    }

    #[test]
    fn rows_without_slo_fields_are_not_gated_on_them() {
        let plain = || without(without(row("a"), "slo_attainment"), "goodput");
        assert!(gate(plain(), plain()).is_empty());
        assert_eq!(
            gate(row("a"), plain()),
            [
                "lc/a.goodput: 90 -> (missing)",
                "lc/a.slo_attainment: 0.98 -> (missing)"
            ]
        );
    }

    #[test]
    fn document_without_bench_name_is_rejected() {
        let nameless = Json::obj([("rows", Json::Arr(vec![row("a")]))]);
        let snap = merge_snapshot(vec![doc("lc", vec![row("a")])]);
        let err = compare(&snap, std::slice::from_ref(&nameless)).unwrap_err();
        assert!(err.contains("\"bench\""), "{err}");
        assert!(compare(&merge_snapshot(vec![nameless]), &[]).is_err());
    }

    #[test]
    fn row_without_name_is_rejected() {
        let snap = merge_snapshot(vec![doc("lc", vec![row("a")])]);
        let err = compare(&snap, &[doc("lc", vec![without(row("a"), "name")])]).unwrap_err();
        assert_eq!(err, "lc: row without a \"name\"");
    }

    #[test]
    fn duplicate_row_key_is_rejected() {
        let twice = doc(
            "lc",
            vec![row("a"), with(row("a"), "evictions", Json::num(3.0))],
        );
        let snap = merge_snapshot(vec![doc("lc", vec![row("a")])]);
        assert_eq!(
            compare(&snap, std::slice::from_ref(&twice)),
            Err("lc/a: duplicate row".into())
        );
        assert_eq!(
            compare(&merge_snapshot(vec![twice]), &[]),
            Err("lc/a: duplicate row".into())
        );
        // The same row name under two benches is two rows.
        let snap = merge_snapshot(vec![doc("lc", vec![row("a")]), doc("rc", vec![row("a")])]);
        assert!(compare(&snap, &[]).is_ok());
    }
}
