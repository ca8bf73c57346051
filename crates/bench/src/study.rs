//! Studies: the serving sweeps as checked-in data.
//!
//! A study (`studies/<bench>.json`) holds a [`Scenario`] template, one
//! or more sweeps of cartesian axes over the template's fields, an
//! optional rate anchor per sweep, a row-name pattern per sweep, and a
//! `tiny` block that overrides fields and axis values for CI.
//! [`Study::expand`] turns it into named [`Run`]s without simulating
//! anything; [`Study::run`] runs each through `Scenario::materialize` →
//! `Materialized::run` and returns the `bench` document's rows, each
//! from [`scenario_rows`]. `docs/scenarios.md` ("Studies") documents the
//! format.

use crate::cli::scenario_rows;
use crate::json::Json;
use system::{Scenario, ServingReport};
use workload::ArrivalProcess;

/// A parsed study file.
#[derive(Debug)]
pub struct Study {
    /// The bench document the study writes (`latency_curve`, ...).
    pub bench: String,
    template: Json,
    tiny_set: Vec<(String, Json)>,
    tiny_axes: Vec<(String, Vec<Json>)>,
    sweeps: Vec<Sweep>,
}

#[derive(Debug)]
struct Sweep {
    rows: String,
    set: Vec<(String, Json)>,
    axes: Vec<Axis>,
    anchor: Option<Vec<String>>,
}

#[derive(Debug)]
struct Axis {
    name: String,
    key: Option<String>,
    values: Vec<Json>,
}

/// One row-producing run of a study.
#[derive(Debug)]
pub struct Run {
    /// The aggregate row's name (tenant and pool rows extend it).
    pub name: String,
    /// The scenario to run. An anchored run's arrival rates are still
    /// the template's until [`Study::run`] sets them.
    pub scenario: Scenario,
    /// For an anchored run: the offered load as a multiple of the
    /// anchor's closed-world capacity, and the anchor scenario.
    pub anchor: Option<(f64, Scenario)>,
}

/// The pseudo-key of a `set` or an axis that gives an anchored run's
/// offered load, as a multiple of the anchor's capacity.
const LOAD: &str = "load";

impl Study {
    /// Reads and parses a study file.
    pub fn from_file(path: &str) -> Result<Study, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text)
            .map_err(|e| format!("invalid JSON: {e}"))
            .and_then(|doc| Study::from_json(&doc))
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a study, rejecting unknown keys at every level. The
    /// scenario template and every assignment are checked when the
    /// runs are expanded.
    pub fn from_json(doc: &Json) -> Result<Study, String> {
        doc.check_keys("", &["bench", "scenario", "tiny", "sweeps"])?;
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("bench: required string")?
            .to_string();
        let template = doc
            .get("scenario")
            .ok_or("scenario: required object")?
            .clone();
        let (tiny_set, tiny_axes) = match doc.get("tiny") {
            None => (Vec::new(), Vec::new()),
            Some(t) => {
                t.check_keys("tiny", &["set", "axes"])?;
                let axes = assignments(t.get("axes"), "tiny.axes")?
                    .into_iter()
                    .map(|(name, values)| match values {
                        Json::Arr(values) => Ok((name, values)),
                        _ => Err(format!("tiny.axes.{name}: expected an array of values")),
                    })
                    .collect::<Result<_, String>>()?;
                (assignments(t.get("set"), "tiny.set")?, axes)
            }
        };
        let sweeps = doc
            .get("sweeps")
            .and_then(Json::as_arr)
            .ok_or("sweeps: required array")?
            .iter()
            .enumerate()
            .map(|(i, s)| Sweep::from_json(s, &format!("sweeps[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some((name, _)) = tiny_axes.iter().find(|(name, _)| {
            !sweeps
                .iter()
                .any(|s| s.axes.iter().any(|a| a.name == *name))
        }) {
            return Err(format!("tiny.axes.{name}: no sweep has this axis"));
        }
        Ok(Study {
            bench,
            template,
            tiny_set,
            tiny_axes,
            sweeps,
        })
    }

    /// Expands every sweep into its runs, in row order (the first axis
    /// outermost), with the `tiny` block applied if `tiny`. Nothing is
    /// simulated; every scenario is parsed and validated.
    pub fn expand(&self, tiny: bool) -> Result<Vec<Run>, String> {
        let mut runs: Vec<Run> = Vec::new();
        for sweep in &self.sweeps {
            let axes: Vec<&[Json]> = sweep
                .axes
                .iter()
                .map(
                    |a| match self.tiny_axes.iter().find(|(n, _)| tiny && *n == a.name) {
                        Some((_, values)) => values.as_slice(),
                        None => a.values.as_slice(),
                    },
                )
                .collect();
            let mut pick = vec![0usize; axes.len()];
            while axes.iter().all(|values| !values.is_empty()) {
                let run = self.run_at(sweep, &axes, &pick, tiny)?;
                if runs.iter().any(|r| r.name == run.name) {
                    return Err(format!("{}: duplicate row name", run.name));
                }
                runs.push(run);
                // Odometer: the last axis turns fastest.
                let Some(i) = (0..pick.len()).rev().find(|&i| pick[i] + 1 < axes[i].len()) else {
                    break;
                };
                pick[i] += 1;
                pick[i + 1..].fill(0);
            }
        }
        Ok(runs)
    }

    /// The run at one point of a sweep: `pick[i]` indexes axis `i`.
    fn run_at(
        &self,
        sweep: &Sweep,
        axes: &[&[Json]],
        pick: &[usize],
        tiny: bool,
    ) -> Result<Run, String> {
        let mut labels = Vec::new();
        let mut assigned = sweep.set.clone();
        let mut anchor_assigned = Vec::new();
        for ((axis, values), &i) in sweep.axes.iter().zip(axes).zip(pick) {
            let (label, set) = axis.point(&values[i])?;
            labels.push((axis.name.as_str(), label));
            if sweep
                .anchor
                .as_ref()
                .is_some_and(|a| a.contains(&axis.name))
            {
                anchor_assigned.extend(set.iter().filter(|(k, _)| k != LOAD).cloned());
            }
            assigned.extend(set);
        }
        let tiny_set = if tiny { self.tiny_set.as_slice() } else { &[] };
        let mut load = None;
        let mut doc = self.template.clone();
        for (key, value) in assigned.iter().chain(tiny_set) {
            if key == LOAD {
                load = Some(value.as_f64().ok_or("load: expected a number")?);
            } else {
                set_path(&mut doc, key, value)?;
            }
        }
        let scenario =
            Scenario::from_json(&doc).map_err(|e| format!("rows {:?}: {e}", sweep.rows))?;
        let ctx = match scenario.workload.first() {
            Some(t) => {
                t.context_stats(scenario.resolve_model()?.context_window)
                    .mean
            }
            None => 0.0,
        };
        labels.push(("ctx", Json::num(ctx)));
        let name = format_name(&sweep.rows, &labels)?;
        let in_run = |e: String| format!("{name}: {e}");
        let anchor = match (&sweep.anchor, load) {
            (None, None) => None,
            (Some(_), Some(_))
                if scenario
                    .workload
                    .iter()
                    .any(|t| t.arrivals.rate().is_none()) =>
            {
                return Err(in_run("an anchored tenant needs open-loop arrivals".into()))
            }
            (Some(_), Some(load)) => {
                let mut doc = self.template.clone();
                for (key, value) in anchor_assigned.iter().chain(tiny_set) {
                    set_path(&mut doc, key, value).map_err(in_run)?;
                }
                set_path(&mut doc, "policies.scheduling", &Json::str("wave")).map_err(in_run)?;
                set_path(&mut doc, "policies.router", &Json::str("round-robin")).map_err(in_run)?;
                Some((load, Scenario::from_json(&doc).map_err(in_run)?))
            }
            (None, Some(_)) => return Err(in_run("load needs an anchor".into())),
            (Some(_), None) => return Err(in_run("an anchored sweep needs a load".into())),
        };
        Ok(Run {
            name,
            scenario,
            anchor,
        })
    }

    /// Runs every run of the study and returns its rows, printing one
    /// line per run. An anchored run's tenants share the offered load
    /// evenly: each gets `load × capacity / tenants`. Every row's
    /// `rate_rps` is the run's nominal offered rate, the sum of its
    /// tenants' arrival rates.
    pub fn run(&self, tiny: bool) -> Result<Vec<Json>, String> {
        let runs = self.expand(tiny)?;
        crate::header(&format!("Study {}: {} runs", self.bench, runs.len()));
        println!(
            "{:<32} {:>9} {:>10} {:>17} {:>9} {:>9} {:>6} {:>5}",
            "row", "req/s", "tok/s", "TTFT p50/p99 (s)", "TPOT p50", "E2E p99", "evict", "shed"
        );
        let mut capacities: Vec<(Scenario, f64)> = Vec::new();
        let mut rows = Vec::new();
        for Run {
            name,
            mut scenario,
            anchor,
        } in runs
        {
            if let Some((load, anchor)) = anchor {
                let capacity = match capacities.iter().find(|(a, _)| *a == anchor) {
                    Some(&(_, capacity)) => capacity,
                    None => {
                        let m = anchor.materialize()?;
                        let capacity =
                            m.trace.len() as f64 / m.run().seconds.max(f64::MIN_POSITIVE);
                        println!("(anchor: closed-world capacity {capacity:.3} req/s)");
                        capacities.push((anchor, capacity));
                        capacity
                    }
                };
                let rate = capacity * load / scenario.workload.len() as f64;
                for t in &mut scenario.workload {
                    t.arrivals = match t.arrivals {
                        ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate },
                        ArrivalProcess::Bursty { cv, .. } => ArrivalProcess::Bursty { rate, cv },
                        ArrivalProcess::Batch => {
                            unreachable!("expand rejects anchored batch arrivals")
                        }
                    };
                }
            }
            let rate: f64 = scenario
                .workload
                .iter()
                .filter_map(|t| t.arrivals.rate())
                .sum();
            let r = scenario
                .materialize()
                .map_err(|e| format!("{name}: {e}"))?
                .run();
            print_run(&name, rate, &r);
            rows.extend(scenario_rows(&name, rate, &scenario, &r));
        }
        Ok(rows)
    }
}

impl Sweep {
    fn from_json(s: &Json, place: &str) -> Result<Sweep, String> {
        s.check_keys(place, &["rows", "set", "axes", "anchor"])?;
        let rows = s
            .get("rows")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{place}.rows: required row-name pattern"))?
            .to_string();
        let axes = match s.get("axes") {
            None => Vec::new(),
            Some(a) => a
                .as_arr()
                .ok_or_else(|| format!("{place}.axes: expected an array"))?
                .iter()
                .enumerate()
                .map(|(i, a)| Axis::from_json(a, &format!("{place}.axes[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let anchor = match s.get("anchor") {
            None => None,
            Some(a) => Some(
                a.as_arr()
                    .ok_or_else(|| format!("{place}.anchor: expected an array of axis names"))?
                    .iter()
                    .map(|n| match n.as_str() {
                        Some(n) if axes.iter().any(|a| a.name == n) => Ok(n.to_string()),
                        _ => Err(format!("{place}.anchor: {n:?} names no axis of the sweep")),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(Sweep {
            rows,
            set: assignments(s.get("set"), &format!("{place}.set"))?,
            axes,
            anchor,
        })
    }
}

impl Axis {
    fn from_json(a: &Json, place: &str) -> Result<Axis, String> {
        a.check_keys(place, &["name", "key", "values"])?;
        let name = a
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{place}.name: required string"))?
            .to_string();
        if name == "ctx" {
            return Err(format!(
                "{place}.name: \"ctx\" is the first tenant's mean context in row patterns"
            ));
        }
        let key = match a.get("key") {
            None => None,
            Some(k) => Some(
                k.as_str()
                    .ok_or_else(|| format!("{place}.key: expected a field path"))?
                    .to_string(),
            ),
        };
        let values = a
            .get("values")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{place}.values: required array"))?
            .to_vec();
        Ok(Axis { name, key, values })
    }

    /// The row-name label of one value and the assignments it makes:
    /// `key = value` (labelled by the value itself) for a keyed axis,
    /// else the value object's own `path: value` pairs, labelled by its
    /// `label`.
    fn point(&self, value: &Json) -> Result<(Json, Vec<(String, Json)>), String> {
        if let Some(key) = &self.key {
            return Ok((value.clone(), vec![(key.clone(), value.clone())]));
        }
        let place = format!("axis {}", self.name);
        let mut set = assignments(Some(value), &place)?;
        let label = match set.iter().position(|(k, _)| k == "label") {
            Some(i) => set.remove(i).1,
            None => return Err(format!("{place}: a value without a key needs a \"label\"")),
        };
        Ok((label, set))
    }
}

/// The `path: value` pairs of an optional object.
fn assignments(obj: Option<&Json>, place: &str) -> Result<Vec<(String, Json)>, String> {
    match obj {
        None => Ok(Vec::new()),
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        Some(_) => Err(format!("{place}: expected an object of field paths")),
    }
}

/// Sets the field at a dotted `path` (`policies.router`,
/// `workload.0.requests`, `workload.*.requests` for every tenant),
/// creating missing object fields; the scenario parser then rejects any
/// key it does not know.
fn set_path(doc: &mut Json, path: &str, value: &Json) -> Result<(), String> {
    let (head, tail) = match path.split_once('.') {
        Some((head, tail)) => (head, Some(tail)),
        None => (path, None),
    };
    let slots: Vec<&mut Json> = match doc {
        Json::Arr(items) if head == "*" => items.iter_mut().collect(),
        Json::Arr(items) => {
            let len = items.len();
            let i: usize = head
                .parse()
                .map_err(|_| format!("{path}: {head:?} is not an index or \"*\""))?;
            vec![items
                .get_mut(i)
                .ok_or(format!("{path}: index {i} of {len}"))?]
        }
        Json::Obj(pairs) => {
            let i = match pairs.iter().position(|(k, _)| k == head) {
                Some(i) => i,
                None => {
                    pairs.push((head.to_string(), Json::Obj(Vec::new())));
                    pairs.len() - 1
                }
            };
            vec![&mut pairs[i].1]
        }
        _ => return Err(format!("{path}: not an object or array")),
    };
    for slot in slots {
        match tail {
            Some(tail) => set_path(slot, tail, value)?,
            None => *slot = value.clone(),
        }
    }
    Ok(())
}

/// Fills a row-name pattern: `{name}` is a label as written (numbers in
/// their shortest form), `{name:.N}` a number with `N` decimals.
fn format_name(pattern: &str, labels: &[(&str, Json)]) -> Result<String, String> {
    let mut out = String::new();
    let mut rest = pattern;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| format!("row pattern {pattern:?}: unclosed '{{'"))?;
        let field = &rest[open + 1..open + close];
        let (name, decimals) = match field.split_once(":.") {
            Some((name, d)) => (
                name,
                Some(d.parse::<usize>().map_err(|e| format!("{field}: {e}"))?),
            ),
            None => (field, None),
        };
        let label = labels
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, l)| l)
            .ok_or_else(|| format!("row pattern {pattern:?}: no axis {name:?}"))?;
        match (label, decimals) {
            (Json::Str(s), None) => out.push_str(s),
            (Json::Num(v), None) => out.push_str(&format!("{v}")),
            (Json::Num(v), Some(d)) => out.push_str(&format!("{v:.d$}")),
            _ => {
                return Err(format!(
                    "row pattern {pattern:?}: cannot format {name:?} as {field:?}"
                ))
            }
        }
        rest = &rest[open + close + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Prints one run's summary line.
fn print_run(name: &str, rate: f64, r: &ServingReport) {
    let l = &r.latency;
    println!(
        "{:<32} {:>9.3} {:>10.1} {:>8.3}/{:>8.3} {:>9.4} {:>9.3} {:>6} {:>5}",
        name,
        rate,
        r.tokens_per_second,
        l.ttft.p50,
        l.ttft.p99,
        l.tpot.p50,
        l.e2e.p99,
        r.evictions,
        r.shed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(text: &str) -> Result<Study, String> {
        Study::from_json(&Json::parse(text).expect("valid JSON"))
    }

    const TEMPLATE: &str = r#"{"model": "LLM-7B-32K", "cluster": {"tp": 2},
        "policies": {"scheduling": "continuous"},
        "workload": [{"name": "t", "dataset": "QMSum", "requests": 8,
                      "arrivals": {"process": "poisson", "rate": 1}}]}"#;

    fn with_sweeps(sweeps: &str, tiny: &str) -> String {
        format!(r#"{{"bench": "b", "scenario": {TEMPLATE}, "tiny": {tiny}, "sweeps": {sweeps}}}"#)
    }

    #[test]
    fn axes_cross_with_the_first_outermost_and_tiny_overrides() {
        let s = study(&with_sweeps(
            r#"[{"rows": "{load:.1}x/{router}/{mode}", "anchor": [],
                 "axes": [{"name": "load", "key": "load", "values": [0.5, 1.25]},
                          {"name": "router", "key": "policies.router", "values": ["jsq", "least-loaded"]},
                          {"name": "mode", "values": [{"label": "plain"},
                              {"label": "chunked", "policies.prefill_chunk": 512}]}]}]"#,
            r#"{"set": {"workload.*.requests": 4}, "axes": {"load": [2]}}"#,
        ))
        .expect("study parses");
        let names: Vec<String> = s
            .expand(false)
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(names[0], "0.5x/jsq/plain");
        assert_eq!(names[1], "0.5x/jsq/chunked");
        assert_eq!(names[2], "0.5x/least-loaded/plain");
        assert_eq!(names[7], "1.2x/least-loaded/chunked");
        assert_eq!(names.len(), 8);
        let tiny = s.expand(true).unwrap();
        assert_eq!(tiny.len(), 4);
        assert_eq!(tiny[3].name, "2.0x/least-loaded/chunked");
        let run = &tiny[3];
        assert_eq!(run.scenario.workload[0].requests, 4);
        assert_eq!(run.scenario.policies.prefill.chunk_tokens, 512);
        // The anchor names no axis: the template, closed-world.
        let (load, anchor) = run.anchor.as_ref().expect("anchored");
        assert_eq!(*load, 2.0);
        assert_eq!(anchor.policies.scheduling, system::SchedulingPolicy::Wave);
        assert_eq!(anchor.policies.router, system::RouterKind::RoundRobin);
        assert!(!anchor.policies.prefill.enabled);
        assert_eq!(anchor.workload[0].requests, 4);
    }

    #[test]
    fn study_files_reject_unknown_keys_at_every_level() {
        for (text, want) in [
            (
                r#"{"bench": "b", "scenario": {}, "sweeps": [], "tiyn": {}}"#.to_string(),
                "tiyn: unknown key",
            ),
            (
                with_sweeps("[]", r#"{"sett": {}}"#),
                "tiny.sett: unknown key",
            ),
            (
                with_sweeps(r#"[{"rows": "x", "axis": []}]"#, "{}"),
                "sweeps[0].axis: unknown key",
            ),
            (
                with_sweeps(
                    r#"[{"rows": "x", "axes": [{"name": "a", "value": []}]}]"#,
                    "{}",
                ),
                "sweeps[0].axes[0].value: unknown key",
            ),
            (
                with_sweeps("[]", r#"{"axes": {"nope": [1]}}"#),
                "tiny.axes.nope: no sweep",
            ),
            (
                with_sweeps(r#"[{"rows": "x", "anchor": ["nope"]}]"#, "{}"),
                "names no axis",
            ),
        ] {
            let err = study(&text).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
        // A misspelled scenario field surfaces when the runs expand.
        let s = study(&with_sweeps(
            r#"[{"rows": "x", "set": {"policies.routr": "jsq"}}]"#,
            "{}",
        ))
        .unwrap();
        let err = s.expand(false).unwrap_err();
        assert!(err.contains("policies.routr: unknown key"), "{err}");
    }

    #[test]
    fn a_load_and_an_anchor_come_together() {
        let s = study(&with_sweeps(r#"[{"rows": "x", "set": {"load": 1}}]"#, "{}")).unwrap();
        assert!(s
            .expand(false)
            .unwrap_err()
            .contains("load needs an anchor"));
        let s = study(&with_sweeps(r#"[{"rows": "x", "anchor": []}]"#, "{}")).unwrap();
        assert!(s.expand(false).unwrap_err().contains("needs a load"));
        let s = study(&with_sweeps(r#"[{"rows": "x"}, {"rows": "x"}]"#, "{}")).unwrap();
        assert!(s.expand(false).unwrap_err().contains("duplicate row name"));
        let s = study(&with_sweeps(
            r#"[{"rows": "x", "anchor": [], "set": {"load": 1, "workload.0.arrivals": {}}}]"#,
            "{}",
        ))
        .unwrap();
        assert!(s.expand(false).unwrap_err().contains("open-loop arrivals"));
    }

    #[test]
    fn row_patterns_format_labels_and_the_mean_context() {
        let labels = [
            ("x", Json::num(0.5)),
            ("r", Json::str("jsq")),
            ("c", Json::num(512.0)),
        ];
        assert_eq!(
            format_name("{x:.2}x/{r}/chunk{c}", &labels).unwrap(),
            "0.50x/jsq/chunk512"
        );
        assert!(format_name("{nope}", &labels).is_err());
        assert!(format_name("{r:.1}", &labels).is_err());
        assert!(format_name("{x", &labels).is_err());
        let s = study(&with_sweeps(
            r#"[{"rows": "mean{ctx:.0}", "axes": [{"name": "s", "key": "workload.0.context_scale", "values": [0.5]}]}]"#,
            "{}",
        ))
        .unwrap();
        assert_eq!(s.expand(false).unwrap()[0].name, "mean6983");
    }
}
