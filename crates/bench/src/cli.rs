//! Shared command-line conventions of the bench binaries.
//!
//! Each bench binary declares the switches it reads and whether it takes
//! positionals in its [`Usage`]: `--json <path>` (machine-readable rows)
//! for all but `study`, which writes one document per study, `--tiny`
//! (the CI smoke configuration) for `study` and `sim_speed`.
//! [`Usage::parse`] rejects everything else with the usage line and
//! exit status 2, so a misspelled switch cannot run silently.
//!
//! A declarative [`Scenario`] spec (`system::scenario`, checked-in
//! examples under `scenarios/`) runs through `scenario_check`, which
//! calls [`run_scenario_file`] to run it end-to-end and report
//! per-tenant latency, SLO attainment, and Jain tenant fairness. Its
//! rows, and every row of the `study` runner, come from
//! [`scenario_rows`].

use crate::json::Json;
use crate::{push_row_field, serving_row};
use system::{RouterKind, Scenario, ServingReport, SheddingPolicy, TenantLatency, VictimOrder};

/// The parsed arguments of one bench binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// The declared switches that were given, each with its value
    /// (`None` for a flag), in command-line order.
    pub switches: Vec<(&'static str, Option<String>)>,
    /// Positional arguments (e.g. `scenario_check`'s spec files).
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Whether the flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|(s, _)| *s == name)
    }

    /// The value of the last `name <value>` switch given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.switches
            .iter()
            .rev()
            .find(|(s, _)| *s == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// What one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// The binary's name.
    pub bin: &'static str,
    /// The binary's switches; one written `"--name <value>"` takes a
    /// value, one written `"--name"` is a flag.
    pub switches: &'static [&'static str],
    /// The positionals as shown in the usage line (e.g.
    /// `"<scenario.json>..."`); empty if the binary takes none.
    pub positionals: &'static str,
}

impl Usage {
    /// The usage line.
    pub fn line(&self) -> String {
        let mut line = format!("usage: {}", self.bin);
        for s in self.switches {
            line.push_str(&format!(" [{s}]"));
        }
        if !self.positionals.is_empty() {
            line.push_str(&format!(" {}", self.positionals));
        }
        line
    }

    /// Parses `args` (without the program name), naming the first
    /// argument this binary does not accept.
    pub fn parse_from(&self, args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            if let Some(spec) = self
                .switches
                .iter()
                .find(|s| s.split(' ').next() == Some(a.as_str()))
            {
                let (name, takes_value) = match spec.split_once(' ') {
                    Some((name, _)) => (name, true),
                    None => (*spec, false),
                };
                let v = if takes_value {
                    Some(value(name)?)
                } else {
                    None
                };
                out.switches.push((name, v));
            } else if a.starts_with('-') || self.positionals.is_empty() {
                return Err(format!("unknown argument {a:?}"));
            } else {
                out.rest.push(a);
            }
        }
        Ok(out)
    }

    /// Parses the process arguments; on an argument this binary does
    /// not accept, prints the error and the usage line and exits with
    /// status 2.
    pub fn parse(&self) -> BenchArgs {
        self.parse_from(std::env::args().skip(1))
            .unwrap_or_else(|e| self.exit(&e))
    }

    /// Prints `error` and the usage line, then exits with status 2.
    pub fn exit(&self, error: &str) -> ! {
        eprintln!("{}: {error}\n{}", self.bin, self.line());
        std::process::exit(2)
    }
}

/// Loads, materializes and runs one scenario spec file, printing the
/// configuration and the per-tenant report, and returns its rows (see
/// [`scenario_rows`]) named after the file stem at the trace's offered
/// rate.
pub fn run_scenario_file(path: &str) -> Result<Vec<Json>, String> {
    let scenario = Scenario::from_file(path)?;
    let m = scenario.materialize()?;
    crate::header(&format!(
        "Scenario {path}: {} on {} ({}, {} tenants, {} requests)",
        scenario.model,
        scenario.system.name(),
        scenario.policies.scheduling,
        scenario.workload.len(),
        m.trace.len(),
    ));
    let report = m.run();
    print_scenario_report(&scenario, &report);
    let rate = m.trace.offered_rate().unwrap_or(0.0);
    Ok(scenario_rows(&file_stem(path), rate, &scenario, &report))
}

/// Prints the aggregate and per-tenant result tables of a scenario run.
fn print_scenario_report(s: &Scenario, r: &ServingReport) {
    println!(
        "\n{:.1} tok/s over {:.2}s (goodput {:.1}) | TTFT p50/p99 {:.3}/{:.3}s | \
         E2E p99 {:.3}s | evictions {} | shed {} | router {} | tenant fairness {:.3}",
        r.tokens_per_second,
        r.seconds,
        r.goodput(),
        r.latency.ttft.p50,
        r.latency.ttft.p99,
        r.latency.e2e.p99,
        r.evictions,
        r.shed,
        s.policies.router.label(),
        r.tenant_fairness(),
    );
    println!(
        "\n{:<16} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>11}",
        "tenant", "completed", "TTFT p50", "TTFT p99", "E2E p99", "tokens", "SLO (s)", "attainment"
    );
    for t in &r.latency_by_tenant {
        let slo = if t.slo_ttft.is_finite() {
            format!("{:.3}", t.slo_ttft)
        } else {
            "-".to_string()
        };
        let attainment = if t.slo_ttft.is_finite() {
            format!("{:.1}%", t.slo_attainment * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:<16} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>10} {:>10} {:>11}",
            s.workload[usize::from(t.tenant)].name,
            t.latency.completed,
            t.latency.ttft.p50,
            t.latency.ttft.p99,
            t.latency.e2e.p99,
            t.tokens,
            slo,
            attainment,
        );
    }
}

/// Machine-readable rows of a scenario run at the nominal offered
/// `rate`: one aggregate [`serving_row`] named `stem`, one tenant row
/// per tenant named `stem/tenant-name` (TTFT percentiles, goodput
/// tokens, SLO attainment) and one pool row per pool of a disaggregated
/// run named `stem/pool/pool-name`: the rows the regression gate pins.
///
/// A group of fields rides along only when the run exercises it, so
/// rows of runs that do not keep their historical layout:
/// * more than one priority class: `kv_capacity_factor` and each
///   class's TTFT p99 (`ttft_p99_high`, `ttft_p99_low`);
/// * a shared prompt prefix or prefix-cache activity: the hit counters,
///   `prefix_hit_rate` and `pages_evicted`;
/// * a tenant SLO or an SLO-native policy: `goodput` and `shed`, and
///   each tenant row's `goodput`;
/// * replica pools: the KV-transfer totals.
pub fn scenario_rows(stem: &str, rate: f64, s: &Scenario, r: &ServingReport) -> Vec<Json> {
    let mut aggregate = serving_row(stem, rate, r);
    let mut push = |key: &str, value: f64| push_row_field(&mut aggregate, key, Json::num(value));
    if let [high, .., low] = r.latency_by_priority.as_slice() {
        push("kv_capacity_factor", s.policies.kv_capacity_factor);
        push("ttft_p99_high", high.latency.ttft.p99);
        push("ttft_p99_low", low.latency.ttft.p99);
    }
    if r.prefix_cache_hits > 0
        || r.pages_evicted > 0
        || s.workload.iter().any(|t| t.shared_prefix > 0)
    {
        let offered = r.prefill_tokens + r.prefix_hit_tokens;
        push("prefix_cache_hits", r.prefix_cache_hits as f64);
        push("prefix_hit_tokens", r.prefix_hit_tokens as f64);
        push(
            "prefix_hit_rate",
            if offered == 0 {
                0.0
            } else {
                r.prefix_hit_tokens as f64 / offered as f64
            },
        );
        push("pages_evicted", r.pages_evicted as f64);
    }
    let p = &s.policies;
    let slo_native = p.router == RouterKind::SloAware
        || p.shedding != SheddingPolicy::None
        || p.victim_order != VictimOrder::RecentFirst
        || s.workload.iter().any(|t| t.slo_ttft_p99.is_some());
    if slo_native {
        push("goodput", r.goodput());
        push("shed", r.shed as f64);
    }
    if !r.per_pool.is_empty() {
        push("kv_transferred_bytes", r.kv_transferred_bytes as f64);
        push("transfer_seconds", r.transfer_seconds);
    }
    let mut rows = vec![aggregate];
    for t in &r.latency_by_tenant {
        let name = &s.workload[usize::from(t.tenant)].name;
        let mut row = tenant_row(&format!("{stem}/{name}"), t);
        if slo_native {
            let goodput = if r.seconds > 0.0 {
                t.goodput_tokens as f64 / r.seconds
            } else {
                0.0
            };
            push_row_field(&mut row, "goodput", Json::num(goodput));
        }
        rows.push(row);
    }
    for p in &r.per_pool {
        rows.push(pool_row(&format!("{stem}/pool/{}", p.name), p));
    }
    rows
}

/// One machine-readable row for a pool's share of a disaggregated run.
fn pool_row(name: &str, p: &system::PoolBreakdown) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("role", Json::str(p.role.label())),
        ("replicas", Json::num(f64::from(p.replicas))),
        ("routed", Json::num(p.routed as f64)),
        ("served", Json::num(p.served as f64)),
        ("tokens", Json::num(p.tokens as f64)),
        ("busy_seconds", Json::num(p.busy_seconds)),
        ("evictions", Json::num(p.evictions as f64)),
        ("shed", Json::num(p.shed as f64)),
        ("handoffs", Json::num(p.handoffs as f64)),
        (
            "kv_transferred_bytes",
            Json::num(p.kv_transferred_bytes as f64),
        ),
        ("transfer_seconds", Json::num(p.transfer_seconds)),
    ])
}

/// One machine-readable row for a tenant's share of a scenario run.
fn tenant_row(name: &str, t: &TenantLatency) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("completed", Json::num(t.latency.completed as f64)),
        ("tokens", Json::num(t.tokens as f64)),
        ("ttft_p50", Json::num(t.latency.ttft.p50)),
        ("ttft_p95", Json::num(t.latency.ttft.p95)),
        ("ttft_p99", Json::num(t.latency.ttft.p99)),
        ("e2e_p99", Json::num(t.latency.e2e.p99)),
        (
            "slo_ttft_p99",
            if t.slo_ttft.is_finite() {
                Json::num(t.slo_ttft)
            } else {
                Json::Null
            },
        ),
        ("slo_attainment", Json::num(t.slo_attainment)),
    ])
}

/// The file stem of a path (`scenarios/two_tenant.json` →
/// `two_tenant`), used as the row-name prefix.
pub fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: Usage = Usage {
        bin: "probe",
        switches: &[
            "--tiny",
            "--json <path>",
            "--threads <n>",
            "--check-determinism",
        ],
        positionals: "<spec.json>...",
    };

    fn parse(usage: &Usage, args: &[&str]) -> Result<BenchArgs, String> {
        usage.parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_reads_shared_and_declared_switches_and_positionals() {
        let args = parse(
            &USAGE,
            &[
                "a.json",
                "--tiny",
                "--threads",
                "4",
                "--json",
                "out.json",
                "b.json",
            ],
        )
        .expect("valid arguments");
        assert!(args.flag("--tiny"));
        assert_eq!(args.value("--json"), Some("out.json"));
        assert_eq!(args.value("--threads"), Some("4"));
        assert!(!args.flag("--check-determinism"));
        assert_eq!(args.rest, ["a.json", "b.json"]);
        assert!(parse(&USAGE, &["--check-determinism"])
            .unwrap()
            .flag("--check-determinism"));
    }

    #[test]
    fn parse_rejects_what_the_binary_does_not_declare() {
        let err = parse(&USAGE, &["--tiny", "--bogus"]).unwrap_err();
        assert_eq!(err, "unknown argument \"--bogus\"");
        assert!(parse(&USAGE, &["--threads"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&USAGE, &["--json"])
            .unwrap_err()
            .contains("requires a value"));
        // A binary without positionals rejects them too, and one
        // binary's switch is unknown to another.
        let fig = Usage {
            bin: "fig10",
            switches: &["--json <path>"],
            positionals: "",
        };
        assert!(parse(&fig, &["stray"]).is_err());
        assert!(parse(&fig, &["--tiny"]).is_err());
        assert!(parse(&fig, &["--threads", "2"]).is_err());
        assert_eq!(parse(&fig, &[]), Ok(BenchArgs::default()));
        assert_eq!(
            USAGE.line(),
            "usage: probe [--tiny] [--json <path>] [--threads <n>] [--check-determinism] \
             <spec.json>..."
        );
    }

    #[test]
    fn file_stem_strips_directories_and_extension() {
        assert_eq!(file_stem("scenarios/two_tenant.json"), "two_tenant");
        assert_eq!(file_stem("plain"), "plain");
    }

    #[test]
    fn tenant_row_serializes_slo_absence_as_null() {
        let t = TenantLatency {
            tenant: 3,
            slo_ttft: f64::INFINITY,
            ..TenantLatency::default()
        };
        let row = tenant_row("x/t", &t);
        assert_eq!(row.get("slo_ttft_p99"), Some(&Json::Null));
        let with = TenantLatency {
            slo_ttft: 2.5,
            slo_attainment: 0.75,
            ..t
        };
        let row = tenant_row("x/t", &with);
        assert_eq!(row.get("slo_ttft_p99").unwrap().as_f64(), Some(2.5));
        assert_eq!(row.get("slo_attainment").unwrap().as_f64(), Some(0.75));
    }
}
