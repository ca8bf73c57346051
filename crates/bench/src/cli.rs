//! Shared command-line conventions of the serving bench binaries.
//!
//! [`BenchArgs::parse`] scans the switches the serving bins share:
//! `--tiny` for the CI smoke configuration and `--json <path>` for
//! machine-readable rows, plus `sim_speed`'s `--scenario <file.json>`.
//! A declarative [`Scenario`] spec (`system::scenario`, checked-in
//! examples under `scenarios/`) runs through `scenario_check`, which
//! calls [`run_scenario_file`] to run it end-to-end and report
//! per-tenant latency, SLO attainment, and Jain tenant fairness.
//!
//! The standard sweep shape (seed, decode range) shared by the serving
//! bins also lives here so their load axes stay comparable.

use crate::json::Json;
use crate::serving_row;
use system::{
    Materialized, RouterKind, Scenario, ServingReport, SheddingPolicy, TenantLatency, VictimOrder,
};

/// The shared RNG seed of the serving sweeps.
pub const SEED: u64 = 2026;
/// The shared decode-budget lower bound of the serving sweeps.
pub const DECODE_LO: u64 = 16;
/// The shared decode-budget upper bound of the serving sweeps.
pub const DECODE_HI: u64 = 96;

/// The switches shared by the serving bench binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--tiny`: the CI smoke configuration (small request counts).
    pub tiny: bool,
    /// `--json <path>`: write machine-readable result rows.
    pub json: Option<String>,
    /// `--scenario <file.json>`: the spec `sim_speed` times instead of
    /// its default. The sweep bins do not read it.
    pub scenario: Option<String>,
    /// Positional arguments (e.g. `scenario_check`'s spec files).
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--tiny" => out.tiny = true,
                "--json" => out.json = Some(args.next().expect("--json requires a path")),
                "--scenario" => {
                    out.scenario = Some(args.next().expect("--scenario requires a path"))
                }
                _ => out.rest.push(a),
            }
        }
        out
    }
}

/// Loads, materializes and runs one scenario spec file, printing the
/// configuration and the per-tenant report.
pub fn run_scenario_file(path: &str) -> Result<(Materialized, ServingReport), String> {
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
    print_scenario_report(&m, &report);
    Ok((m, report))
}

/// Prints the aggregate and per-tenant result tables of a scenario run.
pub fn print_scenario_report(m: &Materialized, r: &ServingReport) {
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
        m.router.label(),
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
            m.tenant_name(t.tenant),
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

/// Machine-readable rows of a scenario run: one aggregate
/// [`serving_row`] named `stem`, plus one tenant row per tenant named
/// `stem/tenant-name` (TTFT percentiles, goodput tokens, SLO
/// attainment) — the rows the regression gate pins.
pub fn scenario_rows(stem: &str, m: &Materialized, r: &ServingReport) -> Vec<Json> {
    let rate = m.trace.offered_rate().unwrap_or(0.0);
    let mut aggregate = serving_row(stem, rate, r);
    // Prefix-cache counters ride along only when the scenario exercises
    // them, so rows of cache-less scenarios stay byte-identical to the
    // pre-paged-KV snapshot.
    if r.prefix_cache_hits > 0 || r.pages_evicted > 0 {
        crate::push_row_field(
            &mut aggregate,
            "prefix_cache_hits",
            Json::num(r.prefix_cache_hits as f64),
        );
        crate::push_row_field(
            &mut aggregate,
            "prefix_hit_tokens",
            Json::num(r.prefix_hit_tokens as f64),
        );
        crate::push_row_field(
            &mut aggregate,
            "pages_evicted",
            Json::num(r.pages_evicted as f64),
        );
    }
    // Goodput and shed counters ride along only when an SLO-native
    // policy is armed, so rows of pre-SLO scenarios stay byte-identical
    // to the historical snapshot.
    let slo_native = m.router == RouterKind::SloAware
        || m.evaluator.shedding_policy() != SheddingPolicy::None
        || m.evaluator.victim_order() != VictimOrder::RecentFirst;
    if slo_native {
        crate::push_row_field(&mut aggregate, "goodput", Json::num(r.goodput()));
        crate::push_row_field(&mut aggregate, "shed", Json::num(r.shed as f64));
    }
    // KV-transfer counters ride along only when the pool structure is
    // observable (`per_pool` nonempty), so rows of colocated scenarios
    // stay byte-identical to the pre-disaggregation snapshot.
    if !r.per_pool.is_empty() {
        crate::push_row_field(
            &mut aggregate,
            "kv_transferred_bytes",
            Json::num(r.kv_transferred_bytes as f64),
        );
        crate::push_row_field(
            &mut aggregate,
            "transfer_seconds",
            Json::num(r.transfer_seconds),
        );
    }
    let mut rows = vec![aggregate];
    for t in &r.latency_by_tenant {
        let mut row = tenant_row(&format!("{stem}/{}", m.tenant_name(t.tenant)), t);
        if slo_native {
            let goodput = if r.seconds > 0.0 {
                t.goodput_tokens as f64 / r.seconds
            } else {
                0.0
            };
            crate::push_row_field(&mut row, "goodput", Json::num(goodput));
        }
        rows.push(row);
    }
    for p in &r.per_pool {
        rows.push(pool_row(&format!("{stem}/pool/{}", p.name), p));
    }
    rows
}

/// One machine-readable row for a pool's share of a disaggregated run.
pub fn pool_row(name: &str, p: &system::PoolBreakdown) -> Json {
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
pub fn tenant_row(name: &str, t: &TenantLatency) -> Json {
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
