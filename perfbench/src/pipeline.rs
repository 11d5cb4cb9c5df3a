//! `pipeline-ref`: the researcher's "regenerate the paper" job.
//!
//! `engine::run` renders all 22 artifacts of `all` cold, on one worker,
//! at the reference scales. One worker because two-worker runs of this
//! job spread far more from run to run than one-worker runs do.
//!
//! The traced run renders the same artifacts a second time through the
//! public calls `engine::run` makes internally (world build, the Atlas
//! analysis fold, CDN collection and analysis, the clean histories, and
//! each renderer), with spans around each, and checks that the bytes are
//! the same.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dynamips_atlas::{AtlasCollector, AtlasConfig};
use dynamips_cdn::{CdnCollector, CdnConfig};
use dynamips_core::degrade::DegradationReport;
use dynamips_core::sanitize::{sanitize_probe, SanitizeConfig, SanitizeOutcome, SanitizeReport};
use dynamips_experiments::engine::{self, WorldCache};
use dynamips_experiments::extended::{self, CleanHistories};
use dynamips_experiments::{
    atlas_exps, cdn_exps, check, claims, AtlasAnalysis, CdnAnalysis, ExperimentConfig,
};
use dynamips_netsim::config::{V4Policy, V6Policy};
use dynamips_netsim::time::Window;
use dynamips_netsim::World;

use crate::report::{Ledger, Outcome};
use crate::stats;
use crate::trace::{TraceData, Tracer};

/// The reference configuration's world seed. The job's input is fixed:
/// other seeds build other worlds whose run times differ by a fifth, and
/// the 24 predicates are only documented to hold at 2020, 20201201 and 7.
pub const REFERENCE_SEED: u64 = 2020;

/// Set-ups per run, half before the job and half after; the median is
/// reported. A set-up takes a tenth of a millisecond, and the host's
/// speed over any tenth of a second moves it by half, so the samples are
/// many and taken at two moments half a minute apart.
const SETUP_REPEATS: usize = 1000;

/// The detector's own relative tolerance (`detect_period(.., 0.05, ..)`
/// in `AtlasAnalysis::periodic_v4_ases`).
const DETECT_TOLERANCE: f64 = 0.05;

/// The ASes whose v4 renumbering period the detector finds at the
/// reference configuration. The input is fixed, so the set is pinned: a
/// detector that stops finding one of them fails the check.
pub const EXPECTED_V4: [u32; 16] = [
    2856, 3215, 3320, 5432, 6057, 6805, 8422, 8767, 8881, 18881, 64711, 64712, 64713, 64715, 64716,
    64717,
];

/// As `EXPECTED_V4`, for v6 renumbering.
pub const EXPECTED_V6: [u32; 16] = [
    3320, 5432, 6057, 6805, 8422, 8767, 8881, 18881, 64710, 64711, 64712, 64713, 64714, 64715,
    64716, 64717,
];

/// The reference configuration: `dynamips --seed 2020 --atlas-scale 0.2
/// --cdn-scale 0.15`.
pub fn config() -> ExperimentConfig {
    ExperimentConfig {
        seed: REFERENCE_SEED,
        atlas_scale: 0.2,
        cdn_scale: 0.15,
    }
}

/// The 22 artifacts of `dynamips all`, in its order.
pub fn all_artifacts() -> Vec<String> {
    engine::ATLAS_ARTIFACTS
        .iter()
        .chain(engine::CDN_ARTIFACTS.iter())
        .copied()
        .chain(["claims", "check"])
        .chain(engine::EXTENDED_ARTIFACTS.iter().copied())
        .map(str::to_string)
        .collect()
}

/// Renumbering periods configured per AS: `(period_hours, jitter)`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Periods {
    pub v4: BTreeMap<u32, Vec<(u64, f64)>>,
    pub v6: BTreeMap<u32, Vec<(u64, f64)>>,
}

/// Read the periodic renumbering policies out of the world's ISP
/// configurations: the ground truth the detector should recover.
pub fn configured_periods(world: &World) -> Periods {
    let mut out = Periods::default();
    for isp in world.isps() {
        for class in &isp.classes {
            if let Some(V4Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) = class.v4
            {
                out.v4
                    .entry(isp.asn.0)
                    .or_default()
                    .push((period_hours, jitter));
            }
            if let Some(V6Policy::PeriodicRenumber {
                period_hours,
                jitter,
            }) = class.v6
            {
                out.v6
                    .entry(isp.asn.0)
                    .or_default()
                    .push((period_hours, jitter));
            }
        }
    }
    out
}

/// The detected ASes must be exactly `expected`, and every detected
/// `(asn, hours)` must be a configured period of that AS. The detector reports the lowest whole hour whose ±5% window holds the
/// most durations, and sandwiched durations lose up to an hour to the
/// hourly sampling, so a configured period `P` with jitter `j` matches a
/// detected `p` when `|P - p| <= 0.05 p + j P + 1`.
pub fn check_periods(
    family: &str,
    detected: &[(u32, u64)],
    expected: &[u32],
    configured: &BTreeMap<u32, Vec<(u64, f64)>>,
) -> Result<(), String> {
    let found: BTreeSet<u32> = detected.iter().map(|&(asn, _)| asn).collect();
    let expected: BTreeSet<u32> = expected.iter().copied().collect();
    if found != expected {
        return Err(format!(
            "{family}: detector missed {:?} and found unexpected {:?}",
            expected.difference(&found).collect::<Vec<_>>(),
            found.difference(&expected).collect::<Vec<_>>()
        ));
    }
    for &(asn, p) in detected {
        let Some(periods) = configured.get(&asn) else {
            return Err(format!("{family}: AS{asn}@{p}h has no periodic policy"));
        };
        let matches = periods.iter().any(|&(period, jitter)| {
            let (period, p) = (period as f64, p as f64);
            (period - p).abs() <= DETECT_TOLERANCE * p + jitter * period + 1.0
        });
        if !matches {
            return Err(format!(
                "{family}: AS{asn} detected at {p}h, configured {periods:?}"
            ));
        }
    }
    Ok(())
}

/// The `AS<asn>@<hours>h` list on a `claims` row (`periodic-v4` or
/// `periodic-v6`).
pub fn parse_claimed_periods(claims_text: &str, id: &str) -> Option<Vec<(u32, u64)>> {
    let line = claims_text
        .lines()
        .find(|l| l.trim_start().starts_with(id))?;
    let list = &line[line.rfind("period: ")? + "period: ".len()..];
    list.split(", ")
        .map(|item| {
            let (asn, hours) = item.trim().strip_prefix("AS")?.split_once('@')?;
            Some((asn.parse().ok()?, hours.strip_suffix('h')?.parse().ok()?))
        })
        .collect()
}

/// The `check` artifact must report all 24 shape predicates PASS.
pub fn check_predicates(text: &str) -> Result<(), String> {
    let rows = |verdict: &str| {
        text.lines()
            .filter(|l| l.trim_end().ends_with(verdict))
            .count()
    };
    let (pass, fail) = (rows(" PASS"), rows(" FAIL"));
    if pass == 24 && fail == 0 && text.contains("(24 of 24 shapes hold)") {
        Ok(())
    } else {
        Err(format!("check: {pass} PASS, {fail} FAIL of 24 predicates"))
    }
}

/// Check one `engine::run`'s artifacts: all rendered and ok, the 24
/// predicates, and the detected periods. One operation per artifact.
fn check_run(out: &engine::EngineOutput, names: &[String], periods: &Periods, ledger: &mut Ledger) {
    if out.artifacts.len() != names.len() {
        ledger.fail(format!(
            "engine returned {} artifacts for {} requested",
            out.artifacts.len(),
            names.len()
        ));
    }
    for art in &out.artifacts {
        let verdict = if !art.ok {
            Err(format!("{} rendered not-ok", art.name))
        } else {
            match art.name.as_str() {
                "check" => check_predicates(&art.text),
                "claims" => check_claimed_periods(&art.text, periods),
                _ if art.text.is_empty() => Err(format!("{} is empty", art.name)),
                _ => Ok(()),
            }
        };
        ledger.check(verdict);
    }
}

fn check_claimed_periods(text: &str, periods: &Periods) -> Result<(), String> {
    for (id, expected, configured) in [
        ("periodic-v4", &EXPECTED_V4, &periods.v4),
        ("periodic-v6", &EXPECTED_V6, &periods.v6),
    ] {
        let detected =
            parse_claimed_periods(text, id).ok_or_else(|| format!("claims: no {id} row"))?;
        check_periods(id, &detected, expected, configured)?;
    }
    Ok(())
}

/// Build the Atlas world and read its configured periods: the
/// expectations the run checks against.
fn set_up(cfg: &ExperimentConfig) -> Periods {
    let cache = WorldCache::new();
    configured_periods(&cache.atlas(cfg.seed, cfg.atlas_scale))
}

/// `--seed` does not reach this workload: its input is the reference
/// configuration.
pub fn run(seconds: u64, traced: bool) -> Outcome {
    let cfg = config();
    let names = all_artifacts();
    let mut outcome = Outcome::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let set_up_timed = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let periods = set_up(&cfg);
        setups.push(t.elapsed().as_secs_f64());
        periods
    };
    let mut periods = Periods::default();
    for _ in 0..SETUP_REPEATS / 2 {
        periods = set_up_timed(&mut setups);
    }

    let unfound = |configured: &BTreeMap<u32, Vec<(u64, f64)>>, expected: &[u32]| {
        configured
            .keys()
            .filter(|asn| !expected.contains(asn))
            .map(|asn| format!("AS{asn}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    outcome.summary.push(format!(
        "pipeline-ref: configured periodic but not expected to be detected: v4 [{}], v6 [{}]",
        unfound(&periods.v4, &EXPECTED_V4),
        unfound(&periods.v6, &EXPECTED_V6)
    ));

    // One job, then more only while another fits in the run length.
    let started = Instant::now();
    let mut walls = Vec::new();
    let reference = loop {
        let t = Instant::now();
        let out = engine::run(&cfg, &names, 1);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        check_run(&out, &names, &periods, &mut outcome.ledger);
        if traced || started.elapsed().as_secs_f64() + wall > seconds as f64 {
            break out;
        }
    };
    let wall = stats::median(&walls).unwrap_or(0.0);
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    outcome.summary.push(format!(
        "pipeline-ref: world seed {}, scales {}/{}, 1 worker; pipeline_s {wall:.3} (median of {})",
        cfg.seed,
        cfg.atlas_scale,
        cfg.cdn_scale,
        walls.len()
    ));

    if traced {
        traced_run(&cfg, &names, &reference, &periods, wall, &mut outcome);
    } else {
        for _ in SETUP_REPEATS / 2..SETUP_REPEATS {
            set_up_timed(&mut setups);
        }
        outcome.figures.push(("pipeline_s", wall, "s"));
        let m = &mut outcome.metrics;
        m.insert("setup_s", stats::median(&setups).unwrap_or(0.0));
        m.insert("p50_ms", wall * 1000.0);
        m.insert("peak_rss_mb", peak_rss_mb);
    }
    outcome
}

/// Everything the decomposed pipeline produces.
struct Products {
    atlas: AtlasAnalysis,
    cdn: CdnAnalysis,
    histories: CleanHistories,
    world: std::sync::Arc<World>,
    sanitize: SanitizeReport,
    probes: u64,
    tuples: u64,
}

/// The phase-A products of `engine::run` at one worker, computed by the
/// same public calls in the same order, with a span around each layer.
fn traced_products(cfg: &ExperimentConfig, tracer: &Tracer) -> Products {
    let cache = WorldCache::new();
    let window = Window::atlas_paper();
    let mut probes = 0u64;
    let world = tracer.span("netsim.world_build", None, |_| {
        cache.atlas(cfg.seed, cfg.atlas_scale)
    });

    let atlas = tracer.span("experiments.atlas_analysis", None, |a| {
        let collector = AtlasCollector::new(&world, window, AtlasConfig::default());
        let mut degradation = DegradationReport::new();
        AtlasAnalysis::compute_with(
            &world,
            window,
            |sink| {
                tracer.span("atlas.collect", Some(a), |c| {
                    let (mut n, mut busy) = (0u64, 0u64);
                    collector.for_each_probe(|series| {
                        let t = Instant::now();
                        sink(series);
                        busy += t.elapsed().as_nanos() as u64;
                        n += 1;
                    });
                    probes += n;
                    tracer.tally("experiments.atlas_analysis", Some(c), n, busy);
                })
            },
            &mut degradation,
        )
    });

    let cdn_world = tracer.span("netsim.world_build", None, |_| {
        cache.cdn(cfg.seed, cfg.cdn_scale)
    });
    let dataset = tracer.span("cdn.collect", None, |_| {
        CdnCollector::new(&cdn_world, Window::cdn_paper(), CdnConfig::default()).collect()
    });
    let cdn = tracer.span("experiments.cdn_analysis", None, |_| {
        let mut degradation = DegradationReport::new();
        CdnAnalysis::compute_from_dataset(&cdn_world, &dataset, &mut degradation)
    });

    // `extended::clean_histories`, spelled out so sanitize is timed apart.
    let mut sanitize = SanitizeReport::default();
    let histories = tracer.span("experiments.histories", None, |h| {
        let collector = AtlasCollector::new(&world, window, AtlasConfig::default());
        let scfg = SanitizeConfig::default();
        let mut out = CleanHistories::new();
        tracer.span("atlas.collect", Some(h), |c| {
            let (mut n, mut sanitize_ns, mut group_ns) = (0u64, 0u64, 0u64);
            collector.for_each_probe(|series| {
                let t = Instant::now();
                let outcome = sanitize_probe(&series, world.routing(), &scfg, &mut sanitize);
                let t2 = Instant::now();
                if let SanitizeOutcome::Clean(hs) = outcome {
                    for hist in hs {
                        out.entry(hist.asn).or_default().push(hist);
                    }
                }
                sanitize_ns += (t2 - t).as_nanos() as u64;
                group_ns += t2.elapsed().as_nanos() as u64;
                n += 1;
            });
            probes += n;
            tracer.tally("core.sanitize", Some(c), n, sanitize_ns);
            tracer.tally("experiments.histories", Some(c), n, group_ns);
        });
        out
    });

    Products {
        atlas,
        cdn,
        histories,
        world,
        sanitize,
        probes,
        tuples: dataset.tuples.len() as u64,
    }
}

/// One artifact from the products, through its public renderer.
fn render(name: &str, p: &Products, cfg: &ExperimentConfig) -> (String, bool) {
    let (a, c, h, w) = (&p.atlas, &p.cdn, &p.histories, &*p.world);
    let text = match name {
        "table1" => atlas_exps::table1(a),
        "fig1" => atlas_exps::fig1(a),
        "fig5" => atlas_exps::fig5(a),
        "fig6" => atlas_exps::fig6(a),
        "fig8" => atlas_exps::fig8(a),
        "fig9" => atlas_exps::fig9(a),
        "table2" => atlas_exps::table2(a),
        "fig2" => cdn_exps::fig2(c),
        "fig3" => cdn_exps::fig3(c),
        "fig4" => cdn_exps::fig4(c),
        "fig7" => cdn_exps::fig7(c),
        "claims" => claims::render(a, c),
        "check" => return check::render_and_ok(a, c),
        "evolution" => extended::evolution_with(w, h),
        "pools" => extended::pool_boundaries_with(w, h),
        "scanplan" => extended::scan_plans_with(w, h),
        "targetgen" => extended::target_generation_with(w, h),
        "tracking" => extended::tracking_report_with(w),
        "anonymize" => extended::anonymize_audit_with(w),
        "blocklist" => extended::blocklist_sweep_with(w),
        "counting" => extended::counting_report_with(w, cfg.seed),
        "sanitizer" => extended::sanitizer_report_with(w, cfg.atlas_scale),
        other => return (format!("no renderer for {other:?}"), false),
    };
    (text, true)
}

/// Render stages reported on their own; the rest are summed.
const RENDER_STAGES: [&str; 6] = [
    "targetgen",
    "sanitizer",
    "pools",
    "scanplan",
    "claims",
    "check",
];

fn traced_run(
    cfg: &ExperimentConfig,
    names: &[String],
    reference: &engine::EngineOutput,
    periods: &Periods,
    untraced_wall: f64,
    outcome: &mut Outcome,
) {
    let tracer = Tracer::new();
    let cpu0 = stats::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let products = traced_products(cfg, &tracer);
    let rendered: Vec<(String, bool)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            tracer.span_in_group("experiments.render", None, i as u64, |_| {
                render(name, &products, cfg)
            })
        })
        .collect();
    let traced_wall = t0.elapsed().as_secs_f64();
    let cpu = stats::cpu_seconds().unwrap_or(0.0) - cpu0;

    let ledger = &mut outcome.ledger;
    for (art, (text, ok)) in reference.artifacts.iter().zip(&rendered) {
        ledger.check(if *ok && *text == art.text {
            Ok(())
        } else {
            Err(format!(
                "{}: decomposed render differs from engine::run",
                art.name
            ))
        });
    }
    for (family, detected, expected, configured) in [
        (
            "periodic-v4",
            products.atlas.periodic_v4_ases(),
            &EXPECTED_V4,
            &periods.v4,
        ),
        (
            "periodic-v6",
            products.atlas.periodic_v6_ases(),
            &EXPECTED_V6,
            &periods.v6,
        ),
    ] {
        let detected: Vec<(u32, u64)> = detected.iter().map(|(asn, p)| (asn.0, *p)).collect();
        ledger.check(check_periods(family, &detected, expected, configured));
    }

    let data = tracer.finish();
    let render_s = |data: &TraceData, wanted: &dyn Fn(&str) -> bool| -> f64 {
        data.by_group("experiments.render")
            .iter()
            .filter(|(i, _)| names.get(**i as usize).is_some_and(|n| wanted(n)))
            .map(|(_, ns)| *ns as f64 / 1e9)
            .sum()
    };
    let m = &mut outcome.metrics;
    m.insert("netsim.world_build_s", data.busy_s("netsim.world_build"));
    m.insert("atlas.collect.self_s", data.self_s("atlas.collect"));
    m.insert("atlas.collect.probes", products.probes as f64);
    m.insert("core.sanitize.busy_s", data.busy_s("core.sanitize"));
    m.insert(
        "core.sanitize.clean_ratio",
        products.sanitize.probes_out as f64 / products.sanitize.probes_in.max(1) as f64,
    );
    m.insert(
        "experiments.atlas_analysis.self_s",
        data.self_s("experiments.atlas_analysis"),
    );
    m.insert(
        "experiments.histories.busy_s",
        data.busy_s("experiments.histories"),
    );
    m.insert("cdn.collect.busy_s", data.busy_s("cdn.collect"));
    m.insert("cdn.collect.tuples", products.tuples as f64);
    m.insert(
        "experiments.cdn_analysis.busy_s",
        data.busy_s("experiments.cdn_analysis"),
    );
    for (stage, metric) in RENDER_STAGES.iter().zip([
        "experiments.render.targetgen_s",
        "experiments.render.sanitizer_s",
        "experiments.render.pools_s",
        "experiments.render.scanplan_s",
        "experiments.render.claims_s",
        "experiments.render.check_s",
    ]) {
        m.insert(metric, render_s(&data, &|n| n == *stage));
    }
    m.insert(
        "experiments.render.rest_s",
        render_s(&data, &|n| !RENDER_STAGES.contains(&n)),
    );
    m.insert("process.cpu_s", cpu);
    m.insert("trace.coverage", data.top_level_s() / untraced_wall);
    m.insert("trace.overhead_ratio", traced_wall / untraced_wall);
    outcome.write_trace(&data, "pipeline-ref");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured() -> BTreeMap<u32, Vec<(u64, f64)>> {
        BTreeMap::from([(3320, vec![(24, 0.02)]), (2856, vec![(336, 0.02)])])
    }

    const BOTH: [u32; 2] = [2856, 3320];

    #[test]
    fn detected_periods_match_configured_within_tolerance() {
        assert!(check_periods("v4", &[(3320, 23), (2856, 327)], &BOTH, &configured()).is_ok());
        assert!(check_periods("v4", &[(3320, 24)], &[3320], &configured()).is_ok());
    }

    #[test]
    fn a_wrong_or_unconfigured_period_fails() {
        assert!(check_periods("v4", &[(3320, 48), (2856, 336)], &BOTH, &configured()).is_err());
        assert!(check_periods("v4", &[(3320, 24), (2856, 300)], &BOTH, &configured()).is_err());
        assert!(check_periods("v4", &[(1, 24)], &[1], &configured()).is_err());
    }

    #[test]
    fn a_missing_or_unexpected_as_fails() {
        let missing = check_periods("v4", &[(3320, 23)], &BOTH, &configured());
        assert!(missing.is_err_and(|e| e.contains("missed [2856]")));
        assert!(check_periods("v4", &[], &BOTH, &configured()).is_err());
        let extra = check_periods("v4", &[(3320, 23), (2856, 327)], &[3320], &configured());
        assert!(extra.is_err_and(|e| e.contains("unexpected [2856]")));
    }

    #[test]
    fn the_pinned_ases_are_configured_periodic_at_the_reference() {
        let periods = configured_periods(&WorldCache::new().atlas(REFERENCE_SEED, 0.2));
        for asn in EXPECTED_V4 {
            assert!(periods.v4.contains_key(&asn), "AS{asn} has no v4 period");
        }
        for asn in EXPECTED_V6 {
            assert!(periods.v6.contains_key(&asn), "AS{asn} has no v6 period");
        }
    }

    #[test]
    fn claims_rows_parse() {
        let text = "claim paper measured\n\
            periodic-v4   consistent ... (non-dual-stack v4)  2 simulated networks with a detected v4 period: AS3320@23h, AS2856@327h\n\
            periodic-v6   24h IPv6 ...   0 networks with a detected v6 period: \n";
        assert_eq!(
            parse_claimed_periods(text, "periodic-v4"),
            Some(vec![(3320, 23), (2856, 327)])
        );
        assert_eq!(parse_claimed_periods(text, "periodic-v6"), None);
        assert_eq!(parse_claimed_periods(text, "periodic-v5"), None);
    }

    #[test]
    fn predicate_table_needs_24_passes() {
        let good = format!(
            "Paper-shape self-check (24 of 24 shapes hold):\n\n{}",
            "fig1  x  1h  PASS\n".repeat(24)
        );
        assert!(check_predicates(&good).is_ok());
        let bad = good
            .replacen("PASS", "FAIL", 1)
            .replace("24 of 24", "23 of 24");
        assert!(check_predicates(&bad).is_err());
    }

    #[test]
    fn the_job_is_dynamips_all() {
        assert_eq!(all_artifacts().len(), 22);
        assert_eq!(config().seed, 2020);
    }
}
