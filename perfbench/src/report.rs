//! What a workload run hands back, the metric catalogue, and the JSON
//! line the run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::TraceData;

/// End-to-end metrics, reported by every workload's untraced run, with
/// the share of the median by which each may worsen before a change
/// counts as a regression (as in `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.06),
    ("p50_ms", "ms", 0.25),
];

/// `END_TO_END` without the bounds.
pub fn end_to_end() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
}

/// Per-layer metrics, reported by every workload's traced run (zero where
/// the workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("netsim.world_build_s", "s"),
    ("atlas.collect.self_s", "s"),
    ("atlas.collect.probes", "count"),
    ("core.sanitize.busy_s", "s"),
    ("core.sanitize.clean_ratio", "ratio"),
    ("experiments.atlas_analysis.self_s", "s"),
    ("experiments.histories.busy_s", "s"),
    ("cdn.collect.busy_s", "s"),
    ("cdn.collect.tuples", "count"),
    ("experiments.cdn_analysis.busy_s", "s"),
    ("experiments.render.targetgen_s", "s"),
    ("experiments.render.sanitizer_s", "s"),
    ("experiments.render.pools_s", "s"),
    ("experiments.render.scanplan_s", "s"),
    ("experiments.render.claims_s", "s"),
    ("experiments.render.check_s", "s"),
    ("experiments.render.rest_s", "s"),
    ("experiments.artifact_service.calls", "count"),
    ("experiments.artifact_service.busy_s", "s"),
    ("experiments.artifact_service.p50_us", "us"),
    ("experiments.ipam_service.calls", "count"),
    ("experiments.ipam_service.busy_s", "s"),
    ("experiments.ipam_service.p50_us", "us"),
    ("serve.read_outside_handler_p50_us", "us"),
    ("serve.write_outside_handler_p50_us", "us"),
    ("serve.http.scan_request_ns", "ns"),
    ("serve.http.serialize_response_ns", "ns"),
    ("serve.queue_depth_max", "count"),
    ("serve.keepalive_reuses", "count"),
    ("serve.admission_rejects", "count"),
    ("serve.status_other", "count"),
    ("ipam.grant.calls", "count"),
    ("ipam.grant.busy_s", "s"),
    ("ipam.renew.calls", "count"),
    ("ipam.renew.busy_s", "s"),
    ("ipam.revoke.calls", "count"),
    ("ipam.revoke.busy_s", "s"),
    ("ipam.advance_clock.calls", "count"),
    ("ipam.advance_clock.busy_s", "s"),
    ("ipam.advance_clock.expired", "count"),
    ("ipam.advance_clock.freed", "count"),
    ("ipam.fragmentation_permille", "permille"),
    ("process.cpu_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counts operations and the checks that failed on them. A failed check
/// is a failed operation.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    /// Count `n` operations that went through.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation whose output check failed.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// Count one operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.ok(1),
            Err(msg) => self.fail(msg),
        }
    }
}

/// A finished run: the ledger, the measured metrics by name, and what is
/// printed above the JSON line: notes, and the workload's own end-to-end
/// figures (`figure <name> <value> <unit>`).
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: BTreeMap<&'static str, f64>,
    pub summary: Vec<String>,
    pub figures: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Write a traced run's spans to `target/perfbench/` and say where; a
    /// trace that cannot be written fails the run.
    pub fn write_trace(&mut self, data: &TraceData, workload: &str) {
        let path = std::path::PathBuf::from(format!("target/perfbench/trace-{workload}.tsv"));
        match data.write_tsv(&path) {
            Ok(()) => self.summary.push(format!(
                "trace: {} spans, {} tallies written to {}",
                data.spans.len(),
                data.tallies.len(),
                path.display()
            )),
            Err(e) => self
                .ledger
                .fail(format!("cannot write {}: {e}", path.display())),
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0 && self.ledger.attempted > 0
    }

    /// The closing JSON line: every metric of `catalogue`, zero where the
    /// run did not measure it.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ledger.attempted,
            self.ledger.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest form that round-trips, which is
            // valid JSON for every finite float.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Parse the `metrics` of a closing JSON line back into name → value.
/// Only understands the shape [`Outcome::json`] writes.
pub fn parse_metrics(line: &str) -> Option<BTreeMap<String, f64>> {
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut out = BTreeMap::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let end = after.find('"')?;
        let name = &after[..end];
        let tail = &after[end..];
        let v_at = tail.find("\"value\": ")? + "\"value\": ".len();
        let v_text: String = tail[v_at..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        out.insert(name.to_string(), v_text.parse().ok()?);
        let close = tail.find('}')?;
        rest = &tail[close + 1..];
    }
    Some(out)
}

/// The `correct` and `failed` fields of a closing JSON line.
pub fn parse_verdict(line: &str) -> Option<(bool, u64)> {
    let correct = line.starts_with("{\"correct\": true");
    let at = line.find("\"failed\": ")? + "\"failed\": ".len();
    let failed = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()?;
    Some((correct, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let mut o = Outcome::default();
        o.ledger.ok(3);
        o.metrics.insert("setup_s", 0.8127);
        o.metrics.insert("p50_ms", 1.2e-7);
        let line = o.json(&end_to_end());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        let m = parse_metrics(&line).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["p50_ms"], 1.2e-7);
        assert_eq!(m["peak_rss_mb"], 0.0);
        assert_eq!(parse_verdict(&line), Some((true, 0)));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut l = Ledger::default();
        l.check(Ok(()));
        l.check(Err("bad".into()));
        assert_eq!((l.attempted, l.failed), (2, 1));
        let o = Outcome {
            ledger: l,
            ..Outcome::default()
        };
        assert!(!o.correct());
        assert_eq!(parse_verdict(&o.json(&end_to_end())), Some((false, 1)));
    }

    /// The catalogues here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quote")].to_string())
                .collect()
        };
        let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&end_to_end()));
        let bounds: Vec<String> = text
            .split("\"bound\": ")
            .skip(1)
            .map(|s| s[..s.find('}').expect("brace")].trim().to_string())
            .collect();
        let ours: Vec<String> = END_TO_END.iter().map(|(_, _, b)| b.to_string()).collect();
        assert_eq!(bounds, ours);
        assert_eq!(section("per_layer"), names(&PER_LAYER));
    }
}
