//! The repository's benchmark: private inference and serving through the
//! product's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resnet18-n4096|resnet18-n256|serve-conv> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are [`END_TO_END`]; with `--trace 1` they are [`PER_LAYER`],
//! and the spans go to `perfbench/out/`. The process exits non-zero when
//! any correctness check fails. `perfbench/RECORD.md` says why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

mod affinity;
mod common;
mod infer;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics with their units, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("within_slo_frac", "frac"),
    ("saturated_rps", "1/s"),
    ("comm_bytes_per_op", "bytes"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, printed by every traced run. A
/// layer a workload does not exercise reads 0 there. The latency tails
/// come first: they are end-to-end figures, but on a 2-vCPU VM their
/// run-to-run spread is wider than any regression bound could be, so
/// they are reported without one.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_ms_p90", "ms"),
    ("latency_ms_p99", "ms"),
    ("accel.conv_ms", "ms"),
    ("accel.conv_stride2_ms", "ms"),
    ("accel.unattributed_ms", "ms"),
    ("hconv.ct_up", "count"),
    ("hconv.ct_down", "count"),
    ("hconv.weight_transforms", "count"),
    ("hconv.sparse_weight_frac", "frac"),
    ("hconv.guard_fallback_frac", "frac"),
    ("hconv.pointwise_muls", "count"),
    ("hconv.wire_overhead_frac", "frac"),
    ("nl.relu_requant_ms", "ms"),
    ("nl.maxpool_ms", "ms"),
    ("nl.requant_ms", "ms"),
    ("nl.relu_ms", "ms"),
    ("nl.avgpool_global_ms", "ms"),
    ("nl.fc_ms", "ms"),
    ("nl.argmax_ms", "ms"),
    ("nl.messages", "count"),
    ("nl.compare_rounds", "count"),
    ("nl.wire_bytes", "bytes"),
    ("transport.frames_retried", "count"),
    ("transport.faults_detected", "count"),
    ("he.encrypt_us", "us"),
    ("he.decrypt_us", "us"),
    ("he.serialize_us", "us"),
    ("he.deserialize_us", "us"),
    ("serve.ingest_us_p50", "us"),
    ("serve.ingest_us_p99", "us"),
    ("serve.server_ms_p99", "ms"),
    ("serve.mean_batch.light", "count"),
    ("serve.mean_batch.saturated", "count"),
    ("serve.occupancy", "frac"),
    ("serve.refused", "count"),
    ("serve.retries", "count"),
    ("serve.register_ms", "ms"),
    ("serve.client_prepare_ms", "ms"),
    ("serve.client_collect_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("runtime.pool_hit_rate", "frac"),
    ("runtime.cache_misses_timed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_sum_ratio", "ratio"),
    ("failed_frac", "frac"),
];

/// The workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = ["resnet18-n4096", "resnet18-n256", "serve-conv"];

/// Metric values by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// One run's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run whose set-up failed before anything was measured.
    pub fn failed() -> Self {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }
}

/// Fills every per-layer metric a workload did not measure with 0.
///
/// # Panics
///
/// Panics on a metric name outside [`PER_LAYER`].
pub fn with_absent_layers(measured: Metrics) -> Metrics {
    for (name, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1);
            (name, v)
        })
        .collect()
}

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A smaller network and fleet, one set-up: the self-tests' size.
    pub tiny: bool,
}

impl Run {
    /// Set-up repetitions; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.tiny {
            1
        } else {
            5
        }
    }

    /// How long the run measures.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Writes the run's spans under `perfbench/out/`.
    pub fn write_trace(&self, tr: &trace::Tracer) {
        if self.tiny {
            return;
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("{} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    /// Runs the workload.
    pub fn execute(&self) -> Outcome {
        match self.workload.as_str() {
            "resnet18-n4096" => infer::run(&infer::resnet18_n4096(), self),
            "resnet18-n256" => infer::run(&infer::resnet18_n256(), self),
            "serve-conv" => serve::run(self),
            other => unreachable!("unknown workload {other}"),
        }
    }
}

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(run.seconds.is_finite() && run.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(run)
}

/// The result line, with every metric's unit from the catalog.
///
/// # Panics
///
/// Panics when the metrics are not exactly the catalog of the run's mode
/// or a value is not finite: both are bugs in the benchmark.
fn result_json(out: &Outcome, trace: bool) -> String {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    if !out.metrics.is_empty() {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = catalog.iter().map(|m| m.0).collect();
        let (mut a, mut b) = (names.clone(), expected.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "metrics must match the catalog");
        for &(name, unit) in catalog {
            let v = out
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .expect("checked above")
                .1;
            assert!(v.is_finite(), "{name} = {v}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run.execute();
    println!("{}", result_json(&out, run.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().expect("name").to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        let json = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\"")),
                "{w} declared"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run = parse(&args(
            "--workload serve-conv --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 3.0, true));
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload serve-conv --trace 2")).is_err());
        assert!(parse(&args("--workload serve-conv --seconds 0")).is_err());
        assert!(parse(&args("--workload serve-conv --seed")).is_err());
    }

    /// A tiny run of every workload, untraced and traced, passes its
    /// correctness checks and prints every named metric.
    #[test]
    fn tiny_runs_print_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = Run {
                    workload: workload.into(),
                    seed: 3,
                    seconds: 0.3,
                    trace,
                    tiny: true,
                };
                let out = run.execute();
                assert!(out.correct, "{workload} trace={trace}");
                assert_eq!(out.failed, 0);
                let line = result_json(&out, trace);
                let catalog = if trace { PER_LAYER } else { END_TO_END };
                for (name, unit) in catalog {
                    let field = format!("\"{name}\": {{\"value\": ");
                    assert!(
                        line.contains(&field),
                        "{workload}: {name} missing from {line}"
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
            }
        }
    }
}
