//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Four workloads: `churn_ftn` and `storm_benes` (the discrete-event
//! simulator through `ft_sim::run_sweep`), `serve_storm` (a fresh
//! `ftserve` child driven open-loop over loopback) and `mc_static`
//! (`ft_sim::pair_blocking_estimate` on 𝒩 and on a Beneš network). All
//! inputs are generated from `--seed`.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all.
//! Their times are in reference seconds: wall time divided by how much
//! slower than a reference host the host ran, which a fixed reference
//! run of the benchmark's own code beside the work measures
//! (`util::host_ref`).
//! `--trace 1` is the separate traced run: it probes every layer (crate)
//! with the workload's own scenario, recording one in-memory span per
//! call into a crate's public functions, and prints the per-layer
//! metrics. Spans are written to `perfbench-out/spans-<workload>.ndjson`
//! beside the executable when the run ends.
//!
//! Every run checks the program's outputs; the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics with their units. Diagnostics go to standard error.

mod mc;
mod replay;
mod serve;
mod sim;
mod spans;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use spans::Tracer;

/// Set-up samples (fresh processes, spread over the run) whose
/// interquartile mean is `setup_s`.
pub const SETUP_REPS: usize = 24;

pub const CHURN_FTN: &str = include_str!("../scenarios/churn_ftn.ftsim");
pub const STORM_BENES: &str = include_str!("../scenarios/storm_benes.ftsim");

/// End-to-end metrics (`--trace 0`), name and unit. Every workload
/// reports each one; see `perfbench/README.md` for what each means on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ft-sim.ns_per_event", "ns"),
    ("ft-sim.events", "count"),
    ("ft-sim.faults", "count"),
    ("ft-sim.dropped", "count"),
    ("ft-sim.rerouted", "count"),
    ("ft-sim.moved", "count"),
    ("ft-sim.admit_ratio", "ratio"),
    ("ft-sim.reroute_success", "ratio"),
    ("ft-obs.traced_events_per_s", "1/s"),
    ("ft-obs.trace_ns_per_event", "ns"),
    ("ft-graph.bibfs_pops_per_route", "count"),
    ("ft-graph.epoch_resets", "count"),
    ("ft-networks.connect_ns_p50", "ns"),
    ("ft-networks.connect_ns_p99", "ns"),
    ("ft-networks.connect_ok_ratio", "ratio"),
    ("ft-networks.disconnect_ns_p50", "ns"),
    ("ft-networks.kill_wave_ns", "ns"),
    ("ft-networks.revive_ns", "ns"),
    ("ft-networks.mincost_wave_ns", "ns"),
    ("ft-networks.killed", "count"),
    ("bench.span_ns_per_call", "ns"),
    ("bench.host_ref_ms", "ms"),
    ("ft-failure.sample_ns_per_block", "ns"),
    ("ft-failure.failed_switches_per_block", "count"),
    ("ft-core.survivor_ns_per_block", "ns"),
    ("ft-graph.sliced_reach_ns_per_block", "ns"),
    ("ft-graph.sliced_pops_per_block", "count"),
    ("ft-graph.sliced_lane_decisions", "count"),
    ("ft-serve.decode_ns", "ns"),
    ("ft-serve.encode_ns", "ns"),
    ("ft-serve.engine_ns_per_op", "ns"),
    ("ft-serve.inproc_p50_us", "us"),
    ("ft-serve.tcp_p50_us", "us"),
    ("ft-serve.tcp_p99_us", "us"),
    ("ft-serve.tcp_p999_us", "us"),
    ("ft-serve.tcp_samples", "count"),
    ("ft-serve.loopback_rtt_us", "us"),
    ("ft-serve.saturation_per_s", "1/s"),
    ("ft-serve.server_cpu_us_per_op", "us"),
    ("ft-serve.shed", "count"),
    ("ft-serve.deadline_expired", "count"),
    ("ft-serve.backlog_max", "count"),
    ("gen.late_us_p50", "us"),
    ("gen.late_us_p99", "us"),
];

/// Metric values in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Cores available when the run started (later CPU pinning narrows
/// what the OS reports): one simulator worker per core.
pub fn threads() -> usize {
    util::allowed_cpus().len().max(1)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Sim,
    Serve,
    Mc,
}

/// A workload: what its end-to-end run drives, and the scenario its
/// traced run probes the layers with.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    scenario: &'static str,
    /// Seeds the ft-sim probe runs (fixed, so its counters repeat).
    probe_seeds: u64,
    /// Stream events the router replay takes (fixed, same reason).
    replay_events: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "churn_ftn",
        kind: Kind::Sim,
        scenario: CHURN_FTN,
        probe_seeds: 2,
        replay_events: 30_000,
    },
    Workload {
        name: "storm_benes",
        kind: Kind::Sim,
        scenario: STORM_BENES,
        probe_seeds: 4,
        replay_events: 60_000,
    },
    Workload {
        name: "serve_storm",
        kind: Kind::Serve,
        scenario: STORM_BENES,
        probe_seeds: 4,
        replay_events: 60_000,
    },
    // Static Monte Carlo has no traffic of its own; its traced run
    // probes the traffic layers with churn_ftn's scenario on 𝒩, the
    // fabric of its first part.
    Workload {
        name: "mc_static",
        kind: Kind::Mc,
        scenario: CHURN_FTN,
        probe_seeds: 2,
        replay_events: 30_000,
    },
];

/// Scenario text with its simulated duration overridden (the scenario
/// grammar keeps the last value of a repeated key).
fn with_duration(text: &str, duration: Option<f64>) -> String {
    match duration {
        Some(d) => format!("{text}\nduration = {d}\n"),
        None => text.to_string(),
    }
}

/// Runs one workload. `duration` shrinks the scenarios (the benchmark's
/// own tests run at toy size); `None` runs them as written.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, duration: Option<f64>) -> Outcome {
    let text = with_duration(w.scenario, duration);
    if !trace {
        return match w.kind {
            Kind::Sim => sim::e2e(w.name, &text, seed, seconds),
            Kind::Serve => serve::e2e(&text, seed, seconds),
            Kind::Mc => mc::e2e(seed, seconds),
        };
    }
    let mut tr = Tracer::new(Instant::now());
    let mut metrics = Metrics::new();
    let (scenario, fabric) = sim::setup(&text);
    // The host's speed during this run: per-layer times are wall times.
    util::host_ref_ready();
    let refs: Vec<f64> = (0..9).map(|_| util::host_ref(threads())).collect();
    metrics.push("bench.host_ref_ms", util::median(&refs) * 1e3);
    let root = tr.begin("perfbench(trace)");

    let id = tr.begin("ft-sim probe");
    let mut failed = sim::probe(
        w.name,
        &scenario,
        &fabric,
        seed,
        w.probe_seeds,
        &mut tr,
        &mut metrics,
    );
    let mut attempted = w.probe_seeds;
    tr.end(id);

    let mut stream = ft_sim::export_stream(&scenario, sim::seed_block(seed));
    stream.truncate(w.replay_events);
    let (a, f) = replay::probe(&fabric, &stream, &mut tr, &mut metrics);
    attempted += a;
    failed += f;

    let id = tr.begin("mc probe");
    let (a, f) = mc::probe(seed, &mut tr, &mut metrics);
    tr.end(id);
    attempted += a;
    failed += f;

    let id = tr.begin("ft-serve probe");
    let serve_s = if duration.is_some() { 0.1 } else { 1.0 };
    let (a, f) = serve::probe(w.name, &text, seed, serve_s, &mut tr, &mut metrics);
    tr.end(id);
    attempted += a;
    failed += f;
    tr.end(root);

    let path = util::out_dir().join(format!("spans-{}.ndjson", w.name));
    if let Err(e) = tr.write_ndjson(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    let mut by_self: Vec<_> = tr.self_times().into_iter().collect();
    by_self.sort_by_key(|&(_, (_, _, own))| std::cmp::Reverse(own));
    eprintln!("perfbench: {} spans; self time by call:", tr.len());
    for (name, (calls, total, own)) in by_self {
        eprintln!(
            "  {name:<40} calls {calls:>8}  total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Renders the result line. A metric that is missing, unnamed in the
/// tables, or not a finite number makes the run incorrect.
pub fn render(outcome: &Outcome, trace: bool) -> (String, bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut parts = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("perfbench: metric {name} is {other:?}");
                correct = false;
                0.0
            }
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, _) in &outcome.metrics.0 {
        if !table.iter().any(|(n, _)| n == name) {
            eprintln!("perfbench: metric {name} is not in the metric table");
            correct = false;
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    );
    (line, correct)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `--setup-probe WORKLOAD`: one set-up of the workload in this fresh
/// process; prints its time in reference seconds. The host-speed
/// reference runs afterwards, so the set-up still meets a cold heap.
fn setup_probe(name: &str) -> ExitCode {
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        return ExitCode::from(2);
    };
    let t = Instant::now();
    if w.kind == Kind::Mc {
        std::hint::black_box(mc::setup());
    } else {
        std::hint::black_box(sim::setup(w.scenario));
    }
    let wall = util::secs(t);
    util::host_ref_ready();
    util::host_ref(1); // warm-up
    let slow = util::slowdown(util::host_ref(1), util::host_ref(1));
    println!("{}", wall / slow);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--setup-probe" {
        return setup_probe(&argv[2]);
    }
    if argv.len() == 5 && argv[1] == "--mc-part" {
        let (Ok(base), Ok(seconds), Ok(reps)) = (argv[2].parse(), argv[3].parse(), argv[4].parse())
        else {
            return ExitCode::from(2);
        };
        util::allowed_cpus();
        mc::part(base, seconds, reps);
        return ExitCode::SUCCESS;
    }
    util::allowed_cpus(); // before any pinning
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {})",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads()
    );
    let outcome = run(&args.workload, args.seed, args.seconds, args.trace, None);
    let (line, _) = render(&outcome, args.trace);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy-size simulated duration for the scenarios.
    const TOY: Option<f64> = Some(20.0);

    fn check(w: &Workload, trace: bool) {
        let outcome = run(w, 7, 0.3, trace, TOY);
        let (line, correct) = render(&outcome, trace);
        assert!(correct, "{} trace {trace}: {line}", w.name);
        let table = if trace { PER_LAYER } else { END_TO_END };
        if !trace {
            for (name, _) in END_TO_END {
                let v = outcome.metrics.get(name).unwrap_or(0.0);
                assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", w.name);
            }
        }
        for (name, unit) in table {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }

    #[test]
    fn every_workload_end_to_end_at_toy_size() {
        for w in &WORKLOADS {
            check(w, false);
        }
    }

    #[test]
    fn every_workload_traced_at_toy_size() {
        for w in &WORKLOADS {
            check(w, true);
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\": ").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
