//! The simulator workloads (`churn_ftn`, `storm_benes`) and the ft-sim
//! layer probe of the traced run.

use std::time::Instant;

use ft_sim::{run_seed_obs, run_seed_with, run_sweep, Fabric, Scenario, SeedOutcome, SimWorkspace};

use crate::spans::Tracer;
use crate::util::{
    exact_counters_repeat, host_ref, host_ref_ready, median, ratio, secs, self_peak_rss_mb,
    slowdown, SetupSamples,
};
use crate::{Metrics, Outcome};

/// Parses the scenario text and builds its fabric — the set-up an
/// `ftsim` user pays before the first event.
pub fn setup(text: &str) -> (Scenario, Fabric) {
    let scenario = Scenario::parse(text).expect("benchmark scenario parses");
    let fabric = scenario.fabric.build();
    (scenario, fabric)
}

/// The simulator seeds derived from the benchmark seed: disjoint
/// blocks of a million per benchmark seed.
pub fn seed_block(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(1)
}

/// The conservation laws every seed's counters must satisfy.
pub fn conserves(o: &SeedOutcome) -> bool {
    let m = &o.metrics;
    m.offered == m.connected + m.blocked + m.rejected_busy + m.shed
        && m.dropped == m.rerouted + m.abandoned
}

/// The counters that must repeat bit-for-bit for a given seed.
pub fn exact_counters(o: &SeedOutcome) -> Vec<(&'static str, u64)> {
    let m = &o.metrics;
    vec![
        ("fingerprint", o.fingerprint),
        ("events", o.events),
        ("offered", m.offered),
        ("connected", m.connected),
        ("faults", m.faults),
        ("dropped", m.dropped),
        ("rerouted", m.rerouted),
        ("moved", m.moved),
        ("bibfs_pops", o.kernel.bibfs_pops),
        ("epoch_resets", o.kernel.epoch_resets),
    ]
}

/// End-to-end run: seeds through `ft_sim::run_sweep`, one worker per
/// core, one seed per worker per batch, until `seconds` have passed,
/// with a host-speed reference run before each batch and after the
/// last. Throughput is the median over batches of events per
/// reference second; latency the median batch time in reference
/// seconds.
pub fn e2e(workload: &'static str, text: &str, seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = SetupSamples::new(workload, seconds, crate::SETUP_REPS);
    let (scenario, fabric) = setup(text);
    let threads = crate::threads();
    let cfg = &scenario.config;
    let mut next = seed_block(seed);
    let mut batch_s = Vec::new();
    let mut batch_events = Vec::new();
    let mut outcomes = Vec::new();
    host_ref_ready();
    let mut refs = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds {
        setup_s.tick(secs(start));
        refs.push(host_ref(threads));
        let seeds: Vec<u64> = (next..next + threads as u64).collect();
        next += threads as u64;
        let t = Instant::now();
        let outs = run_sweep(&fabric, cfg, &seeds, threads);
        batch_s.push(secs(t));
        batch_events.push(outs.iter().map(|o| o.events).sum::<u64>() as f64);
        outcomes.extend(outs);
    }
    refs.push(host_ref(threads));
    let slow: Vec<f64> = refs.windows(2).map(|r| slowdown(r[0], r[1])).collect();
    let ref_s: Vec<f64> = batch_s.iter().zip(&slow).map(|(t, f)| t / f).collect();
    let ref_rate: Vec<f64> = batch_events
        .iter()
        .zip(&ref_s)
        .map(|(e, t)| e / t)
        .collect();
    let events: f64 = batch_events.iter().sum();
    let busy_s: f64 = batch_s.iter().sum();

    // Output checks, outside the timed region.
    let mut failed = 0u64;
    let single = run_sweep(&fabric, cfg, &[outcomes[0].seed], 1);
    for (i, o) in outcomes.iter().enumerate() {
        let mut ok = conserves(o);
        if i == 0 && single[0] != *o {
            eprintln!(
                "perfbench: seed {} differs between 1 and {threads} workers",
                o.seed
            );
            ok = false;
        }
        ok &= exact_counters_repeat(&format!("{workload}-{}", o.seed), &exact_counters(o));
        failed += u64::from(!ok);
    }
    eprintln!(
        "perfbench: {workload}: {} seeds in {} batches, {events} events in {busy_s:.3} s busy, batch p50 {:.3} s wall, {:.3} s reference; host slowdown p50 {:.3}",
        outcomes.len(),
        batch_s.len(),
        median(&batch_s),
        median(&ref_s),
        median(&slow)
    );
    let mut metrics = Metrics::new();
    metrics.push("setup_s", setup_s.value());
    metrics.push("throughput_per_s", median(&ref_rate));
    metrics.push("latency_p50_us", median(&ref_s) * 1e6);
    metrics.push("peak_rss_mb", self_peak_rss_mb());
    Outcome {
        attempted: outcomes.len() as u64,
        failed,
        metrics,
    }
}

/// Traced-run probe of the simulator: each of `seeds` seeds runs once
/// untraced (`run_seed_with`) and once through `run_seed_obs` with an
/// `ft_obs::TraceBuf`, one thread, each call in its own span, the order
/// alternating from seed to seed. Fills the
/// `ft-sim.*`, `ft-obs.*` and bibfs `ft-graph.*` metrics; returns the
/// number of failed checks (traced and untraced outcomes must match).
pub fn probe(
    workload: &str,
    scenario: &Scenario,
    fabric: &Fabric,
    seed: u64,
    seeds: u64,
    tr: &mut Tracer,
    metrics: &mut Metrics,
) -> u64 {
    let cfg = &scenario.config;
    let mut ws = SimWorkspace::default();
    let mut failed = 0u64;
    let (mut events, mut offered, mut connected) = (0u64, 0u64, 0u64);
    let (mut faults, mut dropped, mut rerouted, mut moved) = (0u64, 0u64, 0u64, 0u64);
    let (mut pops, mut resets) = (0u64, 0u64);
    for (i, s) in (seed_block(seed)..seed_block(seed) + seeds).enumerate() {
        // Alternate which mode runs first (ABBA), so warm-up and drift
        // do not all land on one side of the traced − untraced gap.
        let mut plain = None;
        let mut traced = None;
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            if traced_turn {
                let id = tr.begin("ft_sim::run_seed_obs(TraceBuf)");
                let mut buf = ft_obs::TraceBuf::new();
                buf.begin_seed(s);
                let out = run_seed_obs(fabric, cfg, s, &mut ws, &mut buf);
                tr.end(id);
                traced = Some((out, buf.lines()));
            } else {
                let id = tr.begin("ft_sim::run_seed_with");
                plain = Some(run_seed_with(fabric, cfg, s, &mut ws));
                tr.end(id);
            }
        }
        let (plain, (traced, lines)) = (plain.expect("untraced run"), traced.expect("traced run"));
        let ok = traced == plain
            && conserves(&plain)
            && lines > plain.events / 2
            && exact_counters_repeat(&format!("{workload}-probe-{s}"), &exact_counters(&plain));
        if !ok {
            eprintln!("perfbench: sim probe seed {s}: traced/untraced mismatch or broken law");
        }
        failed += u64::from(!ok);
        let m = &plain.metrics;
        events += plain.events;
        offered += m.offered;
        connected += m.connected;
        faults += m.faults;
        dropped += m.dropped;
        rerouted += m.rerouted;
        moved += m.moved;
        pops += plain.kernel.bibfs_pops;
        resets += plain.kernel.epoch_resets;
    }
    let plain_ns = tr.total_ns("ft_sim::run_seed_with");
    let traced_ns = tr.total_ns("ft_sim::run_seed_obs(TraceBuf)");
    let ev = events as f64;
    metrics.push("ft-sim.ns_per_event", plain_ns / ev);
    metrics.push("ft-sim.events", ev);
    metrics.push("ft-sim.faults", faults as f64);
    metrics.push("ft-sim.dropped", dropped as f64);
    metrics.push("ft-sim.rerouted", rerouted as f64);
    metrics.push("ft-sim.moved", moved as f64);
    metrics.push(
        "ft-sim.admit_ratio",
        ratio(connected as f64, offered as f64, 1.0),
    );
    metrics.push(
        "ft-sim.reroute_success",
        ratio(rerouted as f64, dropped as f64, 1.0),
    );
    metrics.push("ft-obs.traced_events_per_s", ev / (traced_ns * 1e-9));
    metrics.push("ft-obs.trace_ns_per_event", (traced_ns - plain_ns) / ev);
    metrics.push(
        "ft-graph.bibfs_pops_per_route",
        ratio(pops as f64, connected as f64, 0.0),
    );
    metrics.push("ft-graph.epoch_resets", resets as f64);
    failed
}
