//! The static Monte Carlo workload (`mc_static`) and the probe of the
//! sliced sampler, the §4 `Survivor` repair and the sliced reach kernel.

use std::time::Instant;

use ft_failure::sliced::LANES;
use ft_failure::{block_seed, Estimate, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::Direction;
use ft_graph::{Digraph, VertexId};
use ft_sim::{pair_blocking_estimate, pair_blocking_estimate_scalar, Fabric, FabricSpec};
use rand::Rng;

use crate::sim::seed_block;
use crate::spans::Tracer;
use crate::util::{
    exact_counters_repeat, host_ref, host_ref_ready, interquartile_mean, mean, median, secs,
    self_peak_rss_mb, sibling_binary, slowdown, SetupSamples,
};
use crate::{Metrics, Outcome};

/// The two equal-trial parts: 𝒩 (ν = 2) at ε = 1e-3 and a 1024-terminal
/// Beneš network at ε = 1e-2. Both are below the sampler's dense cutoff,
/// where the sliced estimate equals the scalar reference exactly.
pub const PARTS: [(&str, f64); 2] = [("ftn 2 8 8 1.0", 1e-3), ("benes 10", 1e-2)];

/// Trials per part in one estimate (8 blocks of 64 lanes).
pub const TRIALS_PER_PART: u64 = 512;

pub fn setup() -> Vec<(Fabric, FailureModel)> {
    PARTS
        .iter()
        .map(|&(spec, eps)| {
            let fabric = FabricSpec::parse(spec).expect("fabric spec parses").build();
            (fabric, FailureModel::symmetric(eps))
        })
        .collect()
}

/// Fresh processes one end-to-end run is split into, one after the
/// other. A process's speed on this workload depends on where its
/// memory landed: on a 2-vCPU VM, 25 s windows of one process agreed
/// within 0.02 (quartile spread in reference time), while separate
/// 25 s processes spread 0.13. The run reports the mean over its
/// processes.
pub const PROCESSES: usize = 10;

/// Unit seeds each process's block of seeds is apart.
const PROCESS_SEEDS: u64 = 100_000;

/// End-to-end run: `PROCESSES` fresh processes (`part`), each for an
/// equal share of `seconds` with its own block of unit seeds. Throughput
/// and latency are the means over the processes, `setup_s` the
/// interquartile mean of all their set-up samples, `peak_rss_mb` the
/// largest process's.
pub fn e2e(seed: u64, seconds: f64) -> Outcome {
    let base = seed_block(seed);
    let reps = crate::SETUP_REPS.div_ceil(PROCESSES);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rates, mut unit_us, mut rss, mut setup) = (vec![], vec![], vec![], vec![]);
    for k in 0..PROCESSES {
        let out = std::process::Command::new(sibling_binary("perfbench"))
            .arg("--mc-part")
            .arg((base + k as u64 * PROCESS_SEEDS).to_string())
            .arg((seconds / PROCESSES as f64).to_string())
            .arg(reps.to_string())
            .stderr(std::process::Stdio::inherit())
            .output();
        let fields: Option<Vec<f64>> = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect()
        });
        match fields {
            Some(f) if f.len() > 5 => {
                attempted += f[0] as u64;
                failed += f[1] as u64;
                rates.push(f[2]);
                unit_us.push(f[3]);
                rss.push(f[4]);
                setup.extend_from_slice(&f[5..]);
            }
            _ => {
                eprintln!("perfbench: mc_static process {k} failed");
                attempted += 1;
                failed += 1;
            }
        }
    }
    let setup_s = if setup.iter().any(|t| t.is_nan()) {
        f64::NAN
    } else {
        interquartile_mean(&setup)
    };
    eprintln!(
        "perfbench: mc_static: by process, trials per reference second {rates:.0?}, unit p50 {unit_us:.0?} reference µs"
    );
    let mut metrics = Metrics::new();
    metrics.push("setup_s", setup_s);
    metrics.push("throughput_per_s", mean(&rates));
    metrics.push("latency_p50_us", mean(&unit_us));
    metrics.push("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max));
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// One process of the end-to-end run (`perfbench --mc-part BASE SECONDS
/// REPS`): batches of one unit (both parts) per core, each unit on its
/// own thread with its own seed from `base` on, until `seconds` have
/// passed, with a host-speed reference run before each batch and after
/// the last, and `setup_reps` set-up samples spread over it. The sliced
/// estimates of the first and last unit are checked against
/// `pair_blocking_estimate_scalar` afterwards. Prints one line:
/// attempted and failed blocks, workers times the median over units of
/// trials per reference second, the median unit time in reference µs,
/// peak RSS in MiB, then the set-up samples.
pub fn part(base: u64, seconds: f64, setup_reps: usize) {
    let mut setup_s = SetupSamples::new("mc_static", seconds, setup_reps);
    let parts = setup();
    let workers = crate::threads();
    let mut next = base;
    // Per unit: seed, wall seconds, batch index, estimates.
    let mut timed: Vec<(u64, f64, usize, Vec<Estimate>)> = Vec::new();
    host_ref_ready();
    let mut refs = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds {
        setup_s.tick(secs(start));
        refs.push(host_ref(workers));
        let batch = refs.len() - 1;
        std::thread::scope(|sc| {
            let handles: Vec<_> = (next..next + workers as u64)
                .map(|s| {
                    let parts = &parts;
                    sc.spawn(move || {
                        let t = Instant::now();
                        let est: Vec<Estimate> = parts
                            .iter()
                            .map(|(f, m)| pair_blocking_estimate(f, m, TRIALS_PER_PART, s))
                            .collect();
                        (s, secs(t), batch, est)
                    })
                })
                .collect();
            for h in handles {
                timed.push(h.join().expect("Monte Carlo worker"));
            }
        });
        next += workers as u64;
    }
    refs.push(host_ref(workers));
    let slow: Vec<f64> = timed
        .iter()
        .map(|u| slowdown(refs[u.2], refs[u.2 + 1]))
        .collect();
    let wall_s: Vec<f64> = timed.iter().map(|u| u.1).collect();
    let unit_s: Vec<f64> = wall_s.iter().zip(&slow).map(|(t, f)| t / f).collect();
    let units: Vec<(u64, Vec<Estimate>)> = timed.into_iter().map(|(s, _, _, e)| (s, e)).collect();
    let busy_s: f64 = unit_s.iter().sum();
    let trials = units.len() as u64 * TRIALS_PER_PART * parts.len() as u64;
    let blocks_per_unit = TRIALS_PER_PART / LANES as u64 * parts.len() as u64;

    let mut failed = 0u64;
    let mut checked = vec![&units[0]];
    if units.len() > 1 {
        checked.push(&units[units.len() - 1]);
    }
    for (s, est) in checked {
        let scalar: Vec<Estimate> = parts
            .iter()
            .map(|(f, m)| pair_blocking_estimate_scalar(f, m, TRIALS_PER_PART, *s))
            .collect();
        let counters: Vec<(&str, u64)> = est
            .iter()
            .zip(["ftn_blocked", "benes_blocked"])
            .map(|(e, k)| (k, e.successes))
            .collect();
        let ok = scalar == *est && exact_counters_repeat(&format!("mc_static-{s}"), &counters);
        if !ok {
            eprintln!("perfbench: mc unit seed {s}: sliced {est:?} vs scalar {scalar:?}");
            failed += blocks_per_unit;
        }
    }
    eprintln!(
        "perfbench: mc_static: {} units ({trials} trials) in {busy_s:.3} reference s, unit p50 {:.3} ms wall, {:.3} ms reference; host slowdown p50 {:.3}",
        units.len(),
        median(&wall_s) * 1e3,
        median(&unit_s) * 1e3,
        median(&slow)
    );
    let per_unit = (TRIALS_PER_PART * parts.len() as u64) as f64;
    let rates: Vec<f64> = unit_s
        .iter()
        .map(|t| workers as f64 * per_unit / t)
        .collect();
    let mut line = format!(
        "{} {failed} {} {} {}",
        units.len() as u64 * blocks_per_unit,
        median(&rates),
        median(&unit_s) * 1e6,
        self_peak_rss_mb()
    );
    for t in setup_s.samples() {
        line += &format!(" {t}");
    }
    println!("{line}");
}

/// Salt of the probe's terminal-pair stream (independent of the
/// failure sample drawn from the block seed).
const PROBE_PAIR_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Blocks per part in the probe (fixed, so the exact counters repeat).
pub const PROBE_BLOCKS: u64 = 24;

/// Traced-run probe: `PROBE_BLOCKS` 64-lane blocks per part, each split
/// into the three public calls of the estimator's block loop —
/// `FailureModel::sample_sliced_into`, `Fabric::alive_words_into` and
/// `sliced_reach_into` — each in its own span under a block span. Lane 0
/// of every block's alive words is checked against the scalar
/// `Fabric::alive_mask_into` of the unpacked lane. Returns `(checked
/// blocks, failed blocks)`.
pub fn probe(seed: u64, tr: &mut Tracer, metrics: &mut Metrics) -> (u64, u64) {
    let parts = setup();
    let mut failed = 0u64;
    let mut sliced = SlicedFailureMask::new();
    let mut sws = SlicedWorkspace::new();
    let mut alive = Vec::new();
    let mut lane_alive = Vec::new();
    let mut sources: Vec<(VertexId, u64)> = Vec::with_capacity(LANES);
    let mut failed_switches = Vec::new();
    let mut exact: Vec<(&str, u64)> = Vec::new();
    let (mut reach_ns, mut pops) = (Vec::new(), Vec::new());
    let mut decisions = 0u64;
    for (part, (fabric, model)) in parts.iter().enumerate() {
        let net = fabric.net();
        let n = fabric.terminals();
        let m = net.num_edges();
        let csr = net.csr();
        let first = reach_ns.len();
        let mut lane_inst = FailureInstance::perfect(m);
        for b in 0..PROBE_BLOCKS {
            let bs = block_seed(seed_block(seed), b);
            let block = tr.begin("block");
            let mut rng = ft_graph::gen::rng(bs);
            let id = tr.begin("ft_failure::sample_sliced_into");
            model.sample_sliced_into(&mut rng, m, &mut sliced);
            tr.end(id);
            let id = tr.begin(if part == 0 {
                "ft_core::Survivor(alive_words_into)"
            } else {
                "ft_sim::alive_words_into"
            });
            fabric.alive_words_into(&sliced, &mut alive);
            tr.end(id);
            let mut pair_rng = ft_graph::gen::rng(bs ^ PROBE_PAIR_SALT);
            sources.clear();
            for lane in 0..LANES {
                let src = net.inputs()[pair_rng.random_range(0..n)];
                match sources.iter_mut().find(|(v, _)| *v == src) {
                    Some((_, lanes)) => *lanes |= 1 << lane,
                    None => sources.push((src, 1 << lane)),
                }
            }
            sws.reset_stats();
            let id = tr.begin("ft_graph::sliced_reach_into");
            sliced_reach_into(
                csr,
                &sources,
                Direction::Forward,
                |_| !0,
                |v| alive[v.index()],
                &mut sws,
            );
            tr.end(id);
            tr.end(block);
            let stats = sws.stats();
            pops.push(stats.sliced_pops as f64);
            decisions += stats.sliced_lane_decisions;
            if part == 1 {
                failed_switches.push(sliced.iter_failed_switches().count() as f64);
            }

            // Check, outside the spans: lane 0 matches the scalar repair.
            sliced.extract_lane_into(0, lane_inst.mask_mut());
            fabric.alive_mask_into(&lane_inst, &mut lane_alive);
            if lane_alive
                .iter()
                .zip(&alive)
                .any(|(&a, &w)| a != (w & 1 == 1))
            {
                eprintln!("perfbench: mc probe part {part} block {b}: lane 0 alive mask differs");
                failed += 1;
            }
        }
        reach_ns.extend(tr.durations_ns("ft_graph::sliced_reach_into")[first..].iter());
        exact.push((
            if part == 0 {
                "ftn_sliced_pops"
            } else {
                "benes_sliced_pops"
            },
            pops[first..].iter().sum::<f64>() as u64,
        ));
    }
    exact.push(("lane_decisions", decisions));
    exact.push((
        "benes_failed_switches",
        failed_switches.iter().sum::<f64>() as u64,
    ));
    if !exact_counters_repeat(&format!("mc-probe-{seed}"), &exact) {
        failed += 1;
    }
    let blocks = PROBE_BLOCKS as f64;
    metrics.push(
        "ft-failure.sample_ns_per_block",
        tr.durations_ns("ft_failure::sample_sliced_into")[PROBE_BLOCKS as usize..]
            .iter()
            .sum::<f64>()
            / blocks,
    );
    metrics.push(
        "ft-failure.failed_switches_per_block",
        mean(&failed_switches),
    );
    metrics.push(
        "ft-core.survivor_ns_per_block",
        tr.total_ns("ft_core::Survivor(alive_words_into)") / blocks,
    );
    metrics.push("ft-graph.sliced_reach_ns_per_block", mean(&reach_ns));
    metrics.push("ft-graph.sliced_pops_per_block", mean(&pops));
    metrics.push("ft-graph.sliced_lane_decisions", decisions as f64);
    (PROBE_BLOCKS * parts.len() as u64, failed)
}
