//! CI smoke: flow-kernel portfolio and route-search cross-check.
//!
//! Three guarantees, checked over the committed fabric families:
//!
//! 1. **Kernel agreement** — Dinic and FIFO push-relabel return the same
//!    vertex-disjoint-path count on every fabric, on the full
//!    input→output cut and under deterministic random idle masks, and
//!    the `Auto` selector's pick agrees with both (it *is* one of
//!    them). The portfolio is the oracle: every kernel must agree.
//! 2. **Route search = forward BFS** — under the same idle masks, for
//!    every terminal pair, `CircuitRouter::connect` (the first-hit
//!    depth-first route search) returns exactly the path, or the
//!    blocked verdict, of a full forward `bfs_into`.
//! 3. **Mincost-reroute determinism** — a storm scenario with
//!    `reroute = mincost` produces byte-identical per-seed event
//!    streams (event counts and FNV fingerprints) on 1 and 4 worker
//!    threads, same as the greedy path the determinism goldens pin.
//!
//! Exits nonzero (assert) on any mismatch.

use ft_graph::maxflow::{vertex_disjoint_paths_into, DisjointOptions, FlowKernel, FlowWorkspace};
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::{StagedNetwork, TraversalWorkspace, VertexId};
use ft_networks::{CircuitRouter, RouteError};
use ft_sim::{
    run_sweep, Fabric, FaultSpec, HoldingTime, RerouteMode, RetryPolicy, SimConfig, TrafficPattern,
};
use rand::Rng;

fn fabrics() -> Vec<Fabric> {
    vec![
        Fabric::crossbar(4),
        Fabric::clos_strict(2, 3),
        Fabric::clos_rearrangeable(2, 2),
        Fabric::benes(3),
        Fabric::multibutterfly(3, 2, 7),
        Fabric::ftn_reduced(1, 8, 4, 1.0),
    ]
}

/// The all-idle mask, then eight deterministic random idle masks.
fn idle_masks(net: &StagedNetwork) -> Vec<Vec<bool>> {
    let n = net.graph().num_vertices();
    let mut rng = ft_graph::gen::rng(41);
    std::iter::once(vec![true; n])
        .chain((0..8).map(|_| (0..n).map(|_| rng.random_bool(0.8)).collect()))
        .collect()
}

/// Checks every terminal pair's `connect` against the forward BFS
/// under `idle`, adding (pairs, blocked, search pops, BFS pops) to
/// `tally`.
fn route_search_matches_bfs(net: &StagedNetwork, idle: &[bool], tally: &mut [u64; 4]) {
    let csr = net.csr();
    let mut router = CircuitRouter::with_alive_mask(net, idle.to_vec());
    let mut ws = TraversalWorkspace::new();
    for &input in net.inputs() {
        let ok = |v: VertexId| idle[v.index()];
        bfs_into(csr, &[input], Direction::Forward, |_| true, ok, &mut ws);
        for &output in net.outputs() {
            let got = router.connect(input, output);
            if !ok(input) || !ok(output) {
                let refused = !matches!(got, Ok(_) | Err(RouteError::Blocked(..)));
                assert!(
                    refused,
                    "{input:?} -> {output:?}: busy terminal not refused"
                );
                continue;
            }
            let want = ws.path_to(csr, output);
            let path = got.as_ref().ok().and_then(|&id| router.session_path(id));
            assert_eq!(
                path,
                want.as_deref(),
                "{input:?} -> {output:?}: search != BFS"
            );
            if let Ok(id) = got {
                router.disconnect(id);
            }
            tally[0] += 1;
            tally[1] += u64::from(want.is_none());
            tally[3] += ws.num_reached() as u64;
        }
    }
    tally[2] += router.kernel_stats().bibfs_pops;
}

fn main() {
    // 1. kernel agreement per fabric family
    let mut fw = FlowWorkspace::new();
    for fabric in fabrics() {
        let net = fabric.net();
        let masks = idle_masks(net);
        for (i, idle) in masks.iter().enumerate() {
            let count = |kernel: FlowKernel, fw: &mut FlowWorkspace| {
                vertex_disjoint_paths_into(
                    net.graph(),
                    net.inputs(),
                    net.outputs(),
                    |_| true,
                    |v| idle[v.index()],
                    DisjointOptions {
                        count_only: true,
                        limit: None,
                        kernel,
                    },
                    fw,
                )
                .count
            };
            let dinic = count(FlowKernel::Dinic, &mut fw);
            let pr = count(FlowKernel::PushRelabel, &mut fw);
            let auto = count(net.flow_kernel(), &mut fw);
            assert_eq!(
                dinic,
                pr,
                "{}: Dinic {dinic} != push-relabel {pr} (mask {i})",
                fabric.label()
            );
            assert_eq!(auto, dinic, "{}: selector disagrees", fabric.label());
        }
        println!(
            "kernel agreement {}: {} masks, selector = {:?}",
            fabric.label(),
            masks.len(),
            net.flow_kernel()
        );
    }

    // 2. route search returns the forward-BFS path on every pair
    for fabric in fabrics() {
        let net = fabric.net();
        assert!(
            net.is_unit_staged(),
            "{}: not unit-staged, so connect would not run the route search",
            fabric.label()
        );
        let masks = idle_masks(net);
        let mut tally = [0u64; 4];
        for idle in &masks {
            route_search_matches_bfs(net, idle, &mut tally);
        }
        let [pairs, blocked, pops, bfs_pops] = tally;
        println!(
            "route search {}: {} masks, {pairs} pairs ({blocked} blocked) equal forward BFS; {pops} search pops vs {bfs_pops} BFS pops",
            fabric.label(),
            masks.len()
        );
    }

    // 3. mincost reroute streams are thread-count invariant
    let cfg = SimConfig {
        arrival_rate: 4.0,
        holding: HoldingTime::Exponential { mean: 0.8 },
        pattern: TrafficPattern::Uniform,
        fault_rate: 0.0,
        fault_open_share: 0.5,
        faults: FaultSpec::Storm {
            rate: 0.06,
            window: 2.0,
            stage: None,
        },
        retry: RetryPolicy::OnRepair,
        reroute: RerouteMode::Mincost,
        mttr: 8.0,
        duration: 120.0,
        warmup: 0.0,
        buckets: 4,
    };
    let seeds: Vec<u64> = (1..=6).collect();
    for fabric in [Fabric::clos_strict(2, 3), Fabric::benes(3)] {
        let one = run_sweep(&fabric, &cfg, &seeds, 1);
        let four = run_sweep(&fabric, &cfg, &seeds, 4);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                (a.events, a.fingerprint),
                (b.events, b.fingerprint),
                "{} seed {}: mincost stream diverged across thread counts",
                fabric.label(),
                a.seed
            );
        }
        let moved: u64 = one.iter().map(|o| o.metrics.moved).sum();
        let rerouted: u64 = one.iter().map(|o| o.metrics.rerouted).sum();
        assert!(
            rerouted > 0,
            "{}: storm scenario produced no reroutes — smoke has no teeth",
            fabric.label()
        );
        println!(
            "mincost determinism {}: {} seeds, {} rerouted / {} moved, 1 == 4 threads",
            fabric.label(),
            seeds.len(),
            rerouted,
            moved
        );
    }

    println!(
        "kernel_crosscheck: portfolio agreement, route-search exactness and mincost determinism hold"
    );
}
