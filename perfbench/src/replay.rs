//! Router replay probe: a workload's exported operation stream driven
//! straight into `CircuitRouter` plus the fabric's `AliveTracker`, with
//! the kill wave and min-cost reroute the simulator and the service use.

use std::collections::HashMap;
use std::time::Instant;

use ft_failure::{AliveTracker, FailureInstance, SwitchState};
use ft_graph::{Digraph, EdgeId, VertexId};
use ft_networks::{CircuitRouter, MincostBatch, SessionId};
use ft_sim::{Fabric, StreamEvent, StreamKind};

use crate::spans::Tracer;
use crate::util::{quantile, ratio};
use crate::Metrics;

/// Span names of the replay (one per public call or call group).
const CONNECT: &str = "ft_networks::connect";
const DISCONNECT: &str = "ft_networks::disconnect";
const KILL_WAVE: &str = "kill_wave";
const FAIL_EDGE: &str = "ft_failure::AliveTracker::fail_edge";
const KILL_VERTEX: &str = "ft_networks::kill_vertex_into";
const MINCOST_WAVE: &str = "mincost_wave";
const BEGIN_BATCH: &str = "ft_networks::begin_mincost_batch";
const PLACE: &str = "ft_networks::mincost_place";
const REVIVE: &str = "revive";
const REPAIR_EDGE: &str = "ft_failure::AliveTracker::repair_edge";
const REVIVE_VERTEX: &str = "ft_networks::revive_vertex";

/// What one pass over the stream did; both passes must agree.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    connects: u64,
    connected: u64,
    killed: u64,
    placed: u64,
    live_at_end: usize,
}

/// Opens a span when tracing, else does nothing.
fn begin(tr: &mut Option<&mut Tracer>, name: &'static str) -> u32 {
    tr.as_mut().map_or(0, |t| t.begin(name))
}

fn end(tr: &mut Option<&mut Tracer>, id: u32) {
    if let Some(t) = tr.as_mut() {
        t.end(id);
    }
}

/// One pass over `events`. Every fault runs a min-cost wave
/// (`begin_mincost_batch`, then `mincost_place` per victim) whether or
/// not it killed anything, so the wave is timed on every workload.
fn pass(fabric: &Fabric, events: &[StreamEvent], mut tr: Option<&mut Tracer>) -> (Tally, bool) {
    let net = fabric.net();
    let mut router = CircuitRouter::new(net);
    let mut inst = FailureInstance::perfect(net.num_edges());
    let mut tracker: AliveTracker = fabric.alive_tracker(&inst);
    let mut batch = MincostBatch::new();
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut owner: Vec<Option<(u64, u32, u32)>> = Vec::new();
    let mut delta: Vec<VertexId> = Vec::new();
    let mut killed: Vec<SessionId> = Vec::new();
    let mut tally = Tally::default();
    let claim = |owner: &mut Vec<Option<(u64, u32, u32)>>, sid: SessionId, who| {
        let slot = sid.0 as usize;
        if owner.len() <= slot {
            owner.resize(slot + 1, None);
        }
        owner[slot] = Some(who);
    };
    for ev in events {
        match ev.kind {
            StreamKind::Connect { id, src, dst } => {
                tally.connects += 1;
                let (a, b) = (net.inputs()[src as usize], net.outputs()[dst as usize]);
                let s = begin(&mut tr, CONNECT);
                let r = router.connect(a, b);
                end(&mut tr, s);
                if let Ok(sid) = r {
                    tally.connected += 1;
                    sessions.insert(id, sid);
                    claim(&mut owner, sid, (id, src, dst));
                }
            }
            StreamKind::Disconnect { id } => {
                if let Some(sid) = sessions.remove(&id) {
                    let s = begin(&mut tr, DISCONNECT);
                    router.disconnect(sid);
                    end(&mut tr, s);
                    owner[sid.0 as usize] = None;
                }
            }
            StreamKind::Fault { switch, open } => {
                let e = EdgeId(switch);
                if !inst.is_normal(e) {
                    continue;
                }
                inst.set_state(
                    e,
                    if open {
                        SwitchState::Open
                    } else {
                        SwitchState::Closed
                    },
                );
                let (t, h) = net.graph().endpoints(e);
                let wave = begin(&mut tr, KILL_WAVE);
                delta.clear();
                let s = begin(&mut tr, FAIL_EDGE);
                tracker.fail_edge(t, h, &mut delta);
                end(&mut tr, s);
                killed.clear();
                for &v in &delta {
                    let s = begin(&mut tr, KILL_VERTEX);
                    router.kill_vertex_into(v, &mut killed);
                    end(&mut tr, s);
                }
                end(&mut tr, wave);
                let victims: Vec<(u64, u32, u32)> = killed
                    .iter()
                    .filter_map(|sid| owner[sid.0 as usize].take())
                    .collect();
                tally.killed += victims.len() as u64;
                let wave = begin(&mut tr, MINCOST_WAVE);
                let s = begin(&mut tr, BEGIN_BATCH);
                router.begin_mincost_batch(&mut batch);
                end(&mut tr, s);
                for (id, src, dst) in victims {
                    sessions.remove(&id);
                    let (a, b) = (net.inputs()[src as usize], net.outputs()[dst as usize]);
                    let s = begin(&mut tr, PLACE);
                    let r = router.mincost_place(&mut batch, a, b);
                    end(&mut tr, s);
                    if let Ok(sid) = r {
                        tally.placed += 1;
                        sessions.insert(id, sid);
                        claim(&mut owner, sid, (id, src, dst));
                    }
                }
                end(&mut tr, wave);
            }
            StreamKind::Repair { switch } => {
                let e = EdgeId(switch);
                if inst.is_normal(e) {
                    continue;
                }
                inst.set_state(e, SwitchState::Normal);
                let (t, h) = net.graph().endpoints(e);
                let wave = begin(&mut tr, REVIVE);
                delta.clear();
                let s = begin(&mut tr, REPAIR_EDGE);
                tracker.repair_edge(t, h, &mut delta);
                end(&mut tr, s);
                for &v in &delta {
                    let s = begin(&mut tr, REVIVE_VERTEX);
                    router.revive_vertex(v);
                    end(&mut tr, s);
                }
                end(&mut tr, wave);
            }
        }
    }
    tally.live_at_end = router.active_sessions();
    (tally, circuits_sound(&router, &tracker, &sessions))
}

/// Live circuits are vertex-disjoint, run only through alive vertices,
/// and match the replay's own session table.
fn circuits_sound(
    router: &CircuitRouter,
    tracker: &AliveTracker,
    sessions: &HashMap<u64, SessionId>,
) -> bool {
    let mut used = vec![false; tracker.alive().len()];
    let mut live = 0usize;
    for sid in sessions.values() {
        let Some(path) = router.session_path(*sid) else {
            return false;
        };
        live += 1;
        for v in path {
            if used[v.index()] || !tracker.is_alive(*v) {
                return false;
            }
            used[v.index()] = true;
        }
    }
    live == router.active_sessions()
}

/// Replays `events` three times — untraced, with a span around every
/// call, untraced again — and fills the `ft-networks.*` metrics plus the span
/// overhead. Returns `(checked passes, failed passes)`.
pub fn probe(
    fabric: &Fabric,
    events: &[StreamEvent],
    tr: &mut Tracer,
    metrics: &mut Metrics,
) -> (u64, u64) {
    // Untraced passes before and after the traced one; their mean is
    // the baseline of the span overhead.
    let timed_plain = || {
        let t = Instant::now();
        let out = pass(fabric, events, None);
        (out, t.elapsed().as_nanos() as f64)
    };
    let ((plain, plain_ok), before_ns) = timed_plain();
    let first_span = tr.len();
    let root = tr.begin("router_replay");
    let (traced, traced_ok) = pass(fabric, events, Some(tr));
    tr.end(root);
    let traced_ns = tr.total_ns("router_replay");
    let spans = (tr.len() - first_span) as f64;
    let ((again, again_ok), after_ns) = timed_plain();
    let plain_ns = (before_ns + after_ns) / 2.0;
    let mut failed = u64::from(!plain_ok) + u64::from(!traced_ok) + u64::from(!again_ok);
    if plain != traced || plain != again {
        eprintln!("perfbench: router replay passes disagree: {plain:?} vs {traced:?}");
        failed += 1;
    }
    let connect = tr.durations_ns(CONNECT);
    metrics.push("ft-networks.connect_ns_p50", quantile(&connect, 0.5));
    metrics.push("ft-networks.connect_ns_p99", quantile(&connect, 0.99));
    metrics.push(
        "ft-networks.connect_ok_ratio",
        ratio(traced.connected as f64, traced.connects as f64, 1.0),
    );
    metrics.push(
        "ft-networks.disconnect_ns_p50",
        quantile(&tr.durations_ns(DISCONNECT), 0.5),
    );
    metrics.push("ft-networks.kill_wave_ns", mean_ns(tr, KILL_WAVE));
    metrics.push("ft-networks.revive_ns", mean_ns(tr, REVIVE));
    metrics.push("ft-networks.mincost_wave_ns", mean_ns(tr, MINCOST_WAVE));
    metrics.push("ft-networks.killed", traced.killed as f64);
    metrics.push("bench.span_ns_per_call", (traced_ns - plain_ns) / spans);
    (3, failed)
}

fn mean_ns(tr: &Tracer, name: &str) -> f64 {
    crate::util::mean(&tr.durations_ns(name))
}
