//! The service workload (`serve_storm`) and the ft-serve layer probe.
//!
//! Load is open-loop over one loopback TCP connection to a fresh
//! `ftserve` child: one sender thread writes each request at its due
//! time (batching whatever is already due), one reader thread takes the
//! replies, and every request is timed from its *due* time, so a stall
//! anywhere also delays the requests queued behind it. Replies are
//! checked request by request against an in-order deterministic replay
//! of the same requests through `ft_serve::engine::run`.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_serve::engine::{self, EngineConfig, Job, SharedFlags};
use ft_serve::protocol::{read_frame, write_frame};
use ft_serve::{Request, Response, Status};
use ft_sim::{export_stream, Scenario, StreamKind};

use crate::spans::Tracer;
use crate::util::{
    allowed_cpus, host_ref, host_ref_ready, interquartile_mean, median, out_dir, pin_to_cpu,
    proc_cpu_ns, proc_status_kb, quantile, secs, sibling_binary, slowdown,
};
use crate::Metrics;

/// Queueing deadline on every connect: a request the server holds in
/// its queue for longer than this fails as `DeadlineExpired`.
pub const DEADLINE_MS: u32 = 1000;

/// Engine queue bound the benchmark's servers run with. The scenario's
/// own `shed 256` sheds connects whenever the engine thread is
/// descheduled for about 13 ms at 20 k requests/s, which a shared
/// 2-core host does routinely; at 4096 such a stall shows as latency.
pub const QUEUE_DEPTH: &str = "4096";

/// Tags of fault/repair requests live above every circuit id.
const CONTROL_TAG: u64 = 1 << 62;

/// The requests of one exported stream, encoded once, with their
/// virtual times.
pub struct Requests {
    pub reqs: Vec<Request>,
    pub vtime: Vec<f64>,
    /// Concatenated frames (length prefix + payload) and the offset of
    /// each request's frame; `offsets` has one extra trailing entry.
    pub frames: Vec<u8>,
    pub offsets: Vec<usize>,
}

impl Requests {
    pub fn from_scenario(scenario: &Scenario, stream_seed: u64) -> Requests {
        let events = export_stream(scenario, stream_seed);
        let mut reqs = Vec::with_capacity(events.len());
        let mut vtime = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let tag = CONTROL_TAG + i as u64;
            reqs.push(match ev.kind {
                StreamKind::Connect { id, src, dst } => Request::Connect {
                    tag: id,
                    src,
                    dst,
                    deadline_ms: DEADLINE_MS,
                },
                StreamKind::Disconnect { id } => Request::Disconnect { tag: id },
                StreamKind::Fault { switch, open } => Request::Fault { tag, switch, open },
                StreamKind::Repair { switch } => Request::Repair { tag, switch },
            });
            vtime.push(ev.time);
        }
        let mut frames = Vec::with_capacity(reqs.len() * 25);
        let mut offsets = Vec::with_capacity(reqs.len() + 1);
        for r in &reqs {
            offsets.push(frames.len());
            write_frame(&mut frames, &r.encode()).expect("frame into a Vec");
        }
        offsets.push(frames.len());
        Requests {
            reqs,
            vtime,
            frames,
            offsets,
        }
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Due offsets (ns from the phase start) that play the first `n`
    /// requests at `rate` per second on average, keeping the stream's
    /// own spacing (Poisson arrivals, storm bursts).
    pub fn due_ns(&self, n: usize, rate: f64) -> Vec<u64> {
        let v0 = self.vtime[0];
        let span = (self.vtime[n - 1] - v0).max(f64::MIN_POSITIVE);
        let scale = n as f64 / rate / span * 1e9;
        self.vtime[..n]
            .iter()
            .map(|&v| ((v - v0) * scale) as u64)
            .collect()
    }
}

fn engine_config(deterministic: bool) -> EngineConfig {
    EngineConfig {
        deterministic,
        snapshot_path: None,
        snapshot_every: 0,
    }
}

/// In-order deterministic replay of `reqs` through `engine::run`: jobs
/// go through a bounded channel with blocking sends, so the engine sees
/// them in stream order, exactly as a lockstep client would deliver
/// them. Returns the replies in order and the wall time per request.
pub fn reference(scenario: &Scenario, reqs: &[Request]) -> (Vec<Response>, f64) {
    let fabric = scenario.fabric.build();
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(1024);
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    let t = Instant::now();
    let engine = std::thread::spawn(move || {
        engine::run(
            fabric,
            job_rx,
            &SharedFlags::default(),
            &engine_config(true),
        )
    });
    for r in reqs {
        job_tx
            .send(Job {
                req: r.clone(),
                reply: reply_tx.clone(),
                enqueued: Instant::now(),
            })
            .expect("engine thread alive");
    }
    drop(job_tx);
    drop(reply_tx);
    let replies: Vec<Response> = reply_rx.iter().collect();
    engine.join().expect("engine thread");
    let ns_per_op = t.elapsed().as_nanos() as f64 / reqs.len() as f64;
    assert_eq!(replies.len(), reqs.len(), "engine answered every request");
    (replies, ns_per_op)
}

/// The same requests paced to their due times into `engine::run`
/// without sockets (blocking sends, so replies stay in request order).
/// Returns the latency (µs from due time) of every request.
pub fn inproc_paced(scenario: &Scenario, reqs: &[Request], due: &[u64]) -> Vec<f64> {
    let fabric = scenario.fabric.build();
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(1024);
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    let engine = std::thread::spawn(move || {
        engine::run(
            fabric,
            job_rx,
            &SharedFlags::default(),
            &engine_config(false),
        )
    });
    let t0 = Instant::now() + Duration::from_millis(2);
    let n = due.len();
    let collector = std::thread::spawn(move || {
        let mut recv_ns = Vec::with_capacity(n);
        while reply_rx.recv().is_ok() {
            recv_ns.push(t0.elapsed().as_nanos() as u64);
        }
        recv_ns
    });
    crate::util::tighten_timer_slack();
    for (r, &d) in reqs.iter().zip(due) {
        sleep_until(t0, d);
        let job = Job {
            req: r.clone(),
            reply: reply_tx.clone(),
            enqueued: Instant::now(),
        };
        job_tx.send(job).expect("engine thread alive");
    }
    drop(job_tx);
    drop(reply_tx);
    let recv_ns = collector.join().expect("collector thread");
    engine.join().expect("engine thread");
    recv_ns
        .iter()
        .zip(due)
        .map(|(&r, &d)| r.saturating_sub(d) as f64 / 1e3)
        .collect()
}

fn sleep_until(t0: Instant, due_ns: u64) {
    let now = t0.elapsed().as_nanos() as u64;
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// A running `ftserve` child process.
pub struct Server {
    child: Child,
    /// Spawn until the port is ready and a connection is accepted.
    pub setup_s: f64,
    pub conn: TcpStream,
}

impl Server {
    /// Starts a fresh `ftserve` on `scenario_path` and connects to it.
    pub fn start(scenario_path: &Path, tag: usize) -> std::io::Result<Server> {
        let port_file = out_dir().join(format!("ftserve-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let t = Instant::now();
        // The child inherits the spawning thread's CPU set: the server
        // gets the second allowed CPU, the load generator keeps the first.
        let cpus = allowed_cpus();
        let split = cpus.len() >= 2 && pin_to_cpu(cpus[1]);
        let spawned = Command::new(sibling_binary("ftserve"))
            .arg(scenario_path)
            .arg("--port-file")
            .arg(&port_file)
            .args(["--queue-depth", QUEUE_DEPTH])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        if split {
            pin_to_cpu(cpus[0]);
        }
        let mut child = spawned?;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            if let Some(status) = child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "ftserve exited early: {status}"
                )));
            }
            if t.elapsed() > Duration::from_secs(20) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("ftserve did not report its port"));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let conn = TcpStream::connect(&addr)?;
        conn.set_nodelay(true)?;
        let setup_s = secs(t);
        let _ = std::fs::remove_file(&port_file);
        Ok(Server {
            child,
            setup_s,
            conn,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One lockstep request on the benchmark's connection.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        write_frame(&mut self.conn, &req.encode())?;
        let payload = read_frame(&mut self.conn)?
            .ok_or_else(|| std::io::Error::other("server closed the connection"))?;
        Response::decode(&payload).ok_or_else(|| std::io::Error::other("malformed reply"))
    }

    /// Peak RSS (MiB) and CPU time (ns) of the child so far.
    pub fn usage(&self) -> (f64, f64) {
        let pid = self.pid();
        let rss = proc_status_kb(&pid.to_string(), "VmHWM:").unwrap_or(0.0) / 1024.0;
        (rss, proc_cpu_ns(pid).unwrap_or(0) as f64)
    }

    /// Fetches the final report's `shed` and `deadline_expired` counters.
    pub fn report_counters(&mut self) -> (u64, u64) {
        let body = self
            .request(&Request::Report { tag: 0 })
            .map(|r| r.body_text())
            .unwrap_or_default();
        (json_u64(&body, "shed"), json_u64(&body, "deadline_expired"))
    }

    /// Graceful shutdown; the child is killed if it does not exit in 5 s.
    pub fn stop(mut self) {
        let _ = self.request(&Request::Shutdown { tag: 0 });
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    body.find(&pat)
        .and_then(|i| {
            body[i + pat.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// What one open-loop phase measured.
pub struct Phase {
    /// Latency of each answered request, µs from its due time.
    pub lat_us: Vec<f64>,
    /// How late the sender wrote each request, µs after its due time.
    pub late_us: Vec<f64>,
    /// Most requests sent but not yet answered at any send.
    pub backlog_max: u64,
    /// Shed, deadline-expired, missing or mismatched replies.
    pub failed: u64,
    pub shed: u64,
    pub expired: u64,
    /// When the last reply arrived, seconds after the phase start.
    pub last_reply_s: f64,
}

impl Phase {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_us, q)
    }
}

/// Plays the first `due.len()` requests over the server's connection
/// and checks every reply against `expected`. Open loop when `window`
/// is `None`; otherwise at most `window` requests are outstanding (a
/// pipelined flood when every due time is 0).
pub fn play(
    server: &Server,
    r: &Requests,
    due: &[u64],
    expected: &[Response],
    window: Option<u64>,
) -> Phase {
    let n = due.len();
    let received = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut reader =
        BufReader::with_capacity(1 << 16, server.conn.try_clone().expect("clone socket"));
    server
        .conn
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let rx_count = Arc::clone(&received);
    let reader_thread = std::thread::spawn(move || {
        let mut got: Vec<(u64, Option<Response>)> = Vec::with_capacity(n);
        for _ in 0..n {
            match read_frame(&mut reader) {
                Ok(Some(p)) => {
                    got.push((t0.elapsed().as_nanos() as u64, Response::decode(&p)));
                    rx_count.fetch_add(1, Ordering::Release);
                }
                _ => break,
            }
        }
        got
    });

    crate::util::tighten_timer_slack();
    let mut writer = server.conn.try_clone().expect("clone socket");
    let mut late_us = Vec::with_capacity(n);
    let mut backlog_max = 0u64;
    let mut i = 0;
    while i < n {
        sleep_until(t0, due[i]);
        let room = window.map_or(u64::MAX, |w| {
            (received.load(Ordering::Acquire) + w).saturating_sub(i as u64)
        });
        if room == 0 {
            std::thread::sleep(Duration::from_micros(20));
            continue;
        }
        let now = t0.elapsed().as_nanos() as u64;
        let mut j = i + 1;
        while j < n && due[j] <= now && ((j - i) as u64) < room.min(512) {
            j += 1;
        }
        if writer
            .write_all(&r.frames[r.offsets[i]..r.offsets[j]])
            .is_err()
        {
            break;
        }
        let sent = t0.elapsed().as_nanos() as u64;
        late_us.extend(
            due[i..j]
                .iter()
                .map(|&d| sent.saturating_sub(d) as f64 / 1e3),
        );
        backlog_max = backlog_max.max(j as u64 - received.load(Ordering::Acquire));
        i = j;
    }
    let got = reader_thread.join().expect("reader thread");
    let _ = server.conn.set_read_timeout(None);

    let mut phase = Phase {
        lat_us: Vec::with_capacity(n),
        late_us,
        backlog_max,
        failed: (n - got.len()) as u64,
        shed: 0,
        expired: 0,
        last_reply_s: got.last().map_or(f64::INFINITY, |&(ns, _)| ns as f64 / 1e9),
    };
    for (k, (recv, resp)) in got.iter().enumerate() {
        phase.lat_us.push(recv.saturating_sub(due[k]) as f64 / 1e3);
        let ok = match resp {
            Some(resp) if resp.status == Status::Shed => {
                phase.shed += 1;
                false
            }
            Some(resp) if resp.status == Status::DeadlineExpired => {
                phase.expired += 1;
                false
            }
            Some(resp) => *resp == expected[k],
            None => false,
        };
        phase.failed += u64::from(!ok);
    }
    phase
}

/// Median of lockstep round trips of a request the engine answers
/// without touching routing state (disconnect of an unknown id), µs.
pub fn loopback_rtt_us(server: &mut Server, rounds: usize) -> f64 {
    let mut rtt = Vec::with_capacity(rounds);
    for k in 0..rounds {
        let t = Instant::now();
        let ok = server
            .request(&Request::Disconnect {
                tag: CONTROL_TAG - 1 - k as u64,
            })
            .is_ok_and(|r| r.status == Status::UnknownCircuit);
        if ok {
            rtt.push(secs(t) * 1e6);
        }
    }
    median(&rtt)
}

/// Times `Request::decode` and `Response::encode` over the stream's
/// frames in batch spans; returns ns per call of each.
pub fn codec_ns(r: &Requests, replies: &[Response], tr: &mut Tracer) -> (f64, f64, bool) {
    let n = replies.len();
    let payloads: Vec<&[u8]> = (0..n)
        .map(|k| &r.frames[r.offsets[k] + 4..r.offsets[k + 1]])
        .collect();
    let id = tr.begin("ft_serve::Request::decode(batch)");
    let decoded: Vec<Result<Request, u64>> = payloads.iter().map(|p| Request::decode(p)).collect();
    tr.end(id);
    let id = tr.begin("ft_serve::Response::encode(batch)");
    let encoded: Vec<Vec<u8>> = replies.iter().map(Response::encode).collect();
    tr.end(id);
    let ok = decoded
        .iter()
        .zip(&r.reqs)
        .all(|(d, q)| d.as_ref() == Ok(q))
        && encoded
            .iter()
            .zip(replies)
            .all(|(e, q)| Response::decode(e).as_ref() == Some(q));
    let per = |name| tr.total_ns(name) / n as f64;
    (
        per("ft_serve::Request::decode(batch)"),
        per("ft_serve::Response::encode(batch)"),
        ok,
    )
}

/// `Server::start`, reporting a failure on standard error.
fn start_server(path: &Path, tag: usize) -> Option<Server> {
    Server::start(path, tag)
        .map_err(|e| eprintln!("perfbench: ftserve start failed: {e}"))
        .ok()
}

/// Writes `text` as the scenario file `ftserve` boots from.
pub fn scenario_file(name: &str, text: &str) -> PathBuf {
    let path = out_dir().join(format!("{name}.ftsim"));
    std::fs::write(&path, text).expect("write scenario for ftserve");
    path
}

fn summarize(workload: &str, p: &Phase, label: &str) {
    eprintln!(
        "perfbench: {workload}, {label}: n {} p50 {:.1} p99 {:.1} p999 {:.1} µs, late p50 {:.1} p99 {:.1} µs, backlog max {}, failed {} (shed {}, expired {}); traffic crossed loopback TCP",
        p.lat_us.len(),
        p.p(0.5),
        p.p(0.99),
        p.p(0.999),
        quantile(&p.late_us, 0.5),
        quantile(&p.late_us, 0.99),
        p.backlog_max,
        p.failed,
        p.shed,
        p.expired
    );
}

/// Fixed offered rates of the end-to-end run (requests per second).
pub const RATES: [f64; 2] = [10_000.0, 20_000.0];

/// Share of a round spent in each fixed-rate phase.
const PHASE_SHARE: [f64; 2] = [0.45, 0.35];

/// Rounds of the end-to-end run. Each round plays every phase once on
/// a fresh server; a metric is the median over rounds, so one phase
/// caught by a scheduling hiccup does not set it.
pub const ROUNDS: usize = 7;

/// End-to-end run of `serve_storm`: `ROUNDS` rounds of open-loop phases
/// at the fixed rates, each phase on a fresh server. Every reply is
/// checked against the in-order replay. Latency is the 10 k/s p50 from
/// due time; throughput is requests served per second of server CPU
/// time over both phases (the rate one server core would sustain).
/// Both, and the set-up time, are in reference time: each phase's wall
/// and CPU times are divided by the host slowdown the host-speed
/// reference runs before and after it measured.
pub fn e2e(text: &str, seed: u64, seconds: f64) -> crate::Outcome {
    let scenario = Scenario::parse(text).expect("benchmark scenario parses");
    let path = scenario_file("serve_storm", text);
    let r = Requests::from_scenario(&scenario, crate::sim::seed_block(seed));
    let round_s = seconds / ROUNDS as f64;
    let counts: Vec<usize> = RATES
        .iter()
        .zip(PHASE_SHARE)
        .map(|(rate, share)| ((rate * share * round_s) as usize).clamp(2, r.len()))
        .collect();
    let max_n = counts.iter().copied().max().unwrap_or(2);
    let (expected, _) = reference(&scenario, &r.reqs[..max_n]);

    let threads = crate::threads();
    host_ref_ready();
    // Per phase: (round, rate index, set-up s, p50 µs, served, CPU ns),
    // wall times; a host-speed reference run before each phase and
    // after the last turns them into reference times.
    let mut phases = Vec::new();
    let mut refs = Vec::new();
    let mut rss = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for round in 0..ROUNDS {
        for (k, (&n, &rate)) in counts.iter().zip(&RATES).enumerate() {
            attempted += n as u64;
            refs.push(host_ref(threads));
            let Some(server) = start_server(&path, round * RATES.len() + k) else {
                failed += n as u64;
                phases.push(None);
                continue;
            };
            let setup_s = server.setup_s;
            let p = play(&server, &r, &r.due_ns(n, rate), &expected[..n], None);
            let (peak, cpu) = server.usage();
            server.stop();
            rss.push(peak);
            summarize("serve_storm", &p, &format!("{rate:.0}/s open loop"));
            failed += p.failed;
            phases.push(Some((round, k, setup_s, p.p(0.5), n as f64, cpu)));
        }
    }
    refs.push(host_ref(threads));
    let mut setup = Vec::new();
    let mut p50s = Vec::new();
    let mut wall_p50s = Vec::new();
    let mut slows = Vec::new();
    let mut served = [0.0; ROUNDS];
    let mut cpu_ref_ns = [0.0; ROUNDS];
    for (phase, r) in phases.iter().zip(refs.windows(2)) {
        let Some((round, k, setup_s, p50, n, cpu)) = *phase else {
            continue;
        };
        let slow = slowdown(r[0], r[1]);
        slows.push(slow);
        setup.push(setup_s / slow);
        if k == 0 {
            wall_p50s.push(p50);
            p50s.push(p50 / slow);
        }
        served[round] += n;
        cpu_ref_ns[round] += cpu / slow;
    }
    let per_cpu_s: Vec<f64> = served
        .iter()
        .zip(&cpu_ref_ns)
        .filter(|(_, &c)| c > 0.0)
        .map(|(n, c)| n / (c * 1e-9))
        .collect();
    eprintln!(
        "perfbench: serve_storm: in reference time, 10k p50 by round {p50s:.1?} µs; requests per server CPU-second by round {per_cpu_s:.0?}; 10k p50 of rounds {:.3} µs wall, {:.3} µs reference; host slowdown p50 {:.3}",
        median(&wall_p50s),
        median(&p50s),
        median(&slows)
    );
    let mut metrics = Metrics::new();
    metrics.push("setup_s", interquartile_mean(&setup));
    metrics.push("throughput_per_s", median(&per_cpu_s));
    metrics.push("latency_p50_us", median(&p50s));
    metrics.push("peak_rss_mb", median(&rss));
    crate::Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Requests per second of the probe's paced phases.
pub const PROBE_RATE: f64 = 10_000.0;

/// Outstanding requests of the probe's saturation phase (below the
/// server's queue depth, so a healthy server never sheds).
pub const WINDOW: u64 = 1024;

/// Traced-run probe of the service on a workload's scenario: the codec,
/// the engine in process (in order, then paced), one open-loop TCP
/// phase and one saturation phase, each against a fresh `ftserve`
/// child. Returns `(checked, failed)` requests; when a server does not
/// start, every request fails and the metrics stay unset.
pub fn probe(
    name: &str,
    text: &str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    metrics: &mut Metrics,
) -> (u64, u64) {
    let scenario = Scenario::parse(text).expect("benchmark scenario parses");
    let r = Requests::from_scenario(&scenario, crate::sim::seed_block(seed));
    let n = ((PROBE_RATE * seconds) as usize).clamp(2, r.len());
    let id = tr.begin("ft_serve::engine::run(in order)");
    let (expected, engine_ns) = reference(&scenario, &r.reqs[..n]);
    tr.end(id);
    let (decode_ns, encode_ns, codec_ok) = codec_ns(&r, &expected, tr);
    let due = r.due_ns(n, PROBE_RATE);
    let id = tr.begin("ft_serve::engine::run(paced)");
    let inproc = inproc_paced(&scenario, &r.reqs[..n], &due);
    tr.end(id);

    let path = scenario_file(name, text);
    let all_failed = (2 * n as u64, 2 * n as u64);
    let Some(mut server) = start_server(&path, 0) else {
        return all_failed;
    };
    let id = tr.begin("ftserve(tcp)");
    let p = play(&server, &r, &due, &expected, None);
    tr.end(id);
    summarize(name, &p, "probe, 10000/s open loop");
    let cpu = server.usage().1;
    let rtt = loopback_rtt_us(&mut server, 500);
    let (shed, expired) = server.report_counters();
    server.stop();
    // Saturation: the same requests with `WINDOW` outstanding on a
    // second fresh server.
    let Some(server) = start_server(&path, 1) else {
        return all_failed;
    };
    let id = tr.begin("ftserve(tcp saturation)");
    let sat = play(&server, &r, &vec![0; n], &expected, Some(WINDOW));
    tr.end(id);
    server.stop();
    let failed = u64::from(!codec_ok) * n as u64 + p.failed + sat.failed;
    metrics.push("ft-serve.decode_ns", decode_ns);
    metrics.push("ft-serve.encode_ns", encode_ns);
    metrics.push("ft-serve.engine_ns_per_op", engine_ns);
    metrics.push("ft-serve.inproc_p50_us", quantile(&inproc, 0.5));
    metrics.push("ft-serve.tcp_p50_us", p.p(0.5));
    metrics.push("ft-serve.tcp_p99_us", p.p(0.99));
    metrics.push("ft-serve.tcp_p999_us", p.p(0.999));
    metrics.push("ft-serve.tcp_samples", p.lat_us.len() as f64);
    metrics.push("ft-serve.loopback_rtt_us", rtt);
    metrics.push("ft-serve.saturation_per_s", n as f64 / sat.last_reply_s);
    metrics.push("ft-serve.server_cpu_us_per_op", cpu * 1e-3 / n as f64);
    metrics.push("ft-serve.shed", shed as f64);
    metrics.push("ft-serve.deadline_expired", expired as f64);
    metrics.push("ft-serve.backlog_max", p.backlog_max as f64);
    metrics.push("gen.late_us_p50", quantile(&p.late_us, 0.5));
    metrics.push("gen.late_us_p99", quantile(&p.late_us, 0.99));
    (2 * n as u64, failed)
}
