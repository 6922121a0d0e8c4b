//! The daemon workloads: a closed loop of one client over one connection
//! to a daemon in its own process, plus the traced passes.

use crate::host::daemon_flags;
use crate::inputs::{self, Workload, CACHE_SHARDS};
use crate::reference::Reference;
use crate::report::{metric, Metric, Outcome};
use crate::stats::{median, percentile, Reply, Tally};
use crate::trace::Tracer;
use flb_core::{schedule_request, AlgorithmId, FlbRun, RunStats, ScheduleRequest, TieBreak};
use flb_graph::TaskGraph;
use flb_kernel::{FlatGraph, KernelRun};
use flb_sched::{Machine, Schedule};
use flb_service::journal::schedule_digest;
use flb_service::proto::{decode_request, decode_response, encode_request, encode_response};
use flb_service::{
    request_fingerprint, Client, Endpoint, Request, Response, ShardedLru, StatsSnapshot, Submission,
};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Segments of a timed run's window. Each has a set-up of its own and
/// fresh data, so a run averages over as many memory placements;
/// `setup_s` is the median of their set-ups.
pub const SEGMENTS: usize = 16;
/// Requests sent back to back between output checks.
const BATCH: usize = 32;
/// Requests per traced live pass and in the in-process pass, at least.
const PASS: usize = 128;
/// Pool graphs the traced kernel pass schedules.
const KERNEL_PASS: usize = 32;

fn io<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A daemon child process, killed and reaped if dropped while running.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Launches the daemon with a cache of `cache` entries and waits for
    /// its first answered ping. Returns the daemon, a connected client
    /// and the seconds it took.
    pub fn launch(cache: usize) -> Result<(Daemon, Client, f64), String> {
        let t0 = Instant::now();
        let exe = std::env::current_exe().map_err(io("cannot locate the benchmark binary"))?;
        let mut child = Command::new(exe)
            .args(["daemon", "--listen", "127.0.0.1:0"])
            .args(daemon_flags(cache))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(io("cannot launch the daemon"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
        };
        // The daemon prints "listening on ADDR (N workers)" once bound.
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(io("cannot read the daemon's address"))?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?;
        let mut client =
            Client::connect(&Endpoint::parse(addr)).map_err(io("cannot connect to the daemon"))?;
        client.ping().map_err(io("daemon ping failed"))?;
        Ok((daemon, client, t0.elapsed().as_secs_f64()))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::host::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn stop(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(io("daemon shutdown failed"))?;
        drop(client);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(io("cannot reap the daemon"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What a workload's requests must come back as.
pub struct Expect<'a> {
    graphs: &'a [TaskGraph],
    /// `schedule_digest` of `schedule_request` on each graph.
    refs: Vec<u64>,
    procs: usize,
    /// The daemon's `--cache` entries.
    cache: usize,
    /// Whether every timed reply must come from the cache.
    cached: bool,
}

impl<'a> Expect<'a> {
    /// Schedules every graph in process for the reference digests.
    fn new(graphs: &'a [TaskGraph], w: Workload) -> Self {
        let procs = w.shape().procs;
        let refs = graphs
            .iter()
            .map(|g| schedule_digest(&schedule_request(&request(g.clone(), procs))))
            .collect();
        Expect {
            graphs,
            refs,
            procs,
            cache: w.shape().cache,
            cached: w == Workload::ServeHit,
        }
    }

    /// The pool index of request `k`.
    fn index(&self, k: usize) -> usize {
        k % self.graphs.len()
    }
}

fn request(graph: TaskGraph, procs: usize) -> ScheduleRequest {
    ScheduleRequest::new(AlgorithmId::Flb, graph, Machine::new(procs))
}

/// A closed loop's measurements, accumulated over one or more calls.
#[derive(Default)]
struct Served {
    /// Requests sent so far; the next one is request `sent`.
    sent: usize,
    latencies_ms: Vec<f64>,
    window_s: f64,
    tally: Tally,
    wrong: Vec<String>,
    /// The connection failed; its state is unknown.
    broken: bool,
}

impl Served {
    fn ops_per_s(&self) -> f64 {
        self.tally.completed() as f64 / self.window_s
    }
}

/// Sends the next `count` requests of the pool, cyclically from request
/// `s.sent`, each after the previous reply. Graphs are cloned before a
/// batch's clock starts and replies are checked after it stops, so the
/// window holds only `Client::schedule` calls. With a tracer, each call
/// is a span.
fn closed_loop(
    client: &mut Client,
    ex: &Expect<'_>,
    count: usize,
    mut tracer: Option<&mut Tracer>,
    s: &mut Served,
) {
    let mut replies = Vec::with_capacity(BATCH);
    let end = s.sent + count;
    while s.sent < end && !s.broken {
        let n = BATCH.min(end - s.sent);
        let batch: Vec<(usize, TaskGraph)> = (s.sent..s.sent + n)
            .map(|j| (ex.index(j), ex.graphs[ex.index(j)].clone()))
            .collect();
        let t_batch = Instant::now();
        for (idx, g) in batch {
            let k = s.sent;
            s.sent += 1;
            let span = tracer
                .as_mut()
                .map(|t| t.open(k as u32, "live.schedule", None));
            let t0 = Instant::now();
            let res = client.schedule(AlgorithmId::Flb, g, Machine::new(ex.procs), 0);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.close(id);
            }
            match res {
                Ok(Submission::Done(reply)) => {
                    s.tally.record(Reply::Done);
                    s.latencies_ms.push(ms);
                    replies.push((idx, reply));
                }
                Ok(_) => s.tally.record(Reply::Failed),
                Err(e) => {
                    s.tally.record(Reply::Failed);
                    s.wrong.push(format!("request {k} failed: {e}"));
                    s.broken = true;
                    break;
                }
            }
        }
        s.window_s += t_batch.elapsed().as_secs_f64();
        for (idx, reply) in replies.drain(..) {
            if reply.cached != ex.cached {
                s.wrong
                    .push(format!("graph {idx}: cached = {}", reply.cached));
            }
            if schedule_digest(&reply.schedule) != ex.refs[idx] {
                s.wrong.push(format!(
                    "graph {idx}: served schedule differs from schedule_request"
                ));
            }
        }
    }
}

/// Sends each hot graph once so later requests for it hit.
fn warm(client: &mut Client, ex: &Expect<'_>) -> Result<(), String> {
    for (idx, g) in ex.graphs.iter().enumerate() {
        match client.schedule(AlgorithmId::Flb, g.clone(), Machine::new(ex.procs), 0) {
            Ok(Submission::Done(r))
                if !r.cached && schedule_digest(&r.schedule) == ex.refs[idx] => {}
            other => return Err(format!("warming graph {idx} failed: {other:?}")),
        }
    }
    Ok(())
}

/// Launches a daemon and, on `serve-hit`, warms its hot set; returns the
/// daemon, its client and the seconds both took.
fn set_up(ex: &Expect<'_>) -> Result<(Daemon, Client, f64), String> {
    let (daemon, mut client, launch_s) = Daemon::launch(ex.cache)?;
    let t0 = Instant::now();
    if ex.cached {
        warm(&mut client, ex)?;
    }
    Ok((daemon, client, launch_s + t0.elapsed().as_secs_f64()))
}

fn stats(client: &mut Client) -> Result<StatsSnapshot, String> {
    client.stats().map_err(io("stats request failed"))
}

fn inputs_for(w: Workload, seed: u64, out: &mut Outcome) -> Vec<TaskGraph> {
    let shape = w.shape();
    let mut graphs = inputs::pool(shape, seed);
    if w == Workload::ServeMiss {
        graphs = inputs::miss_pool(graphs, shape.procs, shape.cache);
    }
    let digest = inputs::pool_digest(&graphs);
    out.counts.insert("input.pool_digest", digest);
    // Generation must be a function of the seed, and of nothing else.
    let other = inputs::pool(inputs::Shape { pool: 1, ..shape }, seed.wrapping_add(1));
    out.check(
        inputs::pool_digest(&graphs[..1]) != inputs::pool_digest(&other),
        || "seed + 1 generated the same first graph".to_owned(),
    );
    graphs
}

/// The timed run of `serve-miss` or `serve-hit`. The time metrics are
/// normalised by a reference request timed after every batch; see
/// [`crate::reference`].
pub fn timed(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let graphs = inputs_for(w, seed, &mut out);
    let ex = Expect::new(&graphs, w);
    let mut reference = w.reference();
    out.counts.insert(
        "input.reference_digest",
        inputs::fold(ex.refs.iter().copied()),
    );

    // Each segment of the window is served by a daemon of its own, set
    // up at its start, so the set-up samples span the same stretch of
    // time as the requests do.
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut rss = Vec::with_capacity(SEGMENTS);
    let mut served = Served::default();
    for seg in 1..=SEGMENTS {
        let until = seconds * seg as f64 / SEGMENTS as f64;
        let (daemon, mut client, secs) = set_up(&ex)?;
        setups.push(secs);
        reference.move_data();
        let before = served.tally.completed();
        while served.window_s < until && !served.broken {
            closed_loop(&mut client, &ex, BATCH, None, &mut served);
            reference.sample()?;
        }
        rss.push(daemon.peak_rss_mb()?);
        let st = stats(&mut client)?;
        daemon.stop(client)?;
        let done = served.tally.completed() - before;
        let warmed = if ex.cached { graphs.len() as u64 } else { 0 };
        let (want_hits, want_invocations) = if ex.cached { (done, warmed) } else { (0, done) };
        out.check(st.cache_hits == want_hits, || {
            format!(
                "daemon {seg} counted {} cache hits, want {want_hits}",
                st.cache_hits
            )
        });
        out.check(st.scheduler_invocations == want_invocations, || {
            format!(
                "daemon {seg} ran the scheduler {} times, want {want_invocations}",
                st.scheduler_invocations
            )
        });
    }
    out.problems.append(&mut served.wrong);
    out.attempted = served.tally.attempted;
    out.failed = served.tally.failed;
    let ops_per_s = served.ops_per_s();
    let mut lat = served.latencies_ms;
    lat.sort_by(f64::total_cmp);
    end_to_end(
        &mut out,
        &reference,
        median(&mut setups),
        ops_per_s,
        &lat,
        median(&mut rss),
    );
    Ok(out)
}

/// Fills in the end-to-end metrics from the set-up seconds, the rate and
/// the sorted latencies as measured, normalised by `reference`, and the
/// peak RSS. The measured values go to `out.unnormalised`.
pub fn end_to_end(
    out: &mut Outcome,
    reference: &Reference,
    setup_s: f64,
    ops_per_s: f64,
    sorted_ms: &[f64],
    rss_mb: f64,
) {
    let p50 = percentile(sorted_ms, 0.5);
    let slow = reference.slowdown();
    out.metrics = vec![
        metric("setup_s", setup_s / slow, "s"),
        metric("ops_per_s", ops_per_s * slow, "1/s"),
        metric("latency_p50_ms", p50 / slow, "ms"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ];
    out.unnormalised = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_p90_ms", percentile(sorted_ms, 0.9), "ms"),
        metric("reference_ms", reference.median_ms(), "ms"),
    ];
}

/// Daemon counters over one traced pass; all 0 where no daemon runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsDelta {
    hits: u64,
    misses: u64,
    invocations: u64,
    rejected: u64,
    shed: u64,
    expired: u64,
    errors: u64,
}

impl StatsDelta {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        StatsDelta {
            hits: b.cache_hits - a.cache_hits,
            misses: b.cache_misses - a.cache_misses,
            invocations: b.scheduler_invocations - a.scheduler_invocations,
            rejected: (b.rejected + b.breaker_rejected) - (a.rejected + a.breaker_rejected),
            shed: b.shed - a.shed,
            expired: b.expired - a.expired,
            errors: b.errors - a.errors,
        }
    }
}

/// One traced live pass of `n` requests with the daemon's counters
/// around it.
fn live_traced(
    client: &mut Client,
    ex: &Expect<'_>,
    n: usize,
    tracer: &mut Tracer,
) -> Result<(Served, StatsDelta), String> {
    let before = stats(client)?;
    let mut served = Served::default();
    closed_loop(client, ex, n, Some(tracer), &mut served);
    let after = stats(client)?;
    Ok((served, StatsDelta::between(&before, &after)))
}

/// Payload bytes per request of the in-process pass; 0 where requests
/// are not encoded.
#[derive(Default)]
pub struct Bytes {
    request: u64,
    response: u64,
}

/// Sends the warm set and then requests `0..n` through the layers'
/// public functions in the daemon's order, each call a child span of
/// its request.
fn in_process(
    ex: &Expect<'_>,
    n: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Bytes, String> {
    let cache: ShardedLru<Arc<Schedule>> = ShardedLru::new(ex.cache, CACHE_SHARDS);
    let warm_n = if ex.cached { ex.graphs.len() } else { 0 };
    let (mut req_bytes, mut resp_bytes) = (0u64, 0u64);
    for k in 0..warm_n + n {
        let warming = k < warm_n;
        let idx = if warming { k } else { ex.index(k - warm_n) };
        let req = Request::Schedule {
            request: Box::new(request(ex.graphs[idx].clone(), ex.procs)),
            deadline_ms: 0,
            tenant: String::new(),
        };
        let id = k as u32;
        let root = tracer.open(id, if warming { "warm.request" } else { "request" }, None);
        let bytes = tracer.time(id, "client.encode_request", Some(root), || {
            encode_request(&req)
        });
        let decoded = tracer.time(id, "proto.decode_request", Some(root), || {
            decode_request(&bytes)
        });
        let Ok(Request::Schedule { request, .. }) = decoded else {
            return Err(format!("request {k} did not decode: {decoded:?}"));
        };
        let fp = tracer.time(id, "fingerprint.request", Some(root), || {
            request_fingerprint(request.algorithm, &request.graph, &request.machine)
        });
        let (schedule, cached) = match tracer.time(id, "cache.get", Some(root), || cache.get(fp)) {
            Some(s) => (s, true),
            None => {
                let s = tracer.time(id, "core.schedule", Some(root), || {
                    Arc::new(schedule_request(&request))
                });
                tracer.time(id, "cache.insert", Some(root), || {
                    cache.insert(fp, Arc::clone(&s))
                });
                (s, false)
            }
        };
        let resp = Response::Schedule {
            cached,
            micros: 0,
            schedule: (*schedule).clone(),
        };
        let wire = tracer.time(id, "proto.encode_response", Some(root), || {
            encode_response(&resp)
        });
        let back = tracer.time(id, "client.decode_response", Some(root), || {
            decode_response(&wire)
        });
        tracer.close(root);
        if !warming {
            req_bytes += bytes.len() as u64;
            resp_bytes += wire.len() as u64;
            let want_cached = ex.cached;
            out.check(cached == want_cached, || {
                format!("in-process request {k}: cached = {cached}")
            });
        }
        let ok = matches!(&back, Ok(Response::Schedule { schedule, .. }) if schedule_digest(schedule) == ex.refs[idx]);
        out.check(ok, || format!("in-process request {k}: schedule differs"));
    }
    Ok(Bytes {
        request: req_bytes / n as u64,
        response: resp_bytes / n as u64,
    })
}

/// Schedules `graphs` through the kernel (build, `new`, `run`) with
/// spans, and times `FlbRun` against `KernelRun` on each. Returns the
/// summed run counters (the largest `max_ready`) and the ratio of median
/// core to median kernel time.
fn kernel_pass(
    graphs: &[TaskGraph],
    procs: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (RunStats, f64) {
    let machine = Machine::new(procs);
    let slow = vec![1; procs];
    let mut total = RunStats::default();
    let (mut core_ms, mut kernel_ms) = (Vec::new(), Vec::new());
    for (i, g) in graphs.iter().enumerate() {
        let id = i as u32;
        let root = tracer.open(id, "kernel", None);
        let fg = tracer.time(id, "kernel.build", Some(root), || {
            FlatGraph::from_task_graph(g)
        });
        let mut run = tracer.time(id, "kernel.new", Some(root), || {
            KernelRun::new(&fg, &slow, TieBreak::BottomLevel)
        });
        tracer.time(id, "kernel.run", Some(root), || run.run());
        tracer.close(root);
        let st = run.stats();
        total.ep_selections += st.ep_selections;
        total.non_ep_selections += st.non_ep_selections;
        total.demotions += st.demotions;
        total.max_ready = total.max_ready.max(st.max_ready);

        let t0 = Instant::now();
        let mut core = FlbRun::new(g, &machine, TieBreak::BottomLevel);
        while core.step().is_some() {}
        core_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let mut again = KernelRun::new(&fg, &slow, TieBreak::BottomLevel);
        again.run();
        kernel_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        out.check(core.stats() == st, || {
            format!("graph {i}: kernel counters differ from FlbRun")
        });
        let core_makespan = core.finish().makespan();
        out.check(core_makespan == run.makespan(), || {
            format!(
                "graph {i}: kernel makespan {} != FlbRun {core_makespan}",
                run.makespan()
            )
        });
    }
    (total, median(&mut core_ms) / median(&mut kernel_ms))
}

/// The per-layer metrics from the spans, the daemon's counters over one
/// traced live pass, the payload sizes and the kernel pass. A layer the
/// workload never calls reads 0.
pub fn layer_metrics(
    tracer: &Tracer,
    live: StatsDelta,
    bytes: &Bytes,
    kernel: RunStats,
    speedup: f64,
) -> Vec<Metric> {
    let selfs = tracer.self_medians_us();
    let us = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let total = |name: &str| -> f64 {
        let mut d: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&mut d)
        }
    };
    let lookups = (live.hits + live.misses).max(1);
    vec![
        metric(
            "client.encode_request_us",
            us("client.encode_request"),
            "us",
        ),
        metric(
            "client.decode_response_us",
            us("client.decode_response"),
            "us",
        ),
        metric("proto.decode_request_us", us("proto.decode_request"), "us"),
        metric(
            "proto.encode_response_us",
            us("proto.encode_response"),
            "us",
        ),
        metric("proto.request_bytes", bytes.request as f64, "B"),
        metric("proto.response_bytes", bytes.response as f64, "B"),
        metric("fingerprint.request_us", us("fingerprint.request"), "us"),
        metric("cache.get_us", us("cache.get"), "us"),
        metric("cache.insert_us", us("cache.insert"), "us"),
        metric(
            "cache.hit_ratio",
            live.hits as f64 / lookups as f64,
            "ratio",
        ),
        metric(
            "server.transport_us",
            total("live.schedule") - total("request"),
            "us",
        ),
        metric(
            "server.scheduler_invocations",
            live.invocations as f64,
            "count",
        ),
        metric("server.rejected", live.rejected as f64, "count"),
        metric("server.shed", live.shed as f64, "count"),
        metric("server.expired", live.expired as f64, "count"),
        metric("server.errors", live.errors as f64, "count"),
        metric("core.schedule_us", us("core.schedule"), "us"),
        metric("kernel.build_us", us("kernel.build"), "us"),
        metric("kernel.new_us", us("kernel.new"), "us"),
        metric("kernel.run_us", us("kernel.run"), "us"),
        metric("kernel.ep_selections", kernel.ep_selections as f64, "count"),
        metric(
            "kernel.non_ep_selections",
            kernel.non_ep_selections as f64,
            "count",
        ),
        metric("kernel.demotions", kernel.demotions as f64, "count"),
        metric("kernel.max_ready", kernel.max_ready as f64, "count"),
        metric("kernel.speedup_vs_core", speedup, "ratio"),
    ]
}

/// The traced run: one daemon and the live passes, then the in-process
/// pass, then the kernel pass. Untraced and traced live passes of the
/// same `n` requests alternate until half of `seconds` has gone by, and
/// the daemon's counters must move by exactly the same amounts in every
/// traced pass.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let graphs = inputs_for(w, seed, &mut out);
    let shape = w.shape();
    let ex = Expect::new(&graphs, w);
    // Whole rounds of the pool, so every pass keeps the round-robin
    // order that makes each `serve-miss` request miss.
    let (cached, n) = (ex.cached, PASS.div_ceil(graphs.len()) * graphs.len());
    let mut tracer = Tracer::new(1 << 16);

    let (daemon, mut client, _) = set_up(&ex)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut traced_ms = Vec::new();
    let mut delta: Option<StatsDelta> = None;
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let mut a = Served::default();
        closed_loop(&mut client, &ex, n, None, &mut a);
        let (mut b, d) = live_traced(&mut client, &ex, n, &mut tracer)?;
        for s in [&mut a, &mut b] {
            out.attempted += s.tally.attempted;
            out.failed += s.tally.failed;
            out.problems.append(&mut s.wrong);
        }
        untraced.push(a.ops_per_s());
        traced.push(b.ops_per_s());
        traced_ms.append(&mut b.latencies_ms);
        if let Some(prev) = delta {
            out.check(prev == d, || {
                format!("daemon counters moved from {prev:?} to {d:?}")
            });
        }
        delta = Some(d);
    }
    daemon.stop(client)?;
    let live = delta.expect("at least one traced pass");
    let want = if cached {
        (n as u64, 0, 0)
    } else {
        (0, n as u64, n as u64)
    };
    out.check((live.hits, live.misses, live.invocations) == want, || {
        format!("traced pass counters {live:?}, want hits/misses/invocations {want:?}")
    });

    let bytes = in_process(&ex, n, &mut tracer, &mut out)?;
    let sample = &graphs[..graphs.len().min(KERNEL_PASS)];
    let (kernel, speedup) = kernel_pass(sample, shape.procs, &mut tracer, &mut out);
    let mut metrics = layer_metrics(&tracer, live, &bytes, kernel, speedup);
    let (u, t) = (median(&mut untraced), median(&mut traced));
    metrics.push(metric("trace.overhead_pct", (u - t) / u * 100.0, "%"));
    traced_ms.sort_by(f64::total_cmp);
    metrics.push(metric(
        "trace.live_p90_us",
        percentile(&traced_ms, 0.9) * 1e3,
        "us",
    ));
    for m in metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "B")
    {
        out.counts.insert(m.name, m.value as u64);
    }
    out.metrics = metrics;
    Ok((out, tracer))
}
