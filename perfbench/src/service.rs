//! `service-blocks`: a closed loop of two TCP connections, each waiting for
//! its reply before sending the next request, against an in-process
//! service with two workers. Requests are top-down placement sub-blocks
//! (the Table IV battery of five ibm-like circuits, cut from the
//! generator's native placement), so the fixed share grows as blocks
//! shrink. This is the only workload that reaches the protocol, queue,
//! cache, warm-start and k-way code.
//!
//! The whole request schedule, classes, seeds and warm-start solution ids
//! included, is generated from the seed before the loop starts and never
//! depends on a reply.
//!
//! The requests carry unit cell areas (pads stay zero-area terminals) and
//! the k=4 requests name their part maxima as capacity vectors: on the
//! blocks' actual cell areas both the k=2 multilevel and the k=4 k-way
//! engine fail some requests, and a timed loop must consist of operations
//! that succeed. The k=4 defect is measured separately on the actual-area
//! blocks (`kway.illegal_frac` in the traced run).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Fixity, Hypergraph, PartId, Tolerance};
use vlsi_netgen::blocks::standard_instances;
use vlsi_partition::{refine_from_partition_ctx, CancelToken, EngineConfig, Multistart, RunCtx};
use vlsi_rng::seq::SliceRandom;
use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};
use vlsi_service::json::{self, Json};
use vlsi_service::{cache_key, parse_request, JobRequest, Request, ServiceConfig, SolutionCache};
use vlsi_trace::NullSink;

use crate::common::{geomean, median, process_cpu_s, ratio, referee, tail, Report, SetUps, Spans};

/// Scale of the ibm-like circuits the blocks are cut from.
pub const SCALE: f64 = 0.15;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Requests generated per connection; far more than a run sends.
const SCHEDULE_LEN: usize = 3000;
const COLD_STARTS: usize = 2;
/// The service's default balance tolerance, which every request uses; k=4
/// requests send the part maxima it gives as capacity vectors.
const TOLERANCE: f64 = 0.1;
/// Passes the server's warm path runs (its `WARM_MAX_PASSES`).
const WARM_MAX_PASSES: usize = 4;
/// Cap on the requests the traced run re-times layer by layer.
const LAYER_SAMPLE: usize = 24;
/// Per-layer metrics off this workload's path; its traced run reports 0
/// for them.
pub const UNREACHED: &[&str] = &[
    "io.read_s",
    "io.read_mb_s",
    "coarsen.s",
    "coarsen.levels",
    "coarsen.l0_s",
    "coarsen.t2_over_t1",
    "project.s",
    "initial.s",
    "refine.s",
    "refine.l0_s",
    "refine.t2_over_t1",
    "fm.tried_per_pass.free",
    "fm.tried_per_pass.good5",
    "fm.tried_per_pass.good20",
    "fm.tried_per_pass.good50",
    "fm.tried_per_pass.rand5",
    "fm.tried_per_pass.rand20",
    "fm.tried_per_pass.rand50",
    "multistart.start_s",
    "multistart.par_eff",
    "quality.s",
    "quality.cut_gain",
];
/// Set-ups timed on each side of the untraced loop, besides the first.
const SETUPS_EACH_SIDE: usize = 4;
const CIRCUITS: [&str; 5] = ["ibm01", "ibm02", "ibm03", "ibm04", "ibm05"];

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// k=2 multilevel bisection with a new seed.
    Cold,
    /// k=4 direct k-way under per-part capacity vectors.
    Quad,
    /// Warm start from an earlier cold solution with a one-net delta.
    Warm,
    /// Exact repeat of an earlier cold request.
    Repeat,
}

impl Class {
    /// Every class, in index order.
    const ALL: [Class; 4] = [Class::Cold, Class::Quad, Class::Warm, Class::Repeat];

    fn label(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Quad => "quad",
            Class::Warm => "warm",
            Class::Repeat => "repeat",
        }
    }
}

/// One block: its request body and a cold request for it as the server
/// parses it (instance, engine, tolerance, refinement regime), plus the
/// block with its actual cell areas for the k=4 defect probe.
pub struct Block {
    /// `"hypergraph":{...},"fixed":[...]`, at unit cell areas.
    pub body: String,
    pub job: JobRequest,
    /// Each part's area maximum at k=4 under `TOLERANCE`.
    pub quad_cap: u64,
    pub actual: Hypergraph,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Entry {
    pub class: Class,
    pub block: usize,
    pub seed: u64,
    /// Warm: the solution id of the earlier cold request it starts from,
    /// the index of that request in this connection's schedule, and the
    /// added net.
    pub warm: Option<(String, usize, [usize; 2])>,
}

/// Blocks plus one schedule per connection.
pub struct Inputs {
    pub blocks: Vec<Block>,
    pub schedules: Vec<Vec<Entry>>,
    /// Cold requests per connection that together cover every block once;
    /// the run always completes at least these.
    pub first_pass: usize,
}

/// The request body of a block, every cell at unit area and every
/// zero-area pad kept at zero.
fn encode_body(hg: &Hypergraph, fixed: &FixedVertices) -> String {
    let mut s = String::with_capacity(16 * hg.num_pins());
    s.push_str("\"hypergraph\":{\"vertices\":[");
    for (i, v) in hg.vertices().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", hg.vertex_weight(v).min(1));
    }
    s.push_str("],\"nets\":[");
    for (i, n) in hg.nets().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let w = hg.net_weight(n);
        if w != 1 {
            let _ = write!(s, "{{\"w\":{w},\"pins\":");
        }
        s.push('[');
        for (j, p) in hg.net_pins(n).iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", p.index());
        }
        s.push(']');
        if w != 1 {
            s.push('}');
        }
    }
    s.push_str("]},\"fixed\":[");
    for (i, f) in fixed.as_slice().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match f {
            Fixity::Fixed(p) => {
                let _ = write!(s, "{}", p.index());
            }
            _ => s.push_str("-1"),
        }
    }
    s.push(']');
    s
}

fn job_params(class: Class) -> (&'static str, usize, usize) {
    match class {
        Class::Quad => ("kway", 4, 1),
        _ => ("ml", 2, COLD_STARTS),
    }
}

/// The request line of `schedule[i]` on connection `conn`.
pub fn request_line(inputs: &Inputs, conn: usize, i: usize) -> String {
    let e = &inputs.schedules[conn][i];
    let block = &inputs.blocks[e.block];
    let (engine, k, starts) = job_params(e.class);
    let mut line = format!(
        "{{\"id\":\"{}\",\"engine\":\"{engine}\",\"k\":{k},\"starts\":{starts},\"threads\":1,\"seed\":{},",
        request_id(conn, i),
        e.seed
    );
    if e.class == Class::Quad {
        let cap = block.quad_cap;
        let _ = write!(
            line,
            "\"part_capacities\":[[{cap}],[{cap}],[{cap}],[{cap}]],"
        );
    }
    if let Some((sid, _, [a, b])) = &e.warm {
        let _ = write!(
            line,
            "\"warm_start\":{{\"solution_id\":\"{sid}\",\"delta\":{{\"added_nets\":[[{a},{b}]]}}}},"
        );
    }
    line.push_str(&block.body);
    line.push('}');
    line
}

fn request_id(conn: usize, i: usize) -> String {
    format!("c{conn}-{i}")
}

fn request_number(conn: usize, i: usize) -> u64 {
    (conn * 1_000_000 + i) as u64
}

/// Generates the blocks and the schedules. Nothing here depends on the
/// service under test except its public parser and cache-key functions,
/// which name the solutions warm starts refer to.
pub fn setup(seed: u64, scale: f64) -> Inputs {
    let mut blocks = Vec::new();
    for (c, name) in CIRCUITS.iter().enumerate() {
        let circuit = vlsi_netgen::instances::by_name(name, scale, seed.wrapping_add(c as u64))
            .expect("preset names are valid");
        for inst in standard_instances(&circuit, None) {
            let body = encode_body(&inst.hypergraph, &inst.fixed);
            let template = format!(
                "{{\"id\":\"t\",\"engine\":\"ml\",\"k\":2,\"starts\":{COLD_STARTS},\"threads\":1,\"seed\":0,{body}}}"
            );
            let Ok(Request::Job(job)) = parse_request(&template) else {
                panic!("block {} does not encode to a valid request", inst.name);
            };
            let quad_cap =
                BalanceConstraint::even(4, job.hg.total_weights(), Tolerance::Relative(TOLERANCE))
                    .max(PartId(0), 0);
            blocks.push(Block {
                body,
                job: *job,
                quad_cap,
                actual: inst.hypergraph,
            });
        }
    }
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x000B_10C5));
    let first_pass = blocks.len().div_ceil(CONNECTIONS);

    let mut schedules = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x5E4_u64 << (8 * conn)));
        let mut colds: Vec<usize> = Vec::new();
        let mut sched: Vec<Entry> = Vec::with_capacity(SCHEDULE_LEN);
        for i in 0..SCHEDULE_LEN {
            // The wire format carries integers exactly only below 2^53.
            let req_seed = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ request_number(conn, i))
                & ((1 << 52) - 1);
            let u: f64 = rng.gen_range(0.0..1.0);
            let class = if colds.is_empty() || u < 0.5 {
                Class::Cold
            } else if u < 0.7 {
                Class::Quad
            } else if u < 0.85 {
                Class::Warm
            } else {
                Class::Repeat
            };
            let entry = match class {
                Class::Cold => {
                    let block = order[(CONNECTIONS * colds.len() + conn) % order.len()];
                    colds.push(i);
                    Entry {
                        class,
                        block,
                        seed: req_seed,
                        warm: None,
                    }
                }
                Class::Quad => Entry {
                    class,
                    block: rng.gen_range(0..blocks.len()),
                    seed: req_seed,
                    warm: None,
                },
                Class::Warm => {
                    let target = *colds.last().expect("a cold request came first");
                    let cold = &sched[target];
                    let t = &blocks[cold.block].job;
                    let sid = cache_key(
                        &t.engine,
                        t.k,
                        t.tolerance,
                        t.starts,
                        cold.seed,
                        t.starts == 1 && t.threads >= 2,
                        t.vcycles,
                        t.ensemble,
                        t.objective,
                        None,
                        &t.hg,
                        &t.fixed,
                    )
                    .solution_id();
                    let n = t.hg.num_vertices();
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    Entry {
                        class,
                        block: cold.block,
                        seed: req_seed,
                        warm: Some((sid, target, [a, b])),
                    }
                }
                Class::Repeat => {
                    let recent = &colds[colds.len().saturating_sub(4)..];
                    let target = recent[rng.gen_range(0..recent.len())];
                    Entry {
                        class,
                        ..sched[target].clone()
                    }
                }
            };
            sched.push(entry);
        }
        schedules.push(sched);
    }
    Inputs {
        blocks,
        schedules,
        first_pass,
    }
}

/// One reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub index: usize,
    pub class: Class,
    pub sent: Instant,
    pub latency_s: f64,
    /// `None` for an error reply or no reply.
    pub ok: Option<OkReply>,
    pub error: Option<String>,
}

#[derive(Debug, Clone)]
pub struct OkReply {
    pub cut: u64,
    pub parts: Vec<PartId>,
    pub micros: u64,
    pub cache_hit: bool,
    pub warm_hit: bool,
}

fn parse_reply(line: &str, id: &str) -> Result<OkReply, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("unparsable reply: {e}"))?;
    if v.get("id").and_then(Json::as_str) != Some(id) {
        return Err("reply to another request".to_string());
    }
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        let code = v.get("code").and_then(Json::as_str).unwrap_or("?");
        return Err(code.to_string());
    }
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("reply lacks {k}"))
    };
    let parts = v
        .get("parts")
        .and_then(Json::as_arr)
        .ok_or("reply lacks parts")?
        .iter()
        .map(|p| p.as_u64().map(|x| PartId(x as u32)).ok_or("bad part id"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(OkReply {
        cut: num("cut")?,
        parts,
        micros: num("micros")?,
        cache_hit: v.get("cache_hit").and_then(Json::as_bool) == Some(true),
        warm_hit: v.get("warm").and_then(Json::as_str) == Some("hit"),
    })
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..300 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(last.expect("at least one attempt"))
}

/// One connection's closed loop: send, wait for the reply, repeat, until
/// the window has passed and this connection's first-pass cold requests
/// are answered.
fn client(inputs: &Inputs, conn: usize, addr: &str, start: Instant, seconds: f64) -> Vec<Reply> {
    let mut replies = Vec::new();
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            replies.push(Reply {
                index: 0,
                class: inputs.schedules[conn][0].class,
                sent: Instant::now(),
                latency_s: 0.0,
                ok: None,
                error: Some(format!("connect: {e}")),
            });
            return replies;
        }
    };
    let mut writer = stream.try_clone().expect("clone a connected socket");
    let mut reader = BufReader::new(stream);
    let mut colds = 0;
    let mut buf = String::new();
    for (i, e) in inputs.schedules[conn].iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds && colds >= inputs.first_pass {
            break;
        }
        let line = request_line(inputs, conn, i);
        buf.clear();
        let sent = Instant::now();
        let io = writeln!(writer, "{line}").and_then(|_| reader.read_line(&mut buf));
        let latency_s = sent.elapsed().as_secs_f64();
        let (ok, error) = match io {
            Ok(0) => (None, Some("connection closed".to_string())),
            Ok(_) => match parse_reply(&buf, &request_id(conn, i)) {
                Ok(r) => (Some(r), None),
                Err(code) => (None, Some(code)),
            },
            Err(err) => (None, Some(format!("transport: {err}"))),
        };
        let broken = error
            .as_deref()
            .is_some_and(|m| m.starts_with("transport") || m.starts_with("connection"));
        if e.class == Class::Cold {
            colds += 1;
        }
        replies.push(Reply {
            index: i,
            class: e.class,
            sent,
            latency_s,
            ok,
            error,
        });
        if broken {
            break;
        }
    }
    replies
}

/// The instance, balance and part count a request was solved under, as the
/// server parses it.
fn parsed_job(inputs: &Inputs, conn: usize, i: usize) -> Result<JobRequest, String> {
    match parse_request(&request_line(inputs, conn, i)) {
        Ok(Request::Job(job)) => Ok(*job),
        Ok(_) => Err("not a job".to_string()),
        Err(e) => Err(e.message),
    }
}

/// The balance a job is solved and refereed under, as the server derives
/// it: the capacity vectors when the request names them, else the even
/// split at the request's tolerance.
fn job_balance(job: &JobRequest) -> BalanceConstraint {
    match &job.part_capacities {
        Some(caps) => caps.to_balance(),
        None => BalanceConstraint::even(
            job.k,
            job.hg.total_weights(),
            Tolerance::Relative(job.tolerance),
        ),
    }
}

/// What the loop's replies add up to, after the referee has seen each.
pub struct Tally {
    /// Client-side latency of every reply, in seconds.
    pub lat: Vec<f64>,
    /// Latencies in ms, indexed by `Class as usize`.
    pub by_class: [Vec<f64>; 4],
    /// Cuts of the good first-pass cold replies, one per block.
    pub first_pass_cuts: Vec<f64>,
    pub ok_count: u64,
    pub cache_hits: u64,
    pub warm_sent: u64,
    pub warm_hits: u64,
    /// Client latency minus the server-reported service time, in ms.
    pub overhead: Vec<f64>,
    /// `class:code xN` for every error reply.
    pub codes: Vec<String>,
}

/// Referees every reply the service called good and counts every
/// operation into `report`: an error reply, no reply and a rejected
/// partition all count as failed, and a rejected partition also marks the
/// run incorrect.
pub fn tally(inputs: &Inputs, per_conn: &[Vec<Reply>], report: &mut Report) -> Tally {
    let mut lat = Vec::new();
    let mut by_class: [Vec<f64>; 4] = Default::default();
    let mut first_pass_cuts = Vec::new();
    let (mut ok_count, mut cache_hits, mut warm_sent, mut warm_hits) = (0u64, 0u64, 0u64, 0u64);
    let mut overhead = Vec::new();
    let mut codes: BTreeMap<String, usize> = BTreeMap::new();
    for (conn, replies) in per_conn.iter().enumerate() {
        let mut colds = 0;
        for r in replies {
            report.attempted += 1;
            lat.push(r.latency_s);
            by_class[r.class as usize].push(r.latency_s * 1e3);
            if r.class == Class::Warm {
                warm_sent += 1;
            }
            let first_pass = r.class == Class::Cold && colds < inputs.first_pass;
            if r.class == Class::Cold {
                colds += 1;
            }
            let Some(ok) = &r.ok else {
                report.failed += 1;
                let code = r.error.as_deref().unwrap_or_default();
                *codes
                    .entry(format!("{}:{code}", r.class.label()))
                    .or_default() += 1;
                continue;
            };
            let checked = parsed_job(inputs, conn, r.index).and_then(|job| {
                referee(
                    &job.hg,
                    job.k,
                    ok.parts.clone(),
                    &job_balance(&job),
                    &job.fixed,
                    Some(ok.cut),
                )
            });
            match checked {
                Ok(cut) => {
                    ok_count += 1;
                    cache_hits += ok.cache_hit as u64;
                    warm_hits += ok.warm_hit as u64;
                    overhead.push(r.latency_s * 1e3 - ok.micros as f64 / 1e3);
                    if first_pass {
                        first_pass_cuts.push(cut as f64);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.fail_check(format!(
                        "reply c{conn}-{} ({}) reported ok but the referee rejects it: {e}",
                        r.index,
                        r.class.label()
                    ));
                }
            }
        }
    }
    Tally {
        lat,
        by_class,
        first_pass_cuts,
        ok_count,
        cache_hits,
        warm_sent,
        warm_hits,
        overhead,
        codes: codes.into_iter().map(|(c, n)| format!("{c}x{n}")).collect(),
    }
}

/// Runs the loop, referees every reply and reports; with `trace` also
/// re-times the protocol, cache, k-way and warm-start layers on the
/// requests the loop sent.
pub fn run(seed: u64, seconds: f64, scale: f64, trace: bool, spans: &mut Spans) -> Report {
    let mut report = Report::new();
    let (mut setups, inputs) = SetUps::first(|| setup(seed, scale));
    // The untraced run brackets the loop with set-ups, half before it and
    // half after, so that their median spans the loop's stretch of time.
    if !trace {
        for _ in 0..SETUPS_EACH_SIDE {
            setups.again();
        }
    }
    let sizes: Vec<usize> = inputs
        .blocks
        .iter()
        .map(|b| b.job.hg.num_vertices())
        .collect();
    let fixed_pct: Vec<f64> = inputs
        .blocks
        .iter()
        .map(|b| 100.0 * b.job.fixed.num_fixed() as f64 / b.job.hg.num_vertices() as f64)
        .collect();
    report.note(format!(
        "workload service-blocks: {} blocks of {}..{} vertices at unit cell area, {:.0}..{:.0}% fixed; {CONNECTIONS} connections, {WORKERS} workers, closed loop",
        inputs.blocks.len(),
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0),
        fixed_pct.iter().copied().fold(f64::INFINITY, f64::min),
        fixed_pct.iter().copied().fold(0.0, f64::max),
    ));

    // Probe a free loopback port for the in-process server.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        probe.local_addr().expect("local address").to_string()
    };
    let server_addr = addr.clone();
    let server = std::thread::spawn(move || {
        vlsi_service::serve_tcp(
            ServiceConfig {
                workers: WORKERS,
                ..ServiceConfig::default()
            },
            server_addr.as_str(),
        )
    });

    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let per_conn: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (inputs, addr) = (&inputs, addr.as_str());
                scope.spawn(move || client(inputs, conn, addr, start, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let measured = start.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;

    let snapshot = match connect(&addr) {
        Ok(mut ctl) => {
            let _ = writeln!(ctl, "{{\"op\":\"shutdown\"}}");
            let mut ack = String::new();
            let _ = BufReader::new(ctl).read_line(&mut ack);
            server.join().expect("server thread").ok()
        }
        Err(e) => {
            report.fail_check(format!("cannot reach the server to shut it down: {e}"));
            None
        }
    };

    let t = tally(&inputs, &per_conn, &mut report);
    let (pct, tail_s, n) = tail(&t.lat);
    report.note(format!(
        "replies={n} ok={} measured_s={measured:.3} latency tail is p{pct:.1} over {n} samples; errors [{}]",
        t.ok_count,
        t.codes.join(" ")
    ));
    report.note(format!(
        "per class: {}",
        Class::ALL
            .iter()
            .zip(&t.by_class)
            .map(|(c, v)| format!("{}={} p50={:.2}ms", c.label(), v.len(), median(v)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if t.first_pass_cuts.len() < inputs.blocks.len() {
        report.note(format!(
            "only {} of {} first-pass cold replies are good; cut covers those",
            t.first_pass_cuts.len(),
            inputs.blocks.len()
        ));
    }

    if !trace {
        let peak_rss = crate::common::peak_rss_mib();
        for _ in 0..SETUPS_EACH_SIDE {
            setups.again();
        }
        let (setup_s, setup_n) = setups.median();
        report.note(format!("setups={setup_n}"));
        report.metric("setup_s", setup_s, "s");
        // A cold bisection is the service's solve; the median over all
        // replies would fall between the class modes.
        report.metric(
            "solve_s",
            median(&t.by_class[Class::Cold as usize]) / 1e3,
            "s",
        );
        report.metric("cpu_s", ratio(cpu, n as f64), "s");
        report.metric("cut", geomean(&t.first_pass_cuts), "nets");
        report.metric("peak_rss_mib", peak_rss, "MiB");
        report.metric("jobs_per_s", t.ok_count as f64 / measured, "1/s");
        return report;
    }

    report.metric("latency_ms.tail", tail_s * 1e3, "ms");
    report.metric("latency_ms.p50", median(&t.lat) * 1e3, "ms");
    for (class, v) in Class::ALL.iter().zip(&t.by_class) {
        let name = format!("{}_ms.p50", class.label());
        report.metric(&name, median(v), "ms");
    }
    report.metric("server.overhead_ms.p50", median(&t.overhead), "ms");
    report.metric(
        "cache.hit_frac",
        ratio(t.cache_hits as f64, t.ok_count as f64),
        "ratio",
    );
    report.metric(
        "warmstart.hit_frac",
        ratio(t.warm_hits as f64, t.warm_sent as f64),
        "ratio",
    );
    if let Some(s) = &snapshot {
        crate::bisect::fm_metrics(&mut report, &s.engine);
    }
    layer_metrics(&inputs, &per_conn, &mut report, spans);
    report
}

/// Re-times the protocol, cache, k-way and warm-start layers by calling
/// their public functions on the requests the loop sent.
fn layer_metrics(inputs: &Inputs, per_conn: &[Vec<Reply>], report: &mut Report, spans: &mut Spans) {
    // Client-side request spans from the loop.
    for (conn, replies) in per_conn.iter().enumerate() {
        for r in replies {
            spans.record(
                "request",
                r.sent,
                r.sent + Duration::from_secs_f64(r.latency_s),
                Some(request_number(conn, r.index)),
            );
        }
    }
    // Parse and cache lookup, in send order, on the same lines.
    let mut cache = SolutionCache::new(128);
    let (mut parse_s, mut lookup_us, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let (mut kway_ms, mut kway_illegal, mut kway_runs) = (Vec::new(), 0usize, 0usize);
    let mut warm_ms = Vec::new();
    // Warm re-runs that the server answered from the same seed solution,
    // and how many of them returned the server's partition.
    let (mut replicas, mut replicas_matched) = (0usize, 0usize);
    for (conn, replies) in per_conn.iter().enumerate() {
        for r in replies {
            let req = Some(request_number(conn, r.index));
            let line = request_line(inputs, conn, r.index);
            bytes += line.len();
            let id = spans.enter("parse_request", req);
            let parsed = parse_request(&line);
            spans.exit(id);
            parse_s.push(spans.spans[id].dur());
            let Ok(Request::Job(job)) = parsed else {
                report.fail_check(format!("request c{conn}-{} does not parse", r.index));
                continue;
            };
            let id = spans.enter("cache_lookup", req);
            let key = cache_key(
                &job.engine,
                job.k,
                job.tolerance,
                job.starts,
                job.seed,
                job.starts == 1 && job.threads >= 2,
                job.vcycles,
                job.ensemble,
                job.objective,
                job.part_capacities.as_ref(),
                &job.hg,
                &job.fixed,
            );
            let hit = cache.get(&key);
            spans.exit(id);
            lookup_us.push(spans.spans[id].dur() * 1e6);
            if hit.is_none() && r.class == Class::Cold {
                if let Some(ok) = &r.ok {
                    cache.insert(key, ok.parts.clone(), ok.cut);
                }
            }
            let balance = job_balance(&job);
            match r.class {
                Class::Quad if kway_runs < LAYER_SAMPLE => {
                    kway_runs += 1;
                    let engine = EngineConfig::by_name(&job.engine)
                        .expect("the parser validated the engine")
                        .with_objective(job.objective)
                        .with_threads(job.threads.max(1));
                    let solve = |hg: &Hypergraph, balance: &BalanceConstraint| {
                        Multistart::new(job.starts).run_parallel(
                            hg,
                            &job.fixed,
                            balance,
                            job.threads,
                            job.seed,
                            &engine,
                            &NullSink,
                            &NullSink,
                            &CancelToken::never(),
                        )
                    };
                    // The job as the server runs it.
                    let id = spans.enter("kway", req);
                    drop(std::hint::black_box(solve(&job.hg, &balance)));
                    spans.exit(id);
                    kway_ms.push(spans.spans[id].dur() * 1e3);
                    // The defect probe: the same job on the block's actual
                    // cell areas under the even k=4 split, which is how the
                    // server solves a request without capacity vectors.
                    let actual = &inputs.blocks[inputs.schedules[conn][r.index].block].actual;
                    let even = BalanceConstraint::even(
                        job.k,
                        actual.total_weights(),
                        Tolerance::Relative(job.tolerance),
                    );
                    let legal = solve(actual, &even).is_ok_and(|o| {
                        referee(actual, job.k, o.best.parts, &even, &job.fixed, None).is_ok()
                    });
                    kway_illegal += (!legal) as usize;
                }
                Class::Warm if warm_ms.len() < LAYER_SAMPLE => {
                    let (_, target, _) = inputs.schedules[conn][r.index]
                        .warm
                        .as_ref()
                        .expect("warm entries carry their target");
                    let Some(seed_parts) = replies
                        .iter()
                        .find(|x| x.index == *target)
                        .and_then(|x| x.ok.as_ref())
                        .map(|ok| ok.parts.clone())
                    else {
                        continue;
                    };
                    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
                    let id = spans.enter("warmstart", req);
                    let out = refine_from_partition_ctx(
                        &job.hg,
                        &job.fixed,
                        &balance,
                        &seed_parts,
                        job.objective,
                        WARM_MAX_PASSES,
                        RunCtx::new(&mut rng).with_threads(job.threads),
                    );
                    spans.exit(id);
                    if let Ok(out) = out {
                        warm_ms.push(spans.spans[id].dur() * 1e3);
                        if let Some(ok) = r.ok.as_ref().filter(|ok| ok.warm_hit) {
                            replicas += 1;
                            replicas_matched += (out.result.parts == ok.parts) as usize;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    report.note(format!(
        "warm-start replica: {replicas_matched} of {replicas} warm replies reproduced in process"
    ));
    let replica_match = replicas > 0 && replicas_matched == replicas;
    if !replica_match {
        report.fail_check(
            "the in-process warm-start re-runs do not reproduce the service's warm replies",
        );
    }
    report.metric("replica_match", replica_match as u8 as f64, "bool");
    report.note(format!(
        "k-way defect probe: {kway_illegal} of {kway_runs} quad requests, re-run in process on actual cell areas under the even split, return no partition the referee accepts"
    ));
    report.metric("protocol.parse_ms", median(&parse_s) * 1e3, "ms");
    report.metric(
        "protocol.parse_mb_s",
        bytes as f64 / 1e6 / parse_s.iter().sum::<f64>(),
        "MB/s",
    );
    report.metric("cache.lookup_us", median(&lookup_us), "us");
    report.metric("kway.ms", median(&kway_ms), "ms");
    report.metric(
        "kway.illegal_frac",
        ratio(kway_illegal as f64, kway_runs as f64),
        "ratio",
    );
    report.metric("warmstart.ms", median(&warm_ms), "ms");
    report.note(
        "trace.overhead_frac: the loop runs untraced in both modes; layers are re-timed after it",
    );
    report.metric("trace.overhead_frac", 0.0, "ratio");
}
