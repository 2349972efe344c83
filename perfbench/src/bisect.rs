//! `bisect-rent-50k`: one 2-way multilevel bisection of a streaming
//! Rent's-rule instance, parsed from its `.hgr`/`.fix` bytes inside every
//! timed solve. Refinement dominates it; multistart, the quality phase,
//! k-way and the service are not on its path.

use std::time::Instant;

use vlsi_hypergraph::io::{read_fix, read_hgr, write_fix, write_hgr};
use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, PartId, Tolerance, VertexId};
use vlsi_partition::multilevel::{coarsen_once, CoarsenParams, Level};
use vlsi_partition::{
    BipartFm, FmStack, MultilevelConfig, MultilevelPartitioner, PartitionError, Partitioner,
    Refiner, RunCtx,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_trace::{CounterSink, Counters, Sink};

use crate::common::{geomean, median, peak_rss_mib, process_cpu_s, referee, Report, SetUps, Spans};

/// Share of vertices fixed: every `FIXED_STRIDE`-th vertex, alternately to
/// part 0 and part 1, as in the million-cell scale smoke.
const FIXED_FRACTION: f64 = 0.02;
/// Share of the 1M-cell preset: ~52k vertices, a CSR well above L2. At 250k
/// the solve time swung by a third with the load of other tenants of the
/// machine; at this size it stays within a tenth.
pub const SCALE: f64 = 0.05;
const FIXED_STRIDE: usize = 41;
/// Per-layer metrics off this workload's path; its traced run reports 0
/// for them.
pub const UNREACHED: &[&str] = &[
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
    "kway.ms",
    "kway.illegal_frac",
    "warmstart.ms",
    "warmstart.hit_frac",
    "protocol.parse_ms",
    "protocol.parse_mb_s",
    "cache.lookup_us",
    "cache.hit_frac",
    "server.overhead_ms.p50",
    "latency_ms.p50",
    "latency_ms.tail",
    "cold_ms.p50",
    "quad_ms.p50",
    "warm_ms.p50",
    "repeat_ms.p50",
];
const TOLERANCE: f64 = 0.05;
const THREADS: usize = 2;

/// The generated instance as the bytes a user would hand the partitioner.
pub struct Inputs {
    pub hgr: Vec<u8>,
    pub fix: Vec<u8>,
    /// Name, vertices, nets and pins, for the report.
    pub shape: (String, usize, usize, usize),
}

/// Generates the instance for `seed` at `scale` of the 1M-cell preset and
/// encodes it. Nothing here depends on the partitioner.
pub fn setup(seed: u64, scale: f64) -> Inputs {
    let circuit = vlsi_netgen::instances::million_cells_scaled(scale, seed);
    let hg = &circuit.hypergraph;
    let n = hg.num_vertices();
    let mut fixed = FixedVertices::all_free(n);
    for i in 0..(n as f64 * FIXED_FRACTION) as usize {
        fixed.fix(
            VertexId::from_index(i * FIXED_STRIDE),
            PartId((i % 2) as u32),
        );
    }
    let mut hgr = Vec::new();
    write_hgr(&mut hgr, hg).expect("writing to memory cannot fail");
    let mut fix = Vec::new();
    write_fix(&mut fix, &fixed).expect("writing to memory cannot fail");
    Inputs {
        hgr,
        fix,
        shape: (circuit.name.clone(), n, hg.num_nets(), hg.num_pins()),
    }
}

fn config(threads: usize) -> MultilevelConfig {
    MultilevelConfig {
        threads,
        ..MultilevelConfig::default()
    }
}

fn balance_of(hg: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(TOLERANCE))
}

fn parse(inputs: &Inputs) -> Result<(Hypergraph, FixedVertices), String> {
    let hg = read_hgr(&inputs.hgr[..]).map_err(|e| format!("read_hgr: {e}"))?;
    let fixed =
        read_fix(&inputs.fix[..], hg.num_vertices()).map_err(|e| format!("read_fix: {e}"))?;
    Ok((hg, fixed))
}

/// One timed operation: bytes to a referee-checked partition. Returns the
/// partition and its cut.
fn solve(inputs: &Inputs, threads: usize, seed: u64) -> Result<(Vec<PartId>, u64), String> {
    let (hg, fixed) = parse(inputs)?;
    let balance = balance_of(&hg);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let r = MultilevelPartitioner::new(config(threads))
        .partition_ctx(&hg, &fixed, &balance, RunCtx::new(&mut rng))
        .map_err(|e| e.to_string())?;
    let cut = referee(&hg, 2, r.parts.clone(), &balance, &fixed, Some(r.cut))?;
    Ok((r.parts, cut))
}

/// Per-call wall times of one replica run, in call order.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `coarsen_once`, finest level first.
    pub coarsen: Vec<f64>,
    /// `BipartFm::run_random`, one per coarsest-level start.
    pub initial: Vec<f64>,
    /// `Level::project`, coarsest level first.
    pub project: Vec<f64>,
    /// `FmStack::refine_ctx`, coarsest level first (the last is level 0).
    pub refine: Vec<f64>,
}

/// The multilevel pipeline rebuilt from its public calls, timing each one
/// into `spans`: `coarsen_once` down to the coarsest level, the
/// coarsest-level `run_random` starts, then `project` and
/// `FmStack::refine_ctx` back up, all drawing from one RNG in the engine's
/// order. It must reproduce `MultilevelPartitioner::partition_ctx`
/// exactly; the traced runs check that it does.
pub fn replica<S: Sink>(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    cfg: &MultilevelConfig,
    seed: u64,
    sink: &S,
    spans: &mut Spans,
) -> Result<(Vec<PartId>, u64, LayerTimes), PartitionError> {
    assert_eq!(cfg.vcycles, 0, "the replica covers the plain V only");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut times = LayerTimes::default();
    let params = CoarsenParams {
        max_cluster_weight: ((hg.total_weight() as f64) * cfg.max_cluster_fraction)
            .ceil()
            .max(1.0) as u64,
        max_cluster_weights: Vec::new(),
        max_net_size_for_matching: 64,
        max_fixed_part_weight: (0..2).map(|p| balance.max(PartId(p), 0)).collect(),
        allow_free_fixed_merge: false,
        threads: cfg.threads,
    };
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let (cur_hg, cur_fixed) = match levels.last() {
            Some(l) => (&l.hg, &l.fixed),
            None => (hg, fixed),
        };
        if cur_hg.num_vertices() <= cfg.coarsest_size {
            break;
        }
        let id = spans.enter("coarsen_once", None);
        let level = coarsen_once(cur_hg, cur_fixed, &params, cfg.min_shrink, None, &mut rng);
        spans.exit(id);
        times.coarsen.push(spans.spans[id].dur());
        match level {
            Some(level) => levels.push(level),
            None => break,
        }
    }

    let (coarsest_hg, coarsest_fixed) = match levels.last() {
        Some(l) => (&l.hg, &l.fixed),
        None => (hg, fixed),
    };
    let coarse_fm = BipartFm::new(cfg.coarse_fm).with_threads(cfg.threads);
    let mut best: Option<(u64, Vec<PartId>)> = None;
    for _ in 0..cfg.coarse_starts.max(1) {
        let id = spans.enter("run_random", None);
        let r =
            coarse_fm.run_random_with_sink(coarsest_hg, coarsest_fixed, balance, &mut rng, sink);
        spans.exit(id);
        times.initial.push(spans.spans[id].dur());
        let r = r?;
        if best.as_ref().is_none_or(|(c, _)| r.cut < *c) {
            best = Some((r.cut, r.parts));
        }
    }
    let (mut cut, mut parts) = best.expect("at least one start");

    let refiner = FmStack::from_multilevel(cfg);
    for i in (0..levels.len()).rev() {
        let id = spans.enter("project", None);
        let fine_parts = levels[i].project(&parts);
        spans.exit(id);
        times.project.push(spans.spans[id].dur());
        let (fine_hg, fine_fixed) = if i == 0 {
            (hg, fixed)
        } else {
            (&levels[i - 1].hg, &levels[i - 1].fixed)
        };
        let id = spans.enter("refine_ctx", None);
        let r = refiner.refine_ctx(
            fine_hg,
            fine_fixed,
            balance,
            fine_parts,
            RunCtx::new(&mut rng).with_sink(sink),
        );
        spans.exit(id);
        times.refine.push(spans.spans[id].dur());
        let r = r?;
        parts = r.parts;
        cut = r.cut;
    }
    Ok((parts, cut, times))
}

/// The untraced run: set up, then solve repeatedly for about `seconds`.
pub fn run(seed: u64, seconds: f64, scale: f64) -> Report {
    let mut report = Report::new();
    let (mut setups, inputs) = SetUps::first(|| setup(seed, scale));
    let (name, vertices, nets, pins) = &inputs.shape;
    report.note(format!(
        "workload bisect-rent-50k: {name}: {vertices} vertices, {nets} nets, {pins} pins ({} hgr bytes), {}% fixed, {}% tolerance, t{THREADS}",
        inputs.hgr.len(),
        FIXED_FRACTION * 100.0,
        TOLERANCE * 100.0
    ));

    let (mut walls, mut cpus, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<PartId>> = None;
    let mut peak_rss = 0.0;
    // Seconds of repeated set-ups, kept out of the window.
    let mut setup_spent = 0.0;
    let start = Instant::now();
    // Start another solve while it would end no later than half a solve
    // past the window; at least two solves always run.
    while walls.len() < 2
        || start.elapsed().as_secs_f64() - setup_spent + median(&walls) / 2.0 < seconds
    {
        // One set-up before every solve after the first, once the peak
        // resident set has been read.
        if first.is_some() {
            setup_spent += setups.again();
        }
        report.attempted += 1;
        let (t, c) = (Instant::now(), process_cpu_s());
        let out = std::hint::black_box(solve(&inputs, THREADS, seed));
        let (wall, cpu) = (t.elapsed().as_secs_f64(), process_cpu_s() - c);
        match out {
            Ok((parts, cut)) => {
                walls.push(wall);
                cpus.push(cpu);
                cuts.push(cut as f64);
                match &first {
                    None => {
                        first = Some(parts);
                        // Later solves only add allocator noise that
                        // depends on how many fit in the window.
                        peak_rss = peak_rss_mib();
                    }
                    Some(p) if *p != parts => {
                        report.fail_check("a repeated solve with one seed changed its partition")
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("solve failed: {e}"));
                if report.failed >= 2 {
                    break;
                }
            }
        }
    }
    let measured = start.elapsed().as_secs_f64() - setup_spent;
    let (setup_s, setup_n) = setups.median();
    report.note(format!(
        "solves={} measured_s={measured:.3} setups={setup_n}",
        walls.len()
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("solve_s", median(&walls), "s");
    report.metric("cpu_s", median(&cpus), "s");
    report.metric("cut", geomean(&cuts), "nets");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("jobs_per_s", walls.len() as f64 / measured, "1/s");
    report
}

/// Untraced wall time and partition of one plain solve at `threads`.
fn timed_plain(inputs: &Inputs, threads: usize, seed: u64) -> Result<(f64, Vec<PartId>), String> {
    let t = Instant::now();
    let (parts, _) = solve(inputs, threads, seed)?;
    Ok((t.elapsed().as_secs_f64(), parts))
}

/// One traced solve through the replica: parse, pipeline, referee, each a
/// span under one `solve` span.
fn timed_replica(
    inputs: &Inputs,
    threads: usize,
    seed: u64,
    sink: &CounterSink,
    spans: &mut Spans,
) -> Result<(f64, Vec<PartId>, LayerTimes, f64), String> {
    let t = Instant::now();
    let root = spans.enter("solve", None);
    let read = spans.enter("read", None);
    let parsed = parse(inputs);
    spans.exit(read);
    let read_s = spans.spans[read].dur();
    let (hg, fixed) = parsed?;
    let balance = balance_of(&hg);
    let (parts, cut, times) = replica(&hg, &fixed, &balance, &config(threads), seed, sink, spans)
        .map_err(|e| e.to_string())?;
    let checked = spans.time("referee", || {
        referee(&hg, 2, parts.clone(), &balance, &fixed, Some(cut))
    });
    spans.exit(root);
    checked?;
    Ok((t.elapsed().as_secs_f64(), parts, times, read_s))
}

/// FM work counters as per-layer metrics.
pub fn fm_metrics(report: &mut Report, c: &Counters) {
    report.metric("fm.passes", c.passes as f64, "count");
    report.metric("fm.moves_tried", c.moves_tried as f64, "count");
    report.metric("fm.moves_committed", c.moves_committed as f64, "count");
    report.metric(
        "fm.useful_frac",
        crate::common::ratio(c.moves_committed as f64, c.moves_tried as f64),
        "ratio",
    );
    report.metric("fm.bucket_ops", c.bucket_ops as f64, "count");
}

/// Multilevel and FM layer metrics from replica timings at t2 and t1,
/// summed over the replica runs and divided by `runs`.
pub fn multilevel_metrics(report: &mut Report, t2: &[LayerTimes], t1: &[LayerTimes], runs: f64) {
    let sum = |ts: &[LayerTimes], f: fn(&LayerTimes) -> f64| ts.iter().map(f).sum::<f64>() / runs;
    let coarsen = |t: &LayerTimes| t.coarsen.iter().sum::<f64>();
    let refine = |t: &LayerTimes| t.refine.iter().sum::<f64>();
    report.metric("coarsen.s", sum(t2, coarsen), "s");
    report.metric(
        "coarsen.levels",
        t2.iter().map(|t| t.project.len() as f64).sum::<f64>() / t2.len().max(1) as f64,
        "count",
    );
    report.metric(
        "coarsen.l0_s",
        sum(t2, |t| t.coarsen.first().copied().unwrap_or(0.0)),
        "s",
    );
    report.metric(
        "coarsen.t2_over_t1",
        crate::common::ratio(sum(t2, coarsen), sum(t1, coarsen)),
        "ratio",
    );
    report.metric("project.s", sum(t2, |t| t.project.iter().sum()), "s");
    report.metric("initial.s", sum(t2, |t| t.initial.iter().sum()), "s");
    report.metric("refine.s", sum(t2, refine), "s");
    report.metric(
        "refine.l0_s",
        sum(t2, |t| t.refine.last().copied().unwrap_or(0.0)),
        "s",
    );
    report.metric(
        "refine.t2_over_t1",
        crate::common::ratio(sum(t2, refine), sum(t1, refine)),
        "ratio",
    );
}

/// Solves per thread count in the traced run; timings are their medians.
const TRACED_REPS: usize = 5;

/// The traced solves at one thread count.
#[derive(Default)]
struct TracedRuns {
    /// Replica layer times, one entry per solve.
    layers: Vec<LayerTimes>,
    read_s: Vec<f64>,
    plain_s: Vec<f64>,
    replica_s: Vec<f64>,
    /// FM counters of one replica solve (every solve counts the same).
    counters: Counters,
}

/// The traced run: plain and replica solves at t2 and t1, the replica
/// checked against the plain engine partition for partition.
pub fn run_traced(seed: u64, scale: f64, spans: &mut Spans) -> Report {
    let mut report = Report::new();
    let inputs = setup(seed, scale);
    let mut replica_match = true;
    let mut plain_parts: Vec<Vec<PartId>> = Vec::new();
    let mut runs: Vec<TracedRuns> = Vec::new();
    for threads in [THREADS, 1] {
        let mut run = TracedRuns::default();
        for _ in 0..TRACED_REPS {
            report.attempted += 2;
            let untraced = timed_plain(&inputs, threads, seed);
            let sink = CounterSink::new();
            let traced = timed_replica(&inputs, threads, seed, &sink, spans);
            match (untraced, traced) {
                (Ok((plain_s, parts)), Ok((traced_s, replica_parts, times, read_s))) => {
                    replica_match &= replica_parts == parts;
                    plain_parts.push(parts);
                    run.layers.push(times);
                    run.read_s.push(read_s);
                    run.plain_s.push(plain_s);
                    run.replica_s.push(traced_s);
                    run.counters = sink.snapshot();
                }
                (untraced, traced) => {
                    for e in [untraced.err(), traced.err()].into_iter().flatten() {
                        report.failed += 1;
                        report.note(format!("solve failed: {e}"));
                    }
                    replica_match = false;
                }
            }
        }
        report.note(format!(
            "t{threads}: plain {:.3}s, replica {:.3}s (medians of {TRACED_REPS})",
            median(&run.plain_s),
            median(&run.replica_s)
        ));
        runs.push(run);
    }
    report.note(format!("replica_match={replica_match}"));
    if plain_parts.windows(2).any(|w| w[0] != w[1]) {
        report.fail_check("the engine's partition differs between solves or thread counts");
    }
    if !replica_match {
        report.fail_check("the public-call replica does not reproduce partition_ctx; multilevel layer numbers withheld");
        return report;
    }
    let (t2, t1) = (&runs[0], &runs[1]);
    let read_s = median(&t2.read_s);
    report.metric("replica_match", 1.0, "bool");
    report.metric("io.read_s", read_s, "s");
    report.metric(
        "io.read_mb_s",
        (inputs.hgr.len() + inputs.fix.len()) as f64 / 1e6 / read_s,
        "MB/s",
    );
    multilevel_metrics(&mut report, &t2.layers, &t1.layers, TRACED_REPS as f64);
    fm_metrics(&mut report, &t2.counters);
    report.metric(
        "trace.overhead_frac",
        median(&t2.replica_s) / median(&t2.plain_s) - 1.0,
        "ratio",
    );
    report
}
