//! `fixed-sweep-ibm01`: the paper's Figure 1/2 protocol on an ibm01-like
//! instance with actual cell areas and the paper's 2% balance. Seven
//! cells (free, and good/rand at 5/20/50% fixed), each a 4-start multistart
//! with two V-cycles on the multilevel engine at two threads. Many small
//! multilevel runs put coarsening, the coarsest-level solve, the quality
//! phase and start-level parallelism far ahead of where they sit in the
//! bisection.

use std::time::Instant;

use vlsi_experiments::harness::paper_balance;
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_hypergraph::{BalanceConstraint, FixedVertices, Hypergraph, PartId};
use vlsi_netgen::Cutline;
use vlsi_partition::{
    CancelToken, EngineConfig, MultilevelConfig, Multistart, MultistartOutcome, PartitionError,
};
use vlsi_rng::{ChaCha8Rng, SeedableRng};
use vlsi_trace::{CounterSink, Counters, NullSink, Sink};

use crate::bisect::{fm_metrics, multilevel_metrics, replica, LayerTimes};
use crate::common::{
    geomean, median, peak_rss_mib, process_cpu_s, ratio, referee, Report, SetUps, Spans,
};

const THREADS: usize = 2;
const STARTS: usize = 4;
const VCYCLES: usize = 2;
/// Per-layer metrics off this workload's path; its traced run reports 0
/// for them.
pub const UNREACHED: &[&str] = &[
    "io.read_s",
    "io.read_mb_s",
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

/// One sweep cell: a named fixity table.
pub struct Cell {
    pub name: &'static str,
    pub fixed: FixedVertices,
    pub base_seed: u64,
}

/// The instance and its seven cells.
pub struct Inputs {
    pub hg: Hypergraph,
    pub balance: BalanceConstraint,
    pub cells: Vec<Cell>,
}

/// Generates the instance and the fixing schedules. Good-regime targets are
/// the side of the die's vertical cutline on which the generator placed
/// each vertex, so no input depends on the partitioner under test.
pub fn setup(seed: u64, scale: f64) -> Inputs {
    let circuit = vlsi_netgen::instances::ibm01_like_scaled(scale, seed);
    let hg = circuit.hypergraph.clone();
    let balance = paper_balance(&hg);
    let native: Vec<PartId> = hg
        .vertices()
        .map(|v| PartId(Cutline::Vertical.side(&circuit.die, circuit.location(v))))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1_F0);
    let good = FixSchedule::new(&hg, Regime::Good, &native, &mut rng);
    let rand = FixSchedule::new(&hg, Regime::Random, &native, &mut rng);
    let mut cells = vec![Cell {
        name: "free",
        fixed: FixedVertices::all_free(hg.num_vertices()),
        base_seed: 0,
    }];
    for (regime, sched) in [("good", &good), ("rand", &rand)] {
        for pct in [5u32, 20, 50] {
            let name = match (regime, pct) {
                ("good", 5) => "good5",
                ("good", 20) => "good20",
                ("good", 50) => "good50",
                ("rand", 5) => "rand5",
                ("rand", 20) => "rand20",
                _ => "rand50",
            };
            cells.push(Cell {
                name,
                fixed: sched.at_percent(pct as f64),
                base_seed: 0,
            });
        }
    }
    for (i, c) in cells.iter_mut().enumerate() {
        c.base_seed = seed.wrapping_mul(1000).wrapping_add(100 * i as u64);
    }
    Inputs { hg, balance, cells }
}

fn engine() -> EngineConfig {
    EngineConfig::Multilevel(MultilevelConfig::default())
}

/// One cell's multistart run with `engine_sink` receiving the engines'
/// events.
fn run_cell<ES: Sink + Sync>(
    inputs: &Inputs,
    cell: &Cell,
    vcycles: usize,
    engine_sink: &ES,
) -> Result<MultistartOutcome, PartitionError> {
    Multistart::new(STARTS).vcycles(vcycles).run_parallel(
        &inputs.hg,
        &cell.fixed,
        &inputs.balance,
        THREADS,
        cell.base_seed,
        &engine(),
        &NullSink,
        engine_sink,
        &CancelToken::never(),
    )
}

/// Runs a cell and referees its best partition; returns the checked cut.
fn checked_cell<ES: Sink + Sync>(
    inputs: &Inputs,
    cell: &Cell,
    vcycles: usize,
    engine_sink: &ES,
) -> Result<(u64, MultistartOutcome), String> {
    let out = run_cell(inputs, cell, vcycles, engine_sink).map_err(|e| e.to_string())?;
    let cut = referee(
        &inputs.hg,
        2,
        out.best.parts.clone(),
        &inputs.balance,
        &cell.fixed,
        Some(out.best.cut),
    )?;
    Ok((cut, out))
}

/// The untraced run: whole sweeps until about `seconds` have passed.
pub fn run(seed: u64, seconds: f64, scale: f64) -> Report {
    let mut report = Report::new();
    let (mut setups, inputs) = SetUps::first(|| setup(seed, scale));
    report.note(format!(
        "workload fixed-sweep-ibm01: {} vertices, {} cells x {STARTS} starts, vcycles {VCYCLES}, t{THREADS}",
        inputs.hg.num_vertices(),
        inputs.cells.len()
    ));

    // Per sweep, the mean over its cells: the cells differ several-fold in
    // cost, so the per-sweep mean is the steady statistic.
    let (mut sweep_walls, mut sweep_cpus) = (Vec::new(), Vec::new());
    let mut cells_ok = 0;
    let mut first_cuts: Option<Vec<u64>> = None;
    let mut peak_rss = 0.0;
    let mut sweep_times = Vec::new();
    // Seconds of repeated set-ups, kept out of the window and the sweeps.
    let mut setup_spent = 0.0;
    let start = Instant::now();
    // Only whole sweeps count, so every run weighs the seven cells alike.
    // Another sweep starts while it would end no later than half a sweep
    // past the window; at least two always run.
    while sweep_times.len() < 2
        || start.elapsed().as_secs_f64() - setup_spent + median(&sweep_times) / 2.0 < seconds
    {
        let ts = Instant::now();
        let mut sweep_setups = 0.0;
        let (mut cuts, mut wall_sum, mut cpu_sum) = (Vec::new(), 0.0, 0.0);
        for cell in &inputs.cells {
            // One set-up before every cell after the first sweep, once the
            // peak resident set has been read.
            if first_cuts.is_some() {
                sweep_setups += setups.again();
            }
            report.attempted += 1;
            let (t, c) = (Instant::now(), process_cpu_s());
            let out = std::hint::black_box(checked_cell(&inputs, cell, VCYCLES, &NullSink));
            let (wall, cpu) = (t.elapsed().as_secs_f64(), process_cpu_s() - c);
            match out {
                Ok((cut, _)) => {
                    cells_ok += 1;
                    wall_sum += wall;
                    cpu_sum += cpu;
                    cuts.push(cut);
                }
                Err(e) => {
                    report.failed += 1;
                    report.note(format!("cell {} failed: {e}", cell.name));
                    cuts.push(0);
                }
            }
        }
        setup_spent += sweep_setups;
        sweep_times.push(ts.elapsed().as_secs_f64() - sweep_setups);
        sweep_walls.push(wall_sum / inputs.cells.len() as f64);
        sweep_cpus.push(cpu_sum / inputs.cells.len() as f64);
        match &first_cuts {
            None => {
                first_cuts = Some(cuts);
                // Later sweeps only add allocator noise that depends on
                // how many fit in the window.
                peak_rss = peak_rss_mib();
            }
            Some(c) if *c != cuts => report.fail_check("a repeated sweep changed its cuts"),
            Some(_) => {}
        }
        if report.failed > 0 {
            break;
        }
    }
    let measured = start.elapsed().as_secs_f64() - setup_spent;
    let (setup_s, setup_n) = setups.median();
    let cuts: Vec<f64> = first_cuts
        .unwrap_or_default()
        .into_iter()
        .map(|c| c as f64)
        .collect();
    report.note(format!(
        "sweeps={} cells={cells_ok} measured_s={measured:.3} setups={setup_n}",
        sweep_times.len()
    ));
    report.note(format!(
        "best cut per cell: {}",
        inputs
            .cells
            .iter()
            .zip(&cuts)
            .map(|(c, cut)| format!("{}={cut}", c.name))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("solve_s", median(&sweep_walls), "s");
    report.metric("cpu_s", median(&sweep_cpus), "s");
    report.metric("cut", geomean(&cuts), "nets");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("jobs_per_s", cells_ok as f64 / measured, "1/s");
    report
}

/// The traced run. Per cell: the untraced run, the same run with a
/// `CounterSink` as the engine sink, the same seeds without V-cycles, and
/// one public-call replica of a single multilevel start.
pub fn run_traced(seed: u64, scale: f64, spans: &mut Spans) -> Report {
    let mut report = Report::new();
    let inputs = setup(seed, scale);
    let (mut untraced, mut traced) = (0.0, 0.0);
    let (mut cut_v2, mut cut_v0) = (Vec::new(), Vec::new());
    let (mut start_times, mut start_sum, mut v0_wall) = (Vec::new(), 0.0, 0.0);
    let mut quality = Vec::new();
    let mut totals = Counters::default();
    let mut replica_times: Vec<LayerTimes> = Vec::new();
    let mut replica_times_t1: Vec<LayerTimes> = Vec::new();
    let mut replica_match = true;
    let mut tried_per_pass = Vec::new();
    for cell in &inputs.cells {
        report.attempted += 1;
        let t = Instant::now();
        let plain = checked_cell(&inputs, cell, VCYCLES, &NullSink);
        let plain_s = t.elapsed().as_secs_f64();

        let sink = CounterSink::new();
        let id = spans.enter("multistart", None);
        let counted = checked_cell(&inputs, cell, VCYCLES, &sink);
        spans.exit(id);
        let counted_s = spans.spans[id].dur();

        let t = Instant::now();
        let v0 = checked_cell(&inputs, cell, 0, &NullSink);
        let v0_s = t.elapsed().as_secs_f64();

        let (plain, counted, v0) = match (plain, counted, v0) {
            (Ok(p), Ok(c), Ok(v)) => (p, c, v),
            (p, c, v) => {
                report.failed += 1;
                for e in [p.err(), c.err(), v.err()].into_iter().flatten() {
                    report.note(format!("cell {} failed: {e}", cell.name));
                }
                // A failed cell has no passes to count; `failed` says so.
                tried_per_pass.push((cell.name, 0.0));
                continue;
            }
        };
        if plain.1.best != counted.1.best {
            report.fail_check(format!(
                "cell {}: a CounterSink changed the result",
                cell.name
            ));
        }
        untraced += plain_s;
        traced += counted_s;
        cut_v2.push(plain.0 as f64);
        cut_v0.push(v0.0 as f64);
        quality.push(plain_s - v0_s);
        v0_wall += v0_s;
        for s in &v0.1.starts {
            start_times.push(s.elapsed.as_secs_f64());
            start_sum += s.elapsed.as_secs_f64();
        }
        let c = sink.snapshot();
        tried_per_pass.push((cell.name, ratio(c.moves_tried as f64, c.passes as f64)));
        for (total, add) in [
            (&mut totals.passes, c.passes),
            (&mut totals.moves_tried, c.moves_tried),
            (&mut totals.moves_committed, c.moves_committed),
            (&mut totals.bucket_ops, c.bucket_ops),
        ] {
            *total += add;
        }

        // One multilevel start through the replica, checked against the
        // engine on the same seed, at t2 and at t1.
        let cfg = MultilevelConfig::default();
        let mut rng_plain = ChaCha8Rng::seed_from_u64(cell.base_seed);
        let want = vlsi_partition::MultilevelPartitioner::new(cfg)
            .run(&inputs.hg, &cell.fixed, &inputs.balance, &mut rng_plain)
            .map(|r| r.parts);
        for (threads, into) in [(THREADS, &mut replica_times), (1, &mut replica_times_t1)] {
            let cfg = MultilevelConfig { threads, ..cfg };
            let got = replica(
                &inputs.hg,
                &cell.fixed,
                &inputs.balance,
                &cfg,
                cell.base_seed,
                &NullSink,
                spans,
            );
            match (&want, got) {
                (Ok(w), Ok((parts, _, times))) => {
                    replica_match &= *w == parts;
                    into.push(times);
                }
                _ => replica_match = false,
            }
        }
    }
    report.note(format!(
        "tried moves per pass: {}",
        tried_per_pass
            .iter()
            .map(|(n, v)| format!("{n}={v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!("replica_match={replica_match}"));
    report.metric(
        "replica_match",
        if replica_match { 1.0 } else { 0.0 },
        "bool",
    );
    if replica_match {
        multilevel_metrics(&mut report, &replica_times, &replica_times_t1, 1.0);
    } else {
        report.fail_check("the public-call replica does not reproduce the engine; multilevel layer numbers withheld");
    }
    fm_metrics(&mut report, &totals);
    for (name, v) in &tried_per_pass {
        let metric = format!("fm.tried_per_pass.{name}");
        report.metric(&metric, *v, "moves");
    }
    report.metric("multistart.start_s", median(&start_times), "s");
    report.metric(
        "multistart.par_eff",
        ratio(start_sum, v0_wall * THREADS as f64),
        "ratio",
    );
    report.metric(
        "quality.s",
        ratio(quality.iter().sum(), quality.len() as f64),
        "s",
    );
    report.metric(
        "quality.cut_gain",
        1.0 - ratio(geomean(&cut_v2), geomean(&cut_v0)),
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        ratio(traced, untraced) - 1.0,
        "ratio",
    );
    report
}
