//! Stall-rule study: the best cut of every Figure 1/2 sweep cell, the FM
//! work spent on it, and the wirelength of a top-down placement, for the
//! multilevel engine's default configuration (refinement passes on large
//! levels end through the balance-aware stall rule,
//! `PassCutoff::Stall(300)`).
//!
//! Every seed generates a full-size ibm01-like instance (12,752 vertices,
//! actual cell areas, the paper's 2% balance) and seven cells: free, and
//! good/rand at 5/20/50% fixed. Good-regime targets are the side of the
//! die's vertical cutline the generator placed each vertex on, so no input
//! depends on the partitioner under study. Each cell runs
//! `Multistart::new(4).vcycles(2)` on the multilevel engine at two threads
//! from a per-cell seed; every answer is checked for fixity and balance and
//! its cut recomputed. The output is one row per seed and cell, the
//! geometric mean of the best cut per cell over the seeds, and the FM work
//! (`CounterSink` passes, moves tried, bucket operations) and wall-clock of
//! the sweep. Last, the default top-down placer places each seed's circuit,
//! one multilevel run per bisection, and the study prints its HPWL.
//!
//! The file uses no API newer than the engine it measures, so building it
//! against two commits gives a like-for-like comparison of their engines.
//!
//! ```text
//! stall_study [--seeds LIST]
//!   --seeds LIST  comma-separated seeds or ranges (default 1-15,20261017)
//! ```

use std::time::Instant;

use vlsi_experiments::harness::paper_balance;
use vlsi_experiments::regimes::{FixSchedule, Regime};
use vlsi_experiments::report::{fmt_f64, Table};
use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, Hypergraph, PartId, Partitioning,
};
use vlsi_netgen::instances::ibm01_like_scaled;
use vlsi_netgen::Cutline;
use vlsi_partition::trace::{CounterSink, NullSink};
use vlsi_partition::{CancelToken, EngineConfig, MultilevelConfig, Multistart};
use vlsi_placer::{hpwl, PlacerConfig, TopDownPlacer};
use vlsi_rng::{ChaCha8Rng, SeedableRng};

const STARTS: usize = 4;
const VCYCLES: usize = 2;
const THREADS: usize = 2;
const CELLS: [&str; 7] = [
    "free", "good5", "good20", "good50", "rand5", "rand20", "rand50",
];

fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for part in list.split(',') {
        let bad = || format!("bad seed list entry `{part}`");
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                seeds.extend(a..=b);
            }
            None => seeds.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(seeds)
}

fn parse_args() -> Result<Vec<u64>, String> {
    let mut seeds = parse_seeds("1-15,20261017")?;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => seeds = parse_seeds(&it.next().ok_or("--seeds needs a value")?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seeds.is_empty() {
        return Err("need at least one seed".into());
    }
    Ok(seeds)
}

/// The instance of one seed and its seven fixity tables, in `CELLS` order.
fn cells(seed: u64) -> (Hypergraph, BalanceConstraint, Vec<FixedVertices>) {
    let circuit = ibm01_like_scaled(1.0, seed);
    let hg = circuit.hypergraph.clone();
    let balance = paper_balance(&hg);
    let native: Vec<PartId> = hg
        .vertices()
        .map(|v| PartId(Cutline::Vertical.side(&circuit.die, circuit.location(v))))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1_F0);
    let good = FixSchedule::new(&hg, Regime::Good, &native, &mut rng);
    let rand = FixSchedule::new(&hg, Regime::Random, &native, &mut rng);
    let mut fixed = vec![FixedVertices::all_free(hg.num_vertices())];
    for sched in [&good, &rand] {
        for pct in [5.0, 20.0, 50.0] {
            fixed.push(sched.at_percent(pct));
        }
    }
    (hg, balance, fixed)
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|&x| x.max(1.0).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Runs one cell and returns its refereed best cut.
fn run_cell(
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    base_seed: u64,
    counters: &CounterSink,
) -> Result<u64, String> {
    let out = Multistart::new(STARTS)
        .vcycles(VCYCLES)
        .run_parallel(
            hg,
            fixed,
            balance,
            THREADS,
            base_seed,
            &EngineConfig::Multilevel(MultilevelConfig::default()),
            &NullSink,
            counters,
            &CancelToken::never(),
        )
        .map_err(|e| e.to_string())?;
    let p = Partitioning::from_parts(hg, 2, out.best.parts).map_err(|e| e.to_string())?;
    let report = validate_partitioning(hg, &p, balance, fixed);
    if !report.is_valid() || report.recomputed_cut != out.best.cut {
        return Err(format!("illegal answer: {report}"));
    }
    Ok(out.best.cut)
}

/// The HPWL of the seed's circuit placed by the default top-down placer.
fn placement_hpwl(seed: u64) -> Result<f64, String> {
    let circuit = ibm01_like_scaled(1.0, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = TopDownPlacer::new(PlacerConfig::default())
        .place_circuit(&circuit, &mut rng)
        .map_err(|e| e.to_string())?;
    Ok(hpwl(&circuit.hypergraph, &placement.positions))
}

fn main() {
    let seeds = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}\nusage: stall_study [--seeds LIST]");
        std::process::exit(2);
    });
    let counters = CounterSink::new();
    let started = Instant::now();
    // cuts[cell][seed index]
    let mut cuts = vec![Vec::new(); CELLS.len()];
    let mut rows = Table::new(["seed", "cell", "cut"].map(String::from).to_vec());
    for &seed in &seeds {
        let (hg, balance, fixed) = cells(seed);
        for (i, fx) in fixed.iter().enumerate() {
            let base_seed = seed.wrapping_mul(1000).wrapping_add(100 * i as u64);
            let cut = run_cell(&hg, fx, &balance, base_seed, &counters).unwrap_or_else(|e| {
                eprintln!("seed {seed} cell {}: {e}", CELLS[i]);
                std::process::exit(1);
            });
            cuts[i].push(cut as f64);
            rows.row(vec![
                seed.to_string(),
                CELLS[i].to_string(),
                cut.to_string(),
            ]);
        }
    }
    let wall = started.elapsed();
    print!("{}", rows.render(false));
    println!();

    println!(
        "best cut per cell, geometric mean over {} seeds (scale 1)",
        seeds.len()
    );
    let mut summary = Table::new(["cell", "geomean cut"].map(String::from).to_vec());
    for (cell, c) in CELLS.iter().zip(&cuts) {
        summary.row(vec![cell.to_string(), fmt_f64(geomean(c), 1)]);
    }
    print!("{}", summary.render(false));
    println!();

    let c = counters.snapshot();
    println!("FM work and wall-clock over the sweep");
    let mut work = Table::new(
        ["passes", "moves tried", "bucket ops", "wall s"]
            .map(String::from)
            .to_vec(),
    );
    work.row(vec![
        c.passes.to_string(),
        c.moves_tried.to_string(),
        c.bucket_ops.to_string(),
        fmt_f64(wall.as_secs_f64(), 2),
    ]);
    print!("{}", work.render(false));
    println!();

    println!("top-down placement HPWL per seed (default placer, scale 1)");
    let mut wirelengths = Vec::new();
    let mut placed = Table::new(["seed", "hpwl"].map(String::from).to_vec());
    for &seed in &seeds {
        let wl = placement_hpwl(seed).unwrap_or_else(|e| {
            eprintln!("seed {seed} placement: {e}");
            std::process::exit(1);
        });
        wirelengths.push(wl);
        placed.row(vec![seed.to_string(), fmt_f64(wl, 1)]);
    }
    placed.row(vec!["geomean".into(), fmt_f64(geomean(&wirelengths), 1)]);
    print!("{}", placed.render(false));
}
