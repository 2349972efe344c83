//! Machine-independent work gate: the exact FM work of fixed-seed
//! multilevel bisections, as a `CounterSink` totals it, and their cuts.
//!
//! Wall-clock gates measure the machine as much as the code. These totals
//! depend only on the code: a change that makes FM do more (or different)
//! work fails here on any box, without noise. An intended change to the
//! engine's work updates the pinned values in the same commit, with the
//! reason recorded in CHANGES.md.

use vlsi_rng::{ChaCha8Rng, SeedableRng};

use fixed_vertices_repro::vlsi_experiments::regimes::{FixSchedule, Regime};
use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Hypergraph, PartId, Tolerance,
};
use fixed_vertices_repro::vlsi_netgen::instances::ibm01_like_scaled;
use fixed_vertices_repro::vlsi_partition::trace::CounterSink;
use fixed_vertices_repro::vlsi_partition::{
    MultilevelConfig, MultilevelPartitioner, Partitioner, RunCtx,
};

/// FM passes, moves tried, moves kept, gain-bucket operations, and cut.
type Work = (u64, u64, u64, u64, u64);

/// One default multilevel bisection (2% tolerance) from seed `seed`.
fn bisect(hg: &Hypergraph, fixed: &FixedVertices, seed: u64) -> (Work, Vec<PartId>) {
    let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.02));
    let counters = CounterSink::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let r = MultilevelPartitioner::new(MultilevelConfig::default())
        .partition_ctx(
            hg,
            fixed,
            &balance,
            RunCtx::new(&mut rng).with_sink(&counters),
        )
        .unwrap();
    let c = counters.snapshot();
    let work = (
        c.passes,
        c.moves_tried,
        c.moves_committed,
        c.bucket_ops,
        r.cut,
    );
    (work, r.parts)
}

#[test]
fn multilevel_fm_work_is_pinned() {
    // 6,376 vertices: the finest level is above the stall rule's 5,000
    // movable vertices, the coarser ones below it.
    let circuit = ibm01_like_scaled(0.5, 2027);
    let hg = &circuit.hypergraph;
    assert_eq!(hg.num_vertices(), 6_376);

    let (free, good) = bisect(hg, &FixedVertices::all_free(hg.num_vertices()), 1);
    assert_eq!(
        free,
        (63, 82_920, 24_455, 761_252, 313),
        "free instance: (passes, tried, kept, bucket ops, cut)"
    );

    // The paper's "good" regime: 20% of the vertices fixed where the free
    // solution put them.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let fixed = FixSchedule::new(hg, Regime::Good, &good, &mut rng).at_percent(20.0);
    let (good20, _) = bisect(hg, &fixed, 3);
    assert_eq!(
        good20,
        (68, 72_908, 325, 553_046, 368),
        "good20 instance: (passes, tried, kept, bucket ops, cut)"
    );
}
