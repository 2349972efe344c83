//! `FmStack::refine_ctx` runs both refinement stages on one shared FM
//! state per level. It must behave exactly like the two-call stack it
//! replaced: the first stage as one `BipartFm` run, then the second stage
//! as another from the first's answer, with classic full passes in place of
//! a stall cutoff on levels under 5,000 movable vertices. This suite keeps
//! that two-call reference and compares results and complete traces, on
//! both sides of the 5,000 threshold, with and without cancellation.

use std::cell::Cell;

use vlsi_rng::{ChaCha8Rng, Rng, SeedableRng};

use fixed_vertices_repro::vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Hypergraph, HypergraphBuilder, PartId, PartSet, Tolerance,
};
use fixed_vertices_repro::vlsi_partition::trace::{Event, Sink, VecSink};
use fixed_vertices_repro::vlsi_partition::{
    random_initial, BipartFm, CancelToken, FmConfig, FmStack, MultilevelConfig, PartitionResult,
    PassCutoff, Refiner, RunCtx,
};

/// The level size from which `FmStack` keeps a stall cutoff.
const STALL_MIN_MOVABLE: usize = 5_000;

/// A random level with `movable` vertices that may move: weighted 2–4-pin
/// nets over `movable + 400` vertices, of which the first 400 are fixed
/// (one in four "or"-fixed to a single side) and ten more are "or"-fixed
/// to both sides, which leaves them movable. Returns the level and a
/// random legal starting assignment.
fn level(movable: usize, seed: u64) -> (Hypergraph, FixedVertices, BalanceConstraint, Vec<PartId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = movable + 400;
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
    for _ in 0..2 * n {
        let size = rng.gen_range(2..=4usize);
        let mut pins = Vec::with_capacity(size);
        while pins.len() < size {
            let cand = v[rng.gen_range(0..n)];
            if !pins.contains(&cand) {
                pins.push(cand);
            }
        }
        b.add_net(rng.gen_range(1..4u64), pins).unwrap();
    }
    let hg = b.build().unwrap();
    let mut fixed = FixedVertices::all_free(n);
    for (i, &u) in v.iter().enumerate().take(400) {
        let side = PartId((i % 2) as u32);
        if i % 4 == 0 {
            fixed.fix_any(u, PartSet::single(side));
        } else {
            fixed.fix(u, side);
        }
    }
    for &u in &v[400..410] {
        fixed.fix_any(u, PartSet::all(2));
    }
    let balance = BalanceConstraint::bisection(n as u64, Tolerance::Relative(0.05));
    let initial = random_initial(&hg, &fixed, &balance, 2, &mut rng).unwrap();
    (hg, fixed, balance, initial)
}

/// The stack as two public `BipartFm` calls: the first stage, then, unless
/// `cancel` fired, the second from the first's answer.
fn two_calls<S: Sink>(
    cfg: &MultilevelConfig,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    parts: Vec<PartId>,
    sink: &S,
    cancel: Option<&CancelToken>,
) -> PartitionResult {
    let movable = hg
        .vertices()
        .filter(|&v| fixed.fixity(v).allows(PartId(0)) && fixed.fixity(v).allows(PartId(1)))
        .count();
    let stage = |mut config: FmConfig| {
        if movable < STALL_MIN_MOVABLE && matches!(config.cutoff, PassCutoff::Stall(_)) {
            config.cutoff = PassCutoff::Unlimited;
        }
        BipartFm::new(config).with_threads(cfg.threads)
    };
    let run = |fm: BipartFm, parts| match cancel {
        Some(token) => fm.run_cancellable(hg, fixed, balance, parts, sink, token),
        None => fm.run_with_sink(hg, fixed, balance, parts, sink),
    };
    let r = run(stage(cfg.refine_fm), parts).unwrap();
    let r = match cfg.refine_fm2 {
        Some(fm2) if !cancel.is_some_and(CancelToken::is_cancelled) => {
            run(stage(fm2), r.parts).unwrap()
        }
        _ => r,
    };
    PartitionResult::new(r.parts, r.cut)
}

/// The fused stack on the same input.
fn fused<S: Sink>(
    cfg: &MultilevelConfig,
    hg: &Hypergraph,
    fixed: &FixedVertices,
    balance: &BalanceConstraint,
    parts: Vec<PartId>,
    sink: &S,
    cancel: Option<&CancelToken>,
) -> PartitionResult {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let never = CancelToken::never();
    let ctx = RunCtx::new(&mut rng)
        .with_sink(sink)
        .with_cancel(cancel.unwrap_or(&never))
        .with_threads(cfg.threads);
    FmStack::from_multilevel(cfg)
        .refine_ctx(hg, fixed, balance, parts, ctx)
        .unwrap()
}

/// Records every event and cancels `token` once `moves` moves have been
/// recorded: a token that fires at the same point of every identical run.
struct CancelAfter<'a> {
    events: VecSink,
    token: &'a CancelToken,
    moves: Cell<usize>,
}

impl<'a> CancelAfter<'a> {
    fn new(token: &'a CancelToken, moves: usize) -> Self {
        CancelAfter {
            events: VecSink::new(),
            token,
            moves: Cell::new(moves),
        }
    }
}

impl Sink for CancelAfter<'_> {
    fn record(&self, event: &Event) {
        self.events.record(event);
        if matches!(event, Event::MoveCommitted { .. }) {
            let left = self.moves.get().saturating_sub(1);
            self.moves.set(left);
            if left == 0 {
                self.token.cancel();
            }
        }
    }
}

fn cancelled_events(events: &[Event]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Cancelled { .. }))
        .count()
}

/// Configurations under test: the multilevel default (CLIP then LIFO with
/// `Stall(300)`) on one and two threads, and a short stall.
fn configs() -> Vec<MultilevelConfig> {
    let ml = MultilevelConfig::default();
    let short = |fm: FmConfig| FmConfig {
        cutoff: PassCutoff::Stall(20),
        ..fm
    };
    vec![
        ml,
        MultilevelConfig { threads: 2, ..ml },
        MultilevelConfig {
            refine_fm: short(ml.refine_fm),
            refine_fm2: ml.refine_fm2.map(short),
            ..ml
        },
    ]
}

#[test]
fn fused_stack_equals_two_bipart_fm_calls() {
    for movable in [STALL_MIN_MOVABLE - 1, STALL_MIN_MOVABLE, 300] {
        let (hg, fixed, balance, initial) = level(movable, movable as u64);
        for (i, cfg) in configs().iter().enumerate() {
            let (a, b) = (VecSink::new(), VecSink::new());
            let reference = two_calls(cfg, &hg, &fixed, &balance, initial.clone(), &a, None);
            let got = fused(cfg, &hg, &fixed, &balance, initial.clone(), &b, None);
            assert_eq!(got, reference, "movable {movable}, config {i}: results");
            let (a, b) = (a.take(), b.take());
            assert_eq!(b, a, "movable {movable}, config {i}: traces");
            assert!(a.iter().any(|e| matches!(e, Event::MoveCommitted { .. })));
            assert_eq!(cancelled_events(&a), 0);
        }
    }
}

#[test]
fn fused_stack_cancels_like_two_bipart_fm_calls() {
    let cfg = MultilevelConfig::default();
    for movable in [STALL_MIN_MOVABLE - 1, STALL_MIN_MOVABLE] {
        let (hg, fixed, balance, initial) = level(movable, 7 + movable as u64);
        // Moves the first stage makes, to fire a token inside each stage:
        // the second stage starts at the second pass numbered 0.
        let plain = VecSink::new();
        two_calls(&cfg, &hg, &fixed, &balance, initial.clone(), &plain, None);
        let events = plain.take();
        let stage_starts: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], Event::PassStart { pass: 0, .. }))
            .collect();
        assert_eq!(stage_starts.len(), 2);
        let first_moves = events[..stage_starts[1]]
            .iter()
            .filter(|e| matches!(e, Event::MoveCommitted { .. }))
            .count();
        // 0 = pre-fired; the others fire mid-pass in stage one or two.
        for after in [0, 1, 100, first_moves + 5] {
            let (ta, tb) = (CancelToken::new(), CancelToken::new());
            if after == 0 {
                ta.cancel();
                tb.cancel();
            }
            let (a, b) = (CancelAfter::new(&ta, after), CancelAfter::new(&tb, after));
            let reference = two_calls(&cfg, &hg, &fixed, &balance, initial.clone(), &a, Some(&ta));
            let got = fused(&cfg, &hg, &fixed, &balance, initial.clone(), &b, Some(&tb));
            let context = format!("movable {movable}, cancel after {after} moves");
            assert_eq!(got, reference, "{context}: results");
            let (a, b) = (a.events.take(), b.events.take());
            assert_eq!(b, a, "{context}: traces");
            assert_eq!(cancelled_events(&b), 1, "{context}: Cancelled events");
            assert!(matches!(b.last(), Some(Event::Cancelled { value, .. }) if *value == got.cut));
            let stages_run = b
                .iter()
                .filter(|e| matches!(e, Event::PassStart { pass: 0, .. }))
                .count();
            let expected = match after {
                0 => 0,
                a if a > first_moves => 2,
                _ => 1,
            };
            assert_eq!(stages_run, expected, "{context}: stages started");
        }
    }
}
