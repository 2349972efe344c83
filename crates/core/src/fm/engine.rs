//! The FM bipartitioning engine proper.

use vlsi_rng::Rng;

use vlsi_hypergraph::{
    BalanceConstraint, FixedVertices, Fixity, Hypergraph, NetId, Objective, PartId, Partitioning,
    VertexId,
};
use vlsi_trace::{CancelStage, Event, MoverFixity, NullSink, Sink, VecSink};

use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::config::{FmConfig, SelectionPolicy};
use crate::fm::{PassStats, RunStats};
use crate::gain::{KwayGains, MoveLog};
use crate::initial::random_initial;
use crate::parallel::GAIN_INIT_GRAIN;
use crate::PartitionError;

/// Gain of moving `v` to the other side under the cut objective: the net
/// weight freed by emptying `from`-critical nets minus the weight newly
/// cut by touching nets with no pin on the other side. Pure read of the
/// partitioning, so it is safe to evaluate from worker threads.
fn initial_gain_of(hg: &Hypergraph, partitioning: &Partitioning, v: VertexId) -> i64 {
    let from = partitioning.part_of(v);
    let to = from.other_side();
    let cs = partitioning.cut_state();
    let mut g = 0i64;
    for &n in hg.vertex_nets(v) {
        let w = hg.net_weight(n) as i64;
        if cs.pins_in(n, from) == 1 {
            g += w;
        }
        if cs.pins_in(n, to) == 0 {
            g -= w;
        }
    }
    g
}

/// Result of an FM run: the final assignment, its cut, and the per-pass
/// statistics used by the paper's Tables II and III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmResult {
    /// Final partition of every vertex.
    pub parts: Vec<PartId>,
    /// Final (best) cut value.
    pub cut: u64,
    /// Statistics of every executed pass.
    pub stats: RunStats,
}

/// Flat FM bipartitioner with fixed-vertex support.
///
/// # Example
/// ```
/// use vlsi_rng::SeedableRng;
/// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
/// use vlsi_partition::{BipartFm, FmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two 4-cliques joined by a single net bisect with cut 1.
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
/// for side in [&v[0..4], &v[4..8]] {
///     for i in 0..4 {
///         for j in (i + 1)..4 {
///             b.add_net(1, [side[i], side[j]])?;
///         }
///     }
/// }
/// b.add_net(1, [v[0], v[4]])?;
/// let hg = b.build()?;
///
/// let fm = BipartFm::new(FmConfig::default());
/// let balance = BalanceConstraint::bisection(8, Tolerance::Relative(0.0));
/// let fixed = FixedVertices::all_free(8);
/// let mut rng = vlsi_rng::ChaCha8Rng::seed_from_u64(3);
/// let result = fm.run_random(&hg, &fixed, &balance, &mut rng)?;
/// assert_eq!(result.cut, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BipartFm {
    config: FmConfig,
    threads: usize,
}

impl BipartFm {
    /// Creates an engine with the given configuration (single-threaded).
    pub fn new(config: FmConfig) -> Self {
        BipartFm { config, threads: 1 }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FmConfig {
        &self.config
    }

    /// Sets the worker-thread budget for gain initialization. Gains are
    /// computed from scratch once per run (and again only when a pass
    /// keeps so many moves that patching them would cost more); later
    /// passes patch the gains their kept moves changed, on one thread. The
    /// result is byte-identical for every value; `0` and `1` both mean
    /// single-threaded.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The engine's worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs FM from a random legal initial solution drawn with `rng`.
    ///
    /// # Errors
    /// Propagates [`crate::random_initial`] failures and the errors of
    /// [`BipartFm::run`].
    pub fn run_random<R: Rng + ?Sized>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        rng: &mut R,
    ) -> Result<FmResult, PartitionError> {
        self.run_random_with_sink(hg, fixed, balance, rng, &NullSink)
    }

    /// Like [`BipartFm::run_random`], emitting trace events into `sink`.
    ///
    /// # Errors
    /// Same as [`BipartFm::run_random`].
    pub fn run_random_with_sink<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        rng: &mut R,
        sink: &S,
    ) -> Result<FmResult, PartitionError> {
        self.run_random_cancellable(hg, fixed, balance, rng, sink, &CancelToken::never())
    }

    /// Like [`BipartFm::run_random_with_sink`], additionally polling
    /// `cancel`. The initial solution is always constructed, so even an
    /// already-cancelled token yields a legal (if unrefined) result.
    ///
    /// # Errors
    /// Same as [`BipartFm::run_random`].
    pub fn run_random_cancellable<R: Rng + ?Sized, S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        rng: &mut R,
        sink: &S,
        cancel: &CancelToken,
    ) -> Result<FmResult, PartitionError> {
        let initial = random_initial(hg, fixed, balance, 2, rng)?;
        self.run_cancellable(hg, fixed, balance, initial, sink, cancel)
    }

    /// Runs FM passes from the given initial assignment until a pass fails
    /// to improve the cut (or `max_passes` is reached).
    ///
    /// # Errors
    /// * [`PartitionError::UnsupportedPartCount`] if `balance` describes
    ///   more than two partitions.
    /// * [`PartitionError::Input`] if `initial` is inconsistent with the
    ///   hypergraph or violates a fixity.
    pub fn run(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
    ) -> Result<FmResult, PartitionError> {
        self.run_with_sink(hg, fixed, balance, initial, &NullSink)
    }

    /// Like [`BipartFm::run`] but additionally records, for every pass, the
    /// cut value after each move — the raw data behind the paper's Section
    /// III analysis that "the improvements within a pass occur near the
    /// beginning of the pass".
    ///
    /// Implemented on top of the trace stream: the run is recorded into a
    /// [`VecSink`] and the traces are replayed from the events, so this is
    /// guaranteed to agree with what any external [`Sink`] observes.
    ///
    /// # Errors
    /// Same as [`BipartFm::run`].
    pub fn run_traced(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
    ) -> Result<(FmResult, Vec<PassTrace>), PartitionError> {
        let sink = VecSink::new();
        let result = self.run_with_sink(hg, fixed, balance, initial, &sink)?;
        let traces = vlsi_trace::replay::pass_summaries(&sink.take())
            .into_iter()
            .map(|s| PassTrace {
                pass: s.pass as usize,
                cut_before: s.cut_before,
                cuts: s.cuts,
            })
            .collect();
        Ok((result, traces))
    }

    /// Like [`BipartFm::run`], emitting the per-pass/per-move trace events
    /// ([`Event::PassStart`], [`Event::MoveCommitted`], [`Event::PassEnd`])
    /// into `sink`. With [`NullSink`] the instrumentation compiles away.
    ///
    /// # Errors
    /// Same as [`BipartFm::run`].
    ///
    /// # Example: count the engine's work with a `CounterSink`
    /// ```
    /// use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, Tolerance};
    /// use vlsi_partition::{BipartFm, FmConfig};
    /// use vlsi_trace::CounterSink;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = HypergraphBuilder::new();
    /// let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
    /// for w in v.windows(2) {
    ///     b.add_net(1, [w[0], w[1]])?;
    /// }
    /// let hg = b.build()?;
    /// let balance = BalanceConstraint::bisection(6, Tolerance::Relative(0.0));
    /// let fixed = FixedVertices::all_free(6);
    ///
    /// let counters = CounterSink::new();
    /// let fm = BipartFm::new(FmConfig::default());
    /// let initial = (0..6)
    ///     .map(|i| vlsi_hypergraph::PartId((i % 2) as u32))
    ///     .collect();
    /// let result = fm.run_with_sink(&hg, &fixed, &balance, initial, &counters)?;
    ///
    /// let c = counters.snapshot();
    /// assert_eq!(c.passes as usize, result.stats.num_passes());
    /// assert_eq!(c.moves_tried as usize, result.stats.total_moves());
    /// assert!(c.bucket_ops > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_with_sink<S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        sink: &S,
    ) -> Result<FmResult, PartitionError> {
        self.run_cancellable(hg, fixed, balance, initial, sink, &CancelToken::never())
    }

    /// Like [`BipartFm::run_with_sink`], additionally polling `cancel` at
    /// pass boundaries and every [`CHECK_INTERVAL`] moves inside a pass.
    /// Cancellation is not an error: the run stops after restoring the
    /// current pass's best prefix, records one
    /// [`Event::Cancelled`] (stage `fm_pass`, value = cut at termination),
    /// and returns the best solution found so far.
    ///
    /// # Errors
    /// Same as [`BipartFm::run`].
    pub fn run_cancellable<S: Sink>(
        &self,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        sink: &S,
        cancel: &CancelToken,
    ) -> Result<FmResult, PartitionError> {
        let mut level = FmLevel::new(
            hg,
            fixed,
            balance,
            initial,
            [self.config.policy],
            self.threads,
        )?;
        let stats = level.run(&self.config, sink, cancel);
        level.stop_if_cancelled(sink, cancel);
        let cut = level.cut();
        Ok(FmResult {
            parts: level.into_parts(),
            cut,
            stats,
        })
    }
}

/// The cut trajectory of one FM pass: `cuts[i]` is the cut value after the
/// `(i+1)`-th move (before any rollback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrace {
    /// 0-based pass index.
    pub pass: usize,
    /// Cut at the start of the pass.
    pub cut_before: u64,
    /// Cut after each move, in move order.
    pub cuts: Vec<u64>,
}

impl PassTrace {
    /// The move index (1-based) at which the minimum cut of the pass was
    /// first reached, as a fraction of the moves made; `None` for an empty
    /// pass. Small values = improvements concentrate near the beginning.
    pub fn best_position_fraction(&self) -> Option<f64> {
        if self.cuts.is_empty() {
            return None;
        }
        let best = *self.cuts.iter().min().expect("non-empty");
        if best >= self.cut_before {
            return Some(0.0);
        }
        let pos = self
            .cuts
            .iter()
            .position(|&c| c == best)
            .expect("min exists");
        Some((pos + 1) as f64 / self.cuts.len() as f64)
    }
}

/// Net-mask bits: a fixed pin on side 0 or 1, then a pin locked on side 0
/// or 1 in the current pass.
const FIXED_ON: [u8; 2] = [0b0001, 0b0010];
const LOCKED_ON: [u8; 2] = [0b0100, 0b1000];

/// Whether a net with this mask has a fixed or locked pin on both sides.
/// Such a net stays cut for the rest of the pass, so no move can change
/// what it adds to an unlocked vertex's gain (zero).
#[inline]
fn is_dead(mask: u8) -> bool {
    (mask | mask >> 2) & 0b11 == 0b11
}

/// The FM state of one hypergraph level, shared by every run on it.
///
/// It is built once per level: the partitioning with its pin counts, the
/// movable set, the gain buckets and every per-pass buffer. All runs on a
/// level reuse it (the stages of [`crate::FmStack`] run on one), so a pass
/// costs one bucket fill plus the work of the moves it makes:
///
/// * The gain cache holds every movable vertex's gain at the start of the
///   next pass. It is computed once. After each pass only the pins of nets
///   that touch a kept move are recomputed: a rolled-back move restores
///   its nets' pin counts exactly, so no other gain changes. A refresh that
///   would cost more than a full recompute does the full one instead.
/// * The net mask records a fixed pin and a locked pin on each side of
///   every net. Fixed pins are seeded once, so nets between terminals on
///   both sides are dead from the first move. The delta-gain update skips
///   a net that was dead before the move: its updates could only reach
///   fixed or locked pins.
pub(crate) struct FmLevel<'a> {
    hg: &'a Hypergraph,
    fixed: &'a FixedVertices,
    balance: &'a BalanceConstraint,
    partitioning: Partitioning,
    movable: Vec<bool>,
    num_movable: usize,
    /// Pins of the movable vertices: the cost of recomputing every gain.
    movable_pins: usize,
    /// Largest |gain| of a movable vertex: its total incident net weight.
    gain_bound: i64,
    /// Per-resource transient balance slack (largest movable vertex weight).
    relax: Vec<u64>,
    /// Shared k-way gain container with two target parts: a vertex on side
    /// `s` lives in the bucket for its destination `s.other_side()`.
    gains: KwayGains,
    /// Gain of every movable vertex at the start of the next pass (0 for
    /// the others), once `cache_ready`.
    cache: Vec<i64>,
    cache_ready: bool,
    /// Gains during a pass, seeded from `cache`.
    gain: Vec<i64>,
    /// Vertices moved in the current pass. All clear between passes,
    /// when the cache refresh borrows them as its visit marks.
    locked: Vec<bool>,
    /// Per net: [`FIXED_ON`] and [`LOCKED_ON`] bits.
    net_mask: Vec<u8>,
    move_log: MoveLog,
    /// CLIP's insertion order and its per-gain counts.
    clip_order: Vec<VertexId>,
    gain_counts: Vec<usize>,
    /// Vertices whose cached gain the refresh recomputes.
    stale: Vec<VertexId>,
    /// Worker-thread budget for full gain computations (`<= 1` = inline).
    threads: usize,
    /// Gain-bucket operations of the current pass (only maintained when
    /// the sink is enabled; reported on the pass's `PassEnd` event).
    bucket_ops: u64,
}

/// Whether `v` takes part in FM moves: it may sit on both sides (vertices
/// past the end of `fixed` are free).
fn is_movable(fixed: &FixedVertices, v: VertexId) -> bool {
    let fixity = if v.index() < fixed.len() {
        fixed.fixity(v)
    } else {
        Fixity::Free
    };
    fixity.allows(PartId(0)) && fixity.allows(PartId(1))
}

impl<'a> FmLevel<'a> {
    /// Sets up FM on `hg` from `initial`, with gain buckets wide enough for
    /// runs under each of `policies`.
    ///
    /// # Errors
    /// Same as [`BipartFm::run`].
    pub(crate) fn new(
        hg: &'a Hypergraph,
        fixed: &'a FixedVertices,
        balance: &'a BalanceConstraint,
        initial: Vec<PartId>,
        policies: impl IntoIterator<Item = SelectionPolicy>,
        threads: usize,
    ) -> Result<Self, PartitionError> {
        if balance.num_parts() != 2 {
            return Err(PartitionError::UnsupportedPartCount {
                requested: balance.num_parts(),
                supported: 2,
            });
        }
        let partitioning = Partitioning::from_parts_fixed(hg, 2, initial, fixed)?;

        let movable: Vec<bool> = hg.vertices().map(|v| is_movable(fixed, v)).collect();
        // Maximum possible |gain| = largest total incident net weight over
        // the *movable* vertices (immovable ones never enter the buckets;
        // a clustered mega-terminal would otherwise blow the array up).
        // Moves may transiently overshoot the balance window by the weight
        // of the largest movable vertex (the classic FM relaxation); only
        // strictly balanced prefixes are accepted.
        let (mut num_movable, mut movable_pins, mut gain_bound) = (0, 0, 0i64);
        let mut relax = vec![0u64; hg.num_resources()];
        let mut net_mask = vec![0u8; hg.num_nets()];
        for v in hg.vertices() {
            let nets = hg.vertex_nets(v);
            if !movable[v.index()] {
                let side = FIXED_ON[partitioning.part_of(v).index()];
                for &n in nets {
                    net_mask[n.index()] |= side;
                }
                continue;
            }
            num_movable += 1;
            movable_pins += nets.len();
            let degree: i64 = nets.iter().map(|&n| hg.net_weight(n) as i64).sum();
            gain_bound = gain_bound.max(degree);
            for (r, &w) in hg.vertex_weights(v).iter().enumerate() {
                relax[r] = relax[r].max(w);
            }
        }
        let gain_bound = gain_bound.max(1);
        // CLIP keys are (gain - initial gain), so they span twice the range.
        let clip = policies.into_iter().any(|p| p == SelectionPolicy::Clip);
        let key_bound = if clip { 2 * gain_bound } else { gain_bound };

        let n = hg.num_vertices();
        Ok(FmLevel {
            hg,
            fixed,
            balance,
            partitioning,
            movable,
            num_movable,
            movable_pins,
            gain_bound,
            relax,
            gains: KwayGains::new(2, n, key_bound),
            cache: vec![0i64; n],
            cache_ready: false,
            gain: vec![0i64; n],
            locked: vec![false; n],
            net_mask,
            move_log: MoveLog::with_capacity(num_movable),
            clip_order: Vec::new(),
            gain_counts: Vec::new(),
            stale: Vec::new(),
            threads,
            bucket_ops: 0,
        })
    }

    /// Number of vertices that may move.
    pub(crate) fn num_movable(&self) -> usize {
        self.num_movable
    }

    /// Current cut.
    pub(crate) fn cut(&self) -> u64 {
        self.partitioning.cut_value(Objective::Cut)
    }

    /// The current assignment.
    pub(crate) fn into_parts(self) -> Vec<PartId> {
        self.partitioning.into_parts()
    }

    /// One FM run under `config`: passes until one fails to improve the
    /// cut, `max_passes` is reached, or `cancel` fires.
    pub(crate) fn run<S: Sink>(
        &mut self,
        config: &FmConfig,
        sink: &S,
        cancel: &CancelToken,
    ) -> RunStats {
        let mut stats = RunStats::default();
        if cancel.is_cancelled() {
            return stats;
        }
        for pass_idx in 0..config.max_passes {
            let cutoff_active = pass_idx > 0 || config.cutoff_first_pass;
            let (limit, stall_limit) = if cutoff_active {
                let cutoff = config.cutoff;
                (cutoff.limit(self.num_movable), cutoff.stall_limit())
            } else {
                (self.num_movable, usize::MAX)
            };
            let pass_stats =
                self.run_pass(config.policy, pass_idx, limit, stall_limit, sink, cancel);
            let improved = pass_stats.improved();
            stats.passes.push(pass_stats);
            if !improved || cancel.is_cancelled() {
                break;
            }
        }
        stats
    }

    /// Whether `cancel` has fired. If it has, records the run's
    /// [`Event::Cancelled`] (stage `fm_pass`, value = current cut).
    pub(crate) fn stop_if_cancelled<S: Sink>(&self, sink: &S, cancel: &CancelToken) -> bool {
        let cancelled = cancel.is_cancelled();
        if S::ENABLED && cancelled {
            sink.record(&Event::Cancelled {
                stage: CancelStage::FmPass,
                value: self.cut(),
            });
        }
        cancelled
    }

    /// Executes one FM pass and restores the best prefix. Returns its stats
    /// and emits the pass's trace events into the sink.
    ///
    /// The pass stops after `move_limit` moves, or after `stall_limit`
    /// consecutive moves that land in a balanced state without beating the
    /// best prefix ([`crate::PassCutoff::Stall`]); an unbalanced state
    /// restarts that count.
    fn run_pass<S: Sink>(
        &mut self,
        policy: SelectionPolicy,
        pass: usize,
        move_limit: usize,
        stall_limit: usize,
        sink: &S,
        cancel: &CancelToken,
    ) -> PassStats {
        let cut_before = self.cut();
        if S::ENABLED {
            self.bucket_ops = 0;
            sink.record(&Event::PassStart {
                pass: pass as u32,
                cut: cut_before,
                movable: self.num_movable as u64,
                move_limit: move_limit as u64,
            });
        }
        self.prepare_buckets::<S>(policy);

        self.move_log.clear();
        let mut best_cut = cut_before;
        let mut best_imbalance = self.imbalance();
        let mut stalled = 0usize;

        while self.move_log.len() < move_limit {
            // Armed tokens are re-polled every CHECK_INTERVAL moves; the
            // best-prefix rollback below makes stopping mid-pass safe.
            if !cancel.is_never()
                && self.move_log.len().is_multiple_of(CHECK_INTERVAL)
                && cancel.is_cancelled()
            {
                break;
            }
            let Some((vertex, from)) = self.select_move() else {
                break;
            };
            let to = from.other_side();
            self.gains.remove(vertex, to);
            self.gains.decay_max_for(to);
            self.locked[vertex.index()] = true;
            // The vertex's own gain entry can be bumped while its move is
            // applied; capture the realised gain first.
            let gain = self.gain[vertex.index()];
            self.apply_move_with_gain_updates::<S>(vertex, from, to);
            self.move_log.record(vertex, from);
            let cut = self.cut();
            if S::ENABLED {
                self.bucket_ops += 1; // the remove above
                let fixity = if vertex.index() < self.fixed.len()
                    && matches!(self.fixed.fixity(vertex), Fixity::FixedAny(_))
                {
                    MoverFixity::FixedAny
                } else {
                    MoverFixity::Free
                };
                sink.record(&Event::MoveCommitted {
                    pass: pass as u32,
                    vertex: vertex.index() as u64,
                    gain,
                    fixity,
                    cut,
                });
            }

            // Only strictly balanced states may become the accepted prefix.
            if !self.balance.is_satisfied(self.partitioning.loads()) {
                stalled = 0;
                continue;
            }
            let imbalance = self.imbalance();
            if cut < best_cut || (cut == best_cut && imbalance < best_imbalance) {
                best_cut = cut;
                self.move_log.mark_best();
                best_imbalance = imbalance;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= stall_limit {
                    break;
                }
            }
        }

        // Unlock this pass's movers, then roll back everything after the
        // best prefix.
        let moves_made = self.move_log.len();
        let best_len = self.move_log.best_len();
        for &(v, _) in self.move_log.entries() {
            self.locked[v.index()] = false;
            for &n in self.hg.vertex_nets(v) {
                self.net_mask[n.index()] &= FIXED_ON[0] | FIXED_ON[1];
            }
        }
        let (hg, partitioning) = (self.hg, &mut self.partitioning);
        self.move_log.rollback_to_best(|vertex, from| {
            partitioning.move_vertex(hg, vertex, from);
        });
        debug_assert_eq!(self.cut(), best_cut);
        self.refresh_cache();
        debug_assert_eq!(self.stale_cached_gain(), None, "gain cache out of date");

        if S::ENABLED {
            sink.record(&Event::PassEnd {
                pass: pass as u32,
                moves: moves_made as u64,
                best_prefix: best_len as u64,
                cut_before,
                cut_after: best_cut,
                bucket_ops: self.bucket_ops,
            });
        }

        PassStats {
            pass,
            movable: self.num_movable,
            moves_made,
            moves_kept: best_len,
            cut_before,
            cut_after: best_cut,
            move_limit,
        }
    }

    /// Primary-resource imbalance |load(0) − load(1)| used for tie-breaking.
    fn imbalance(&self) -> u64 {
        let a = self.partitioning.load(PartId(0), 0);
        let b = self.partitioning.load(PartId(1), 0);
        a.abs_diff(b)
    }

    /// Computes every movable vertex's gain into the cache from scratch.
    ///
    /// Gains only read the partitioning, so with a thread budget they are
    /// computed in parallel, each exactly as the sequential code would.
    fn compute_all_gains(&mut self) {
        let (hg, partitioning, movable) = (self.hg, &self.partitioning, &self.movable);
        let workers =
            crate::parallel::effective_threads(self.threads, hg.num_vertices(), GAIN_INIT_GRAIN);
        crate::parallel::par_fill(&mut self.cache, workers, |off, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let v = VertexId((off + i) as u32);
                if movable[v.index()] {
                    *slot = initial_gain_of(hg, partitioning, v);
                }
            }
        });
        self.cache_ready = true;
    }

    /// Brings the cache up to date after a pass's rollback, whose move log
    /// now holds the kept moves: recomputes the gains of the movable pins
    /// of every net a kept move touched, or every gain if that would cost
    /// more than computing them all.
    fn refresh_cache(&mut self) {
        let hg = self.hg;
        let mut cost = 0usize;
        'collect: for &(v, _) in self.move_log.entries() {
            for &n in hg.vertex_nets(v) {
                let pins = hg.net_pins(n);
                cost += pins.len();
                for &u in pins {
                    if self.movable[u.index()] && !self.locked[u.index()] {
                        self.locked[u.index()] = true;
                        self.stale.push(u);
                        cost += hg.vertex_nets(u).len();
                    }
                }
                if cost > self.movable_pins {
                    break 'collect;
                }
            }
        }
        for &u in &self.stale {
            self.locked[u.index()] = false;
        }
        if cost > self.movable_pins {
            self.compute_all_gains();
        } else {
            for &u in &self.stale {
                self.cache[u.index()] = initial_gain_of(hg, &self.partitioning, u);
            }
        }
        self.stale.clear();
    }

    /// The first movable vertex whose cached gain differs from a
    /// recomputation, if any (the cache is checked after every pass in
    /// debug builds).
    fn stale_cached_gain(&self) -> Option<VertexId> {
        self.hg.vertices().find(|&v| {
            self.movable[v.index()]
                && self.cache[v.index()] != initial_gain_of(self.hg, &self.partitioning, v)
        })
    }

    /// Seeds the pass's gains from the cache and fills the buckets.
    fn prepare_buckets<S: Sink>(&mut self, policy: SelectionPolicy) {
        if !self.cache_ready {
            self.compute_all_gains();
        }
        self.gains.clear();
        self.gain.copy_from_slice(&self.cache);
        match policy {
            SelectionPolicy::Lifo => {
                for v in self.hg.vertices() {
                    if self.movable[v.index()] {
                        let to = self.partitioning.part_of(v).other_side();
                        self.gains.insert(v, to, self.gain[v.index()]);
                    }
                }
            }
            SelectionPolicy::Clip => {
                // CLIP (Dutt & Deng): every vertex starts at key 0, but the
                // bucket-0 list is ordered by *decreasing initial gain*, so
                // before any delta accumulates the selection degenerates to
                // plain gain order; once moves start, the deltas cluster
                // selection around recently moved vertices. Insertion is at
                // the list head, so we insert in increasing (gain, id) order.
                self.order_by_increasing_gain();
                for &v in &self.clip_order {
                    let to = self.partitioning.part_of(v).other_side();
                    self.gains.insert(v, to, 0);
                }
            }
        }
        if S::ENABLED {
            self.bucket_ops += self.num_movable as u64;
        }
    }

    /// Fills `clip_order` with the movable vertices sorted by (cached gain,
    /// id): one counting pass over the gain range `±gain_bound`.
    fn order_by_increasing_gain(&mut self) {
        let bound = self.gain_bound;
        let slot = |g: i64| (g + bound) as usize;
        let counts = &mut self.gain_counts;
        counts.clear();
        counts.resize(slot(bound) + 1, 0);
        for v in self.hg.vertices() {
            if self.movable[v.index()] {
                counts[slot(self.cache[v.index()])] += 1;
            }
        }
        // Turn the counts into each gain's first position in the order.
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        self.clip_order.clear();
        self.clip_order.resize(self.num_movable, VertexId(0));
        for v in self.hg.vertices() {
            if self.movable[v.index()] {
                let pos = &mut counts[slot(self.cache[v.index()])];
                self.clip_order[*pos] = v;
                *pos += 1;
            }
        }
    }

    /// Picks the highest-key feasible move over both sides. Ties between
    /// sides are broken toward the heavier side (improves balance).
    fn select_move(&mut self) -> Option<(VertexId, PartId)> {
        let mut candidates: [Option<(VertexId, i64)>; 2] = [None, None];
        for (side, slot) in candidates.iter_mut().enumerate() {
            let from = PartId(side as u32);
            let to = from.other_side();
            let hg = self.hg;
            let balance = self.balance;
            let relax = &self.relax;
            let loads = self.partitioning.loads();
            let nr = hg.num_resources();
            *slot = self.gains.select_from(to, |v| {
                // Relaxed feasibility: the destination may overshoot its
                // maximum by the largest movable vertex weight.
                hg.vertex_weights(v)
                    .iter()
                    .enumerate()
                    .all(|(r, &w)| loads[to.index() * nr + r] + w <= balance.max(to, r) + relax[r])
            });
        }
        match (candidates[0], candidates[1]) {
            (None, None) => None,
            (Some((v, _)), None) => Some((v, PartId(0))),
            (None, Some((v, _))) => Some((v, PartId(1))),
            (Some((v0, k0)), Some((v1, k1))) => {
                if k0 > k1 {
                    Some((v0, PartId(0)))
                } else if k1 > k0 {
                    Some((v1, PartId(1)))
                } else {
                    // Equal keys: move from the heavier side.
                    let l0 = self.partitioning.load(PartId(0), 0);
                    let l1 = self.partitioning.load(PartId(1), 0);
                    if l0 >= l1 {
                        Some((v0, PartId(0)))
                    } else {
                        Some((v1, PartId(1)))
                    }
                }
            }
        }
    }

    /// Applies the standard FM delta-gain updates around the move of
    /// `vertex` from `from` to `to`, then performs the move itself and
    /// marks `vertex` locked on `to` in the net mask. Nets dead before the
    /// move are skipped.
    fn apply_move_with_gain_updates<S: Sink>(
        &mut self,
        vertex: VertexId,
        from: PartId,
        to: PartId,
    ) {
        let expected_cut = self.cut().wrapping_sub(self.gain[vertex.index()] as u64);
        for &n in self.hg.vertex_nets(vertex) {
            if is_dead(self.net_mask[n.index()]) {
                continue;
            }
            let w = self.hg.net_weight(n) as i64;
            let to_count = self.partitioning.cut_state().pins_in(n, to);
            if to_count == 0 {
                // Net becomes critical from the `to` side: every other pin
                // gains from following the move.
                for &u in self.hg.net_pins(n) {
                    if u != vertex {
                        self.bump_gain::<S>(u, w);
                    }
                }
            } else if to_count == 1 {
                // The lone `to`-side pin loses its incentive to leave.
                if let Some(u) = self.lone_pin(n, to) {
                    self.bump_gain::<S>(u, -w);
                }
            }
        }
        self.partitioning.move_vertex(self.hg, vertex, to);
        for &n in self.hg.vertex_nets(vertex) {
            let mask = self.net_mask[n.index()];
            self.net_mask[n.index()] = mask | LOCKED_ON[to.index()];
            if is_dead(mask) {
                continue;
            }
            let w = self.hg.net_weight(n) as i64;
            let from_count = self.partitioning.cut_state().pins_in(n, from);
            if from_count == 0 {
                // Net no longer touches `from`: following moves stop paying.
                for &u in self.hg.net_pins(n) {
                    if u != vertex {
                        self.bump_gain::<S>(u, -w);
                    }
                }
            } else if from_count == 1 {
                // The lone `from`-side pin can now uncut the net by moving.
                if let Some(u) = self.lone_pin(n, from) {
                    self.bump_gain::<S>(u, w);
                }
            }
        }
        debug_assert_eq!(
            self.cut(),
            expected_cut,
            "gain of {vertex} disagreed with actual cut delta"
        );
    }

    /// Finds the single pin of `n` on `side` (caller guarantees exactly one).
    fn lone_pin(&self, n: NetId, side: PartId) -> Option<VertexId> {
        self.hg
            .net_pins(n)
            .iter()
            .copied()
            .find(|&u| self.partitioning.part_of(u) == side)
    }

    /// Adds `delta` to `u`'s gain, updating its bucket key if unlocked.
    #[inline]
    fn bump_gain<S: Sink>(&mut self, u: VertexId, delta: i64) {
        if delta == 0 {
            return;
        }
        self.gain[u.index()] += delta;
        if !self.locked[u.index()] && self.movable[u.index()] {
            let to = self.partitioning.part_of(u).other_side();
            self.gains.adjust(u, to, delta);
            if S::ENABLED {
                self.bucket_ops += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::{validate_partitioning, HypergraphBuilder, PartSet, Tolerance};
    use vlsi_rng::ChaCha8Rng;
    use vlsi_rng::SeedableRng;

    /// Two cliques of size `s` joined by `bridges` two-pin nets.
    fn two_cliques(s: usize, bridges: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2 * s).map(|_| b.add_vertex(1)).collect();
        for base in [0, s] {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_net(1, [v[base + i], v[base + j]]).unwrap();
                }
            }
        }
        for k in 0..bridges {
            b.add_net(1, [v[k % s], v[s + (k % s)]]).unwrap();
        }
        b.build().unwrap()
    }

    fn run_default(hg: &Hypergraph, fixed: &FixedVertices, tol: f64, seed: u64) -> FmResult {
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(tol));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        fm.run_random(hg, fixed, &balance, &mut rng).unwrap()
    }

    #[test]
    fn finds_the_obvious_bisection() {
        let hg = two_cliques(6, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        for seed in 0..5 {
            let result = run_default(&hg, &fixed, 0.0, seed);
            assert_eq!(result.cut, 1, "seed {seed}");
        }
    }

    #[test]
    fn solution_is_always_valid() {
        let hg = two_cliques(5, 3);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let result = fm.run_random(&hg, &fixed, &balance, &mut rng).unwrap();
            let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).unwrap();
            let report = validate_partitioning(&hg, &p, &balance, &fixed);
            assert!(report.is_valid(), "seed {seed}: {report}");
            assert_eq!(report.recomputed_cut, result.cut);
        }
    }

    /// Random hypergraph: `n` unit vertices, `m` nets of 2–4 distinct pins.
    fn random_hg(n: usize, m: usize, rng: &mut ChaCha8Rng) -> Hypergraph {
        use vlsi_rng::Rng;
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for _ in 0..m {
            let size = rng.gen_range(2..=4usize.min(n));
            let mut pins = Vec::with_capacity(size);
            while pins.len() < size {
                let cand = v[rng.gen_range(0..n)];
                if !pins.contains(&cand) {
                    pins.push(cand);
                }
            }
            b.add_net(rng.gen_range(1..4u64), pins).unwrap();
        }
        b.build().unwrap()
    }

    /// End-to-end gain consistency on random instances, for both selection
    /// policies. Every applied move is already self-checked in debug builds
    /// (`apply_move_with_gain_updates` asserts the bucketed gain equals the
    /// realised cut delta), so driving full FM runs here exercises that
    /// assertion across thousands of delta-updates; the reported cut must
    /// also match a from-scratch recomputation.
    #[test]
    fn incremental_gains_agree_with_recomputation_on_random_instances() {
        use vlsi_rng::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
            let fm = BipartFm::new(FmConfig {
                policy,
                ..FmConfig::default()
            });
            for trial in 0..30 {
                let n = rng.gen_range(6..40usize);
                let hg = random_hg(n, rng.gen_range(n..4 * n), &mut rng);
                let mut fixed = FixedVertices::all_free(n);
                for i in 0..n {
                    if rng.gen_bool(0.2) {
                        fixed.fix(VertexId(i as u32), PartId(rng.gen_range(0..2)));
                    }
                }
                let balance =
                    BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.10));
                let Ok(result) = fm.run_random(&hg, &fixed, &balance, &mut rng) else {
                    continue; // random fixing made the instance infeasible
                };
                let p = Partitioning::from_parts(&hg, 2, result.parts.clone()).unwrap();
                assert_eq!(
                    p.cut_value(Objective::Cut),
                    result.cut,
                    "{policy:?} trial {trial}: reported cut diverged from recomputation"
                );
                let report = validate_partitioning(&hg, &p, &balance, &fixed);
                assert!(report.is_valid(), "{policy:?} trial {trial}: {report}");
            }
        }
    }

    /// A random instance for the gain-cache test: weighted 2–4-pin nets,
    /// `fixed_share` of the vertices fixed (a third of them "or"-fixed to
    /// one side or to both, the latter still movable), and a random legal
    /// initial solution. `None` when the fixing made it infeasible.
    fn cache_case(fixed_share: f64, rng: &mut ChaCha8Rng) -> Option<StallCase> {
        use vlsi_rng::Rng;
        let n = rng.gen_range(20..150usize);
        let hg = random_hg(n, rng.gen_range(n..4 * n), rng);
        let mut fixed = FixedVertices::all_free(n);
        for i in 0..n {
            if rng.gen_bool(fixed_share) {
                let v = VertexId(i as u32);
                let side = PartId(rng.gen_range(0..2));
                match rng.gen_range(0..6) {
                    0 => fixed.fix_any(v, PartSet::single(side)),
                    1 => fixed.fix_any(v, PartSet::all(2)),
                    _ => fixed.fix(v, side),
                }
            }
        }
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.1));
        let initial = crate::random_initial(&hg, &fixed, &balance, 2, rng).ok()?;
        Some((hg, fixed, balance, initial))
    }

    /// After every pass, LIFO and CLIP alike, the cached gain of each
    /// movable vertex equals the cut change of actually moving it.
    #[test]
    fn gain_cache_matches_recomputation_after_every_pass() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let (mut checked, mut kept) = (0, 0);
        for trial in 0..80 {
            let share = [0.0, 0.1, 0.25, 0.5][trial % 4];
            let Some((hg, fixed, balance, initial)) = cache_case(share, &mut rng) else {
                continue;
            };
            let policies = [SelectionPolicy::Lifo, SelectionPolicy::Clip];
            let mut level = FmLevel::new(&hg, &fixed, &balance, initial, policies, 1).unwrap();
            for pass in 0..6 {
                let policy = policies[(trial + pass) % 2];
                let limit = level.num_movable();
                let stats = level.run_pass(
                    policy,
                    pass,
                    limit,
                    usize::MAX,
                    &NullSink,
                    &CancelToken::never(),
                );
                kept += stats.moves_kept;
                let mut p = level.partitioning.clone();
                for v in hg.vertices().filter(|&v| level.movable[v.index()]) {
                    let (from, before) = (p.part_of(v), p.cut_value(Objective::Cut));
                    p.move_vertex(&hg, v, from.other_side());
                    let gain = before as i64 - p.cut_value(Objective::Cut) as i64;
                    p.move_vertex(&hg, v, from);
                    assert_eq!(
                        level.cache[v.index()],
                        gain,
                        "trial {trial}, pass {pass} ({policy:?}): cached gain of {v}"
                    );
                }
                checked += 1;
            }
        }
        assert!(
            checked >= 300 && kept > 0,
            "{checked} passes, {kept} kept moves"
        );
    }

    #[test]
    fn fixed_vertices_never_move() {
        let hg = two_cliques(5, 2);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        // Pin one vertex of each clique: the best solution flips the whole
        // cliques to match (cut = the 2 bridges), and the pins stay put.
        fixed.fix(VertexId(0), PartId(1));
        fixed.fix(VertexId(5), PartId(0));
        let result = run_default(&hg, &fixed, 0.0, 7);
        assert_eq!(result.parts[0], PartId(1));
        assert_eq!(result.parts[5], PartId(0));
        assert!(result.cut >= 2);
    }

    #[test]
    fn fixed_any_moves_within_allowed_set() {
        let hg = two_cliques(4, 1);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        // FixedAny over both sides is equivalent to free in a bisection.
        fixed.fix_any(VertexId(0), PartSet::all(2));
        let result = run_default(&hg, &fixed, 0.0, 9);
        assert_eq!(result.cut, 1);
    }

    #[test]
    fn good_fixed_vertices_make_the_instance_trivial() {
        let hg = two_cliques(6, 1);
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        for i in 0..6 {
            fixed.fix(VertexId(i), PartId(0));
            fixed.fix(VertexId(6 + i), PartId(1));
        }
        // Everything fixed consistently: FM has nothing to do, cut is 1.
        let result = run_default(&hg, &fixed, 0.0, 1);
        assert_eq!(result.cut, 1);
        assert_eq!(result.stats.total_moves(), 0);
    }

    #[test]
    fn clip_policy_reaches_same_quality_here() {
        let hg = two_cliques(6, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig {
            policy: SelectionPolicy::Clip,
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let result = fm.run_random(&hg, &fixed, &balance, &mut rng).unwrap();
        assert_eq!(result.cut, 1);
    }

    #[test]
    fn pass_cutoff_limits_moves_after_first_pass() {
        let hg = two_cliques(8, 4);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig {
            cutoff: crate::PassCutoff::Fraction(0.25),
            ..FmConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let result = fm.run_random(&hg, &fixed, &balance, &mut rng).unwrap();
        for p in &result.stats.passes {
            if p.pass == 0 {
                assert_eq!(p.move_limit, p.movable);
            } else {
                assert_eq!(p.move_limit, 4); // 25% of 16
                assert!(p.moves_made <= 4);
            }
        }
    }

    /// One stall-rule test instance and its initial solution.
    type StallCase = (Hypergraph, FixedVertices, BalanceConstraint, Vec<PartId>);

    /// Random instances with ~20% fixed vertices for the stall-rule tests,
    /// each with a random legal initial solution; infeasible draws skipped.
    fn stall_corpus(seed: u64, trials: usize) -> Vec<StallCase> {
        use vlsi_rng::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..trials {
            let n = rng.gen_range(20..120usize);
            let hg = random_hg(n, rng.gen_range(n..4 * n), &mut rng);
            let mut fixed = FixedVertices::all_free(n);
            for i in 0..n {
                if rng.gen_bool(0.2) {
                    fixed.fix(VertexId(i as u32), PartId(rng.gen_range(0..2)));
                }
            }
            let balance =
                BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.05));
            if let Ok(initial) = crate::random_initial(&hg, &fixed, &balance, 2, &mut rng) {
                out.push((hg, fixed, balance, initial));
            }
        }
        out
    }

    fn fm_with(policy: SelectionPolicy, cutoff: crate::PassCutoff) -> BipartFm {
        BipartFm::new(FmConfig {
            policy,
            cutoff,
            cutoff_first_pass: true,
            ..FmConfig::default()
        })
    }

    #[test]
    fn endless_stall_is_identical_to_unlimited() {
        for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
            let classic = fm_with(policy, crate::PassCutoff::Unlimited);
            let endless = fm_with(policy, crate::PassCutoff::Stall(usize::MAX));
            for (trial, (hg, fixed, balance, initial)) in
                stall_corpus(31, 40).into_iter().enumerate()
            {
                let (a, b) = (VecSink::new(), VecSink::new());
                let ra = classic
                    .run_with_sink(&hg, &fixed, &balance, initial.clone(), &a)
                    .unwrap();
                let rb = endless
                    .run_with_sink(&hg, &fixed, &balance, initial, &b)
                    .unwrap();
                assert_eq!(ra, rb, "{policy:?} trial {trial}: results differ");
                assert_eq!(
                    a.take(),
                    b.take(),
                    "{policy:?} trial {trial}: traces differ"
                );
            }
        }
    }

    /// What a replay of one pass's trace shows: the balance flag of each
    /// move after the best prefix, and whether the pass ran out of moves
    /// (every movable vertex moved, or no unlocked vertex fits the relaxed
    /// balance window) rather than being stopped.
    struct PassTail {
        balanced: Vec<bool>,
        exhausted: bool,
    }

    /// Replays a run's trace from `initial`, one [`PassTail`] per pass.
    fn replay_tails(
        hg: &Hypergraph,
        fixed: &FixedVertices,
        balance: &BalanceConstraint,
        initial: Vec<PartId>,
        events: &[Event],
    ) -> Vec<PassTail> {
        let movable: Vec<bool> = hg
            .vertices()
            .map(|v| fixed.fixity(v).allows(PartId(0)) && fixed.fixity(v).allows(PartId(1)))
            .collect();
        let relax = hg
            .vertices()
            .filter(|v| movable[v.index()])
            .map(|v| hg.vertex_weights(v)[0])
            .max()
            .unwrap_or(0);
        let mut p = Partitioning::from_parts(hg, 2, initial).unwrap();
        let mut tails = Vec::new();
        let mut moved: Vec<(VertexId, bool)> = Vec::new();
        for event in events {
            match *event {
                Event::PassStart { .. } => moved.clear(),
                Event::MoveCommitted { vertex, .. } => {
                    let v = VertexId(vertex as u32);
                    p.move_vertex(hg, v, p.part_of(v).other_side());
                    moved.push((v, balance.is_satisfied(p.loads())));
                }
                Event::PassEnd { best_prefix, .. } => {
                    let fits = |v: VertexId| {
                        let to = p.part_of(v).other_side();
                        p.load(to, 0) + hg.vertex_weights(v)[0] <= balance.max(to, 0) + relax
                    };
                    let exhausted = !hg.vertices().any(|v| {
                        movable[v.index()] && !moved.iter().any(|&(u, _)| u == v) && fits(v)
                    });
                    let kept = best_prefix as usize;
                    for &(v, _) in moved[kept..].iter().rev() {
                        p.move_vertex(hg, v, p.part_of(v).other_side());
                    }
                    tails.push(PassTail {
                        balanced: moved[kept..].iter().map(|&(_, ok)| ok).collect(),
                        exhausted,
                    });
                }
                _ => {}
            }
        }
        tails
    }

    #[test]
    fn stalled_passes_stop_within_the_stall_length_of_balanced_moves() {
        let mut stopped_by_stall = 0;
        for stall in [2usize, 5, 12] {
            for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
                let fm = fm_with(policy, crate::PassCutoff::Stall(stall));
                for (hg, fixed, balance, initial) in stall_corpus(47 + stall as u64, 25) {
                    let sink = VecSink::new();
                    let result = fm
                        .run_with_sink(&hg, &fixed, &balance, initial.clone(), &sink)
                        .unwrap();
                    let tails = replay_tails(&hg, &fixed, &balance, initial, &sink.take());
                    assert_eq!(tails.len(), result.stats.num_passes());
                    for tail in &tails {
                        // Unbalanced states restart the count, so the moves
                        // after the best prefix are at most `stall` balanced
                        // moves plus the unbalanced ones, per balanced run.
                        let unbalanced = tail.balanced.iter().filter(|&&ok| !ok).count();
                        let runs: Vec<usize> =
                            tail.balanced.split(|&ok| !ok).map(<[bool]>::len).collect();
                        assert!(
                            runs.iter().all(|&r| r <= stall),
                            "{policy:?} stall {stall}: balanced run {runs:?} too long"
                        );
                        if unbalanced == 0 {
                            assert!(tail.balanced.len() <= stall);
                        }
                        // A pass that still had moves left stopped because
                        // its last run of balanced moves reached the limit.
                        let last = runs.last().copied().unwrap_or(0);
                        if !tail.exhausted {
                            assert_eq!(last, stall, "{policy:?}: stopped early {runs:?}");
                            stopped_by_stall += 1;
                        }
                    }
                    let p = Partitioning::from_parts(&hg, 2, result.parts).unwrap();
                    let report = validate_partitioning(&hg, &p, &balance, &fixed);
                    assert!(report.is_valid(), "{policy:?} stall {stall}: {report}");
                }
            }
        }
        assert!(stopped_by_stall > 0, "no pass in the corpus stalled out");
    }

    #[test]
    fn stall_never_interrupts_a_rebalance() {
        // A 10-weight terminal fixed to side 1 and 30 free unit vertices
        // all starting on side 0, each tied to the terminal by a 2-pin net.
        // Exact bisection (20/20) takes 10 moves, far more than the stall
        // length, and every one of them is a move in an unbalanced state.
        let mut b = HypergraphBuilder::new();
        let terminal = b.add_vertex(10);
        let free: Vec<_> = (0..30).map(|_| b.add_vertex(1)).collect();
        for &v in &free {
            b.add_net(1, [terminal, v]).unwrap();
        }
        let hg = b.build().unwrap();
        let mut fixed = FixedVertices::all_free(hg.num_vertices());
        fixed.fix(terminal, PartId(1));
        let balance = BalanceConstraint::bisection(40, Tolerance::Relative(0.0));
        let mut initial = vec![PartId(0); hg.num_vertices()];
        initial[terminal.index()] = PartId(1);
        for policy in [SelectionPolicy::Lifo, SelectionPolicy::Clip] {
            let fm = fm_with(policy, crate::PassCutoff::Stall(3));
            let result = fm.run(&hg, &fixed, &balance, initial.clone()).unwrap();
            let first = &result.stats.passes[0];
            assert!(first.moves_kept >= 10, "{policy:?}: {first:?}");
            assert_eq!(result.cut, 20, "{policy:?}");
            let p = Partitioning::from_parts(&hg, 2, result.parts).unwrap();
            let report = validate_partitioning(&hg, &p, &balance, &fixed);
            assert!(report.is_valid(), "{policy:?}: {report}");
        }
    }

    #[test]
    fn stats_record_full_first_pass() {
        let hg = two_cliques(6, 2);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let result = run_default(&hg, &fixed, 0.0, 3);
        let first = &result.stats.passes[0];
        assert_eq!(first.movable, 12);
        // Without terminals the first pass flips essentially every vertex.
        assert!(first.moves_made >= 10);
    }

    #[test]
    fn weighted_vertices_respect_balance() {
        let mut b = HypergraphBuilder::new();
        let heavy = b.add_vertex(6);
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        for &u in &v {
            b.add_net(1, [heavy, u]).unwrap();
        }
        let hg = b.build().unwrap();
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(12, Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let result = fm.run_random(&hg, &fixed, &balance, &mut rng).unwrap();
        let p = Partitioning::from_parts(&hg, 2, result.parts).unwrap();
        assert_eq!(p.load(PartId(0), 0), 6);
        assert_eq!(p.load(PartId(1), 0), 6);
    }

    #[test]
    fn rejects_multiway_balance() {
        let hg = two_cliques(3, 1);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::even(3, &[hg.total_weight()], Tolerance::Relative(0.5));
        let fm = BipartFm::new(FmConfig::default());
        let err = fm
            .run(&hg, &fixed, &balance, vec![PartId(0); hg.num_vertices()])
            .unwrap_err();
        assert!(matches!(err, PartitionError::UnsupportedPartCount { .. }));
    }

    #[test]
    fn traces_cover_every_move_of_every_pass() {
        let hg = two_cliques(6, 2);
        let fixed = FixedVertices::all_free(hg.num_vertices());
        let balance = BalanceConstraint::bisection(hg.total_weight(), Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let initial = crate::random_initial(&hg, &fixed, &balance, 2, &mut rng).unwrap();
        let (result, traces) = fm.run_traced(&hg, &fixed, &balance, initial).unwrap();
        assert_eq!(traces.len(), result.stats.passes.len());
        for (trace, stats) in traces.iter().zip(&result.stats.passes) {
            assert_eq!(trace.cuts.len(), stats.moves_made);
            assert_eq!(trace.cut_before, stats.cut_before);
            // The minimum of the trajectory is the accepted cut (or the
            // pass start if nothing improved).
            if let Some(&min) = trace.cuts.iter().min() {
                assert_eq!(stats.cut_after, min.min(stats.cut_before));
            }
        }
    }

    #[test]
    fn trace_best_position_fraction() {
        let t = crate::PassTrace {
            pass: 1,
            cut_before: 10,
            cuts: vec![12, 8, 9, 8],
        };
        // First minimum at index 1 of 4 moves.
        assert_eq!(t.best_position_fraction(), Some(0.5));
        let none_better = crate::PassTrace {
            pass: 1,
            cut_before: 5,
            cuts: vec![7, 6],
        };
        assert_eq!(none_better.best_position_fraction(), Some(0.0));
        let empty = crate::PassTrace {
            pass: 0,
            cut_before: 5,
            cuts: vec![],
        };
        assert_eq!(empty.best_position_fraction(), None);
    }

    #[test]
    fn weighted_nets_drive_gains() {
        // v1 attached to v0 by weight-5 net and to v2 by weight-1 net;
        // optimum puts v1 with v0.
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        let v2 = b.add_vertex(1);
        let v3 = b.add_vertex(1);
        b.add_net(5, [v0, v1]).unwrap();
        b.add_net(1, [v1, v2]).unwrap();
        b.add_net(1, [v2, v3]).unwrap();
        let hg = b.build().unwrap();
        let fixed = FixedVertices::all_free(4);
        let balance = BalanceConstraint::bisection(4, Tolerance::Relative(0.0));
        let fm = BipartFm::new(FmConfig::default());
        let result = fm
            .run(
                &hg,
                &fixed,
                &balance,
                vec![PartId(0), PartId(1), PartId(0), PartId(1)],
            )
            .unwrap();
        assert_eq!(result.cut, 1);
        assert_eq!(result.parts[0], result.parts[1]);
    }
}
