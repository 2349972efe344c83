//! Self-tests of the benchmark at tiny scale: every listed metric prints
//! with its unit, no service request fails, outputs that must repeat do,
//! and an illegal partition is counted as a failure.

use std::time::Instant;

use vlsi_hypergraph::{BalanceConstraint, FixedVertices, HypergraphBuilder, PartId, Tolerance};
use vlsi_service::json::{self, Json};

use crate::common::{geomean, median, referee, tail, Report};
use crate::service::{self, Class, OkReply, Reply};
use crate::{run, Args, END_TO_END, PER_LAYER, WORKLOADS};

/// Instance scale of the self-tests (relative to each workload's nominal
/// size).
const TINY: f64 = 0.1;

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0.01,
        trace,
        scale: TINY,
    }
}

/// The metrics object of the last output line, as `(name, value, unit)`.
fn result_line(report: &Report) -> (bool, u64, u64, Vec<(String, f64, String)>) {
    let text = report.render();
    let last = text.lines().last().expect("some output");
    let v = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    (
        v.get("correct").and_then(Json::as_bool).expect("correct"),
        v.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted"),
        v.get("failed").and_then(Json::as_u64).expect("failed"),
        metrics,
    )
}

#[test]
fn every_listed_metric_prints_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (report, _) = run(&args(workload, 3, trace));
            let (correct, attempted, failed, metrics) = result_line(&report);
            assert!(correct, "{workload} trace={trace}: {:?}", report.notes);
            assert!(attempted >= 1);
            // The service loop consists of requests that succeed. (At this
            // scale a sweep cell can be infeasible: its fixed cells alone
            // may outweigh a part.)
            if workload == "service-blocks" {
                assert_eq!(failed, 0, "trace={trace}: {:?}", report.notes);
            }
            let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(got, list, "{workload} trace={trace}");
            if !trace {
                for (name, value, _) in &metrics {
                    assert!(*value > 0.0, "{workload}: {name} is {value}");
                }
            }
            if trace {
                assert_eq!(report.value("replica_match"), Some(1.0), "{workload}");
            }
        }
    }
}

#[test]
fn a_metric_missing_on_a_reached_layer_fails_the_run() {
    let traced = |drop: &str| {
        let mut report = Report::new();
        for &(name, unit) in &PER_LAYER {
            let off_path = crate::bisect::UNREACHED.contains(&name);
            if name != "fail_frac" && name != drop && !off_path {
                report.metric(name, 1.0, unit);
            }
        }
        crate::finish(report, "bisect-rent-50k", true)
    };
    let whole = traced("");
    assert!(whole.correct, "{:?}", whole.notes);
    assert_eq!(whole.metrics.len(), PER_LAYER.len());
    assert_eq!(whole.value("kway.ms"), Some(0.0));
    let short = traced("fm.passes");
    assert!(!short.correct);
    assert_eq!(short.value("fm.passes"), None);
}

#[test]
fn cut_and_fail_frac_repeat_for_a_fixed_seed() {
    for workload in WORKLOADS {
        let outcome = || {
            let (report, _) = run(&args(workload, 5, false));
            let (_, attempted, failed, _) = result_line(&report);
            (
                report.value("cut").expect("cut"),
                failed as f64 / attempted as f64,
            )
        };
        assert_eq!(outcome(), outcome(), "{workload}");
    }
}

#[test]
fn an_illegal_partition_counts_as_failed() {
    let inputs = service::setup(11, service::SCALE * TINY);
    let cold = inputs.schedules[0]
        .iter()
        .position(|e| e.class == Class::Cold)
        .expect("a cold request");
    let block = &inputs.blocks[inputs.schedules[0][cold].block];
    // Every vertex on part 0 breaks the balance of a bisection.
    let parts = vec![PartId(0); block.job.hg.num_vertices()];
    let reply = |parts: Vec<PartId>| Reply {
        index: cold,
        class: Class::Cold,
        sent: Instant::now(),
        latency_s: 0.001,
        ok: Some(OkReply {
            cut: 0,
            parts,
            micros: 500,
            cache_hit: false,
            warm_hit: false,
        }),
        error: None,
    };
    let mut report = Report::new();
    let t = service::tally(&inputs, &[vec![reply(parts)], Vec::new()], &mut report);
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(!report.correct);
    assert_eq!(t.ok_count, 0);
}

#[test]
fn the_referee_rejects_fixity_and_cut_errors() {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
    b.add_net(1, [v[0], v[1]]).expect("net");
    b.add_net(1, [v[2], v[3]]).expect("net");
    let hg = b.build().expect("hypergraph");
    let balance = BalanceConstraint::bisection(4, Tolerance::Relative(0.0));
    let mut fixed = FixedVertices::all_free(4);
    fixed.fix(v[0], PartId(1));
    let good = vec![PartId(1), PartId(1), PartId(0), PartId(0)];
    assert_eq!(
        referee(&hg, 2, good.clone(), &balance, &fixed, Some(0)),
        Ok(0)
    );
    assert!(referee(&hg, 2, good, &balance, &fixed, Some(1)).is_err());
    let unfixed = vec![PartId(0), PartId(0), PartId(1), PartId(1)];
    assert!(referee(&hg, 2, unfixed, &balance, &fixed, None).is_err());
}

#[test]
fn the_schedule_depends_only_on_the_seed() {
    let key = |seed| {
        let inputs = service::setup(seed, service::SCALE * TINY);
        (0..inputs.schedules.len())
            .flat_map(|c| (0..50).map(move |i| (c, i)))
            .map(|(c, i)| service::request_line(&inputs, c, i))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(2), key(2));
    assert_ne!(key(2), key(3));
}

#[test]
fn statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs), (90.0, 90.0, 100));
    assert_eq!(tail(&xs[..5]), (100.0, 5.0, 5));
}

/// Reproduces the k=4 balance defect outside the service: single-start
/// `kway` and `rb` at the service's default 10% tolerance on an ibm01-like
/// instance (scale 0.3, actual cell areas) with 10% of the vertices fixed
/// to the die quadrant the generator placed them in (good) or to random
/// quadrants (rand). It prints how many of
/// ten seeds return an `Ok` partition the referee rejects and asserts
/// nothing about the count. Run it with
/// `cargo test --release -- --ignored --nocapture k4_defect`.
#[test]
#[ignore = "a reproduction that prints counts; it takes a few seconds"]
fn k4_defect() {
    use vlsi_experiments::regimes::{FixSchedule, Regime};
    use vlsi_netgen::Cutline;
    use vlsi_partition::{EngineConfig, Partitioner, RunCtx};
    use vlsi_rng::{ChaCha8Rng, SeedableRng};

    let circuit = vlsi_netgen::instances::ibm01_like_scaled(0.3, 1);
    let hg = &circuit.hypergraph;
    let quadrant: Vec<PartId> = hg
        .vertices()
        .map(|v| {
            let p = circuit.location(v);
            PartId(
                2 * Cutline::Horizontal.side(&circuit.die, p)
                    + Cutline::Vertical.side(&circuit.die, p),
            )
        })
        .collect();
    let balance = BalanceConstraint::even(4, hg.total_weights(), Tolerance::Relative(0.1));
    for regime in [Regime::Good, Regime::Random] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fixed = FixSchedule::new(hg, regime, &quadrant, &mut rng).at_percent(10.0);
        for name in ["kway", "rb"] {
            let engine = EngineConfig::by_name(name)
                .expect("registered")
                .with_threads(1);
            let mut illegal = 0;
            for seed in 0..10 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let r = engine
                    .partition_ctx(hg, &fixed, &balance, RunCtx::new(&mut rng))
                    .expect("the engine returns Ok");
                if referee(hg, 4, r.parts, &balance, &fixed, Some(r.cut)).is_err() {
                    illegal += 1;
                }
            }
            println!(
                "k4_defect: {} fixing, {name}: {illegal}/10 seeds return an illegal Ok partition",
                regime.label()
            );
        }
    }
}

#[test]
fn self_time_leaves_out_children() {
    let mut spans = crate::common::Spans::new();
    let root = spans.enter("solve", None);
    spans.time("read", || {
        std::thread::sleep(std::time::Duration::from_millis(20))
    });
    std::thread::sleep(std::time::Duration::from_millis(10));
    spans.exit(root);
    let summary = spans.summary();
    let (_, n, total, own) = summary[0];
    assert_eq!((summary[0].0, n), ("solve", 1));
    assert!(
        total >= 0.03 && own >= 0.01 && own < total - 0.019,
        "{summary:?}"
    );
    assert_eq!(summary[1].0, "read");
}
