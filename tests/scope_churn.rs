//! The pa-scope acceptance run: 10 000 churning connections.
//!
//! Drives the seeded churn scenario — 40 waves of 250 short-lived
//! clients against a multi-CPU server, with corrupting waves mixed in —
//! while every completed request's latency lands in the telemetry
//! plane, and checks the headline claims of the scale-ready
//! observability design at full cardinality:
//!
//! - cluster quantiles from *merged sketches* sit within ±1
//!   rank-percent (α-scaled) of the exact 19k-sample oracle,
//! - merging the per-wave cluster sketches reproduces the pooled
//!   global sketch exactly (associativity at scale, checked by `==`),
//! - total plane memory stays under the configured byte cap even
//!   though 10 000 distinct connections were offered series — the
//!   overflow series absorbs the tail, with the denial counted,
//! - the roll-up reconciles exactly and nothing is lost silently:
//!   every oracle sample is in the sketches, every reject has a
//!   taxonomy bucket, the delivery ledger balances.

use pa::sim::churn::{ChurnConfig, ChurnSim};

#[test]
fn ten_thousand_connection_churn_meets_the_acceptance_bounds() {
    let cfg = ChurnConfig::sized(10_000);
    assert_eq!(cfg.total_conns(), 10_000);
    let alpha = cfg.scope.alpha + 1e-9;
    let mut churn = ChurnSim::new(cfg);
    churn.run();

    // Progress: the scenario really churned, and losses are explained.
    assert_eq!(churn.expected, 20_000, "2 requests per connection");
    assert!(
        churn.completed as f64 >= churn.expected as f64 * 0.9,
        "churn must mostly complete: {}/{}",
        churn.completed,
        churn.expected
    );
    assert!(churn.ledger_ok(), "delivery ledgers balance on every conn");
    assert!(
        churn.fleet.rejects.total() > 0,
        "corrupting waves must surface in the reject taxonomy"
    );

    // Every completed request is in both the oracle and the plane —
    // nothing sampled away on the counting path.
    let plane = churn.plane();
    let sketch = plane.cluster().sketch();
    assert_eq!(plane.records(), churn.completed);
    assert_eq!(sketch.count(), churn.completed);
    assert_eq!(plane.records() - plane.overflow_records(), {
        // Dedicated series hold exactly what the overflow didn't.
        let dedicated: u64 = plane.conns().map(|(_, s)| s.sketch().count()).sum();
        dedicated
    });

    // The headline quantile bound: merged-sketch quantiles within ±1
    // rank-percent of the exact oracle, α-scaled.
    for &q in &[0.50, 0.90, 0.99] {
        let got = sketch.quantile(q) as f64;
        let lo = churn.oracle_quantile((q - 0.01).max(0.0)) as f64 * (1.0 - alpha);
        let hi = churn.oracle_quantile((q + 0.01).min(1.0)) as f64 * (1.0 + alpha);
        assert!(
            got >= lo && got <= hi,
            "q={q}: sketch {got:.0} outside oracle band [{lo:.0}, {hi:.0}]"
        );
    }
    assert_eq!(sketch.min(), churn.oracle_quantile(0.0), "exact min");
    assert_eq!(sketch.max(), churn.oracle_quantile(1.0), "exact max");

    // Associativity at scale: the wave-by-wave merge equals the pooled
    // sketch, by canonical-form equality.
    assert!(
        churn.merged_cluster_matches(),
        "per-wave merged sketches must equal the pooled cluster sketch"
    );
    assert!(plane.rollup_reconciles(), "conn/endpoint/cluster reconcile");

    // The budget held at 10k cardinality, and degradation was explicit:
    // connections beyond the cap went to the overflow series and were
    // counted, never dropped.
    assert!(
        plane.within_budget(),
        "{} bytes over the {} cap",
        plane.mem_bytes(),
        plane.config().byte_cap
    );
    assert!(plane.mem_bytes() <= plane.worst_case_bytes());
    assert!(
        plane.conn_slots() < 10_000,
        "the cap must actually bite at this cardinality"
    );
    assert!(
        plane.overflow_records() > 0,
        "overflowed conns keep recording, explicitly"
    );
    assert_eq!(
        plane.denied_conns() as usize + plane.conn_slots(),
        10_000,
        "every connection is either seated or counted as denied"
    );

    // The watchdog sampled the whole run and found no ledger break.
    assert_eq!(churn.watchdog().samples() as usize, churn.waves_run());
    assert!(!churn.watchdog().ledger_broken());
}
