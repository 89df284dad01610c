//! End-to-end experiment-flow integration test: dataset generation, baseline
//! training, fault injection, and all three mitigation strategies, exercised
//! through the declarative Campaign API exactly the way the benchmark
//! harness drives them (at the Tiny scale).

use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;

#[test]
fn mnist_like_experiment_flow_reproduces_the_papers_shape() {
    let scale = ExperimentScale::Tiny;
    let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, scale, 42)
        .expect("experiment preparation must succeed");

    // The fault-free baseline must be far above the 10% chance level — the
    // paper's baseline is 99%; the Tiny synthetic setup should reach at least
    // 60% with its handful of samples and epochs.
    let baseline = ctx.baseline_accuracy();
    assert!(
        baseline >= 0.6,
        "baseline accuracy {baseline} too low for the experiment to be meaningful"
    );

    // Figure 5b shape: more faulty PEs (MSB stuck-at-1) never help, and a
    // substantial number of faulty PEs causes a visible drop.
    let iterations = scale.vulnerability_config().iterations;
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultyPes(vec![0, 32]))
        .scenarios_per_cell(iterations)
        .run()
        .expect("faulty-PE campaign");
    assert_eq!(run.len(), 2);
    assert!(run.cells().iter().all(|c| c.scenarios == iterations));
    let clean = run.cells()[0].accuracy;
    let heavy = run.cells()[1].accuracy;
    assert!(
        heavy <= clean + 0.05,
        "32 faulty PEs ({heavy}) should not beat the clean array ({clean})"
    );

    // Figures 6/7 shape: FalVolt >= FaPIT >= FaP (within a small tolerance)
    // and FalVolt recovers most of the baseline at a 30% fault rate.
    let epochs = scale.retrain_epochs();
    let comparison = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.30]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::FaP,
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .run()
        .expect("mitigation campaign");
    let accuracy_of = |strategy: &str| {
        comparison
            .cells()
            .iter()
            .find(|c| c.outcome().map(|o| o.strategy.as_str()) == Some(strategy))
            .map(|c| c.accuracy)
            .expect("strategy present")
    };
    let fap = accuracy_of("FaP");
    let fapit = accuracy_of("FaPIT");
    let falvolt = accuracy_of("FalVolt");
    assert!(
        falvolt + 0.05 >= fapit,
        "FalVolt ({falvolt}) should not trail FaPIT ({fapit}) by more than noise"
    );
    assert!(
        falvolt >= fap,
        "FalVolt ({falvolt}) must beat pruning-only FaP ({fap})"
    );
    assert!(
        falvolt >= baseline - 0.3,
        "FalVolt ({falvolt}) should recover most of the baseline ({baseline})"
    );

    // Figure 6 shape: FalVolt actually learned per-layer thresholds (at least
    // one layer moved away from the initial 1.0), and the run carries the
    // plan's axes and one cell per strategy for the figure code.
    let falvolt_outcome = comparison
        .cells()
        .iter()
        .filter_map(|c| c.outcome())
        .find(|o| o.strategy == "FalVolt")
        .unwrap()
        .clone();
    assert!(
        falvolt_outcome
            .thresholds
            .iter()
            .any(|(_, v)| (*v - 1.0).abs() > 1e-3),
        "FalVolt should adapt at least one layer threshold, got {:?}",
        falvolt_outcome.thresholds
    );
    assert_eq!(
        comparison.axes(),
        ["fault_rate".to_string(), "strategy".to_string()]
    );
    assert_eq!(comparison.cells().len(), 3);

    // Figure 8 shape: per-epoch histories exist for both strategies and
    // FalVolt's final point is at least as good as FaPIT's.
    let convergence = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.30]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .run()
        .expect("convergence campaign");
    let fapit_history = &convergence.cells()[0].outcome().unwrap().history;
    let falvolt_history = &convergence.cells()[1].outcome().unwrap().history;
    assert_eq!(fapit_history.len(), epochs + 1);
    assert_eq!(falvolt_history.len(), epochs + 1);
    let fapit_final = fapit_history.last().unwrap().test_accuracy;
    let falvolt_final = falvolt_history.last().unwrap().test_accuracy;
    assert!(
        falvolt_final + 0.1 >= fapit_final,
        "FalVolt convergence ({falvolt_final}) should keep up with FaPIT ({fapit_final})"
    );
}
