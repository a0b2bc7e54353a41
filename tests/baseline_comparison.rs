//! Integration-level reproduction of the Fig. 5 comparison: the proposed
//! framework must out-predict FACT and LEAF on the simulated testbed.

use xr_baselines::{BaselineModel, FactModel, LeafModel};
use xr_experiments::comparison::{comparison_sweep, Metric};
use xr_experiments::ExperimentContext;
use xr_integration::evaluation_scenario;
use xr_types::ExecutionTarget;

#[test]
fn proposed_model_wins_on_both_metrics() {
    let ctx = ExperimentContext::quick(201).unwrap();
    for metric in [Metric::Latency, Metric::Energy] {
        let sweep = comparison_sweep(&ctx, metric).unwrap();
        let proposed = sweep.proposed_accuracy();
        let fact = sweep.fact_accuracy();
        let leaf = sweep.leaf_accuracy();
        assert!(
            proposed > fact && proposed > leaf,
            "{metric:?}: proposed {proposed:.2}% vs FACT {fact:.2}% vs LEAF {leaf:.2}%"
        );
        // The proposed model stays strong in absolute terms too.
        assert!(
            proposed > 80.0,
            "{metric:?}: proposed accuracy {proposed:.2}%"
        );
    }
}

#[test]
fn leaf_is_closer_than_fact_mirroring_the_paper() {
    // LEAF's per-segment structure should place it between FACT and the
    // proposed framework, as in Fig. 5.
    let ctx = ExperimentContext::quick(202).unwrap();
    let sweep = comparison_sweep(&ctx, Metric::Latency).unwrap();
    assert!(
        sweep.leaf_accuracy() >= sweep.fact_accuracy(),
        "LEAF {:.2}% should not trail FACT {:.2}%",
        sweep.leaf_accuracy(),
        sweep.fact_accuracy()
    );
}

#[test]
fn baselines_expose_a_uniform_interface() {
    let scenario = evaluation_scenario(500.0, 2.0, ExecutionTarget::Remote);
    let models: Vec<Box<dyn BaselineModel>> =
        vec![Box::new(FactModel::new()), Box::new(LeafModel::new())];
    for model in models {
        let latency = model.predict_latency(&scenario);
        let energy = model.predict_energy(&scenario);
        assert!(latency.as_f64() > 0.0, "{}", model.name());
        assert!(energy.as_f64() > 0.0, "{}", model.name());
    }
}

#[test]
fn calibration_improves_baseline_accuracy_at_the_reference_point() {
    let ctx = ExperimentContext::quick(203).unwrap();
    let scenario = evaluation_scenario(500.0, 2.0, ExecutionTarget::Remote);
    let session = ctx.testbed().simulate_session(&scenario, 20).unwrap();
    let observed_latency = session.mean_latency();
    let observed_energy = session.mean_energy();

    let uncalibrated_error = {
        let fact = FactModel::new();
        (fact.predict_latency(&scenario).as_f64() - observed_latency.as_f64()).abs()
    };
    let calibrated_error = {
        let mut fact = FactModel::new();
        fact.calibrate(&scenario, observed_latency, observed_energy);
        (fact.predict_latency(&scenario).as_f64() - observed_latency.as_f64()).abs()
    };
    assert!(calibrated_error <= uncalibrated_error);
    assert!(calibrated_error < 1e-9);
}
