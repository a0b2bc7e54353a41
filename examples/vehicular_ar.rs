//! Vehicular AR: an autonomous-driving-style XR workload where the device is
//! mobile (vertical handoffs), external roadside sensors stream pedestrian
//! and traffic-signal updates, and the application must decide at what speed
//! the offloaded pipeline stops meeting a latency budget.
//!
//! ```text
//! cargo run -p xr-examples --bin vehicular_ar
//! ```

use xr_core::{CheckedScenario, MobilityConfig, Scenario, SensorConfig, XrPerformanceModel};
use xr_types::{Error, ExecutionTarget, Hertz, Meters, MetersPerSecond, Segment};
use xr_wireless::HandoffKind;

fn main() -> Result<(), Error> {
    let model = XrPerformanceModel::published();
    let latency_budget_ms = 900.0;

    println!("=== Vehicular AR: latency vs vehicle speed (remote inference, vertical handoff) ===");
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "speed (m/s)", "latency (ms)", "handoff (ms)", "budget"
    );

    for speed in [0.0, 5.0, 10.0, 15.0, 20.0, 30.0] {
        let scenario = vehicular_scenario(speed)?;
        let report = model.analyze(&scenario)?;
        let total = report.latency_ms().as_f64();
        let handoff = report.latency.segment(Segment::Handoff).as_f64() * 1e3;
        println!(
            "{speed:>12.1} {total:>14.2} {handoff:>14.2} {:>10}",
            if total <= latency_budget_ms {
                "OK"
            } else {
                "MISSED"
            }
        );
    }

    // Which roadside sensors are fresh enough at highway speed?
    let scenario = vehicular_scenario(20.0)?;
    let report = model.analyze(&scenario)?;
    println!("\nSensor freshness at 20 m/s (RoI ≥ 1 means fresh):");
    for sensor in &report.aoi.sensors {
        println!(
            "  {:<22} {:>7.1} Hz  mean AoI {:>7.2} ms  RoI {:>5.2} {}",
            sensor.name,
            sensor.generation_frequency.as_f64(),
            sensor.average.as_f64() * 1e3,
            sensor.roi,
            if sensor.is_fresh() {
                ""
            } else {
                "<- increase generation rate"
            }
        );
    }
    Ok(())
}

fn vehicular_scenario(speed_mps: f64) -> Result<CheckedScenario, Error> {
    Scenario::builder()
        .client_from_catalog("XR1")?
        .frame_side(640.0)
        .frame_rate(Hertz::new(30.0))
        .execution(ExecutionTarget::Remote)
        .remote_cnn("YoloV7")?
        .sensors(vec![
            SensorConfig::new("roadside-lidar", Hertz::new(200.0), Meters::new(80.0)),
            SensorConfig::new("traffic-signal", Hertz::new(10.0), Meters::new(120.0)),
            SensorConfig::new("pedestrian-beacon", Hertz::new(50.0), Meters::new(40.0)),
            SensorConfig::new("hd-map-delta", Hertz::new(2.0), Meters::new(1_000.0)),
        ])
        .updates_per_frame(4)
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(speed_mps),
            coverage_radius: Meters::new(120.0),
            handoff_kind: HandoffKind::Vertical,
        })
        .build()
}
