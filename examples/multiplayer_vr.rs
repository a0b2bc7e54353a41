//! Multiplayer VR: a Quest 2 headset cooperating with other players through
//! an edge server. The example compares local, remote, and split execution,
//! includes the XR-cooperation segment in the totals (unlike the default
//! pipeline), and shows the effect of splitting the inference task across two
//! edge servers.
//!
//! ```text
//! cargo run -p xr-examples --bin multiplayer_vr
//! ```

use xr_core::{CheckedScenario, CooperationConfig, EdgeServerConfig, Scenario, XrPerformanceModel};
use xr_types::{Error, ExecutionTarget, MegaBytes, Meters, SegmentSet};
use xr_wireless::AccessTechnology;

fn main() -> Result<(), Error> {
    let model = XrPerformanceModel::published();

    println!("=== Multiplayer VR on Meta Quest 2 (XR6), cooperation included in totals ===");
    println!(
        "{:<34} {:>14} {:>14}",
        "execution", "latency (ms)", "energy (mJ)"
    );

    let targets = [
        ("local (on-device MobileNetV2)", ExecutionTarget::Local),
        ("remote (single edge, YOLOv3)", ExecutionTarget::Remote),
        (
            "split 30% device / 70% edge",
            ExecutionTarget::Split { client_share: 0.3 },
        ),
    ];
    for (label, target) in targets {
        let scenario = vr_scenario(target, false)?;
        let report = model.analyze(&scenario)?;
        println!(
            "{label:<34} {:>14.2} {:>14.2}",
            report.latency_ms().as_f64(),
            report.energy_mj().as_f64()
        );
    }

    // Distribute the remote task over two edge servers working in parallel.
    let scenario = vr_scenario(ExecutionTarget::Remote, true)?;
    let report = model.analyze(&scenario)?;
    println!(
        "{:<34} {:>14.2} {:>14.2}",
        "remote (two parallel edge servers)",
        report.latency_ms().as_f64(),
        report.energy_mj().as_f64()
    );

    Ok(())
}

fn vr_scenario(target: ExecutionTarget, two_servers: bool) -> Result<CheckedScenario, Error> {
    let near = EdgeServerConfig {
        name: "EDGE-XAVIER",
        distance: Meters::new(8.0),
        task_share: if two_servers { 0.6 } else { 1.0 },
        ..EdgeServerConfig::jetson_xavier()
    };
    let mut servers = vec![near];
    if two_servers {
        servers.push(EdgeServerConfig {
            name: "EDGE-TX2",
            distance: Meters::new(25.0),
            task_share: 0.4,
            technology: AccessTechnology::WiFi5GHz,
            ..EdgeServerConfig::jetson_xavier()
        });
    }
    Scenario::builder()
        .client_from_catalog("XR6")?
        .frame_side(600.0)
        .execution(target)
        .edge_servers(servers)
        .cooperation(CooperationConfig {
            payload: MegaBytes::new(0.12),
            distance: Meters::new(15.0),
            throughput: AccessTechnology::WiFi5GHz.nominal_throughput(),
            include_in_totals: true,
        })
        .segments(SegmentSet::full())
        .build()
}
