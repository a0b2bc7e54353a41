//! Property-based tests (proptest) over the framework's core invariants.

use proptest::prelude::*;
use xr_core::{CheckedScenario, LatencyModel, Scenario, XrPerformanceModel};
use xr_queueing::{MM1Queue, MM1Simulator};
use xr_stats::{metrics, LinearRegression};
use xr_sweep::{parse_grid_spec, CheckpointHeader, ShardCheckpoint, ShardManifest, ShardSpec};
use xr_types::{ExecutionTarget, GigaHertz, Hertz, Ratio, Segment};

fn scenario_strategy() -> impl Strategy<Value = CheckedScenario> {
    (
        300.0..700.0_f64,                      // frame size
        1.0..3.2_f64,                          // CPU clock
        0.0..1.0_f64,                          // CPU share
        15.0..60.0_f64,                        // fps
        prop::sample::select(vec![0u8, 1, 2]), // execution target
        1u32..8,                               // updates per frame
    )
        .prop_map(|(size, clock, share, fps, target, updates)| {
            let execution = match target {
                0 => ExecutionTarget::Local,
                1 => ExecutionTarget::Remote,
                _ => ExecutionTarget::Split { client_share: 0.5 },
            };
            Scenario::builder()
                .frame_side(size)
                .cpu_clock(GigaHertz::new(clock))
                .cpu_share(Ratio::new(share))
                .frame_rate(Hertz::new(fps))
                .updates_per_frame(updates)
                .execution(execution)
                .build()
                .expect("generated scenario is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latency_and_energy_are_finite_and_positive(scenario in scenario_strategy()) {
        let model = XrPerformanceModel::published();
        let report = model.analyze(&scenario).unwrap();
        prop_assert!(report.latency.total().as_f64().is_finite());
        prop_assert!(report.latency.total().as_f64() > 0.0);
        prop_assert!(report.energy.total().as_f64().is_finite());
        prop_assert!(report.energy.total().as_f64() > 0.0);
        for (_, l) in report.latency.iter() {
            prop_assert!(l.as_f64() >= 0.0);
        }
        for (_, e) in report.energy.iter() {
            prop_assert!(e.as_f64() >= 0.0);
        }
    }

    #[test]
    fn gated_total_never_exceeds_sum_of_segments(scenario in scenario_strategy()) {
        let model = LatencyModel::published();
        let breakdown = model.analyze(&scenario).unwrap();
        prop_assert!(breakdown.total() <= breakdown.sum_of_segments() + xr_types::Seconds::new(1e-12));
    }

    #[test]
    fn local_and_remote_segments_are_mutually_exclusive(scenario in scenario_strategy()) {
        let model = LatencyModel::published();
        let breakdown = model.analyze(&scenario).unwrap();
        match scenario.execution {
            ExecutionTarget::Local => {
                prop_assert_eq!(breakdown.segment(Segment::RemoteInference).as_f64(), 0.0);
                prop_assert_eq!(breakdown.segment(Segment::Transmission).as_f64(), 0.0);
            }
            ExecutionTarget::Remote => {
                prop_assert_eq!(breakdown.segment(Segment::LocalInference).as_f64(), 0.0);
                prop_assert_eq!(breakdown.segment(Segment::FrameConversion).as_f64(), 0.0);
            }
            ExecutionTarget::Split { .. } => {
                prop_assert!(breakdown.segment(Segment::LocalInference).as_f64() > 0.0);
                prop_assert!(breakdown.segment(Segment::RemoteInference).as_f64() > 0.0);
            }
        }
    }

    #[test]
    fn latency_is_monotone_in_frame_size(
        clock in 1.5..3.0_f64,
        small in 300.0..480.0_f64,
        delta in 50.0..200.0_f64,
    ) {
        let model = LatencyModel::published();
        let build = |size: f64| {
            Scenario::builder()
                .frame_side(size)
                .cpu_clock(GigaHertz::new(clock))
                .execution(ExecutionTarget::Remote)
                .build()
                .unwrap()
        };
        let a = model.analyze(&build(small)).unwrap().total();
        let b = model.analyze(&build(small + delta)).unwrap().total();
        prop_assert!(b >= a);
    }

    #[test]
    fn mm1_littles_law_and_stability(lambda in 0.1..500.0_f64, gap in 0.1..500.0_f64) {
        let mu = lambda + gap;
        let queue = MM1Queue::new(lambda, mu).unwrap();
        prop_assert!(queue.utilization() < 1.0);
        prop_assert!(queue.littles_law_residual().abs() < 1e-6);
        prop_assert!(queue.mean_time_in_system().as_f64() >= 1.0 / mu - 1e-12);
    }

    #[test]
    fn mm1_simulation_tracks_analytics_across_the_stable_region(
        rho in 0.05..0.9_f64,
        mu in 200.0..2_000.0_f64,
        seed in 0u64..1_000,
    ) {
        // After the warm-up accounting fixes, the simulated sojourn time,
        // utilization and queue length all share one measurement window and
        // must track the closed forms across the stable-ρ grid.
        let lambda = rho * mu;
        let analytic = MM1Queue::new(lambda, mu).unwrap();
        let report = MM1Simulator::new(lambda, mu, seed)
            .unwrap()
            .with_warmup(2_000)
            .run(30_000)
            .unwrap();
        prop_assert_eq!(report.completed, 30_000);
        let sojourn_rel_err = (report.mean_time_in_system.as_f64()
            - analytic.mean_time_in_system().as_f64())
            .abs()
            / analytic.mean_time_in_system().as_f64();
        prop_assert!(sojourn_rel_err < 0.25, "sojourn rel err {} at rho {}", sojourn_rel_err, rho);
        prop_assert!(
            (report.utilization - analytic.utilization()).abs() < 0.05,
            "utilization {} vs {}",
            report.utilization,
            analytic.utilization()
        );
        let length_rel_err = (report.mean_number_in_system - analytic.mean_number_in_system())
            .abs()
            / analytic.mean_number_in_system();
        prop_assert!(length_rel_err < 0.3, "queue length rel err {} at rho {}", length_rel_err, rho);
    }

    #[test]
    fn ols_recovers_linear_relations(
        intercept in -50.0..50.0_f64,
        slope in -10.0..10.0_f64,
        n in 10usize..60,
    ) {
        let ys: Vec<f64> = (0..n).map(|i| intercept + slope * (i as f64 * 0.5)).collect();
        let fit = LinearRegression::new().fit(n, |i| [i as f64 * 0.5], &ys).unwrap();
        prop_assert!((fit.intercept() - intercept).abs() < 1e-6);
        prop_assert!((fit.coefficients()[0] - slope).abs() < 1e-6);
    }

    #[test]
    fn normalized_accuracy_is_bounded(
        truth in prop::collection::vec(1.0..1_000.0_f64, 1..20),
        noise in prop::collection::vec(-0.5..0.5_f64, 20),
    ) {
        let predicted: Vec<f64> = truth
            .iter()
            .zip(&noise)
            .map(|(t, n)| t * (1.0 + n))
            .collect();
        let accuracy = metrics::normalized_accuracy(&truth, &predicted);
        prop_assert!((0.0..=100.0).contains(&accuracy));
        let perfect = metrics::normalized_accuracy(&truth, &truth);
        prop_assert!((perfect - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_latency_for_fixed_power_profile(
        size in 300.0..700.0_f64,
        clock in 1.8..3.0_f64,
    ) {
        // For a fixed scenario, scaling every latency up cannot reduce energy.
        let scenario = Scenario::builder()
            .frame_side(size)
            .cpu_clock(GigaHertz::new(clock))
            .execution(ExecutionTarget::Local)
            .build()
            .unwrap();
        let model = XrPerformanceModel::published();
        let report = model.analyze(&scenario).unwrap();
        let bigger = Scenario::builder()
            .frame_side(size + 50.0)
            .cpu_clock(GigaHertz::new(clock))
            .execution(ExecutionTarget::Local)
            .build()
            .unwrap();
        let bigger_report = model.analyze(&bigger).unwrap();
        prop_assert!(bigger_report.energy.total() >= report.energy.total());
    }
}

/// Arbitrary short text over the characters a `--shard` token is made of,
/// plus ones it must reject: signs, spaces, letters, a non-ASCII digit and
/// a multi-byte letter. Long digit runs overflow `usize`.
fn shard_token_strategy() -> impl Strategy<Value = String> {
    let chars = vec![
        '0', '1', '2', '3', '7', '9', '/', '/', ' ', '\t', '-', '+', 'x', '\u{663}', 'é',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary `key = value` text for the grid-spec and manifest parsers:
/// every grid and manifest key plus misspellings, value tokens each parser
/// accepts (numbers, targets, mobility and wireless triples, layouts,
/// policies, shard specs) next to ones it must reject (signs, NaN and
/// infinities, overflowing integers, half-formed triples, non-ASCII
/// digits), lines without `=`, comments, blank lines, and raw character
/// noise. Keys repeat often, so duplicate-key handling is exercised too.
/// One line kind is a `mobility` line of mobility triples only, finite or
/// not, so that some parsed grids walk.
fn spec_text_strategy() -> impl Strategy<Value = String> {
    // `|`-separated, so the lists may hold empty and space-containing tokens.
    let keys = "frame_sizes|cpu_clocks|executions|devices|wireless|mobility|\
                frames_per_session|users_per_edge|frame_rates|topology|site_density|\
                migration_policy|replications|campaign_seed|grid_fingerprint|points|shard|\
                rows||rows rows|Frame_sizes|é";
    let values = "0|1|3|2.5|-1|-0|1e308|1e-300|NaN|inf|-inf|18446744073709551615|\
                  18446744073709551616|local|remote|split:0.25|split:1.5|split:-1|split:|\
                  split:NaN|static|walk:1.4:30|walk:-1:30|walk:1:0|walk:inf:1|a:b:c|::|\
                  wifi:10:200|wifi:-:|base|hex|voronoi|single|eager|lazy|1/1|2/3|0/3|3/2|\
                  XR1|\u{663}|";
    let mobility = "static|walk:1.4:30|vehicle:25:10|walk:inf:1|walk:-inf:1|walk:NaN:20|\
                    walk:1.4:NaN|walk:1:inf|walk:-1:30|walk:1:0";
    let keys: Vec<&str> = keys.split('|').collect();
    let values: Vec<&str> = values.split('|').collect();
    let mobility: Vec<&str> = mobility.split('|').collect();
    let noise = vec![
        '=', ',', ':', '/', '#', ' ', '\t', '1', 'x', '-', '.', 'é', '\u{663}',
    ];
    let line = (
        prop::sample::select(vec![0u8, 0, 0, 1, 2, 3, 4, 5]),
        prop::sample::select(keys),
        prop::collection::vec(prop::sample::select(values), 0..4),
        prop::collection::vec(prop::sample::select(noise), 0..10),
        prop::collection::vec(prop::sample::select(mobility), 1..3),
    )
        .prop_map(|(kind, key, values, noise, mobility)| match kind {
            0 => format!("{key} = {}", values.join(", ")),
            1 => format!("{key}={}", values.join(",")),
            2 => key.to_string(),
            3 => format!("# {key}"),
            4 => noise.into_iter().collect(),
            _ => format!("mobility = {}", mobility.join(", ")),
        });
    prop::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n"))
}

/// Arbitrary checkpoint-file text: lines drawn from the header lines a
/// checkpoint for [`checkpoint_header`] starts with, header lines with
/// other or unreadable values, `done <point>` records (valid, signed,
/// overflowing, empty, with trailing space or a tab) and character noise,
/// with or without a final newline, so the last line may be torn.
fn checkpoint_text_strategy() -> impl Strategy<Value = String> {
    let lines = vec![
        "# xr-sweep shard checkpoint v1",
        "# xr-sweep shard checkpoint v2",
        "campaign_seed = 2024",
        "campaign_seed = 2025",
        "grid_fingerprint = 77",
        "grid_fingerprint=77",
        "points = 12",
        "points = 012",
        "points = -1",
        "shard = 2/3",
        "shard = 0/3",
        "shard =",
        "done 0",
        "done 3",
        "done 11",
        "done 18446744073709551616",
        "done -1",
        "done +5",
        "done ",
        "done 4 ",
        "done\t1",
        "",
        "#",
        "é\u{663}=/",
    ];
    (
        prop::collection::vec(prop::sample::select(lines), 0..12),
        0u8..2,
    )
        .prop_map(|(lines, newline)| {
            let mut text = lines.join("\n");
            if newline == 1 {
                text.push('\n');
            }
            text
        })
}

/// The campaign identity the checkpoint properties open files against.
fn checkpoint_header() -> CheckpointHeader {
    CheckpointHeader {
        campaign_seed: 2024,
        grid_fingerprint: 77,
        points: 12,
        shard: ShardSpec::new(2, 3).unwrap(),
    }
}

/// The header a fresh checkpoint for [`checkpoint_header`] writes, read
/// back from one created once per process.
fn checkpoint_header_text() -> &'static str {
    static HEADER: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    HEADER.get_or_init(|| {
        let path = checkpoint_path("fresh");
        drop(ShardCheckpoint::open(&path, checkpoint_header(), 1).unwrap());
        let header = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        header
    })
}

/// The points of the longest valid record prefix of `records` (the text
/// after the header): complete `done <point>` lines, up to the first line
/// that is not one.
fn valid_record_prefix(records: &str) -> Vec<usize> {
    records
        .split_inclusive('\n')
        .map_while(|line| line.strip_suffix('\n')?.strip_prefix("done ")?.parse().ok())
        .collect()
}

/// A path with no file behind it, for one case of checkpoint property
/// `name`.
fn checkpoint_path(name: &str) -> std::path::PathBuf {
    let file = format!("xr-checkpoint-{name}-{}", std::process::id());
    let path = std::env::temp_dir().join(file);
    let _ = std::fs::remove_file(&path);
    path
}

fn shard_manifest_strategy() -> impl Strategy<Value = ShardManifest> {
    (
        0u64..u64::MAX,
        0u64..u64::MAX,
        0usize..1_000_000,
        1usize..10_000,
        0usize..10_000,
        0usize..1_000_000,
    )
        .prop_map(
            |(campaign_seed, grid_fingerprint, points, count, offset, rows)| ShardManifest {
                campaign_seed,
                grid_fingerprint,
                points,
                shard: ShardSpec::new(offset % count + 1, count).unwrap(),
                rows,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grid_spec_parsing_never_panics(text in spec_text_strategy()) {
        // `Ok` or `Err`; a panic fails the property. A parsed grid's
        // mobility conditions are finite (`walk:inf:1` and `NaN` are among
        // the tokens), or its walks would panic or never end in a worker.
        if let Ok(points) = parse_grid_spec(&text).and_then(|grid| grid.points()) {
            for point in points {
                let mobility = &point.mobility;
                prop_assert!(
                    mobility.speed_mps.is_finite() && mobility.coverage_radius_m.is_finite(),
                    "{mobility:?}"
                );
            }
        }
    }

    #[test]
    fn shard_manifest_parsing_never_panics(text in spec_text_strategy()) {
        // `Ok` or `Err`; a parsed manifest renders back to an equal one.
        if let Ok(parsed) = ShardManifest::parse(&text) {
            prop_assert_eq!(ShardManifest::parse(&parsed.render()).ok(), Some(parsed));
        }
    }

    #[test]
    fn repeated_manifest_keys_never_override(
        manifest in shard_manifest_strategy(),
        other in shard_manifest_strategy(),
        line in 1usize..6,
    ) {
        // Appending one key line of another manifest repeats that key; the
        // parser must refuse it rather than let the later value win.
        let repeat = other.render().lines().nth(line).unwrap().to_string();
        let text = format!("{}{repeat}\n", manifest.render());
        prop_assert!(ShardManifest::parse(&text).is_err(), "{text}");
    }

    #[test]
    fn shard_manifests_round_trip_through_render(manifest in shard_manifest_strategy()) {
        prop_assert_eq!(ShardManifest::parse(&manifest.render()).ok(), Some(manifest));
    }

    #[test]
    fn shard_spec_parsing_never_panics(token in shard_token_strategy()) {
        // Both entry points return `Ok` or `Err` (a panic fails the
        // property), agree with each other, and only accept a valid
        // 1-based spec, which round-trips through `Display`.
        let parsed = ShardSpec::parse(&token);
        let from_str = token.parse::<ShardSpec>();
        prop_assert_eq!(parsed.as_ref().ok(), from_str.as_ref().ok());
        if let Ok(spec) = parsed {
            prop_assert!(1 <= spec.index() && spec.index() <= spec.count(), "{spec:?}");
            prop_assert_eq!(ShardSpec::parse(&spec.to_string()).ok(), Some(spec));
        }
    }

    #[test]
    fn checkpoint_open_never_panics_on_arbitrary_files(
        header_lines in 0usize..6,
        rest in checkpoint_text_strategy(),
    ) {
        // The file is the first `header_lines` lines of a valid header
        // (none to all five) and arbitrary text after them. `open` returns
        // `Ok` or `Err` (a panic fails the property); a file that opens
        // starts with five header lines, and its completed points are the
        // longest valid record prefix after them.
        let valid: String = checkpoint_header_text()
            .split_inclusive('\n')
            .take(header_lines)
            .collect();
        let text = format!("{valid}{rest}");
        let path = checkpoint_path("arbitrary");
        std::fs::write(&path, &text).unwrap();
        if let Ok(checkpoint) = ShardCheckpoint::open(&path, checkpoint_header(), 1) {
            let header: usize = text.split_inclusive('\n').take(5).map(str::len).sum();
            prop_assert_eq!(checkpoint.completed(), valid_record_prefix(&text[header..]));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_open_keeps_the_longest_valid_record_prefix(
        records in checkpoint_text_strategy(),
    ) {
        // A valid header followed by arbitrary text always opens; the
        // completed points are the longest valid record prefix, and the
        // file is cut back to the header and exactly those records.
        let header = checkpoint_header_text();
        let path = checkpoint_path("header-then-arbitrary");
        std::fs::write(&path, format!("{header}{records}")).unwrap();
        let checkpoint = ShardCheckpoint::open(&path, checkpoint_header(), 1);
        let expected = valid_record_prefix(&records);
        prop_assert_eq!(checkpoint.as_ref().map(|c| c.completed()).ok(), Some(&expected[..]));
        drop(checkpoint);
        let kept: usize = records
            .split_inclusive('\n')
            .take(expected.len())
            .map(str::len)
            .sum();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(on_disk, format!("{header}{}", &records[..kept]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn valid_shard_specs_round_trip_through_display(
        count in 1usize..10_000,
        offset in 0usize..10_000,
    ) {
        let spec = ShardSpec::new(offset % count + 1, count).unwrap();
        let text = spec.to_string();
        prop_assert_eq!(ShardSpec::parse(&text).ok(), Some(spec));
        prop_assert_eq!(text.parse::<ShardSpec>().ok(), Some(spec));
    }
}
