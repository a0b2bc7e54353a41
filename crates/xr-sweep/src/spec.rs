//! Data-defined campaign grids: a small `key = value` spec format parsed
//! into a [`SweepGrid`], so campaigns can be changed without recompiling.
//!
//! The `campaign` binary's `--grid <file>` mode reads this format. One axis
//! per line; axes not named keep the Fig. 4 paper-panel defaults (XR2
//! client, baseline link, static device, local execution, the paper's frame
//! sizes and clocks, one replication). Blank lines and `#` comments are
//! ignored.
//!
//! ```text
//! # speed × radius mobility campaign
//! frame_sizes  = 500
//! cpu_clocks   = 2.0
//! executions   = remote, split:0.5
//! devices      = XR2, XR3
//! wireless     = baseline, cell-edge:60:40   # label:distance_m:throughput_mbps
//! mobility     = static, vehicle:20:15       # label:speed_mps:radius_m
//! frames_per_session = 20, 80                # measurement-campaign sizes
//! users_per_edge = 1, 2, 4                   # sessions sharing the edge server
//! frame_rates  = 5                           # per-session frame rate (Hz)
//! topology     = square, hex                 # edge-site tiling (or voronoi)
//! site_density = 400, 1600                   # edge sites per km²
//! migration_policy = eager, lazy             # state re-offload on migration
//! replications = 5
//! ```
//!
//! Wireless overrides use `-` for "keep the scenario default", e.g.
//! `far:60:-` overrides only the distance.

use crate::grid::{MobilityCondition, SweepGrid, WirelessCondition};
use std::collections::BTreeSet;
use xr_types::{Error, ExecutionTarget, MigrationPolicy, Result, TopologyLayout};

fn spec_error(line_number: usize, message: impl std::fmt::Display) -> Error {
    Error::invalid_parameter("grid spec", format!("line {line_number}: {message}"))
}

fn parse_positive_floats(line_number: usize, key: &str, tokens: &[&str]) -> Result<Vec<f64>> {
    tokens
        .iter()
        .map(|t| {
            let value = t
                .parse::<f64>()
                .map_err(|_| spec_error(line_number, format!("{key}: `{t}` is not a number")))?;
            if value <= 0.0 || !value.is_finite() {
                return Err(spec_error(
                    line_number,
                    format!("{key}: `{t}` must be positive"),
                ));
            }
            Ok(value)
        })
        .collect()
}

fn parse_execution(line_number: usize, token: &str) -> Result<ExecutionTarget> {
    match token {
        "local" => Ok(ExecutionTarget::Local),
        "remote" => Ok(ExecutionTarget::Remote),
        _ => {
            if let Some(share) = token.strip_prefix("split:") {
                let client_share = share.parse::<f64>().map_err(|_| {
                    spec_error(
                        line_number,
                        format!("executions: `{share}` is not a split share"),
                    )
                })?;
                if !(0.0..=1.0).contains(&client_share) {
                    return Err(spec_error(
                        line_number,
                        format!("executions: split share {client_share} outside [0, 1]"),
                    ));
                }
                Ok(ExecutionTarget::Split { client_share })
            } else {
                Err(spec_error(
                    line_number,
                    format!("executions: `{token}` is not local/remote/split:<share>"),
                ))
            }
        }
    }
}

fn parse_override(line_number: usize, key: &str, field: &str, token: &str) -> Result<Option<f64>> {
    if token == "-" {
        return Ok(None);
    }
    let value = token.parse::<f64>().map_err(|_| {
        spec_error(
            line_number,
            format!("{key}: {field} `{token}` is not a number or `-`"),
        )
    })?;
    // Zero/negative overrides would only fail later as a panic deep inside
    // a campaign worker (e.g. `WirelessLink` asserts positive throughput);
    // reject them here with the line number instead.
    if value <= 0.0 || !value.is_finite() {
        return Err(spec_error(
            line_number,
            format!("{key}: {field} `{token}` must be positive"),
        ));
    }
    Ok(Some(value))
}

fn parse_wireless(line_number: usize, token: &str) -> Result<WirelessCondition> {
    if token == "baseline" {
        return Ok(WirelessCondition::baseline());
    }
    let parts: Vec<&str> = token.split(':').collect();
    if parts.len() != 3 || parts[0].is_empty() {
        return Err(spec_error(
            line_number,
            format!("wireless: `{token}` is not `baseline` or `label:distance_m:throughput_mbps`"),
        ));
    }
    Ok(WirelessCondition::new(
        parts[0],
        parse_override(line_number, "wireless", "distance_m", parts[1])?,
        parse_override(line_number, "wireless", "throughput_mbps", parts[2])?,
    ))
}

fn parse_mobility(line_number: usize, token: &str) -> Result<MobilityCondition> {
    if token == "static" {
        return Ok(MobilityCondition::static_device());
    }
    let parts: Vec<&str> = token.split(':').collect();
    if parts.len() != 3 || parts[0].is_empty() {
        return Err(spec_error(
            line_number,
            format!("mobility: `{token}` is not `static` or `label:speed_mps:radius_m`"),
        ));
    }
    let speed_mps = parts[1].parse::<f64>().map_err(|_| {
        spec_error(
            line_number,
            format!("mobility: speed `{}` is not a number", parts[1]),
        )
    })?;
    let radius_m = parts[2].parse::<f64>().map_err(|_| {
        spec_error(
            line_number,
            format!("mobility: radius `{}` is not a number", parts[2]),
        )
    })?;
    // A non-finite speed or radius would only fail later as a panic inside
    // a campaign worker (or run an infinite walk), so refuse it here.
    for (field, value) in [("speed", speed_mps), ("radius", radius_m)] {
        if !value.is_finite() {
            return Err(spec_error(
                line_number,
                format!("mobility: {field} {value} must be finite"),
            ));
        }
    }
    if speed_mps < 0.0 {
        return Err(spec_error(
            line_number,
            format!("mobility: speed {speed_mps} must be non-negative"),
        ));
    }
    if radius_m <= 0.0 {
        return Err(spec_error(
            line_number,
            format!("mobility: radius {radius_m} must be positive"),
        ));
    }
    Ok(MobilityCondition::new(parts[0], speed_mps, radius_m))
}

/// Parses a grid spec (see the module docs for the format) into a
/// [`SweepGrid`]. Axes not named in the spec keep the Fig. 4 paper-panel
/// defaults.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] with the offending line number for a
/// malformed line, an unknown or duplicate key, an empty value list, or an
/// out-of-range value.
pub fn parse_grid_spec(text: &str) -> Result<SweepGrid> {
    let mut grid = SweepGrid::paper_panel(ExecutionTarget::Local);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (index, raw) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(spec_error(
                line_number,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        if !seen.insert(key.to_string()) {
            return Err(spec_error(line_number, format!("duplicate key `{key}`")));
        }
        let tokens: Vec<&str> = value
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if tokens.is_empty() {
            return Err(spec_error(line_number, format!("{key}: empty value list")));
        }
        grid = match key {
            "frame_sizes" => {
                grid.with_frame_sizes(parse_positive_floats(line_number, key, &tokens)?)
            }
            "cpu_clocks" => grid.with_cpu_clocks(parse_positive_floats(line_number, key, &tokens)?),
            "executions" => grid.with_executions(
                tokens
                    .iter()
                    .map(|t| parse_execution(line_number, t))
                    .collect::<Result<Vec<_>>>()?,
            ),
            "devices" => grid.with_devices(tokens.iter().map(|t| (*t).to_string()).collect()),
            "wireless" => grid.with_wireless(
                tokens
                    .iter()
                    .map(|t| parse_wireless(line_number, t))
                    .collect::<Result<Vec<_>>>()?,
            ),
            "mobility" => grid.with_mobility(
                tokens
                    .iter()
                    .map(|t| parse_mobility(line_number, t))
                    .collect::<Result<Vec<_>>>()?,
            ),
            "frames_per_session" => grid.with_frames_per_session(
                tokens
                    .iter()
                    .map(|t| {
                        let frames = t.parse::<u64>().map_err(|_| {
                            spec_error(
                                line_number,
                                format!("frames_per_session: `{t}` is not a positive integer"),
                            )
                        })?;
                        if frames == 0 {
                            return Err(spec_error(
                                line_number,
                                "frames_per_session: must be at least 1",
                            ));
                        }
                        Ok(frames)
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            "users_per_edge" => grid.with_users_per_edge(
                tokens
                    .iter()
                    .map(|t| {
                        let users = t.parse::<u32>().map_err(|_| {
                            spec_error(
                                line_number,
                                format!("users_per_edge: `{t}` is not a positive integer"),
                            )
                        })?;
                        if users == 0 {
                            return Err(spec_error(
                                line_number,
                                "users_per_edge: must be at least 1",
                            ));
                        }
                        Ok(users)
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            "frame_rates" => {
                grid.with_frame_rates(parse_positive_floats(line_number, key, &tokens)?)
            }
            "topology" => grid.with_topologies(
                tokens
                    .iter()
                    .map(|t| {
                        t.parse::<TopologyLayout>()
                            .map_err(|e| spec_error(line_number, e))
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            "site_density" => {
                grid.with_site_densities(parse_positive_floats(line_number, key, &tokens)?)
            }
            "migration_policy" => grid.with_migration_policies(
                tokens
                    .iter()
                    .map(|t| {
                        t.parse::<MigrationPolicy>()
                            .map_err(|e| spec_error(line_number, e))
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            "replications" => {
                if tokens.len() != 1 {
                    return Err(spec_error(line_number, "replications: expected one value"));
                }
                let replications = tokens[0].parse::<usize>().map_err(|_| {
                    spec_error(
                        line_number,
                        format!("replications: `{}` is not a positive integer", tokens[0]),
                    )
                })?;
                if replications == 0 {
                    return Err(spec_error(line_number, "replications: must be at least 1"));
                }
                grid.with_replications(replications)
            }
            _ => {
                return Err(spec_error(
                    line_number,
                    format!(
                        "unknown key `{key}` (expected frame_sizes, cpu_clocks, executions, \
                         devices, wireless, mobility, frames_per_session, users_per_edge, \
                         frame_rates, topology, site_density, migration_policy, or \
                         replications)"
                    ),
                ))
            }
        };
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips_into_a_grid() {
        let spec = "
            # a mobility campaign
            frame_sizes  = 300, 500
            cpu_clocks   = 2.0
            executions   = local, remote, split:0.25
            devices      = XR2, XR3
            wireless     = baseline, cell-edge:60:40, far:80:-
            mobility     = static, vehicle:20:15
            frames_per_session = 10, 40
            replications = 4
        ";
        let grid = parse_grid_spec(spec).unwrap();
        assert_eq!(grid.replications(), 4);
        // 2 sizes × 1 clock × 3 targets × 2 devices × 3 links × 2 mobility
        // × 2 campaign sizes
        assert_eq!(grid.len(), 144);
        assert!(grid
            .points()
            .unwrap()
            .iter()
            .all(|p| matches!(p.frames_per_session, Some(10) | Some(40))));
        let points = grid.points().unwrap();
        // Frame size innermost (2 values), so executions vary at stride 2.
        assert_eq!(
            points[4].execution,
            ExecutionTarget::Split { client_share: 0.25 }
        );
        let far = points
            .iter()
            .find(|p| &*p.wireless.label == "far")
            .expect("far condition present");
        assert_eq!(far.wireless.distance_m, Some(80.0));
        assert_eq!(far.wireless.throughput_mbps, None);
        let vehicle = points
            .iter()
            .find(|p| &*p.mobility.label == "vehicle")
            .expect("vehicle condition present");
        assert_eq!(vehicle.mobility.speed_mps, 20.0);
        assert_eq!(vehicle.mobility.coverage_radius_m, 15.0);
    }

    #[test]
    fn contention_keys_parse_into_the_new_axes() {
        let spec = "
            frame_sizes = 300
            cpu_clocks = 2.0
            executions = remote
            users_per_edge = 1, 2, 6
            frame_rates = 5
        ";
        let grid = parse_grid_spec(spec).unwrap();
        assert_eq!(grid.len(), 3);
        let points = grid.points().unwrap();
        assert_eq!(points[0].users_per_edge, Some(1));
        assert_eq!(points[1].users_per_edge, Some(2));
        assert_eq!(points[2].users_per_edge, Some(6));
        assert!(points.iter().all(|p| p.frame_rate_hz == Some(5.0)));
        // Without the keys both axes stay off.
        let plain = parse_grid_spec("frame_sizes = 300\n").unwrap();
        let points = plain.points().unwrap();
        assert!(points.iter().all(|p| p.users_per_edge.is_none()));
        assert!(points.iter().all(|p| p.frame_rate_hz.is_none()));
    }

    #[test]
    fn topology_keys_parse_into_the_new_axes() {
        let spec = "
            frame_sizes = 300
            cpu_clocks = 2.0
            executions = remote
            mobility = vehicle:25:8
            topology = square, hex, voronoi
            site_density = 400, 1600
            migration_policy = eager, lazy
        ";
        let grid = parse_grid_spec(spec).unwrap();
        assert_eq!(grid.len(), 12); // 3 layouts × 2 densities × 2 policies
        let points = grid.points().unwrap();
        assert_eq!(points[0].topology, Some(TopologyLayout::Square));
        assert_eq!(points[0].site_density, Some(400.0));
        assert_eq!(points[0].migration_policy, Some(MigrationPolicy::Eager));
        assert_eq!(points[1].migration_policy, Some(MigrationPolicy::Lazy));
        assert_eq!(points[2].site_density, Some(1600.0));
        assert_eq!(points[4].topology, Some(TopologyLayout::Hex));
        assert_eq!(points[8].topology, Some(TopologyLayout::Voronoi));
        // The legacy single-zone model is spelled out explicitly.
        let single = parse_grid_spec("topology = single\n").unwrap();
        let points = single.points().unwrap();
        assert!(points
            .iter()
            .all(|p| p.topology == Some(TopologyLayout::Single)));
        // Without the keys all three axes stay off.
        let plain = parse_grid_spec("frame_sizes = 300\n").unwrap();
        let points = plain.points().unwrap();
        assert!(points.iter().all(|p| p.topology.is_none()));
        assert!(points.iter().all(|p| p.site_density.is_none()));
        assert!(points.iter().all(|p| p.migration_policy.is_none()));
    }

    #[test]
    fn unspecified_axes_keep_paper_defaults() {
        let grid = parse_grid_spec("replications = 2\n").unwrap();
        assert_eq!(grid.replications(), 2);
        assert_eq!(grid.len(), 15); // the 5 × 3 paper panel
        let points = grid.points().unwrap();
        assert!(points.iter().all(|p| &*p.device == "XR2"));
        assert!(points
            .iter()
            .all(|p| p.wireless.distance_m.is_none() && p.wireless.throughput_mbps.is_none()));
        assert!(points.iter().all(|p| p.mobility.is_static()));
        // The empty spec is the paper panel itself.
        assert_eq!(parse_grid_spec("# nothing\n\n").unwrap().len(), 15);
    }

    #[test]
    fn error_paths_name_the_offending_line() {
        let err = |spec: &str| parse_grid_spec(spec).unwrap_err().to_string();
        assert!(err("bogus_key = 1").contains("unknown key `bogus_key`"));
        assert!(err("frame_sizes 300").contains("expected `key = value`"));
        assert!(err("frame_sizes = 300, abc").contains("`abc` is not a number"));
        assert!(err("frame_sizes = ").contains("empty value list"));
        assert!(err("frame_sizes = -300").contains("must be positive"));
        assert!(err("cpu_clocks = 0").contains("must be positive"));
        assert!(err("wireless = edge:60:0").contains("throughput_mbps `0` must be positive"));
        assert!(err("wireless = edge:-5:40").contains("distance_m `-5` must be positive"));
        assert!(err("executions = orbital").contains("`orbital` is not local/remote"));
        assert!(err("executions = split:1.5").contains("outside [0, 1]"));
        assert!(err("executions = split:x").contains("not a split share"));
        assert!(err("wireless = cell-edge:60").contains("label:distance_m:throughput_mbps"));
        assert!(err("wireless = cell-edge:a:40").contains("not a number or `-`"));
        assert!(err("mobility = vehicle:20").contains("label:speed_mps:radius_m"));
        assert!(err("mobility = vehicle:-1:15").contains("must be non-negative"));
        assert!(err("mobility = vehicle:20:0").contains("must be positive"));
        assert!(err("mobility = vehicle:fast:15").contains("not a number"));
        assert!(
            err("mobility = walk:nan:20").contains("line 1: mobility: speed NaN must be finite")
        );
        assert!(err("mobility = walk:1.4:nan").contains("radius NaN must be finite"));
        assert!(
            err("\nmobility = walk:inf:20").contains("line 2: mobility: speed inf must be finite")
        );
        assert!(err("mobility = walk:-inf:20").contains("speed -inf must be finite"));
        assert!(err("mobility = walk:1.4:inf").contains("radius inf must be finite"));
        assert!(err("frames_per_session = 0").contains("must be at least 1"));
        assert!(err("frames_per_session = many").contains("not a positive integer"));
        assert!(err("users_per_edge = 0").contains("users_per_edge: must be at least 1"));
        assert!(err("users_per_edge = 2.5").contains("`2.5` is not a positive integer"));
        assert!(err("users_per_edge = -3").contains("`-3` is not a positive integer"));
        assert!(err("users_per_edge = many").contains("`many` is not a positive integer"));
        assert!(err("frame_rates = 0").contains("must be positive"));
        assert!(err("frame_rates = fast").contains("`fast` is not a number"));
        let torus = err("topology = torus");
        assert!(torus.contains("unknown layout `torus`"), "{torus}");
        assert!(
            torus.contains("expected square, hex, or voronoi"),
            "{torus}"
        );
        assert!(err("site_density = 0").contains("site_density: `0` must be positive"));
        assert!(err("site_density = -400").contains("must be positive"));
        assert!(err("site_density = dense").contains("`dense` is not a number"));
        let policy = err("migration_policy = teleport");
        assert!(
            policy.contains("unknown migration policy `teleport`"),
            "{policy}"
        );
        assert!(policy.contains("expected eager or lazy"), "{policy}");
        assert!(err("replications = 0").contains("must be at least 1"));
        assert!(err("replications = 2, 3").contains("expected one value"));
        assert!(err("replications = two").contains("not a positive integer"));
        let dup = err("cpu_clocks = 1\ncpu_clocks = 2");
        assert!(dup.contains("line 2"), "{dup}");
        assert!(dup.contains("duplicate key"), "{dup}");
    }
}
