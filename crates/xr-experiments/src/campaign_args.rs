//! The experiment binaries' command lines, parsed in one typed pass.
//!
//! Every accepted flag is a field of [`CampaignArgs`]; anything else is an
//! error that names the offending token, so a mistyped or retired flag
//! stops the run instead of being silently ignored. The `campaign` binary
//! accepts every flag ([`CampaignArgs::parse`]); `reproduce` accepts only
//! the two context flags, `--paper-scale` and `--scalar-sessions`, plus
//! artifact names ([`CampaignArgs::parse_experiment`]).

use crate::artifacts::{self, ARTIFACTS};
use crate::campaign::quick_grid;
use crate::context::ExperimentContext;
use std::path::PathBuf;
use xr_sweep::{parse_grid_spec, ShardSpec, SweepGrid};
use xr_types::Result;

/// The command line of an experiment binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignArgs {
    /// `--grid <file>`: a grid spec replacing the built-in quick grid.
    pub grid: Option<PathBuf>,
    /// `--shard i/N`: run only the round-robin shard `i` of `N`. Without
    /// it the run is shard `1/1`.
    pub shard: Option<ShardSpec>,
    /// `--checkpoint-every <rows>`: fsync the CSV and its checkpoint every
    /// this many rows, with or without `--shard`. Without it a sharded run
    /// fsyncs every row ([`xr_sweep::DEFAULT_SYNC_EVERY`]) and a run
    /// without `--shard` once, at the end.
    pub checkpoint_every: Option<usize>,
    /// `--progress`: report each completed point on stderr.
    pub progress: bool,
    /// `--paper-scale`: calibrate on the paper-scale measurement campaign.
    pub paper_scale: bool,
    /// `--scalar-sessions`: simulate through the scalar reference engine.
    pub scalar_sessions: bool,
    /// The registry names `reproduce` runs, in order (`all` expands to
    /// every name); empty runs every artifact.
    pub artifacts: Vec<&'static str>,
}

impl CampaignArgs {
    /// Parses the `campaign` binary's arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem: an unknown flag or stray
    /// argument, a flag missing its value, or a malformed value.
    pub fn parse<I, S>(args: I) -> std::result::Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Self::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(flag) = args.next() {
            let mut value =
                |what: &str| args.next().ok_or_else(|| format!("{flag} requires {what}"));
            match flag.as_str() {
                "--grid" => parsed.grid = Some(PathBuf::from(value("a file path")?)),
                "--shard" => {
                    let token = value("a spec like `2/4`")?;
                    let shard =
                        ShardSpec::parse(&token).map_err(|e| format!("invalid --shard: {e}"))?;
                    parsed.shard = Some(shard);
                }
                "--checkpoint-every" => {
                    let token = value("a row count")?;
                    match token.parse::<usize>() {
                        Ok(rows) if rows >= 1 => parsed.checkpoint_every = Some(rows),
                        _ => {
                            return Err(format!(
                                "invalid --checkpoint-every: `{token}` is not a row count of at least 1"
                            ))
                        }
                    }
                }
                "--progress" => parsed.progress = true,
                "--paper-scale" => parsed.paper_scale = true,
                "--scalar-sessions" => parsed.scalar_sessions = true,
                _ if flag.starts_with('-') => {
                    return Err(format!("unknown campaign flag `{flag}`"))
                }
                _ => return Err(format!("unexpected campaign argument `{flag}`")),
            }
        }
        Ok(parsed)
    }

    /// Parses the arguments of `reproduce`: `--paper-scale`,
    /// `--scalar-sessions`, `all` and the names in [`ARTIFACTS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first other argument.
    pub fn parse_experiment<I, S>(args: I) -> std::result::Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Self::default();
        for flag in args.into_iter().map(Into::into) {
            match flag.as_str() {
                "--paper-scale" => parsed.paper_scale = true,
                "--scalar-sessions" => parsed.scalar_sessions = true,
                _ if flag.starts_with('-') => {
                    return Err(format!("unknown experiment flag `{flag}`"))
                }
                "all" => parsed.artifacts.extend(ARTIFACTS.iter().map(|a| a.name)),
                name => match artifacts::find(name) {
                    Some(artifact) => parsed.artifacts.push(artifact.name),
                    None => return Err(format!("unknown artifact `{name}`")),
                },
            }
        }
        Ok(parsed)
    }

    /// The `campaign` process's own arguments. Bad input exits with status
    /// 2 and a message on stderr.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| usage_error(&message))
    }

    /// The `reproduce` process's own arguments. Bad input exits with status
    /// 2 and a message on stderr.
    #[must_use]
    pub fn experiment_from_env() -> Self {
        Self::parse_experiment(std::env::args().skip(1))
            .unwrap_or_else(|message| usage_error(&message))
    }

    /// The campaign grid: the `--grid` spec when given, the built-in quick
    /// grid otherwise.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec cannot be read or parsed.
    pub fn grid(&self) -> std::result::Result<SweepGrid, String> {
        let Some(path) = &self.grid else {
            return Ok(quick_grid());
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read grid spec {}: {e}", path.display()))?;
        parse_grid_spec(&text).map_err(|e| format!("invalid grid spec {}: {e}", path.display()))
    }

    /// The experiment context these flags select, calibrated at `seed`.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn context(&self, seed: u64) -> Result<ExperimentContext> {
        let ctx = if self.paper_scale {
            ExperimentContext::paper_scale(seed)?
        } else {
            ExperimentContext::quick(seed)?
        };
        Ok(if self.scalar_sessions {
            ctx.with_scalar_sessions()
        } else {
            ctx
        })
    }
}

/// Reports a command-line or environment error and exits with status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> std::result::Result<CampaignArgs, String> {
        CampaignArgs::parse(args.iter().copied())
    }

    #[test]
    fn no_flags_select_the_defaults() {
        assert_eq!(parse(&[]), Ok(CampaignArgs::default()));
    }

    #[test]
    fn every_accepted_flag_parses() {
        let args = parse(&[
            "--grid",
            "configs/campaign-mobility.grid",
            "--shard",
            "2/3",
            "--checkpoint-every",
            "16",
            "--progress",
            "--paper-scale",
            "--scalar-sessions",
        ])
        .unwrap();
        assert_eq!(
            args,
            CampaignArgs {
                grid: Some(PathBuf::from("configs/campaign-mobility.grid")),
                shard: Some(ShardSpec::new(2, 3).unwrap()),
                checkpoint_every: Some(16),
                progress: true,
                paper_scale: true,
                scalar_sessions: true,
                artifacts: Vec::new(),
            }
        );
    }

    #[test]
    fn retired_and_unknown_flags_are_named() {
        assert_eq!(
            parse(&["--fused-points"]),
            Err("unknown campaign flag `--fused-points`".to_string())
        );
        assert_eq!(
            parse(&["--progress", "--session-chunks", "3"]),
            Err("unknown campaign flag `--session-chunks`".to_string())
        );
        assert_eq!(
            parse(&["--reorder-cap", "8"]),
            Err("unknown campaign flag `--reorder-cap`".to_string())
        );
        assert_eq!(
            parse(&["campaign.csv"]),
            Err("unexpected campaign argument `campaign.csv`".to_string())
        );
    }

    #[test]
    fn missing_and_malformed_values_are_rejected() {
        assert_eq!(
            parse(&["--grid"]),
            Err("--grid requires a file path".to_string())
        );
        assert_eq!(
            parse(&["--shard"]),
            Err("--shard requires a spec like `2/4`".to_string())
        );
        assert_eq!(
            parse(&["--shard", "1/1", "--checkpoint-every"]),
            Err("--checkpoint-every requires a row count".to_string())
        );
        assert!(parse(&["--shard", "4/3"])
            .unwrap_err()
            .starts_with("invalid --shard"));
        assert!(parse(&["--shard", "1/2", "--checkpoint-every", "0"])
            .unwrap_err()
            .starts_with("invalid --checkpoint-every"));
    }

    #[test]
    fn flags_select_the_context_and_grid() {
        let args = parse(&["--scalar-sessions"]).unwrap();
        let ctx = args.context(11).unwrap();
        assert_eq!(ctx.seed(), 11);
        assert_eq!(ctx.testbed().engine(), xr_testbed::SimulationEngine::Scalar);
        assert_eq!(args.grid().unwrap().len(), quick_grid().len());
        let missing = parse(&["--grid", "no/such/file.grid"]).unwrap();
        assert!(missing
            .grid()
            .unwrap_err()
            .starts_with("cannot read grid spec no/such/file.grid"));
    }

    #[test]
    fn experiment_binaries_accept_only_the_context_flags() {
        let experiment = |args: &[&str]| CampaignArgs::parse_experiment(args.iter().copied());
        assert_eq!(experiment(&[]), Ok(CampaignArgs::default()));
        assert_eq!(
            experiment(&["--scalar-sessions", "--paper-scale"]),
            Ok(CampaignArgs {
                paper_scale: true,
                scalar_sessions: true,
                ..CampaignArgs::default()
            })
        );
        // A typo no longer runs silently at quick scale, and the campaign
        // binary's run-shaping flags belong to it alone.
        for flag in ["--paper-scal", "--progress", "--grid", "--shard"] {
            assert_eq!(
                experiment(&["--paper-scale", flag]),
                Err(format!("unknown experiment flag `{flag}`"))
            );
        }
        assert_eq!(
            experiment(&["fig4a.csv"]),
            Err("unknown artifact `fig4a.csv`".to_string())
        );
        // Names select registry entries in the order given; `all` expands
        // to the whole registry, and names mix freely with the flags.
        let every: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(experiment(&["all"]).unwrap().artifacts, every);
        let args = experiment(&["fig5b", "--paper-scale", "table1"]).unwrap();
        assert_eq!(
            (args.paper_scale, args.artifacts),
            (true, vec!["fig5b", "table1"])
        );
        assert_eq!(
            experiment(&["fig4a", "fig4z", "--paper-scal"]),
            Err("unknown artifact `fig4z`".to_string())
        );
    }
}
