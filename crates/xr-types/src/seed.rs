//! Deterministic seed derivation shared across the workspace.
//!
//! Every stochastic component of the workspace — the campaign engine's
//! per-point and per-replication seeds, the testbed simulator's per-stage
//! frame streams, the mobility walker — derives its RNG seed by chaining one
//! primitive: the SplitMix64 finalizer mixed over a `(seed, lane)` pair
//! ([`mix`]). Chaining keeps every derivation a *pure function* of its
//! coordinates, which is what makes campaign artifacts bit-identical across
//! worker counts and lets pipeline stages be evaluated in any order (scalar
//! frame-by-frame or batched stage-by-stage) without changing a single draw.
//!
//! The canonical derivations:
//!
//! | stream | derivation |
//! |---|---|
//! | campaign point | `mix(campaign_seed, point_index)` |
//! | replication | `mix(mix(campaign_seed, point_index), rep_index)` |
//! | pipeline stage | `mix(mix(session_seed, stage_id), frame_index)` |

/// Mixes a 64-bit seed with a lane index through the SplitMix64 finalizer.
///
/// Neighbouring lanes receive statistically independent outputs, and the
/// mapping is a pure function of the pair, so derived streams can be chained
/// (`mix(mix(seed, a), b)`) to index multi-dimensional seed spaces without
/// any shared RNG state.
#[must_use]
#[inline]
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the random seed for one operating point of a campaign from the
/// campaign's seed and the point's index in the grid.
///
/// The derivation is [`mix`] over the pair, so neighbouring point indices
/// receive statistically independent seeds while the mapping stays a pure
/// function of `(campaign_seed, point_index)` — the property that makes
/// campaign output independent of worker count and scheduling order.
#[must_use]
pub fn point_seed(campaign_seed: u64, point_index: usize) -> u64 {
    mix(campaign_seed, point_index as u64)
}

/// Derives the random seed for one replication of one operating point.
///
/// The derivation chains [`mix`] twice — once over
/// `(campaign_seed, point_index)` and once over the result and `rep_index` —
/// so every `(point, replication)` pair receives a statistically independent
/// seed while the mapping stays a pure function of the triple. Replicated
/// campaigns therefore remain bit-identical for any worker count.
#[must_use]
pub fn replication_seed(campaign_seed: u64, point_index: usize, rep_index: usize) -> u64 {
    mix(point_seed(campaign_seed, point_index), rep_index as u64)
}

/// Derives the seed of one named RNG stream of one frame of a simulated
/// session: `mix(mix(session_seed, stage_id), frame_index)`.
///
/// The testbed simulator gives every pipeline stage its own stream per
/// frame. Because a stage's draws depend only on `(session_seed, stage_id,
/// frame_index)` — never on how many draws *other* stages consumed — stages
/// can be evaluated frame-by-frame (the scalar reference) or column-by-column
/// over a whole batch of frames (the structure-of-arrays engine) and produce
/// bit-identical results.
#[must_use]
pub fn stage_stream_seed(session_seed: u64, stage_id: u64, frame_index: u64) -> u64 {
    mix(mix(session_seed, stage_id), frame_index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_pure_and_decorrelates_lanes() {
        assert_eq!(mix(7, 3), mix(7, 3));
        let outputs: Vec<u64> = (0..256).map(|lane| mix(2024, lane)).collect();
        let mut unique = outputs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), outputs.len(), "lane collision");
        assert_ne!(mix(1, 5), mix(2, 5));
    }

    #[test]
    fn point_seed_matches_the_historical_splitmix_derivation() {
        // The pre-hoist implementation in `xr_sweep::seed` computed this
        // exact finalizer; campaign seeds must not change across the move.
        let reference = |campaign_seed: u64, point_index: usize| -> u64 {
            let mut z = campaign_seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((point_index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for campaign in [0u64, 7, 2024, u64::MAX] {
            for index in [0usize, 1, 13, 4096] {
                assert_eq!(point_seed(campaign, index), reference(campaign, index));
                assert_eq!(
                    replication_seed(campaign, index, 5),
                    reference(reference(campaign, index), 5)
                );
            }
        }
    }

    #[test]
    fn stage_streams_are_distinct_across_all_three_coordinates() {
        let mut seeds: Vec<u64> = Vec::new();
        for session in [1u64, 2] {
            for stage in 0..12u64 {
                for frame in [0u64, 1, 2, 100] {
                    seeds.push(stage_stream_seed(session, stage, frame));
                }
            }
        }
        let total = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "stage stream seed collision");
    }
}
