//! Random-walk mobility and coverage-zone residence.
//!
//! The paper models XR-device mobility with a random walk and derives the
//! handoff probability `P(HO)` "using methods in existing papers such as
//! \[49\]" (a location-register residence-time analysis). We implement a
//! two-dimensional random walk inside a circular coverage zone and expose
//! both the analytic boundary-crossing probability per frame interval and a
//! Monte-Carlo trajectory generator ([`RandomWalker`]). The testbed's
//! sessions walk [`crate::TopologyWalker`], which replays that walker bit for
//! bit over a one-site map.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xr_types::{Meters, MetersPerSecond, Seconds};

/// A circular wireless coverage zone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageZone {
    radius: Meters,
}

impl CoverageZone {
    /// Creates a zone with the given radius.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not strictly positive.
    #[must_use]
    pub fn new(radius: Meters) -> Self {
        assert!(radius.is_positive(), "coverage radius must be positive");
        Self { radius }
    }

    /// Zone radius.
    #[must_use]
    pub fn radius(&self) -> Meters {
        self.radius
    }

    /// Returns `true` when a point at distance `r` from the access point is
    /// still covered.
    #[must_use]
    pub fn covers(&self, r: Meters) -> bool {
        r <= self.radius
    }
}

/// Two-dimensional random-walk mobility of an XR device inside a coverage
/// zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWalkMobility {
    speed: MetersPerSecond,
    step_interval: Seconds,
    zone: CoverageZone,
}

impl RandomWalkMobility {
    /// Creates a mobility model: the device moves at `speed`, choosing a
    /// uniformly random direction every `step_interval`.
    ///
    /// # Panics
    ///
    /// Panics if speed or step interval are negative, or the interval is zero.
    #[must_use]
    pub fn new(speed: MetersPerSecond, step_interval: Seconds, zone: CoverageZone) -> Self {
        assert!(speed.as_f64() >= 0.0, "speed must be non-negative");
        assert!(
            step_interval.is_positive(),
            "step interval must be positive"
        );
        Self {
            speed,
            step_interval,
            zone,
        }
    }

    /// Device speed.
    #[must_use]
    pub fn speed(&self) -> MetersPerSecond {
        self.speed
    }

    /// The coverage zone the walk takes place in.
    #[must_use]
    pub fn zone(&self) -> CoverageZone {
        self.zone
    }

    /// Analytic approximation of the probability that the device crosses the
    /// coverage boundary during an observation window of length `window`
    /// (e.g. one frame processing time), given that its position is uniformly
    /// distributed over the zone.
    ///
    /// For a random walk the escape probability over a short window is well
    /// approximated by the fraction of the zone's area lying within one
    /// expected displacement `ℓ = v·t` of the boundary:
    /// `P(HO) ≈ 1 − ((R − ℓ)/R)²`, clamped to `[0, 1]`.
    ///
    /// **Single-zone analytic assumption.** This closed form models the
    /// paper's setting of *one* circular zone that the device re-enters
    /// uniformly after every crossing; it knows nothing about neighbouring
    /// sites. On a multi-site map — [`crate::topology::EdgeTopology`] — the
    /// crossing rate per site follows the same law (each site is a circular
    /// zone of its own radius), but which crossings become inter-site
    /// *migrations* depends on the layout's overlap geometry; use
    /// [`crate::topology::TopologyWalker`] to simulate that instead of this
    /// approximation.
    #[must_use]
    pub fn handoff_probability(&self, window: Seconds) -> f64 {
        let displacement = self.speed.as_f64() * window.as_f64().max(0.0);
        let radius = self.zone.radius.as_f64();
        if displacement >= radius {
            return 1.0;
        }
        let inner = (radius - displacement) / radius;
        (1.0 - inner * inner).clamp(0.0, 1.0)
    }

    /// Number of walk steps covering an observation window of length
    /// `window` (at least one).
    #[must_use]
    pub fn steps_per_window(&self, window: Seconds) -> usize {
        (window.as_f64() / self.step_interval.as_f64())
            .ceil()
            .max(1.0) as usize
    }

    /// Starts a stateful walk of this mobility model from the zone centre.
    #[must_use]
    pub fn walker(&self, seed: u64) -> RandomWalker {
        RandomWalker::new(self, seed)
    }

    /// Simulates a trajectory of `steps` random-walk steps starting from the
    /// zone centre and returns the radial distance after each step.
    #[must_use]
    pub fn simulate_radii(&self, steps: usize, seed: u64) -> Vec<Meters> {
        let mut walker = self.walker(seed);
        (0..steps).map(|_| walker.step()).collect()
    }

    /// Monte-Carlo estimate of the handoff probability over `window`,
    /// averaged over `trials` walks from uniformly random starting points.
    /// Used in tests to validate [`Self::handoff_probability`].
    #[must_use]
    pub fn simulate_handoff_probability(&self, window: Seconds, trials: usize, seed: u64) -> f64 {
        let mut walker = self.walker(seed);
        let steps = self.steps_per_window(window);
        let mut crossings = 0usize;
        for _ in 0..trials {
            walker.reset_uniform();
            let mut crossed = false;
            for _ in 0..steps {
                walker.step();
                if walker.is_outside() {
                    crossed = true;
                    break;
                }
            }
            crossings += usize::from(crossed);
        }
        crossings as f64 / trials.max(1) as f64
    }
}

/// A stateful two-dimensional random walk inside a coverage zone.
///
/// [`RandomWalkMobility::simulate_radii`] and
/// [`RandomWalkMobility::simulate_handoff_probability`] advance one of
/// these. The testbed's sessions walk a [`crate::TopologyWalker`] instead,
/// over a one-site map when the scenario has no topology; this walker is
/// the reference that the one-site walk is pinned against bit for bit.
/// The walker owns its RNG, so its draw stream is independent of any
/// per-frame measurement noise.
#[derive(Debug, Clone)]
pub struct RandomWalker {
    x: f64,
    y: f64,
    step_len: f64,
    step_interval: Seconds,
    zone: CoverageZone,
    rng: StdRng,
    /// Un-stepped time carried between `advance` calls, so windows shorter
    /// than one step interval still accumulate into whole steps.
    carry: f64,
}

impl RandomWalker {
    /// A walker for `mobility` starting at the zone centre, with its own
    /// deterministic RNG stream derived from `seed`.
    #[must_use]
    pub fn new(mobility: &RandomWalkMobility, seed: u64) -> Self {
        Self {
            x: 0.0,
            y: 0.0,
            step_len: mobility.speed.as_f64() * mobility.step_interval.as_f64(),
            step_interval: mobility.step_interval,
            zone: mobility.zone,
            rng: StdRng::seed_from_u64(seed),
            carry: 0.0,
        }
    }

    /// Repositions the device uniformly at random inside the zone — the
    /// position distribution the analytic handoff probability assumes, via
    /// rejection-free sqrt sampling.
    pub fn reset_uniform(&mut self) {
        let r0 = self.zone.radius().as_f64() * self.rng.gen::<f64>().sqrt();
        let a0 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        self.x = r0 * a0.cos();
        self.y = r0 * a0.sin();
    }

    /// Takes one walk step in a uniformly random direction and returns the
    /// new radial distance from the access point.
    pub fn step(&mut self) -> Meters {
        let theta = self.rng.gen_range(0.0..std::f64::consts::TAU);
        self.x += self.step_len * theta.cos();
        self.y += self.step_len * theta.sin();
        self.radius()
    }

    /// Current radial distance from the access point.
    #[must_use]
    pub fn radius(&self) -> Meters {
        Meters::new((self.x * self.x + self.y * self.y).sqrt())
    }

    /// `true` when the device is currently outside the coverage zone.
    #[must_use]
    pub fn is_outside(&self) -> bool {
        !self.zone.covers(self.radius())
    }

    /// Advances the walk by `window` of wall-clock time, stepping once per
    /// elapsed step interval (fractional intervals carry over to the next
    /// call). Every boundary crossing counts as one handoff, after which the
    /// device re-enters service uniformly inside the (new) zone. Returns the
    /// number of handoffs in the window.
    pub fn advance(&mut self, window: Seconds) -> usize {
        self.carry += window.as_f64().max(0.0);
        let interval = self.step_interval.as_f64();
        let mut crossings = 0usize;
        while self.carry >= interval {
            self.carry -= interval;
            self.step();
            if self.is_outside() {
                crossings += 1;
                self.reset_uniform();
            }
        }
        crossings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pedestrian() -> RandomWalkMobility {
        RandomWalkMobility::new(
            MetersPerSecond::new(1.4),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        )
    }

    #[test]
    fn static_device_never_hands_off() {
        let m = RandomWalkMobility::new(
            MetersPerSecond::new(0.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        );
        assert_eq!(m.handoff_probability(Seconds::new(1.0)), 0.0);
    }

    #[test]
    fn faster_devices_hand_off_more() {
        let walk = pedestrian();
        let vehicle = RandomWalkMobility::new(
            MetersPerSecond::new(15.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        );
        let window = Seconds::new(0.5);
        assert!(vehicle.handoff_probability(window) > walk.handoff_probability(window));
    }

    #[test]
    fn probability_bounded_and_monotone_in_window() {
        let m = pedestrian();
        let mut last = 0.0;
        for w in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let p = m.handoff_probability(Seconds::new(w));
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= last);
            last = p;
        }
        // Displacement beyond the radius forces a handoff.
        assert_eq!(m.handoff_probability(Seconds::new(1e6)), 1.0);
    }

    #[test]
    fn analytic_probability_upper_bounds_monte_carlo() {
        let m = RandomWalkMobility::new(
            MetersPerSecond::new(5.0),
            Seconds::new(0.05),
            CoverageZone::new(Meters::new(25.0)),
        );
        let window = Seconds::new(0.5);
        let analytic = m.handoff_probability(window);
        let simulated = m.simulate_handoff_probability(window, 20_000, 99);
        // The analytic form is a fluid-flow (straight-line displacement)
        // approximation, which is a conservative upper bound on the zig-zag
        // random walk's boundary-crossing probability. It should dominate the
        // Monte-Carlo estimate but not by an absurd margin.
        assert!(
            analytic >= simulated,
            "analytic {analytic} should upper-bound simulated {simulated}"
        );
        assert!(
            analytic - simulated < 0.25,
            "analytic {analytic} too far above simulated {simulated}"
        );
    }

    #[test]
    fn trajectory_is_deterministic_and_bounded_by_steps() {
        let m = pedestrian();
        let a = m.simulate_radii(100, 5);
        let b = m.simulate_radii(100, 5);
        assert_eq!(a, b);
        let step_len = m.speed().as_f64() * 0.1;
        for (i, r) in a.iter().enumerate() {
            assert!(r.as_f64() <= step_len * (i + 1) as f64 + 1e-9);
        }
    }

    #[test]
    fn residence_time_and_zone_cover() {
        let m = pedestrian();
        assert!(m.zone().covers(Meters::new(29.0)));
        assert!(!m.zone().covers(Meters::new(31.0)));
        assert_eq!(m.zone().radius(), Meters::new(30.0));
    }

    #[test]
    fn walker_matches_simulate_radii_and_counts_crossings() {
        let m = pedestrian();
        // The trajectory helper is literally the walker, step by step.
        let radii = m.simulate_radii(50, 123);
        let mut walker = m.walker(123);
        for r in &radii {
            assert_eq!(walker.step(), *r);
        }
        // A fast walker in a tiny zone must cross within a few seconds.
        let sprint = RandomWalkMobility::new(
            MetersPerSecond::new(25.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(5.0)),
        );
        let mut walker = sprint.walker(7);
        let mut crossings = 0usize;
        for _ in 0..300 {
            crossings += walker.advance(Seconds::new(1.0 / 30.0));
        }
        assert!(crossings > 0, "fast walker never left a 5 m zone");
        // After a crossing the walker re-enters coverage.
        assert!(!walker.is_outside() || walker.advance(Seconds::new(0.1)) > 0);
    }

    #[test]
    fn walker_accumulates_fractional_windows() {
        let m = pedestrian();
        // 1/30 s frames against a 0.1 s step interval: exactly one step per
        // three frames, no drift.
        let mut walker = m.walker(11);
        let mut twin = m.walker(11);
        for _ in 0..30 {
            walker.advance(Seconds::new(0.1 / 3.0));
        }
        for _ in 0..10 {
            twin.step();
        }
        assert_eq!(walker.radius(), twin.radius());
    }

    #[test]
    fn static_walker_stays_at_origin() {
        let m = RandomWalkMobility::new(
            MetersPerSecond::new(0.0),
            Seconds::new(0.1),
            CoverageZone::new(Meters::new(30.0)),
        );
        let mut walker = m.walker(3);
        assert_eq!(walker.advance(Seconds::new(10.0)), 0);
        assert_eq!(walker.radius(), Meters::new(0.0));
        walker.reset_uniform();
        assert!(!walker.is_outside());
        assert_eq!(m.steps_per_window(Seconds::new(0.35)), 4);
        assert_eq!(m.steps_per_window(Seconds::new(0.0)), 1);
    }

    #[test]
    #[should_panic(expected = "coverage radius must be positive")]
    fn zero_radius_rejected() {
        let _ = CoverageZone::new(Meters::new(0.0));
    }

    #[test]
    #[should_panic(expected = "step interval must be positive")]
    fn zero_step_rejected() {
        let _ = RandomWalkMobility::new(
            MetersPerSecond::new(1.0),
            Seconds::ZERO,
            CoverageZone::new(Meters::new(10.0)),
        );
    }
}
