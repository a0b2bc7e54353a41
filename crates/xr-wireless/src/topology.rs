//! Multi-edge topologies: tiled and Voronoi-seeded maps of edge sites.
//!
//! The paper's mobility model lives inside *one* circular
//! [`CoverageZone`]; every boundary crossing is a handoff back into the same
//! (statistically identical) zone. Flexible edge-assisted XR deployments
//! instead move a session across a *map* of heterogeneous edge sites, and
//! the cost that dominates tail latency is the inter-site **state
//! migration**, not the crossing count alone. This module provides that map:
//!
//! * [`EdgeSite`] — one edge attachment point: coverage geometry (a
//!   [`CoverageZone`] around a planar centre), a link budget
//!   ([`AccessTechnology`]), and a resident tenant population driving the
//!   site's M/M/1 contention queue.
//! * [`EdgeTopology`] — the site map, built from a square lattice, a
//!   triangular (hexagonal-cell) lattice, or a Voronoi-seeded jittered
//!   lattice at a given site density; or degenerately from a single zone.
//! * [`TopologyWalker`] — the generalisation of [`RandomWalker`](crate::RandomWalker) to the map:
//!   the same step/carry mechanics, plus a site lookup on every boundary
//!   crossing that either **migrates** the session to the covering
//!   neighbour site or (no neighbour covers — a coverage hole or the map
//!   edge) re-enters the current site uniformly, exactly like the
//!   single-zone walker.
//!
//! ## The single-site equivalence pin
//!
//! A [`TopologyWalker`] over [`EdgeTopology::single`] consumes its RNG
//! stream *word for word* like a [`RandomWalker`](crate::RandomWalker) over the same zone: one
//! uniform per step, two uniforms per re-entry, in the same order, starting
//! from the same centre. Positions, crossing counts, and the RNG stream
//! position stay bit-identical, which is what lets the testbed walk every
//! moving session — topologized or not — with a [`TopologyWalker`] without
//! re-keying a single artifact (pinned here and by
//! `tests/topology_properties.rs`).

use crate::link::AccessTechnology;
use crate::mobility::CoverageZone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xr_types::{Error, Meters, MetersPerSecond, Result, Seconds, TopologyLayout};

/// Sites per row/column of the tiled layouts: every tiled topology is a
/// fixed 4×4 map (16 sites), so the `site_density` axis changes the site
/// *spacing* (and with it the per-site coverage radius and the migration
/// rate) rather than the map's site count.
const GRID_DIM: usize = 4;

/// Seed of the deterministic jitter that turns the square lattice into the
/// Voronoi-seeded layout. A fixed constant: topology geometry is a pure
/// function of `(layout, site_density)`, independent of any session seed,
/// so every replication of a campaign point walks the same map.
const VORONOI_JITTER_SEED: u64 = 0x0070_606F_6C6F_6779;

/// One edge site of a topology: a planar attachment point with circular
/// coverage, an access-link budget, and a resident tenant population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSite {
    x: f64,
    y: f64,
    zone: CoverageZone,
    technology: AccessTechnology,
    tenants: u32,
}

impl EdgeSite {
    /// Creates a site at planar position `(x, y)` metres.
    ///
    /// The tenant population is clamped to at least 1 (a site always hosts
    /// the tagged session itself).
    #[must_use]
    pub fn new(
        x: f64,
        y: f64,
        zone: CoverageZone,
        technology: AccessTechnology,
        tenants: u32,
    ) -> Self {
        Self {
            x,
            y,
            zone,
            technology,
            tenants: tenants.max(1),
        }
    }

    /// Planar centre of the site, in metres.
    #[must_use]
    pub fn center(&self) -> (f64, f64) {
        (self.x, self.y)
    }

    /// Coverage geometry of the site.
    #[must_use]
    pub fn zone(&self) -> CoverageZone {
        self.zone
    }

    /// Access technology (link budget) of the site.
    #[must_use]
    pub fn technology(&self) -> AccessTechnology {
        self.technology
    }

    /// Number of sessions resident at this site (including the tagged one):
    /// the arrival population of the site's shared M/M/1 edge queue.
    #[must_use]
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// Euclidean distance from the site centre to `(x, y)`.
    #[must_use]
    pub fn distance_to(&self, x: f64, y: f64) -> Meters {
        let dx = x - self.x;
        let dy = y - self.y;
        Meters::new((dx * dx + dy * dy).sqrt())
    }

    /// Whether `(x, y)` lies inside the site's coverage disk.
    #[must_use]
    pub fn covers(&self, x: f64, y: f64) -> bool {
        self.zone.covers(self.distance_to(x, y))
    }
}

/// Most sites one map may hold: a [`TopologyWalker`] keeps the sites it
/// visited as bits of one `u64`.
const MAX_SITES: usize = 64;

/// A map of [`EdgeSite`]s a session can migrate across.
///
/// The sites are shared, not copied: cloning the map or starting a
/// [`TopologyWalker`] on it allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTopology {
    sites: Arc<[EdgeSite]>,
}

impl EdgeTopology {
    /// The degenerate one-site topology: a single site at the origin with
    /// the given zone — the exact geometry of the paper's single coverage
    /// zone, used by the equivalence pin against [`RandomWalker`](crate::RandomWalker).
    #[must_use]
    pub fn single(zone: CoverageZone, technology: AccessTechnology, tenants: u32) -> Self {
        Self {
            sites: Arc::new([EdgeSite::new(0.0, 0.0, zone, technology, tenants)]),
        }
    }

    /// A tiled (or Voronoi-seeded) 4×4 map at `site_density` sites per
    /// square kilometre. The density fixes the lattice spacing
    /// (`1000/√density` metres for the square layout) and thus the per-site
    /// coverage radius; denser maps mean smaller cells and more frequent
    /// inter-site migrations at a given walking speed.
    ///
    /// Per-site tenant populations cycle deterministically around
    /// `base_tenants` (`base`, `base+1`, `max(1, base−1)`, …) so the tagged
    /// session's contention load genuinely changes as it migrates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `site_density` is not a
    /// strictly positive finite number, or when `layout` is
    /// [`TopologyLayout::Single`] (use [`EdgeTopology::single`], which needs
    /// an explicit zone rather than a density).
    pub fn tiled(
        layout: TopologyLayout,
        site_density: f64,
        technology: AccessTechnology,
        base_tenants: u32,
    ) -> Result<Self> {
        if !(site_density.is_finite() && site_density > 0.0) {
            return Err(Error::invalid_parameter(
                "site_density",
                "must be a positive number of sites per km²",
            ));
        }
        // Area per site in m², from the density in sites/km².
        let area = 1e6 / site_density;
        let sites: Arc<[EdgeSite]> = match layout {
            TopologyLayout::Single => {
                return Err(Error::invalid_parameter(
                    "topology",
                    "the single layout takes an explicit zone, not a density",
                ));
            }
            TopologyLayout::Square => {
                // Square lattice: spacing √A; coverage = the cell's
                // circumcircle so neighbouring disks overlap.
                let spacing = area.sqrt();
                let radius = spacing / std::f64::consts::SQRT_2;
                Self::lattice(spacing, spacing, false)
                    .map(|(x, y, i)| Self::site(x, y, radius, technology, base_tenants, i))
                    .collect()
            }
            TopologyLayout::Hex => {
                // Triangular lattice with hexagonal cells: area per site
                // (√3/2)·s² → s = √(2A/√3); rows s·√3/2 apart, odd rows
                // offset by s/2; coverage = the hex cell's circumcircle s/√3.
                let spacing = (2.0 * area / 3f64.sqrt()).sqrt();
                let row_height = spacing * 3f64.sqrt() / 2.0;
                let radius = spacing / 3f64.sqrt();
                Self::lattice(spacing, row_height, true)
                    .map(|(x, y, i)| Self::site(x, y, radius, technology, base_tenants, i))
                    .collect()
            }
            TopologyLayout::Voronoi => {
                // Voronoi seeds: the square lattice jittered by a fixed
                // deterministic stream, radii from the realised
                // nearest-neighbour distances (gaps model coverage holes).
                let spacing = area.sqrt();
                let mut rng = StdRng::seed_from_u64(VORONOI_JITTER_SEED);
                let centers: Vec<(f64, f64)> = Self::lattice(spacing, spacing, false)
                    .map(|(x, y, _)| {
                        let jx = rng.gen_range(-0.35 * spacing..0.35 * spacing);
                        let jy = rng.gen_range(-0.35 * spacing..0.35 * spacing);
                        (x + jx, y + jy)
                    })
                    .collect();
                centers
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y))| {
                        let nearest = centers
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &(ox, oy))| ((ox - x).powi(2) + (oy - y).powi(2)).sqrt())
                            .fold(f64::INFINITY, f64::min);
                        Self::site(x, y, 0.9 * nearest, technology, base_tenants, i)
                    })
                    .collect()
            }
        };
        assert!(
            sites.len() <= MAX_SITES,
            "a map holds at most {MAX_SITES} sites"
        );
        Ok(Self { sites })
    }

    /// Centred `GRID_DIM × GRID_DIM` lattice positions (and the site index),
    /// optionally offsetting odd rows by half a column (the triangular
    /// lattice of the hex layout).
    fn lattice(
        col_spacing: f64,
        row_spacing: f64,
        offset_odd_rows: bool,
    ) -> impl Iterator<Item = (f64, f64, usize)> {
        let half = (GRID_DIM - 1) as f64 / 2.0;
        (0..GRID_DIM * GRID_DIM).map(move |i| {
            let row = i / GRID_DIM;
            let col = i % GRID_DIM;
            let offset = if offset_odd_rows && row % 2 == 1 {
                col_spacing / 2.0
            } else {
                0.0
            };
            (
                (col as f64 - half) * col_spacing + offset,
                (row as f64 - half) * row_spacing,
                i,
            )
        })
    }

    fn site(
        x: f64,
        y: f64,
        radius: f64,
        technology: AccessTechnology,
        base_tenants: u32,
        index: usize,
    ) -> EdgeSite {
        EdgeSite::new(
            x,
            y,
            CoverageZone::new(Meters::new(radius)),
            technology,
            Self::tenant_population(base_tenants, index),
        )
    }

    /// The deterministic per-site tenant rule of the tiled layouts: cycle
    /// `base`, `base+1`, `max(1, base−1)` by site index, so neighbouring
    /// sites offer genuinely different contention levels while the map-wide
    /// mean stays at `base`.
    #[must_use]
    pub fn tenant_population(base: u32, site_index: usize) -> u32 {
        match site_index % 3 {
            0 => base.max(1),
            1 => base.saturating_add(1),
            _ => base.saturating_sub(1).max(1),
        }
    }

    /// The sites of the map.
    #[must_use]
    pub fn sites(&self) -> &[EdgeSite] {
        &self.sites
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the map has no sites (never true for the provided
    /// constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Index of the site a session attaches to at the map centre: the site
    /// whose centre is nearest the origin (lowest index on ties).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no sites.
    #[must_use]
    pub fn start_site(&self) -> usize {
        self.nearest_to(0.0, 0.0)
    }

    /// Index of the site whose centre is nearest `(x, y)` (lowest index on
    /// ties).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no sites.
    #[must_use]
    pub fn nearest_to(&self, x: f64, y: f64) -> usize {
        assert!(!self.sites.is_empty(), "topology has no sites");
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, site) in self.sites.iter().enumerate() {
            let d = site.distance_to(x, y).as_f64();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Starts a stateful walk across this map: speed and step interval as in
    /// [`crate::RandomWalkMobility`], RNG stream derived from `seed`.
    #[must_use]
    pub fn walker(
        &self,
        speed: MetersPerSecond,
        step_interval: Seconds,
        seed: u64,
    ) -> TopologyWalker {
        TopologyWalker::new(self, speed, step_interval, seed)
    }
}

/// What happened to the session while advancing one observation window:
/// the site it was attached to when the window opened, and the boundary
/// crossings / inter-site migrations inside the window. `crossings` counts
/// every coverage-boundary exit (the legacy handoff count); `migrations ≤
/// crossings` counts the exits that re-attached to a *different* site and
/// therefore pay the state-migration cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteEvents {
    /// Site index at the start of the window (the site serving the frame's
    /// uplink, which runs before the mobility advance).
    pub site: usize,
    /// Coverage-boundary crossings inside the window.
    pub crossings: usize,
    /// Crossings that migrated the session to a neighbouring site.
    pub migrations: usize,
}

/// A stateful two-dimensional random walk across an [`EdgeTopology`] —
/// [`RandomWalker`](crate::RandomWalker) generalised from one zone to a site map.
///
/// The step mechanics are identical to the single-zone walker (one uniform
/// direction draw per step, fractional-window carry across
/// [`TopologyWalker::advance`] calls). The difference is what happens on a
/// boundary crossing: the walker looks up the nearest site covering its new
/// position and **migrates** there if one exists; only when no site covers
/// (a coverage hole, or the map edge) does it re-enter the current site
/// uniformly — the two extra draws of the legacy walker. Over
/// [`EdgeTopology::single`] no neighbour ever covers, so the walk replays
/// [`RandomWalker`](crate::RandomWalker) on the same stream bit for bit.
///
/// [`RandomWalker`](crate::RandomWalker): crate::RandomWalker
#[derive(Debug, Clone)]
pub struct TopologyWalker {
    x: f64,
    y: f64,
    site: usize,
    step_len: f64,
    step_interval: Seconds,
    sites: Arc<[EdgeSite]>,
    rng: StdRng,
    carry: f64,
    /// Bit `i` is set once the session has attached to site `i`.
    visited: u64,
}

impl TopologyWalker {
    /// A walker starting at the centre of the map's start site, with its own
    /// deterministic RNG stream derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no sites, the speed is negative, or the
    /// step interval is not positive.
    #[must_use]
    pub fn new(
        topology: &EdgeTopology,
        speed: MetersPerSecond,
        step_interval: Seconds,
        seed: u64,
    ) -> Self {
        assert!(speed.as_f64() >= 0.0, "speed must be non-negative");
        assert!(
            step_interval.is_positive(),
            "step interval must be positive"
        );
        let site = topology.start_site();
        let (x, y) = topology.sites[site].center();
        Self {
            x,
            y,
            site,
            step_len: speed.as_f64() * step_interval.as_f64(),
            step_interval,
            sites: Arc::clone(&topology.sites),
            rng: StdRng::seed_from_u64(seed),
            carry: 0.0,
            visited: 1 << site,
        }
    }

    /// Index of the site the session is currently attached to.
    #[must_use]
    pub fn site_index(&self) -> usize {
        self.site
    }

    /// The site the session is currently attached to.
    #[must_use]
    pub fn current_site(&self) -> &EdgeSite {
        &self.sites[self.site]
    }

    /// Number of distinct sites visited so far (including the start site).
    #[must_use]
    pub fn sites_visited(&self) -> usize {
        self.visited.count_ones() as usize
    }

    /// Current planar position, in metres.
    #[must_use]
    pub fn position(&self) -> (f64, f64) {
        (self.x, self.y)
    }

    /// Radial distance from the current site's centre — the generalisation
    /// of [`crate::RandomWalker::radius`].
    #[must_use]
    pub fn radius(&self) -> Meters {
        self.current_site().distance_to(self.x, self.y)
    }

    /// `true` when the position lies outside the current site's coverage.
    #[must_use]
    pub fn is_outside(&self) -> bool {
        !self.current_site().covers(self.x, self.y)
    }

    /// Repositions the session uniformly at random inside the current
    /// site's disk — the same rejection-free sqrt sampling (and the same two
    /// RNG draws) as [`crate::RandomWalker::reset_uniform`].
    pub fn reset_uniform(&mut self) {
        let r0 = self.current_site().zone().radius().as_f64() * self.rng.gen::<f64>().sqrt();
        let a0 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let (cx, cy) = self.current_site().center();
        self.x = cx + r0 * a0.cos();
        self.y = cy + r0 * a0.sin();
    }

    /// Takes one walk step in a uniformly random direction (one RNG draw,
    /// like [`crate::RandomWalker::step`]) and returns the new radial
    /// distance from the current site's centre.
    pub fn step(&mut self) -> Meters {
        let theta = self.rng.gen_range(0.0..std::f64::consts::TAU);
        self.x += self.step_len * theta.cos();
        self.y += self.step_len * theta.sin();
        self.radius()
    }

    /// Advances the walk by `window` of wall-clock time, stepping once per
    /// elapsed step interval with the same fractional carry as
    /// [`crate::RandomWalker::advance`]. Every exit from the current site's
    /// coverage counts as one crossing; each crossing either migrates to the
    /// nearest covering site (no extra draws) or, when nothing covers the
    /// position, re-enters the current site uniformly (two draws, the
    /// single-zone behaviour). Returns the window's [`SiteEvents`].
    pub fn advance(&mut self, window: Seconds) -> SiteEvents {
        let mut events = SiteEvents {
            site: self.site,
            crossings: 0,
            migrations: 0,
        };
        self.carry += window.as_f64().max(0.0);
        let interval = self.step_interval.as_f64();
        while self.carry >= interval {
            self.carry -= interval;
            self.step();
            if self.is_outside() {
                events.crossings += 1;
                match self.lookup_other_site() {
                    Some(next) => {
                        events.migrations += 1;
                        self.enter(next);
                    }
                    None => self.reset_uniform(),
                }
            }
        }
        events
    }

    /// [`TopologyWalker::advance`] over a whole batch of consecutive
    /// observation windows into a caller-provided buffer (cleared first) —
    /// the carry-preserving batched scan the structure-of-arrays frame
    /// engine runs once per batch. Afterwards `events[i]` holds the
    /// [`SiteEvents`] of `windows[i]`, including the site serving that
    /// window's uplink.
    pub fn advance_many_into(&mut self, windows: &[Seconds], events: &mut Vec<SiteEvents>) {
        events.clear();
        events.extend(windows.iter().map(|&window| self.advance(window)));
    }

    /// The nearest site covering the current position. The current site
    /// never covers it here (callers check [`TopologyWalker::is_outside`]
    /// first), so any hit is a genuine migration target.
    fn lookup_other_site(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, site) in self.sites.iter().enumerate() {
            if !site.covers(self.x, self.y) {
                continue;
            }
            let d = site.distance_to(self.x, self.y).as_f64();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    fn enter(&mut self, site: usize) {
        self.site = site;
        self.visited |= 1 << site;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{RandomWalkMobility, RandomWalker};

    fn zone(radius: f64) -> CoverageZone {
        CoverageZone::new(Meters::new(radius))
    }

    fn single_walkers(speed: f64, radius: f64, seed: u64) -> (RandomWalker, TopologyWalker) {
        let mobility =
            RandomWalkMobility::new(MetersPerSecond::new(speed), Seconds::new(0.1), zone(radius));
        let topology = EdgeTopology::single(zone(radius), AccessTechnology::WiFi5GHz, 1);
        (
            mobility.walker(seed),
            topology.walker(MetersPerSecond::new(speed), Seconds::new(0.1), seed),
        )
    }

    #[test]
    fn single_site_walker_replays_the_legacy_walker_bit_for_bit() {
        let (mut legacy, mut topo) = single_walkers(25.0, 6.0, 17);
        legacy.reset_uniform();
        topo.reset_uniform();
        for i in 0..400 {
            let window = Seconds::new(match i % 3 {
                0 => 1.0 / 30.0,
                1 => 0.25,
                _ => 0.01,
            });
            let crossings = legacy.advance(window);
            let events = topo.advance(window);
            assert_eq!(events.crossings, crossings, "window {i}");
            assert_eq!(events.migrations, 0, "one site can never migrate");
            assert_eq!(topo.radius(), legacy.radius(), "window {i}");
        }
        assert_eq!(topo.sites_visited(), 1);
        // The streams are still in lockstep: the next draws agree too.
        assert_eq!(legacy.step(), topo.step());
    }

    #[test]
    fn tiled_layouts_have_sixteen_sites_at_the_requested_density() {
        for layout in [
            TopologyLayout::Square,
            TopologyLayout::Hex,
            TopologyLayout::Voronoi,
        ] {
            let topology =
                EdgeTopology::tiled(layout, 400.0, AccessTechnology::WiFi5GHz, 4).unwrap();
            assert_eq!(topology.len(), GRID_DIM * GRID_DIM);
            assert!(!topology.is_empty());
            for site in topology.sites() {
                assert!(site.zone().radius().as_f64() > 0.0);
                assert!(site.tenants() >= 1);
                assert_eq!(site.technology(), AccessTechnology::WiFi5GHz);
            }
            // 400 sites/km² → 50 m square spacing; every layout's sites sit
            // within the ~200 m map footprint.
            for site in topology.sites() {
                let (x, y) = site.center();
                assert!(x.abs() < 200.0 && y.abs() < 200.0, "{layout}: ({x}, {y})");
            }
        }
    }

    #[test]
    fn denser_maps_have_smaller_cells() {
        let sparse =
            EdgeTopology::tiled(TopologyLayout::Square, 100.0, AccessTechnology::WiFi5GHz, 1)
                .unwrap();
        let dense = EdgeTopology::tiled(
            TopologyLayout::Square,
            2500.0,
            AccessTechnology::WiFi5GHz,
            1,
        )
        .unwrap();
        assert!(
            dense.sites()[0].zone().radius() < sparse.sites()[0].zone().radius(),
            "density must shrink the coverage radius"
        );
    }

    #[test]
    fn tenant_populations_cycle_around_the_base() {
        assert_eq!(EdgeTopology::tenant_population(4, 0), 4);
        assert_eq!(EdgeTopology::tenant_population(4, 1), 5);
        assert_eq!(EdgeTopology::tenant_population(4, 2), 3);
        assert_eq!(EdgeTopology::tenant_population(4, 3), 4);
        // Never below one session (the tagged one).
        assert_eq!(EdgeTopology::tenant_population(1, 2), 1);
        assert_eq!(EdgeTopology::tenant_population(0, 0), 1);
    }

    #[test]
    fn invalid_densities_and_the_single_layout_are_rejected() {
        for density in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let err = EdgeTopology::tiled(
                TopologyLayout::Square,
                density,
                AccessTechnology::WiFi5GHz,
                1,
            )
            .unwrap_err();
            assert!(err.to_string().contains("site_density"), "{density}");
        }
        assert!(
            EdgeTopology::tiled(TopologyLayout::Single, 100.0, AccessTechnology::WiFi5GHz, 1)
                .is_err()
        );
    }

    #[test]
    fn walker_migrates_between_sites_on_a_tiled_map() {
        let topology = EdgeTopology::tiled(
            TopologyLayout::Square,
            2500.0,
            AccessTechnology::WiFi5GHz,
            2,
        )
        .unwrap();
        let mut walker = topology.walker(MetersPerSecond::new(25.0), Seconds::new(0.1), 7);
        walker.reset_uniform();
        let mut crossings = 0usize;
        let mut migrations = 0usize;
        for _ in 0..600 {
            let events = walker.advance(Seconds::new(1.0 / 5.0));
            crossings += events.crossings;
            migrations += events.migrations;
            assert!(events.migrations <= events.crossings);
            assert!(events.site < topology.len());
        }
        assert!(crossings > 0, "vehicle never left a 20 m cell");
        assert!(migrations > 0, "overlapping square disks must migrate");
        assert!(walker.sites_visited() > 1);
        assert!(walker.sites_visited() <= topology.len());
    }

    #[test]
    fn batched_advance_matches_repeated_advance() {
        let topology =
            EdgeTopology::tiled(TopologyLayout::Hex, 1600.0, AccessTechnology::WiFi5GHz, 3)
                .unwrap();
        let windows: Vec<Seconds> = (0..150)
            .map(|i| Seconds::new(if i % 2 == 0 { 1.0 / 30.0 } else { 0.21 }))
            .collect();
        let mut scalar = topology.walker(MetersPerSecond::new(20.0), Seconds::new(0.1), 31);
        let mut batched = scalar.clone();
        let expected: Vec<SiteEvents> = windows.iter().map(|&w| scalar.advance(w)).collect();
        let mut events = vec![SiteEvents::default(); 3];
        batched.advance_many_into(&windows, &mut events);
        assert_eq!(events, expected);
        assert_eq!(batched.position(), scalar.position());
        assert_eq!(batched.site_index(), scalar.site_index());
        assert_eq!(batched.sites_visited(), scalar.sites_visited());
    }

    #[test]
    fn start_site_and_lookup_are_deterministic() {
        let topology =
            EdgeTopology::tiled(TopologyLayout::Voronoi, 400.0, AccessTechnology::Lte, 2).unwrap();
        let start = topology.start_site();
        assert_eq!(start, topology.start_site());
        let (x, y) = topology.sites()[start].center();
        assert_eq!(topology.nearest_to(x, y), start);
        // Two identically seeded builds are the same map.
        let again =
            EdgeTopology::tiled(TopologyLayout::Voronoi, 400.0, AccessTechnology::Lte, 2).unwrap();
        assert_eq!(topology, again);
    }
}
