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
//! * [`StepColumn`] — the same walks with their step angles as one column:
//!   a batch of walkers draws its steps' words ahead in stream order, the
//!   column evaluates their `cos`/`sin` in angle order, and each walker
//!   then steps through its words. The batched frame engine walks this
//!   way; [`TopologyWalker::advance`], which evaluates each angle as it
//!   draws it, stays the reference it is pinned against bit for bit.
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
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
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
        self.reenter(&mut Draws::stream());
    }

    /// Takes one walk step in a uniformly random direction (one RNG draw,
    /// like [`crate::RandomWalker::step`]) and returns the new radial
    /// distance from the current site's centre.
    pub fn step(&mut self) -> Meters {
        self.step_with(&mut Draws::stream());
        self.radius()
    }

    /// Advances the walk by `window` of wall-clock time, stepping once per
    /// elapsed step interval with the same fractional carry as
    /// [`crate::RandomWalker::advance`]. Every exit from the current site's
    /// coverage counts as one crossing; each crossing either migrates to the
    /// nearest covering site (no extra draws) or, when nothing covers the
    /// position, re-enters the current site uniformly (two draws, the
    /// single-zone behaviour). Returns the window's [`SiteEvents`].
    ///
    /// Each step evaluates its angle's `cos` and `sin` as it draws it, in
    /// stream order. [`StepColumn`] walks the same steps from draws made
    /// ahead.
    pub fn advance(&mut self, window: Seconds) -> SiteEvents {
        self.advance_with(window, &mut Draws::stream())
    }

    /// How many steps `windows`, advanced one after another, take from the
    /// current carry: [`TopologyWalker::advance`]'s carry arithmetic,
    /// without stepping.
    fn steps_in(&self, windows: &[Seconds]) -> usize {
        let mut carry = self.carry;
        let interval = self.step_interval.as_f64();
        windows
            .iter()
            .map(|&window| take_steps(&mut carry, window, interval))
            .sum()
    }

    fn advance_with(&mut self, window: Seconds, draws: &mut Draws<'_>) -> SiteEvents {
        let mut events = SiteEvents {
            site: self.site,
            crossings: 0,
            migrations: 0,
        };
        for _ in 0..take_steps(&mut self.carry, window, self.step_interval.as_f64()) {
            self.step_with(draws);
            if self.is_outside() {
                events.crossings += 1;
                match self.lookup_other_site() {
                    Some(next) => {
                        events.migrations += 1;
                        self.enter(next);
                    }
                    None => self.reenter(draws),
                }
            }
        }
        events
    }

    fn step_with(&mut self, draws: &mut Draws<'_>) {
        let (cos, sin) = draws.angle(&mut self.rng);
        self.x += self.step_len * cos;
        self.y += self.step_len * sin;
    }

    fn reenter(&mut self, draws: &mut Draws<'_>) {
        let r0 = self.current_site().zone().radius().as_f64() * draws.unit(&mut self.rng).sqrt();
        let (cos, sin) = draws.angle(&mut self.rng);
        let (cx, cy) = self.current_site().center();
        self.x = cx + r0 * cos;
        self.y = cy + r0 * sin;
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

/// Adds `window` to the fractional-step `carry` and takes out every whole
/// step `interval` it now holds; returns how many.
fn take_steps(carry: &mut f64, window: Seconds, interval: f64) -> usize {
    *carry += window.as_f64().max(0.0);
    let mut steps = 0;
    while *carry >= interval {
        *carry -= interval;
        steps += 1;
    }
    steps
}

/// The step angle a walker's word stands for: what the walker stream's
/// `gen_range(0.0..TAU)` returns on that word.
fn step_angle(word: u64) -> f64 {
    let (lo, hi) = (0.0, TAU);
    lo + rand::unit_f64_from_word(word) * (hi - lo)
}

/// Where a walk's draws come from: the words a [`StepColumn`] drew ahead,
/// in stream order, while they last, then the walker's stream itself.
struct Draws<'a> {
    words: &'a [u64],
    /// `(cos, sin)` of each word's step angle.
    pairs: &'a [(f64, f64)],
    next: usize,
}

impl Draws<'_> {
    /// No words drawn ahead: every draw comes from the stream.
    fn stream() -> Self {
        Draws {
            words: &[],
            pairs: &[],
            next: 0,
        }
    }

    /// The next uniform in `[0, 1)`, as `gen::<f64>()` draws it.
    fn unit(&mut self, rng: &mut StdRng) -> f64 {
        match self.words.get(self.next) {
            Some(&word) => {
                self.next += 1;
                rand::unit_f64_from_word(word)
            }
            None => rng.gen::<f64>(),
        }
    }

    /// `(cos, sin)` of the next step angle, `gen_range(0.0..TAU)`.
    fn angle(&mut self, rng: &mut StdRng) -> (f64, f64) {
        match self.pairs.get(self.next) {
            Some(&pair) => {
                self.next += 1;
                pair
            }
            None => {
                let theta = rng.gen_range(0.0..TAU);
                (theta.cos(), theta.sin())
            }
        }
    }
}

/// The step angles of a batch of walks as one column: each walker's words
/// drawn ahead in stream order, their `cos`/`sin` evaluated in angle order,
/// then read back by stream position as the walkers step.
///
/// A walk's draws are one word per step, plus two per re-entry. Which
/// steps re-enter is not known ahead, but how many steps a list of windows
/// takes is: the carry arithmetic of [`TopologyWalker::advance`] without
/// the steps. [`StepColumn::draw`] takes exactly that many words from the
/// walker's stream, which a walk of those windows always consumes, so no
/// drawn word outlives the walk. While the
/// walk reads them, every draw is still the stream's next word: a step
/// reads its word's angle, a re-entry reads a word as its radius (that
/// word's evaluated angle goes unused) and the next as its angle, and once
/// the column runs out the draws come from the stream itself. Every
/// position, event and stream state is therefore bit for bit what
/// [`TopologyWalker::advance`] gives.
///
/// The evaluation order is the point: the platform `cos`/`sin` (one fused
/// glibc `sincos` call) branch on the angle's range and quadrant, and over
/// angles in stream order those branches mispredict often; in angle order
/// they rarely do, and the bits are the same. The angle is monotone in a
/// word's top bits, so a counting sort on them orders the column.
///
/// ```
/// use xr_types::{MetersPerSecond, Seconds};
/// use xr_wireless::{AccessTechnology, CoverageZone, EdgeTopology, StepColumn};
///
/// let zone = CoverageZone::new(xr_types::Meters::new(5.0));
/// let map = EdgeTopology::single(zone, AccessTechnology::WiFi5GHz, 1);
/// let mut walkers: Vec<_> = (0..3)
///     .map(|seed| map.walker(MetersPerSecond::new(8.0), Seconds::new(0.1), seed))
///     .collect();
/// let mut reference = walkers.clone();
/// let windows = [Seconds::new(0.25); 4];
///
/// let mut column = StepColumn::default();
/// for walker in &mut walkers {
///     column.draw(walker, &windows);
/// }
/// column.evaluate();
/// let mut events = Vec::new();
/// for walker in &mut walkers {
///     column.advance(walker, &windows, &mut events);
/// }
/// assert!(column.is_consumed());
///
/// let expected: Vec<_> = reference
///     .iter_mut()
///     .flat_map(|walker| windows.map(|window| walker.advance(window)))
///     .collect();
/// assert_eq!(events, expected);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StepColumn {
    /// The drawn words, one walker's segment after another, each in its
    /// stream order.
    words: Vec<u64>,
    /// `(cos, sin)` of each word's step angle, by stream position.
    pairs: Vec<(f64, f64)>,
    /// Where each drawn walker's segment of `words` ends, in draw order.
    ends: Vec<usize>,
    /// Segments advanced since the column was cleared.
    advanced: usize,
    /// Scratch of [`StepColumn::evaluate`]: the counting sort's buckets and
    /// the column's angle order.
    buckets: Vec<u32>,
    order: Vec<u32>,
}

impl StepColumn {
    /// Empties the column for a new batch, keeping its storage.
    pub fn clear(&mut self) {
        self.words.clear();
        self.pairs.clear();
        self.ends.clear();
        self.advanced = 0;
    }

    /// Draws from `walker`'s stream the word of every step that `windows`
    /// take from its current carry, as the column's next segment.
    pub fn draw(&mut self, walker: &mut TopologyWalker, windows: &[Seconds]) {
        let steps = walker.steps_in(windows);
        self.words.extend((0..steps).map(|_| walker.rng.next_u64()));
        self.ends.push(self.words.len());
    }

    /// Evaluates the `cos` and `sin` of every drawn word's step angle, in
    /// angle order: a stable counting sort on the words' top bits, with
    /// about two words per bucket and at most 256 buckets, so a column of a
    /// few steps pays for a few buckets only.
    ///
    /// # Panics
    ///
    /// Panics if the column holds more than `u32::MAX` words.
    pub fn evaluate(&mut self) {
        let n = self.words.len();
        assert!(
            u32::try_from(n).is_ok(),
            "{n} words overflow the sort index"
        );
        let bits = n.checked_ilog2().unwrap_or(0).saturating_sub(1).min(8);
        let bucket = |word: u64| (word >> 56 >> (8 - bits)) as usize;
        self.buckets.clear();
        self.buckets.resize(1 << bits, 0);
        for &word in &self.words {
            self.buckets[bucket(word)] += 1;
        }
        let mut start = 0;
        for slot in &mut self.buckets {
            let count = *slot;
            *slot = start;
            start += count;
        }
        self.order.resize(n, 0);
        for (i, &word) in self.words.iter().enumerate() {
            let slot = &mut self.buckets[bucket(word)];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
        self.pairs.resize(n, (0.0, 0.0));
        for &i in &self.order {
            let theta = step_angle(self.words[i as usize]);
            self.pairs[i as usize] = (theta.cos(), theta.sin());
        }
    }

    /// Advances `walker` through `windows` on the column's next segment and
    /// appends one [`SiteEvents`] per window to `events`. The segments are
    /// read in draw order, each by the walker drawn into it, over the same
    /// windows, after [`StepColumn::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if every drawn segment was already advanced.
    pub fn advance(
        &mut self,
        walker: &mut TopologyWalker,
        windows: &[Seconds],
        events: &mut Vec<SiteEvents>,
    ) {
        let start = self.advanced.checked_sub(1).map_or(0, |i| self.ends[i]);
        let end = self.ends[self.advanced];
        self.advanced += 1;
        debug_assert_eq!(
            walker.steps_in(windows),
            end - start,
            "the segment holds one word per step of these windows"
        );
        let mut draws = Draws {
            words: &self.words[start..end],
            pairs: &self.pairs[start..end],
            next: 0,
        };
        events.extend(
            windows
                .iter()
                .map(|&window| walker.advance_with(window, &mut draws)),
        );
        debug_assert_eq!(draws.next, end - start, "a drawn word outlived its walk");
    }

    /// Whether every drawn segment has been advanced: after a batch, no
    /// drawn word is left unread.
    #[must_use]
    pub fn is_consumed(&self) -> bool {
        self.advanced == self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{RandomWalkMobility, RandomWalker};
    use proptest::prelude::*;

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

    /// The four map shapes a walk can run on: the one-site map (every exit
    /// re-enters), the square and hex lattices, and the Voronoi map with
    /// its coverage holes.
    fn every_layout() -> Vec<EdgeTopology> {
        let tiled = |layout| EdgeTopology::tiled(layout, 1600.0, AccessTechnology::WiFi5GHz, 3);
        vec![
            EdgeTopology::single(zone(6.0), AccessTechnology::WiFi5GHz, 1),
            tiled(TopologyLayout::Square).unwrap(),
            tiled(TopologyLayout::Hex).unwrap(),
            tiled(TopologyLayout::Voronoi).unwrap(),
        ]
    }

    /// Walkers on `map` as a session starts them: seeded, then re-entered
    /// uniformly in the start site.
    fn started(map: &EdgeTopology, speed: f64, seeds: std::ops::Range<u64>) -> Vec<TopologyWalker> {
        seeds
            .map(|seed| {
                let mut walker = map.walker(MetersPerSecond::new(speed), Seconds::new(0.1), seed);
                walker.reset_uniform();
                walker
            })
            .collect()
    }

    /// Walks two copies of `walkers` through each window list of `calls`:
    /// one on a single [`StepColumn`] per call shared by all of them, the
    /// other window by window through [`TopologyWalker::advance`]. Both
    /// must agree bit for bit on every [`SiteEvents`], position, site, carry
    /// and visited count after every call, and on each stream's next word
    /// at the end. Returns the walk's crossings and migrations.
    fn column_walk_equals_advance(
        walkers: &[TopologyWalker],
        calls: &[Vec<Seconds>],
    ) -> (usize, usize) {
        let mut walked = walkers.to_vec();
        let mut reference = walkers.to_vec();
        let mut column = StepColumn::default();
        let mut events = Vec::new();
        let (mut crossings, mut migrations) = (0, 0);
        for (call, windows) in calls.iter().enumerate() {
            // One word per step, by `advance`'s carry arithmetic spelled out
            // again: fewer would also walk right, on stream draws.
            let steps: usize = walked
                .iter()
                .map(|walker| {
                    let (mut carry, mut steps) = (walker.carry, 0);
                    for window in windows {
                        carry += window.as_f64().max(0.0);
                        while carry >= walker.step_interval.as_f64() {
                            carry -= walker.step_interval.as_f64();
                            steps += 1;
                        }
                    }
                    steps
                })
                .sum();
            column.clear();
            for walker in &mut walked {
                column.draw(walker, windows);
            }
            assert_eq!(column.words.len(), steps, "call {call}");
            column.evaluate();
            events.clear();
            for walker in &mut walked {
                column.advance(walker, windows, &mut events);
            }
            assert!(column.is_consumed(), "call {call}");
            let expected: Vec<SiteEvents> = reference
                .iter_mut()
                .flat_map(|walker| windows.iter().map(move |&window| walker.advance(window)))
                .collect();
            assert_eq!(events, expected, "call {call}");
            for (i, (a, b)) in walked.iter().zip(&reference).enumerate() {
                let bits = |w: &TopologyWalker| (w.x.to_bits(), w.y.to_bits(), w.carry.to_bits());
                assert_eq!(bits(a), bits(b), "call {call}, walker {i}");
                assert_eq!(a.site_index(), b.site_index(), "call {call}, walker {i}");
                assert_eq!(
                    a.sites_visited(),
                    b.sites_visited(),
                    "call {call}, walker {i}"
                );
            }
            crossings += events.iter().map(|e| e.crossings).sum::<usize>();
            migrations += events.iter().map(|e| e.migrations).sum::<usize>();
        }
        for (a, b) in walked.iter_mut().zip(&mut reference) {
            assert_eq!(
                a.rng.next_u64(),
                b.rng.next_u64(),
                "streams fell out of lockstep"
            );
        }
        (crossings, migrations)
    }

    /// The batched advance is the column walk: several walkers share each
    /// call's column, on every layout.
    #[test]
    fn batched_advance_matches_repeated_advance() {
        let windows = |spans: &[f64]| spans.iter().map(|&s| Seconds::new(s)).collect::<Vec<_>>();
        let calls = vec![
            windows(&[0.2; 64]),
            // No windows, then windows that take no step: the carry grows
            // across the calls until a later window completes a step.
            windows(&[]),
            windows(&[0.0, 0.03, 0.0, 0.04]),
            windows(&[0.02]),
            windows(&[1.0 / 30.0, 0.21, 0.0, 0.5, 0.07, 1.3]),
            windows(&[0.2; 200]),
        ];
        for map in every_layout() {
            for speed in [1.4, 25.0] {
                let walkers = started(&map, speed, 0..4);
                let (crossings, migrations) = column_walk_equals_advance(&walkers, &calls);
                if speed == 25.0 {
                    assert!(crossings > migrations, "{} sites: no re-entry", map.len());
                    if map.len() > 1 {
                        assert!(migrations > 0, "{} sites: no migration", map.len());
                    }
                }
            }
        }
    }

    #[test]
    fn a_column_that_runs_out_inside_a_re_entry_continues_on_the_stream() {
        // A 10 m step in a 1 m zone leaves it every time, and each step then
        // draws three words: its angle, then the re-entry's radius and
        // angle. A call of `n` steps draws `n` words, so the column runs out
        // after a step (n ≡ 1 mod 3), between a re-entry's radius and its
        // angle (n ≡ 2), or after a whole re-entry (n ≡ 0).
        let map = EdgeTopology::single(zone(1.0), AccessTechnology::WiFi5GHz, 1);
        let walkers = started(&map, 100.0, 5..8);
        let calls: Vec<Vec<Seconds>> = (1..=7)
            .map(|steps| vec![Seconds::new(0.1); steps])
            .collect();
        let mut ends = [false; 3];
        let mut probe = walkers[0].clone();
        for windows in &calls {
            let steps = probe.steps_in(windows);
            ends[steps % 3] = true;
            for &window in windows {
                probe.advance(window);
            }
        }
        assert_eq!(ends, [true; 3], "every way of running out is covered");
        let (crossings, migrations) = column_walk_equals_advance(&walkers, &calls);
        let steps: usize = calls.iter().map(Vec::len).sum();
        assert_eq!(
            (crossings, migrations),
            (3 * steps, 0),
            "every step re-enters"
        );
    }

    #[test]
    fn column_angles_are_the_streams_angles_to_the_bit() {
        let mut stream = StdRng::seed_from_u64(2024);
        let mut words: Vec<u64> = vec![0, 1, 1 << 11, (1 << 11) - 1, 1 << 63, u64::MAX];
        words.extend((0..994).map(|_| stream.next_u64()));
        let replay = |word: u64| -> f64 {
            // A stream whose next word is `word`: the shim's `gen_range`
            // reads exactly one word.
            struct One(u64);
            impl RngCore for One {
                fn next_u64(&mut self) -> u64 {
                    self.0
                }
            }
            One(word).gen_range(0.0..TAU)
        };
        let mut column = StepColumn {
            words: words.clone(),
            ..StepColumn::default()
        };
        column.ends.push(words.len());
        column.evaluate();
        for (i, &word) in words.iter().enumerate() {
            let theta = replay(word);
            assert_eq!(
                step_angle(word).to_bits(),
                theta.to_bits(),
                "word {word:#x}"
            );
            let (cos, sin) = column.pairs[i];
            assert_eq!(
                (cos.to_bits(), sin.to_bits()),
                (theta.cos().to_bits(), theta.sin().to_bits())
            );
        }
        // The same angles straight off a seeded stream.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(
                step_angle(a.next_u64()).to_bits(),
                b.gen_range(0.0..TAU).to_bits()
            );
        }
    }

    #[test]
    fn the_column_is_evaluated_in_angle_order_with_buckets_that_grow_with_it() {
        let mut stream = StdRng::seed_from_u64(11);
        for (n, buckets) in [
            (0, 1),
            (1, 1),
            (3, 1),
            (4, 2),
            (9, 4),
            (100, 32),
            (512, 256),
            (5000, 256),
        ] {
            let mut column = StepColumn {
                words: (0..n).map(|_| stream.next_u64()).collect(),
                ..StepColumn::default()
            };
            column.evaluate();
            assert_eq!(column.buckets.len(), buckets, "{n} words");
            let mut seen = vec![false; n];
            let angles: Vec<f64> = column
                .order
                .iter()
                .map(|&i| {
                    seen[i as usize] = true;
                    step_angle(column.words[i as usize])
                })
                .collect();
            assert!(
                seen.iter().all(|&s| s),
                "{n} words: the order is a permutation"
            );
            let width = TAU / buckets as f64;
            assert!(
                angles.windows(2).all(|w| w[1] > w[0] - width),
                "{n} words: out of angle order"
            );
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn column_walks_equal_advance_over_seeds_speeds_and_windows(
            layout in 0usize..4,
            speed in 0.0f64..40.0,
            first_seed in 0u64..1_000_000,
            walkers in 1u64..5,
            spans in prop::collection::vec(0.0f64..0.45, 0..48),
            calls in 1usize..5,
        ) {
            let map = &every_layout()[layout];
            let walkers = started(map, speed, first_seed..first_seed + walkers);
            let windows: Vec<Seconds> = spans.iter().map(|&s| Seconds::new(s)).collect();
            // The same list split into `calls` consecutive calls, so the
            // carry crosses call boundaries mid-list.
            let chunk = windows.len().div_ceil(calls).max(1);
            let calls: Vec<Vec<Seconds>> = windows.chunks(chunk).map(<[Seconds]>::to_vec).collect();
            column_walk_equals_advance(&walkers, &calls);
        }
    }
}
