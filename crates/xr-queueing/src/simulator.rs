//! A discrete-event simulation of the M/M/1 input buffer.
//!
//! [`MM1Simulator`] replays the queue event by event (with sampling noise and
//! transient effects), while the analytical model uses the closed forms of
//! [`crate::MM1Queue`]. Comparing the two is the validation exercise of
//! Sections IV/VI; the test-suite uses the simulator as an oracle that shares
//! no code with the testbed's buffering stage.

use crate::des::EventQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use xr_types::{Error, Result, Seconds};

/// Configurable discrete-event simulator of a single-server queue with
/// Poisson arrivals and exponential service times.
#[derive(Debug, Clone)]
pub struct MM1Simulator {
    arrival_rate: f64,
    service_rate: f64,
    seed: u64,
    warmup_customers: usize,
}

/// Aggregate statistics from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Number of customers whose sojourn contributed to the statistics
    /// (arrivals after the warm-up period).
    pub completed: usize,
    /// Mean simulated time in system.
    pub mean_time_in_system: Seconds,
    /// Mean simulated waiting time (time in system minus service time).
    pub mean_waiting_time: Seconds,
    /// Mean number in system, estimated by time-averaging.
    pub mean_number_in_system: f64,
    /// Fraction of simulated time the server was busy.
    pub utilization: f64,
}

/// Internal DES event alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueEvent {
    Arrival,
    Departure,
}

impl MM1Simulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive rates. Unstable settings (`λ ≥ µ`)
    /// are *allowed* here — simulating an overloaded buffer is a legitimate
    /// failure-injection experiment — but the report's means will then keep
    /// growing with the horizon.
    pub fn new(arrival_rate: f64, service_rate: f64, seed: u64) -> Result<Self> {
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(Error::invalid_parameter(
                "arrival_rate",
                "must be positive and finite",
            ));
        }
        if !(service_rate.is_finite() && service_rate > 0.0) {
            return Err(Error::invalid_parameter(
                "service_rate",
                "must be positive and finite",
            ));
        }
        Ok(Self {
            arrival_rate,
            service_rate,
            seed,
            warmup_customers: 0,
        })
    }

    /// Discards the first `n` customers from the statistics to remove the
    /// empty-system transient.
    #[must_use]
    pub fn with_warmup(mut self, n: usize) -> Self {
        self.warmup_customers = n;
        self
    }

    /// Runs the simulation until `customers` measured arrivals have been
    /// *served* (after the `with_warmup` customers are served and discarded)
    /// and returns aggregate statistics, so `completed == customers`.
    ///
    /// Every statistic shares one measurement window: the sojourn averages
    /// count exactly the `customers` post-warm-up departures, and the
    /// time-averaged statistics (`mean_number_in_system`, `utilization`)
    /// integrate from the warm-up boundary (the time of the last warm-up
    /// departure) instead of from `t = 0`, so the empty-system transient
    /// biases neither.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `customers` is zero.
    pub fn run(&self, customers: usize) -> Result<SimulationReport> {
        if customers == 0 {
            return Err(Error::invalid_parameter("customers", "must be at least 1"));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let interarrival = Exp::new(self.arrival_rate)
            .map_err(|_| Error::invalid_parameter("arrival_rate", "rejected by Exp"))?;
        let service = Exp::new(self.service_rate)
            .map_err(|_| Error::invalid_parameter("service_rate", "rejected by Exp"))?;

        let mut events: EventQueue<QueueEvent> = EventQueue::new();
        events.schedule_after(
            Seconds::new(interarrival.sample(&mut rng)),
            QueueEvent::Arrival,
        );

        // Queue of (arrival_time, service_time) for waiting customers; the
        // customer in service keeps its entry at the front.
        let mut in_system: VecDeque<(Seconds, Seconds)> = VecDeque::new();
        let total_to_serve = customers + self.warmup_customers;
        let mut arrivals = 0usize;
        let mut served = 0usize;
        let mut total_sojourn = 0.0;
        let mut total_wait = 0.0;
        let mut counted = 0usize;

        // Time-average accumulators. Integration starts at the warm-up
        // boundary so the time averages share the sojourn statistics'
        // measurement window; with no warm-up it starts at t = 0.
        let mut measuring = self.warmup_customers == 0;
        let mut measure_start = Seconds::ZERO;
        let mut last_time = Seconds::ZERO;
        let mut area_customers = 0.0;
        let mut busy_time = 0.0;

        while served < total_to_serve {
            let Some(event) = events.pop() else { break };
            if measuring {
                let dt = (event.time - last_time).as_f64();
                area_customers += dt * in_system.len() as f64;
                if !in_system.is_empty() {
                    busy_time += dt;
                }
            }
            last_time = event.time;

            match event.payload {
                QueueEvent::Arrival => {
                    arrivals += 1;
                    let service_time = Seconds::new(service.sample(&mut rng));
                    let idle = in_system.is_empty();
                    in_system.push_back((event.time, service_time));
                    if idle {
                        events.schedule_after(service_time, QueueEvent::Departure);
                    }
                    // Generate exactly the arrivals that will be served, so no
                    // customer enters the system without completing.
                    if arrivals < total_to_serve {
                        events.schedule_after(
                            Seconds::new(interarrival.sample(&mut rng)),
                            QueueEvent::Arrival,
                        );
                    }
                }
                QueueEvent::Departure => {
                    let (arrival_time, service_time) = in_system
                        .pop_front()
                        .expect("departure without a customer in system");
                    served += 1;
                    if served > self.warmup_customers {
                        let sojourn = (event.time - arrival_time).as_f64();
                        total_sojourn += sojourn;
                        total_wait += sojourn - service_time.as_f64();
                        counted += 1;
                    } else if served == self.warmup_customers {
                        measuring = true;
                        measure_start = event.time;
                    }
                    if let Some(&(_, next_service)) = in_system.front() {
                        events.schedule_after(next_service, QueueEvent::Departure);
                    }
                }
            }
        }

        let horizon = (last_time - measure_start).as_f64().max(f64::EPSILON);
        Ok(SimulationReport {
            completed: counted,
            mean_time_in_system: Seconds::new(total_sojourn / counted.max(1) as f64),
            mean_waiting_time: Seconds::new((total_wait / counted.max(1) as f64).max(0.0)),
            mean_number_in_system: area_customers / horizon,
            utilization: busy_time / horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::MM1Queue;

    #[test]
    fn simulation_matches_analytic_sojourn_time() {
        let (lambda, mu) = (200.0, 1000.0);
        let sim = MM1Simulator::new(lambda, mu, 7).unwrap().with_warmup(2_000);
        let report = sim.run(60_000).unwrap();
        let analytic = MM1Queue::new(lambda, mu).unwrap();
        let rel_err =
            (report.mean_time_in_system.as_f64() - analytic.mean_time_in_system().as_f64()).abs()
                / analytic.mean_time_in_system().as_f64();
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }

    #[test]
    fn simulation_matches_analytic_utilization_and_length() {
        let (lambda, mu) = (400.0, 1000.0);
        let sim = MM1Simulator::new(lambda, mu, 11)
            .unwrap()
            .with_warmup(2_000);
        let report = sim.run(60_000).unwrap();
        assert_eq!(report.completed, 60_000);
        let analytic = MM1Queue::new(lambda, mu).unwrap();
        // Tight tolerances: with the time averages measured over the same
        // post-warm-up window as the sojourn statistics, the empty-system
        // transient no longer biases them low.
        assert!((report.utilization - analytic.utilization()).abs() < 0.01);
        assert!(
            (report.mean_number_in_system - analytic.mean_number_in_system()).abs()
                / analytic.mean_number_in_system()
                < 0.05
        );
    }

    #[test]
    fn waiting_time_below_sojourn_time() {
        let sim = MM1Simulator::new(100.0, 300.0, 3).unwrap().with_warmup(500);
        let report = sim.run(20_000).unwrap();
        assert!(report.mean_waiting_time < report.mean_time_in_system);
        assert!(report.completed > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            MM1Simulator::new(150.0, 500.0, seed)
                .unwrap()
                .run(5_000)
                .unwrap()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(MM1Simulator::new(0.0, 1.0, 0).is_err());
        assert!(MM1Simulator::new(1.0, -1.0, 0).is_err());
        let sim = MM1Simulator::new(1.0, 2.0, 0).unwrap().with_warmup(10);
        assert!(sim.run(0).is_err());
    }

    #[test]
    fn completed_equals_requested_customers_with_warmup() {
        // `run(n)` serves the warm-up customers *plus* n measured customers,
        // and every generated arrival completes service.
        for (warmup, customers) in [(0usize, 100usize), (50, 100), (100, 100), (500, 20)] {
            let sim = MM1Simulator::new(100.0, 300.0, 9)
                .unwrap()
                .with_warmup(warmup);
            let report = sim.run(customers).unwrap();
            assert_eq!(report.completed, customers, "warmup {warmup}");
        }
    }

    #[test]
    fn warmup_shrinks_the_gap_to_the_analytic_time_averages() {
        // The empty-system transient drags the from-t=0 averages low; a
        // warm-up window must not leave the estimate further from the
        // analytic steady state than the cold start does on this seed.
        let (lambda, mu) = (800.0, 1000.0);
        let analytic = MM1Queue::new(lambda, mu).unwrap();
        let gap = |warmup: usize| {
            let report = MM1Simulator::new(lambda, mu, 5)
                .unwrap()
                .with_warmup(warmup)
                .run(40_000)
                .unwrap();
            (report.mean_number_in_system - analytic.mean_number_in_system()).abs()
        };
        assert!(gap(4_000) <= gap(0) + 0.05, "warm-up should not hurt");
    }

    #[test]
    fn overloaded_queue_still_simulates() {
        // λ > µ is allowed for failure injection; delays just grow.
        let sim = MM1Simulator::new(500.0, 200.0, 1).unwrap();
        let report = sim.run(5_000).unwrap();
        assert!(report.utilization > 0.9);
        assert!(report.mean_time_in_system.as_f64() > 1.0 / 200.0);
    }
}
