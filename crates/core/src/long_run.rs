//! WALK-ESTIMATE applied to the "one long run" scheme — the extension the
//! paper sketches at the end of Section 6.1.
//!
//! The standard WALK-ESTIMATE performs many short runs and keeps only the
//! final node of each walk. Its one-long-run counterpart keeps *every* node
//! along a single continuing walk as a candidate, estimates the sampling
//! probability of each position, and applies acceptance-rejection per
//! candidate. Compared to the many-short-runs WE it amortises the forward
//! walking cost across several candidates per pass, at the price of
//! correlated samples — the usual one-long-run trade-off, quantified by
//! [`effective_sample_size`](wnw_mcmc::effective_sample_size).
//!
//! The sampling probability of the node at step `t` of the continuing walk is
//! not stationary (that is the whole point of not waiting), so each candidate
//! at absolute step `t` is estimated exactly like a short-walk candidate with
//! walk length `min(t, t_max)`: beyond `t_max = 2·walk_length` steps the
//! distribution changes so little that the estimate for `t_max` is reused —
//! the same "estimate only as far back as matters" reasoning that motivates
//! the short walk in the first place.

use crate::config::WalkEstimateConfig;
use crate::history::WalkHistory;
use crate::sampler::Corrector;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;
use wnw_mcmc::sampler::{SampleRecord, Sampler};
use wnw_mcmc::transition::{RandomWalkKind, TargetDistribution};
use wnw_mcmc::walker;

/// One-long-run WALK-ESTIMATE: a single continuing walk whose positions are
/// individually corrected to the target distribution.
pub struct WalkEstimateLongRunSampler<N: SocialNetwork> {
    osn: N,
    walk_length: usize,
    corrector: Corrector,
    history: WalkHistory,
    current: NodeId,
    /// Absolute step index of `current` within the continuing walk.
    step: usize,
    /// Path of the continuing walk (feeds the weighted-sampling history).
    path: Vec<NodeId>,
}

impl<N: SocialNetwork> WalkEstimateLongRunSampler<N> {
    /// Creates a sampler starting from `osn.seed_node()`.
    pub fn new(osn: N, kind: RandomWalkKind, config: WalkEstimateConfig, seed: u64) -> Self {
        let start = osn.seed_node();
        WalkEstimateLongRunSampler {
            osn,
            walk_length: config.walk_length.resolve(None),
            corrector: Corrector::new(kind, config, start, seed),
            history: WalkHistory::new(),
            current: start,
            step: 0,
            path: vec![start],
        }
    }

    /// Re-resolves the walk length with a concrete diameter estimate.
    pub fn with_diameter_estimate(mut self, diameter: usize) -> Self {
        self.walk_length = self.corrector.config.walk_length.resolve(Some(diameter));
        self
    }

    /// The wrapped access layer.
    pub fn network(&self) -> &N {
        &self.osn
    }

    /// Total steps taken by the continuing walk so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// The walk length whose distribution is used to price the candidate at
    /// the current absolute step: capped at `2 × walk_length` because the
    /// distribution barely moves after that (the diminishing-returns
    /// observation of Section 4.1).
    fn effective_walk_length(&self) -> usize {
        self.step.min(2 * self.walk_length).max(1)
    }
}

impl<N: SocialNetwork> Sampler for WalkEstimateLongRunSampler<N> {
    fn draw(&mut self) -> Result<SampleRecord> {
        self.corrector.ensure_crawl(&self.osn)?;
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            // Advance the continuing walk by one step and consider the new
            // position a candidate.
            let c = &mut self.corrector;
            self.current = walker::step(&self.osn, c.kind, self.current, &mut c.rng)?;
            self.step += 1;
            self.path.push(self.current);
            // Feed the weighted-sampling history with the prefix that matters
            // for backward estimation (positions up to the capped length).
            if self.path.len() <= 2 * self.walk_length + 1 {
                self.history.record_walk(&self.path);
            }

            // For steps beyond the cap the walk no longer starts at `start`
            // from the estimator's point of view; the estimate of p_t is
            // performed against the *original* start, which stays valid
            // because the distribution after the cap changes negligibly.
            let t = self.effective_walk_length();
            let c = &mut self.corrector;
            let accept = c.accept(&self.osn, self.current, t, &self.history)?;
            if accept || attempts >= c.config.max_attempts_per_sample {
                return Ok(SampleRecord {
                    node: self.current,
                    query_cost: self.osn.query_cost(),
                    attempts,
                });
            }
        }
    }

    fn target(&self) -> TargetDistribution {
        self.corrector.kind.target()
    }

    fn name(&self) -> String {
        let c = &self.corrector;
        format!("{}-long-run({})", c.config.variant.label(), c.kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::{QueryBudget, SimulatedOsn};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::{collect_samples, effective_sample_size};

    fn graph(seed: u64) -> wnw_graph::Graph {
        barabasi_albert(400, 3, seed).unwrap()
    }

    #[test]
    fn produces_valid_samples_with_monotone_cost() {
        let g = graph(3);
        let osn = SimulatedOsn::new(g.clone());
        let mut sampler = WalkEstimateLongRunSampler::new(
            osn,
            RandomWalkKind::MetropolisHastings,
            WalkEstimateConfig::default(),
            7,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 15).unwrap();
        assert_eq!(run.len(), 15);
        assert!(sampler.steps_taken() >= 15);
        let mut last = 0;
        for s in &run.samples {
            assert!(g.contains(s.node));
            assert!(s.query_cost >= last);
            last = s.query_cost;
        }
        assert_eq!(sampler.name(), "WE-long-run(MHRW)");
        assert_eq!(sampler.target(), TargetDistribution::Uniform);
    }

    #[test]
    fn long_run_amortises_forward_walking() {
        // The amortisation claim of Section 6.1, stated on the quantity that
        // is deterministic: the continuing walk advances one step per
        // candidate instead of re-walking the full short-walk length, so its
        // total forward steps stay well below `samples × walk_length`.
        // (Unique-node query costs also tend to be lower, but that depends on
        // how much the short walks overlap around the start node, so it is
        // not asserted here.)
        let g = graph(5);
        let samples = 25;

        let osn_short = SimulatedOsn::new(g.clone());
        let short = crate::sampler::WalkEstimateSampler::new(
            osn_short,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            11,
        )
        .with_diameter_estimate(4);
        let short_walk_length = short.walk_length();

        let osn_long = SimulatedOsn::new(g);
        let mut long = WalkEstimateLongRunSampler::new(
            osn_long.clone(),
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            11,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut long, samples).unwrap();
        assert_eq!(run.len(), samples);

        let total_attempts: usize = run.samples.iter().map(|s| s.attempts as usize).sum();
        assert_eq!(
            long.steps_taken(),
            total_attempts,
            "one forward step per candidate"
        );
        assert!(
            long.steps_taken() < samples * short_walk_length,
            "long run took {} forward steps, short runs would take at least {}",
            long.steps_taken(),
            samples * short_walk_length
        );
    }

    #[test]
    fn long_run_samples_are_correlated() {
        // The price of amortisation: consecutive samples are nearby on the
        // graph, so the effective sample size of their degree sequence is
        // well below the raw count.
        let g = graph(7);
        let osn = SimulatedOsn::new(g.clone());
        let mut sampler = WalkEstimateLongRunSampler::new(
            osn,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            13,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 60).unwrap();
        let degrees: Vec<f64> = run.nodes().iter().map(|&v| g.degree(v) as f64).collect();
        let ess = effective_sample_size(&degrees);
        assert!(ess <= 60.0);
    }

    #[test]
    fn budget_exhaustion_stops_cleanly() {
        let osn = SimulatedOsn::builder(graph(9))
            .budget(QueryBudget(60))
            .build();
        let mut sampler = WalkEstimateLongRunSampler::new(
            osn,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            17,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 10_000).unwrap();
        assert!(run.budget_exhausted);
        assert!(run.final_query_cost() <= 60);
    }
}
