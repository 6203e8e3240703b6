//! Acceptance-rejection sampling (Section 2.3 / 6.3.2).
//!
//! Given a node sampled with probability `p(u)` while the desired target
//! distribution assigns it `q(u)`, the sample is accepted with probability
//!
//! ```text
//! β(u) = q(u) / p(u) · min_v p(v)/q(v)
//! ```
//!
//! The awkward part in practice is the scaling factor `min_v p(v)/q(v)`: with
//! no global topology knowledge it cannot be computed exactly, so the paper
//! bootstraps it from the sampling probabilities estimated so far and takes
//! their **10th percentile** (Section 6.3.2). A manual threshold is also
//! supported for the corresponding ablation.

/// How the rejection-sampling scaling factor `min_v p(v)/q(v)` is obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingFactorPolicy {
    /// Use the exact minimum of the observed `p(v)/q(v)` ratios. Unbiased as
    /// long as the true minimiser has been observed; conservative (more
    /// rejections) otherwise.
    ExactMin,
    /// Use the given percentile (in `[0, 100]`) of observed ratios — the
    /// paper uses the 10th percentile. Values above the true minimum trade a
    /// little bias for fewer rejections.
    Percentile(f64),
    /// A fixed, manually chosen scaling factor.
    Manual(f64),
}

impl Default for ScalingFactorPolicy {
    fn default() -> Self {
        ScalingFactorPolicy::Percentile(10.0)
    }
}

impl ScalingFactorPolicy {
    /// Resolves the scaling factor from the observed `p(v)/q(v)` ratios.
    ///
    /// Returns `None` when no ratios are available (the caller should then
    /// accept the sample unconditionally or defer).
    pub fn resolve(&self, observed_ratios: &[f64]) -> Option<f64> {
        match *self {
            ScalingFactorPolicy::Manual(value) => Some(value),
            ScalingFactorPolicy::ExactMin => observed_ratios
                .iter()
                .copied()
                .filter(|r| r.is_finite() && *r > 0.0)
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.min(r)))
                }),
            ScalingFactorPolicy::Percentile(pct) => {
                let mut clean: Vec<f64> = observed_ratios
                    .iter()
                    .copied()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .collect();
                if clean.is_empty() {
                    return None;
                }
                let pct = pct.clamp(0.0, 100.0);
                let idx = ((pct / 100.0) * (clean.len() - 1) as f64).round() as usize;
                // The value a full sort would put at `idx`, in linear time.
                let (_, &mut value, _) = clean
                    .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("filtered NaNs"));
                Some(value)
            }
        }
    }
}

/// The acceptance probability `β(u)` for a node sampled with probability
/// `sampled_prob` whose (unnormalised) target weight is `target_weight`,
/// given the resolved scaling factor.
///
/// Unnormalised weights are fine because the normalising constant cancels
/// between numerator and scaling factor; the result is clamped to `[0, 1]`
/// (a scaling factor above the true minimum can push the raw value past 1,
/// which is exactly the mild under-sampling bias Section 2.3 discusses).
pub fn acceptance_probability(sampled_prob: f64, target_weight: f64, scaling_factor: f64) -> f64 {
    if sampled_prob <= 0.0 || target_weight <= 0.0 {
        return 0.0;
    }
    ((target_weight / sampled_prob) * scaling_factor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_min_policy_takes_minimum() {
        let policy = ScalingFactorPolicy::ExactMin;
        assert_eq!(policy.resolve(&[0.5, 0.2, 0.9]), Some(0.2));
        assert_eq!(policy.resolve(&[]), None);
        assert_eq!(policy.resolve(&[f64::INFINITY, 0.4]), Some(0.4));
    }

    #[test]
    fn percentile_policy_matches_sorted_index() {
        let policy = ScalingFactorPolicy::Percentile(10.0);
        let ratios: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // 10th percentile of 1..=100 lands near 10.9 -> index 10 -> value 11.
        let resolved = policy.resolve(&ratios).unwrap();
        assert!((9.0..=12.0).contains(&resolved), "{resolved}");
        assert_eq!(
            ScalingFactorPolicy::Percentile(0.0).resolve(&ratios),
            Some(1.0)
        );
        assert_eq!(
            ScalingFactorPolicy::Percentile(100.0).resolve(&ratios),
            Some(100.0)
        );
        assert_eq!(policy.resolve(&[]), None);
    }

    #[test]
    fn percentile_selection_equals_the_sorted_index_value() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1usize, 2, 3, 10, 97, 4096] {
            // Few distinct values, so ties are common.
            let ratios: Vec<f64> = (0..len)
                .map(|_| rng.gen_range(1..20) as f64 / 8.0)
                .collect();
            let mut sorted = ratios.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pct in [0.0, 10.0, 50.0, 100.0] {
                let idx = ((pct / 100.0) * (len - 1) as f64).round() as usize;
                assert_eq!(
                    ScalingFactorPolicy::Percentile(pct).resolve(&ratios),
                    Some(sorted[idx]),
                    "len {len} pct {pct}"
                );
            }
        }
        assert_eq!(
            ScalingFactorPolicy::Percentile(10.0).resolve(&[0.25]),
            Some(0.25)
        );
    }

    #[test]
    fn manual_policy_passes_through() {
        assert_eq!(ScalingFactorPolicy::Manual(0.123).resolve(&[]), Some(0.123));
    }

    #[test]
    fn acceptance_probability_bounds() {
        assert_eq!(acceptance_probability(0.0, 1.0, 0.5), 0.0);
        assert_eq!(acceptance_probability(0.5, 0.0, 0.5), 0.0);
        assert_eq!(acceptance_probability(1e-9, 1.0, 1.0), 1.0); // clamped
        let beta = acceptance_probability(0.2, 1.0, 0.1);
        assert!((beta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejection_corrects_a_biased_sampler_to_uniform() {
        // Three "nodes" sampled with probabilities (0.6, 0.3, 0.1); target is
        // uniform. With the exact scaling factor min p/q = 0.1/(1/3) => use
        // unnormalised weights: scale = min p(v)/w(v) = 0.1.
        let p = [0.6, 0.3, 0.1];
        let scale = ScalingFactorPolicy::ExactMin
            .resolve(&p.iter().map(|&x| x / 1.0).collect::<Vec<_>>())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut accepted = [0usize; 3];
        for _ in 0..300_000 {
            let r: f64 = rng.gen();
            let node = if r < p[0] {
                0
            } else if r < p[0] + p[1] {
                1
            } else {
                2
            };
            let beta = acceptance_probability(p[node], 1.0, scale);
            if rng.gen::<f64>() < beta {
                accepted[node] += 1;
            }
        }
        let total: usize = accepted.iter().sum();
        for &count in &accepted {
            let frac = count as f64 / total as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "{accepted:?}");
        }
    }
}
