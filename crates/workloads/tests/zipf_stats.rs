//! Statistical sanity for the Zipf sampler.
//!
//! `Zipf::sample` drives the E17 zipfian scenario, so a silently broken
//! CDF (off-by-one in `partition_point`, un-normalized weights, inverted
//! skew) would quietly invalidate every skewed benchmark. These tests
//! compare large empirical samples against the analytic distribution
//! across a theta sweep. Everything is seeded, so the observed frequencies
//! are reproducible and the tolerances can stay tight without flakiness.

use dsf_workloads::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The analytic Zipf pmf for `n` ranks at exponent `theta`.
fn analytic_pmf(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let h: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / h).collect()
}

/// Draws `samples` ranks and returns the empirical pmf.
fn empirical_pmf(n: usize, theta: f64, seed: u64, samples: usize) -> Vec<f64> {
    let zipf = Zipf::new(n, theta);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts = vec![0u64; n];
    for _ in 0..samples {
        let rank = zipf.sample(&mut rng);
        assert!(rank < n, "sample out of domain");
        counts[rank] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

#[test]
fn zipf_matches_analytic_distribution_across_theta_sweep() {
    const N: usize = 100;
    const SAMPLES: usize = 200_000;
    // theta = 0 is uniform; 0.99 is the YCSB classic; 1.5 is heavily
    // skewed. The sweep catches errors that only show at one extreme
    // (e.g. a normalization bug vanishes at theta = 0).
    for (i, &theta) in [0.0, 0.5, 0.99, 1.5].iter().enumerate() {
        let analytic = analytic_pmf(N, theta);
        let empirical = empirical_pmf(N, theta, 0x21BF + i as u64, SAMPLES);

        // Total variation distance: half the L1 gap between the pmfs.
        // With 200k samples over 100 ranks, a correct sampler lands well
        // under 0.01; a rank-shifted or un-normalized CDF blows past it.
        let tv = 0.5
            * analytic
                .iter()
                .zip(&empirical)
                .map(|(a, e)| (a - e).abs())
                .sum::<f64>();
        assert!(
            tv < 0.01,
            "theta={theta}: total variation {tv:.4} too large"
        );

        // Head ranks carry enough mass for a per-rank check: every rank
        // with analytic mass ≥ 2% must be within 8% relative error (≥ 5
        // sigma at 200k samples, so real CDF bugs fail and noise never
        // does; theta = 0 per-rank accuracy has its own test below).
        for (rank, (&a, &e)) in analytic.iter().zip(&empirical).enumerate() {
            if a >= 0.02 {
                let rel = (e - a).abs() / a;
                assert!(
                    rel < 0.08,
                    "theta={theta} rank={rank}: analytic {a:.4} vs empirical {e:.4}"
                );
            }
        }

        // Monotone skew: empirical mass must not increase with rank by
        // more than sampling noise anywhere in the head.
        if theta > 0.0 {
            for w in empirical[..10].windows(2) {
                assert!(w[0] + 0.01 > w[1], "head ranks out of order: {w:?}");
            }
        }
    }
}

#[test]
fn zipf_theta_zero_is_uniform() {
    const N: usize = 50;
    let empirical = empirical_pmf(N, 0.0, 0x21BF, 200_000);
    let uniform = 1.0 / N as f64;
    for (rank, &e) in empirical.iter().enumerate() {
        assert!(
            (e - uniform).abs() / uniform < 0.1,
            "rank {rank}: {e:.4} vs uniform {uniform:.4}"
        );
    }
}
