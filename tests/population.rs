//! Population-scale determinism tests: two runs of a hub trading with a
//! seeded partner population (mixed wire formats, Zipf-skewed traffic,
//! lurker partners that leave sessions idle forever) must be
//! byte-identical — the population-scale complement to the
//! two-enterprise matrix in `tests/determinism.rs`.

use b2b_bench::population::{run_population, PopulationConfig, PopulationPlan, SizeTier};
use proptest::prelude::*;

proptest! {
    // Each case is two full population runs over a 8-partner / 64-session
    // population; a handful of cases samples the seed space.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary population seeds (arbitrary wire-format mixes,
    /// responder/lurker splits, and Zipf traffic shapes), the run
    /// fingerprint — session outcomes, every engine counter, the settle
    /// planner's rounds/touched, the network's delivery counters — is the
    /// same on a second run.
    #[test]
    fn population_runs_are_settle_path_invariant(seed in any::<u64>()) {
        let plan = PopulationPlan::generate(SizeTier::Tiny, seed);
        let first = run_population(&plan, &PopulationConfig::default()).unwrap();
        let second = run_population(&plan, &PopulationConfig::default()).unwrap();
        prop_assert_eq!(
            &first.fingerprint, &second.fingerprint,
            "a second run diverged for seed {}", seed
        );
    }
}

#[test]
fn mostly_idle_population_is_settle_path_invariant() {
    // The hostile case for the touched-only planner: ~90% of traffic is
    // aimed at lurker partners, so almost every session goes idle and
    // stays resident. The responder sessions still complete, the idle
    // sessions stay resident, and a second run has the same outcomes and
    // planner counters.
    let mut plan = PopulationPlan::generate(SizeTier::Tiny, 97);
    let lurkers: Vec<u32> = plan
        .partners
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.responder)
        .map(|(i, _)| i as u32)
        .collect();
    let responders: Vec<u32> = plan
        .partners
        .iter()
        .enumerate()
        .filter(|(_, s)| s.responder)
        .map(|(i, _)| i as u32)
        .collect();
    assert!(!lurkers.is_empty() && !responders.is_empty(), "seed 97 must mix behaviours");
    plan.traffic = (0..plan.traffic.len())
        .map(|i| {
            if i % 10 == 0 {
                responders[i / 10 % responders.len()]
            } else {
                lurkers[i % lurkers.len()]
            }
        })
        .collect();
    let idle = plan.traffic.len() - plan.responder_sessions();
    assert!(idle * 2 > plan.traffic.len(), "the mix must be mostly idle");

    let base = run_population(&plan, &PopulationConfig::default()).unwrap();
    assert_eq!(base.completed, plan.responder_sessions(), "responder sessions completed");
    assert_eq!(
        base.settle.instances_resident as usize,
        3 * plan.traffic.len(),
        "each session keeps its public, binding, and private instances resident"
    );
    let again = run_population(&plan, &PopulationConfig::default()).unwrap();
    assert_eq!(base.fingerprint, again.fingerprint, "a second run diverged on the idle-heavy mix");
}
