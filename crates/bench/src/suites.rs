//! Assembly of the paper's benchmark suites (§VII) into paired TO/PO
//! instances.

use qbf_core::solver::SolverConfig;
use qbf_core::Qbf;
use qbf_gen::{bomb_in_toilet, fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, PlanningParams, RandParams};
use qbf_models::{counter, dme, gray, ring, semaphore, SymbolicModel};
use qbf_prenex::{miniscope, po_to_ratio, prenex, Strategy};

/// Experiment scale: `Small` keeps every experiment in seconds for CI-like
/// runs, `Paper` approaches the published parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick sweep (default).
    Small,
    /// The published grid (long runtimes).
    Paper,
}

impl Scale {
    /// The node budget (assignment count) standing in for the paper's CPU
    /// timeout.
    pub fn budget(self) -> u64 {
        match self {
            Scale::Small => 200_000,
            Scale::Paper => 5_000_000,
        }
    }

    /// The raised budget of the DIA experiments (the paper used 3600 s
    /// there instead of 600 s).
    pub fn dia_budget(self) -> u64 {
        self.budget() * 6
    }

    /// The largest bound `n` the DIA experiments probe (φ0 … φmax).
    pub fn dia_max_n(self) -> u32 {
        match self {
            Scale::Small => 10,
            Scale::Paper => 40,
        }
    }

    /// The tie window standing in for the paper's "within 1 s".
    pub fn tie(self) -> std::time::Duration {
        match self {
            Scale::Small => std::time::Duration::from_millis(5),
            Scale::Paper => std::time::Duration::from_millis(100),
        }
    }

    /// Instances (seeds) per parameter setting. Override with the
    /// `QBF_REPRO_SEEDS` environment variable.
    pub fn seeds(self) -> usize {
        if let Some(n) = std::env::var("QBF_REPRO_SEEDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return n.max(1);
        }
        match self {
            Scale::Small => 4,
            Scale::Paper => 20,
        }
    }
}

/// The solver configuration for QUBE(TO)-style runs.
pub fn to_config(budget: u64) -> SolverConfig {
    SolverConfig::total_order().with_node_limit(budget)
}

/// The solver configuration for QUBE(PO)-style runs.
pub fn po_config(budget: u64) -> SolverConfig {
    SolverConfig::partial_order().with_node_limit(budget)
}

/// One suite element: a non-prenex instance for PO plus its prenexed
/// variants for TO.
#[derive(Debug, Clone)]
pub struct SuiteInstance {
    /// Instance label (unique within the suite).
    pub label: String,
    /// Parameter-setting key (Fig. 3 aggregates medians per setting).
    pub group: String,
    /// The non-prenex instance solved by QUBE(PO).
    pub po: Qbf,
    /// Prenexed variants solved by QUBE(TO), keyed by strategy.
    pub to: Vec<(Strategy, Qbf)>,
}

/// The NCF suite (§VII-A): every instance is prenexed with all four
/// strategies.
pub fn ncf_suite(scale: Scale) -> Vec<SuiteInstance> {
    let grid = match scale {
        Scale::Small => NcfParams::small_grid(),
        Scale::Paper => NcfParams::paper_grid(),
    };
    let mut out = Vec::new();
    for params in &grid {
        for seed in 0..scale.seeds() as u64 {
            let po = ncf(params, seed);
            let to = Strategy::ALL
                .iter()
                .map(|&s| (s, prenex(&po, s)))
                .collect();
            out.push(SuiteInstance {
                label: format!("{params}#{seed}"),
                group: params.to_string(),
                po,
                to,
            });
        }
    }
    out
}

/// The FPV suite (§VII-B): prenexed with ∃↑∀↑ only (the strategy the paper
/// selects after the NCF experiments).
pub fn fpv_suite(scale: Scale) -> Vec<SuiteInstance> {
    let grid = match scale {
        Scale::Small => FpvParams::grid().into_iter().step_by(4).collect::<Vec<_>>(),
        Scale::Paper => FpvParams::grid(),
    };
    let mut out = Vec::new();
    for params in &grid {
        for seed in 0..scale.seeds() as u64 {
            let po = fpv(params, seed);
            let to = vec![(
                Strategy::ExistsUpForallUp,
                prenex(&po, Strategy::ExistsUpForallUp),
            )];
            out.push(SuiteInstance {
                label: format!("{params}#{seed}"),
                group: params.to_string(),
                po,
                to,
            });
        }
    }
    out
}

/// The models of the DIA suite (§VII-C) at the given scale.
pub fn dia_models(scale: Scale) -> Vec<SymbolicModel> {
    match scale {
        Scale::Small => vec![
            counter(2),
            counter(3),
            gray(3),
            ring(3),
            ring(4),
            semaphore(2),
            semaphore(3),
            dme(2),
            dme(3),
        ],
        Scale::Paper => {
            let mut v = Vec::new();
            for n in 4..=8 {
                v.push(counter(n));
            }
            for n in 3..=5 {
                v.push(gray(n));
            }
            for n in 3..=6 {
                v.push(ring(n));
            }
            for n in 2..=6 {
                v.push(semaphore(n));
            }
            for n in 2..=5 {
                v.push(dme(n));
            }
            v
        }
    }
}

/// The PROB suite (§VII-D): random prenex instances, miniscoped; only
/// instances whose PO/TO ratio exceeds 20 % (footnote 9) are kept.
pub fn prob_suite(scale: Scale) -> Vec<SuiteInstance> {
    let settings: Vec<RandParams> = match scale {
        Scale::Small => vec![
            RandParams::three_block(12, 9, 12, 110, 5).with_locality(3, 10),
            RandParams::three_block(16, 10, 16, 170, 5).with_locality(4, 10),
            RandParams::three_block(20, 12, 20, 260, 5).with_locality(4, 8),
        ],
        Scale::Paper => vec![
            RandParams::three_block(12, 9, 12, 110, 4).with_locality(3, 15),
            RandParams::three_block(16, 12, 16, 160, 4).with_locality(4, 15),
            RandParams::three_block(20, 12, 20, 200, 5).with_locality(4, 10),
            RandParams::three_block(15, 12, 15, 150, 5).with_locality(3, 10),
        ],
    };
    let mut pool: Vec<(String, Qbf, u64)> = settings
        .iter()
        .flat_map(|p| {
            (0..scale.seeds() as u64 * 2).map(move |s| (p.to_string(), rand_qbf(p, s), s))
        })
        .collect();
    // The PROB class also contains conformant-planning encodings ([36] in
    // the paper). Like most of the paper's probabilistic instances, their
    // miniscoped form rarely passes the 20 % structure filter — they are
    // candidates, and their (usual) exclusion is part of the experiment.
    for (i, plan) in [
        PlanningParams { packages: 4, steps: 4, toilets: 1, clogging: false },
        PlanningParams { packages: 4, steps: 3, toilets: 2, clogging: true },
        PlanningParams { packages: 5, steps: 5, toilets: 1, clogging: false },
    ]
    .iter()
    .enumerate()
    {
        pool.push((plan.to_string(), bomb_in_toilet(plan), i as u64));
    }
    filtered_miniscope_suite(pool)
}

/// The FIXED suite (§VII-D): structured prenex instances.
pub fn fixed_suite(scale: Scale) -> Vec<SuiteInstance> {
    let settings: Vec<FixedParams> = match scale {
        Scale::Small => vec![
            FixedParams {
                groups: 3,
                depth: 5,
                block_vars: 4,
                clauses_per_group: 70,
                lpc: 5,
            },
            FixedParams {
                groups: 4,
                depth: 5,
                block_vars: 4,
                clauses_per_group: 60,
                lpc: 5,
            },
        ],
        Scale::Paper => vec![
            FixedParams {
                groups: 4,
                depth: 5,
                block_vars: 4,
                clauses_per_group: 55,
                lpc: 5,
            },
            FixedParams {
                groups: 6,
                depth: 5,
                block_vars: 4,
                clauses_per_group: 60,
                lpc: 5,
            },
            FixedParams {
                groups: 8,
                depth: 3,
                block_vars: 6,
                clauses_per_group: 70,
                lpc: 5,
            },
        ],
    };
    filtered_miniscope_suite(
        settings
            .iter()
            .flat_map(|p| {
                (0..scale.seeds() as u64 * 2)
                    .map(move |s| (p.to_string(), fixed(p, s).prenex, s))
            })
            .collect(),
    )
}

/// Shared §VII-D pipeline: miniscope the prenex instance, apply the
/// footnote-9 filter, and pair (original prenex → TO) with (miniscoped →
/// PO).
fn filtered_miniscope_suite(instances: Vec<(String, Qbf, u64)>) -> Vec<SuiteInstance> {
    let mut out = Vec::new();
    for (group, flat, seed) in instances {
        let Ok(mini) = miniscope(&flat) else {
            continue;
        };
        if po_to_ratio(&mini.qbf, &flat) <= 20.0 {
            continue;
        }
        out.push(SuiteInstance {
            label: format!("{group}#{seed}"),
            group,
            po: mini.qbf,
            to: vec![(Strategy::ExistsUpForallUp, flat)],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbf_core::semantics;

    #[test]
    fn ncf_suite_pairs_are_equivalent() {
        // Downscale further for the test: one tiny setting.
        let params = NcfParams {
            dep: 3,
            var: 1,
            cls_ratio: 2,
            lpc: 2,
        };
        for seed in 0..3 {
            let po = ncf(&params, seed);
            for s in Strategy::ALL {
                let to = prenex(&po, s);
                assert_eq!(semantics::eval(&to), semantics::eval(&po), "{s}");
            }
        }
    }

    #[test]
    fn small_suites_are_nonempty() {
        assert!(!ncf_suite(Scale::Small).is_empty());
        assert!(!fpv_suite(Scale::Small).is_empty());
        assert!(!dia_models(Scale::Small).is_empty());
        assert!(!fixed_suite(Scale::Small).is_empty());
    }

    #[test]
    fn fixed_suite_survives_filter() {
        let suite = fixed_suite(Scale::Small);
        assert!(!suite.is_empty(), "FIXED instances must pass the 20% filter");
        for inst in &suite {
            assert!(!inst.po.is_prenex());
            assert!(inst.to[0].1.is_prenex());
        }
    }

    #[test]
    fn prob_and_fixed_pairs_equivalent_semantically() {
        // Use minimal random instances to keep the naive oracle feasible.
        let settings = RandParams::three_block(2, 2, 2, 8, 2);
        let insts: Vec<(String, Qbf, u64)> = (0..6)
            .map(|s| ("t".to_string(), rand_qbf(&settings, s), s))
            .collect();
        for inst in filtered_miniscope_suite(insts) {
            assert_eq!(
                semantics::eval(&inst.po),
                semantics::eval(&inst.to[0].1),
                "{}",
                inst.label
            );
        }
    }
}
