//! The workloads' inputs: fixed function pools, seeded unit orders, and
//! the expected outcome table every run is checked against.
//!
//! The pools are generated once from [`POOL_SEED`], the seed every fact in
//! the benchmark's README was measured on (unit 173's spurious rejection,
//! the heavy ISel units 70 and 138, the budget-exhausted regalloc units).
//! `--seed` never changes *which* functions run, only the order they are
//! submitted in and the known-answer slice, so runs under different seeds
//! do the same work and the expected table holds for every seed.

use std::collections::BTreeMap;

use keq_isel::PassId;
use keq_llvm::ast::{Function, Module};
use keq_prng::Prng;
use keq_workload::{generate_corpus, GenConfig};

/// Generator seed of every pool.
pub const POOL_SEED: u64 = 2021;
/// `isel-campaign`: the first this many default-profile functions.
pub const ISEL_FUNCS: usize = 200;
/// `regalloc-spill`: the first this many `pressure: 10` functions.
pub const REGALLOC_FUNCS: usize = 48;
/// `regalloc-spill`: register pressure of the generator profile.
pub const REGALLOC_PRESSURE: usize = 10;
/// `serve-warm`: default-profile functions `SERVE_FROM..SERVE_TO`. The
/// range holds the two fast ISel rejections (units 173 and 229) and none
/// of the units that run into the watchdog (67, 70, 122, 138).
pub const SERVE_FROM: usize = 170;
/// End (exclusive) of the `serve-warm` function range.
pub const SERVE_TO: usize = 230;
/// Passes every `serve-warm` function is requested under.
pub const SERVE_PASSES: [PassId; 2] = [PassId::Isel, PassId::Gvn];

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IselCampaign,
    RegallocSpill,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IselCampaign,
        Workload::RegallocSpill,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IselCampaign => "isel-campaign",
            Workload::RegallocSpill => "regalloc-spill",
            Workload::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The default-profile pool of the first `n` functions.
pub fn default_pool(n: usize) -> Module {
    generate_corpus(
        GenConfig {
            seed: POOL_SEED,
            ..GenConfig::default()
        },
        n,
    )
}

/// The high-register-pressure pool of `regalloc-spill`.
pub fn pressure_pool() -> Module {
    generate_corpus(
        GenConfig {
            seed: POOL_SEED,
            pressure: REGALLOC_PRESSURE,
            ..GenConfig::default()
        },
        REGALLOC_FUNCS,
    )
}

/// `module` with its functions in `order`.
pub fn reorder(module: &Module, order: &[usize]) -> Module {
    Module {
        globals: module.globals.clone(),
        functions: order.iter().map(|&i| module.functions[i].clone()).collect(),
        declarations: module.declarations.clone(),
    }
}

/// A one-function request module (the corpus globals and declarations
/// ride along), the payload a `keq_client` sends.
pub fn request_module(module: &Module, func: &Function) -> Module {
    Module {
        globals: module.globals.clone(),
        functions: vec![func.clone()],
        declarations: module.declarations.clone(),
    }
}

fn size(f: &Function) -> usize {
    f.blocks.iter().map(|b| b.instrs.len() + 1).sum()
}

/// Submission order of a batch workload: units the expected table marks
/// as not validated first (they are the long ones: the watchdog and
/// budget cases), then the rest largest first, ties broken by `seed`.
/// Heavy units starting first keeps the makespan from depending on where
/// a permutation happens to drop them.
pub fn batch_order(
    module: &Module,
    workload: Workload,
    pass: PassId,
    expected: &Expected,
    seed: u64,
) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut keyed: Vec<(bool, std::cmp::Reverse<usize>, u64, usize)> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let ok = expected.class(workload, pass, &f.name) == Some("succeeded");
            (ok, std::cmp::Reverse(size(f)), rng.next_u64(), i)
        })
        .collect();
    keyed.sort();
    keyed.into_iter().map(|k| k.3).collect()
}

/// One `serve-warm` request: a function of the serve range under a pass.
#[derive(Debug, Clone)]
pub struct ServeUnit {
    pub name: String,
    pub pass: PassId,
    /// Index of the function in the serve range.
    pub func: usize,
}

/// The `serve-warm` request mix split over `conns` connections: every
/// (function, pass) pair once, the expected rejections dealt out evenly
/// so each connection's pass over its share holds the same number of
/// them, each share shuffled by `seed`.
pub fn serve_shares(
    funcs: &[Function],
    expected: &Expected,
    conns: usize,
    seed: u64,
) -> Vec<Vec<ServeUnit>> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut failing = Vec::new();
    let mut passing = Vec::new();
    for (i, f) in funcs.iter().enumerate() {
        for pass in SERVE_PASSES {
            let unit = ServeUnit {
                name: f.name.clone(),
                pass,
                func: i,
            };
            if expected.class(Workload::ServeWarm, pass, &f.name) == Some("succeeded") {
                passing.push(unit);
            } else {
                failing.push(unit);
            }
        }
    }
    let mut shares: Vec<Vec<ServeUnit>> = vec![Vec::new(); conns];
    for (i, u) in failing.into_iter().chain(passing).enumerate() {
        shares[i % conns].push(u);
    }
    for share in &mut shares {
        for i in (1..share.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            share.swap(i, j);
        }
    }
    shares
}

/// The expected outcome class of every unit of every workload, keyed by
/// (workload, pass, function name). Loaded from `expected.txt`, whose
/// lines read `<workload> <pass> <function> <class>`.
pub struct Expected {
    table: BTreeMap<(String, String, String), String>,
}

impl Expected {
    pub fn builtin() -> Expected {
        Expected::parse(include_str!("../expected.txt"))
    }

    pub fn parse(text: &str) -> Expected {
        let mut table = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, p, name, class] = f[..] {
                table.insert(
                    (w.to_owned(), p.to_owned(), name.to_owned()),
                    class.to_owned(),
                );
            }
        }
        Expected { table }
    }

    pub fn class(&self, w: Workload, pass: PassId, name: &str) -> Option<&str> {
        self.table
            .get(&(w.name().to_owned(), pass.name().to_owned(), name.to_owned()))
            .map(String::as_str)
    }
}

/// Outcome classes observed in one run, checked against [`Expected`].
#[derive(Default)]
pub struct Observed {
    /// Every unit whose class differed from the table.
    pub mismatched: u64,
    /// The first few of them, described.
    pub mismatches: Vec<String>,
}

impl Observed {
    /// Records one unit's class, noting a mismatch against the table (a
    /// unit may be recorded many times — every batch, every request).
    pub fn record(
        &mut self,
        expected: &Expected,
        w: Workload,
        pass: PassId,
        name: &str,
        class: &str,
    ) {
        let want = expected.class(w, pass, name);
        if want != Some(class) {
            self.mismatched += 1;
        }
        if want != Some(class) && self.mismatches.len() < 32 {
            self.mismatches.push(format!(
                "{} {} {name}: expected {}, got {class}",
                w.name(),
                pass.name(),
                want.unwrap_or("<no entry>")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_expected() -> Expected {
        Expected::parse(
            "# comment\nserve-warm isel fn0 other\nserve-warm gvn fn0 succeeded\n\
             serve-warm isel fn1 other\nserve-warm gvn fn1 succeeded\n\
             serve-warm isel fn2 succeeded\nserve-warm gvn fn2 succeeded\n",
        )
    }

    #[test]
    fn table_lookup() {
        let e = toy_expected();
        assert_eq!(
            e.class(Workload::ServeWarm, PassId::Isel, "fn0"),
            Some("other")
        );
        assert_eq!(e.class(Workload::ServeWarm, PassId::Regalloc, "fn0"), None);
    }

    #[test]
    fn shares_balance_rejections_and_are_seeded() {
        let m = default_pool(3);
        let e = toy_expected();
        let a = serve_shares(&m.functions, &e, 2, 7);
        let b = serve_shares(&m.functions, &e, 2, 7);
        assert_eq!(a.len(), 2);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.len(), 3);
            let failing = sa
                .iter()
                .filter(|u| e.class(Workload::ServeWarm, u.pass, &u.name) != Some("succeeded"))
                .count();
            assert_eq!(failing, 1);
            let na: Vec<_> = sa.iter().map(|u| (&u.name, u.pass)).collect();
            let nb: Vec<_> = sb.iter().map(|u| (&u.name, u.pass)).collect();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn batch_order_puts_expected_failures_first_and_is_seeded() {
        let m = default_pool(6);
        let mut table = String::new();
        for f in &m.functions {
            let class = if f.name == "fn4" {
                "timeout"
            } else {
                "succeeded"
            };
            table.push_str(&format!("isel-campaign isel {} {class}\n", f.name));
        }
        let e = Expected::parse(&table);
        let o = batch_order(&m, Workload::IselCampaign, PassId::Isel, &e, 1);
        assert_eq!(o[0], 4);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_eq!(
            o,
            batch_order(&m, Workload::IselCampaign, PassId::Isel, &e, 1)
        );
    }
}
