//! Seeded input generation. Every input is a pure function of the
//! benchmark seed and the [`Scale`]; the program under test only ever
//! sees the generated fabrics, traffic matrices and query lines.
//!
//! Each workload uses a fixed mix of design points (family, size, radix,
//! estimator) and draws the wiring, the traffic-matrix seeds and, for
//! `dcnd_mix`, the query order from the benchmark seed. Two seeds thus
//! solve different fabrics but do the same kind and amount of work per
//! pass, which keeps the end-to-end figures comparable across seeds.

use crate::Scale;
use dcn_core::frontier::Family;
use dcn_core::CoreError;
use dcn_model::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Servers per switch in every generated random fabric (the paper's H=4).
pub const H: u32 = 4;

/// One random fabric: a family built at a size, radix and wiring seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Topology family.
    pub family: Family,
    /// Requested switch count (the family may round it).
    pub switches: usize,
    /// Switch radix.
    pub radix: u32,
    /// Wiring seed passed to the generator.
    pub seed: u64,
}

impl FabricSpec {
    /// Builds the fabric through the public family generator.
    pub fn build(&self) -> Result<Topology, CoreError> {
        self.family.build(self.switches, self.radix, H, self.seed)
    }
}

const FAMILIES: [Family; 3] = [Family::Jellyfish, Family::Xpander, Family::FatClique];

/// `n` sizes evenly spaced over `[lo, hi]`.
fn grid(n: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| {
        if n == 1 {
            lo
        } else {
            lo + (hi - lo) * i / (n - 1)
        }
    })
}

/// The `tub_sweep` pass: a fixed grid of design points in sweep order,
/// each wired from the seed. About three quarters sit below the
/// `exact_below: 600` threshold (exact Hungarian), a quarter above it
/// (greedy + 2-swap).
pub fn tub_sweep(seed: u64, scale: Scale) -> Vec<FabricSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7475_625f_7377);
    let (small, large) = match scale {
        Scale::Full => (grid(19, 128, 512), grid(6, 600, 1500)),
        Scale::Tiny => (grid(3, 32, 64), grid(1, 600, 600)),
    };
    // FatClique tops out near 530 switches at radix 12, so the greedy
    // side uses the larger radixes only.
    let small = small
        .enumerate()
        .map(|(i, n)| (FAMILIES[i % 3], n, [12, 14, 16][(i / 3) % 3]));
    let large = large
        .enumerate()
        .map(|(i, n)| (FAMILIES[i % 3], n, [14, 16][i % 2]));
    small
        .chain(large)
        .map(|(family, switches, radix)| FabricSpec {
            family,
            switches,
            radix,
            seed: rng.next_u64(),
        })
        .collect()
}

/// One `ksp_mcf` operation's input spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McfSpec {
    /// The Jellyfish fabric.
    pub fabric: FabricSpec,
    /// Paths per commodity.
    pub k: usize,
    /// `true` for `Engine::Exact`, `false` for `Engine::Fptas { eps: 0.03 }`.
    pub exact: bool,
}

/// The `ksp_mcf` pass: about half exact-simplex operations on small
/// Jellyfish (the sizes of the bound-chain integration test, four wirings
/// per size since simplex work varies several-fold between wirings), half
/// FPTAS operations on the `fig5` sizes, each wired from the seed.
pub fn ksp_mcf(seed: u64, scale: Scale) -> Vec<McfSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b73_705f_6d63);
    let (exact, fptas) = match scale {
        Scale::Full => (grid(9, 16, 40), grid(35, 96, 256)),
        Scale::Tiny => (grid(2, 12, 16), grid(2, 24, 32)),
    };
    let exact = exact
        .enumerate()
        .flat_map(|(i, n)| (0..4).map(move |w| (n, 8 + (i + w) as u32 % 3, 16, true)));
    let fptas = fptas.map(|n| (n, 12, 32, false));
    exact
        .chain(fptas)
        .map(|(switches, radix, k, exact)| McfSpec {
            fabric: FabricSpec {
                family: Family::Jellyfish,
                switches,
                radix,
                seed: rng.next_u64(),
            },
            k,
            exact,
        })
        .collect()
}

/// Queries per `process_batch` call in the `dcnd_mix` closed loop.
pub const BATCH: usize = 8;

/// One query line of the `dcnd_mix` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLine {
    /// The line sent to the daemon.
    pub line: String,
    /// Index of the logical (topology, tm, estimator) triple this line
    /// asks for; re-spelled repeats share it.
    pub ident: usize,
}

/// The topology of a logical query.
#[derive(Debug, Clone)]
enum Topo {
    Random {
        family: &'static str,
        switches: usize,
        radix: u32,
        seed: u64,
    },
    FatTree {
        k: u32,
    },
    Clos {
        radix: u32,
        layers: u32,
    },
}

/// A logical query: what the daemon must answer identically however it
/// is spelled.
#[derive(Debug, Clone)]
struct Triple {
    topo: Topo,
    tm_seed: u64,
    estimator: String,
}

impl Topo {
    /// The spec text. Seeded families are keyed on their verbatim text, so
    /// they have one spelling; fat-tree and Clos are keyed on their
    /// parameters, so `variant` re-spells them (field order, number form,
    /// explicit defaults, whitespace).
    fn spell(&self, variant: u32) -> String {
        match *self {
            Topo::Random {
                family,
                switches,
                radix,
                seed,
            } => format!(
                r#"{{"family":"{family}","switches":{switches},"radix":{radix},"h":{H},"seed":{seed}}}"#
            ),
            Topo::FatTree { k } => match variant % 3 {
                0 => format!(r#"{{"family":"fat_tree","k":{k}}}"#),
                1 => format!(r#"{{"k":{k}.0,"family":"fat_tree"}}"#),
                _ => format!(r#"{{ "family" : "fat_tree" , "k" : {k} }}"#),
            },
            Topo::Clos { radix, layers } => match variant % 3 {
                0 => format!(r#"{{"family":"clos","radix":{radix},"layers":{layers}}}"#),
                1 => format!(
                    r#"{{"layers":{layers},"radix":{radix},"top_pods":{radix},"spine_uplink_fraction":1.0,"leaf_servers":0,"family":"clos"}}"#
                ),
                _ => format!(r#"{{"family":"clos","layers":{layers}.0,"radix":{radix}}}"#),
            },
        }
    }
}

/// The fixed mix of distinct triples one pass asks for, grouped by
/// estimator (wiring and TM seeds are filled in from the benchmark seed):
/// - `tub`, `bbw`, `sc` and `singla` each on seeded Jellyfish, Xpander
///   and FatClique fabrics of 48–256 switches, and on fat-trees and Clos
///   networks (each twice, with different TMs);
/// - `hm(k)` and `jm(k)` on seeded fabrics of at most 96 switches, where
///   path enumeration stays affordable.
fn designs(scale: Scale) -> Vec<Vec<(Topo, String)>> {
    let full = scale == Scale::Full;
    let sizes: Vec<usize> = if full {
        grid(7, 48, 256).collect()
    } else {
        vec![24]
    };
    let ksp_sizes: Vec<usize> = if full {
        grid(4, 48, 96).collect()
    } else {
        vec![16]
    };
    let radixes: &[u32] = if full { &[10, 12, 14] } else { &[12] };
    let fat_ks: &[u32] = if full { &[4, 6, 8, 10, 12] } else { &[4] };
    let closes: &[(u32, u32)] = if full {
        &[(8, 2), (8, 3), (12, 2), (12, 3)]
    } else {
        &[(8, 2)]
    };
    let random = |family, switches, radix| Topo::Random {
        family,
        switches,
        radix,
        seed: 0,
    };
    let mut groups = Vec::new();
    for est in ["tub", "bbw", "sc", "singla"] {
        let mut group = Vec::new();
        for family in FAMILIES.map(|f| f.name()) {
            for &radix in radixes {
                for &n in &sizes {
                    group.push((random(family, n, radix), est.to_string()));
                }
            }
        }
        for _tm in 0..2 {
            for &k in fat_ks {
                group.push((Topo::FatTree { k }, est.to_string()));
            }
            for &(radix, layers) in closes {
                group.push((Topo::Clos { radix, layers }, est.to_string()));
            }
        }
        groups.push(group);
    }
    let mut ksp = Vec::new();
    for est in ["hm", "jm"] {
        for k in [4, 8] {
            for family in FAMILIES.map(|f| f.name()) {
                for &n in &ksp_sizes {
                    ksp.push((random(family, n, 12), format!("{est}({k})")));
                }
            }
        }
    }
    groups.push(ksp);
    groups
}

/// The `dcnd_mix` pass: every triple of [`designs`] asked once (three
/// times over at full scale, with fresh wiring and TM seeds), and as
/// many repeats of earlier triples, in [`BATCH`]-line batches of half new
/// and half repeated lines. New triples are dealt round-robin across the
/// estimator groups (each group in seeded order), so every batch carries
/// a similar mix and batch latency depends on the design mix, not on how
/// a seed happens to cluster the costly queries. A repeat is a cache hit
/// when its triple was answered in an earlier batch and an in-batch dedup
/// otherwise; repeats of fat-tree and Clos triples are re-spelled so the
/// daemon's canonical keys do the matching.
pub fn dcnd_mix(seed: u64, scale: Scale) -> Vec<QueryLine> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6463_6e64_6d78);
    let replicas = match scale {
        Scale::Full => 3,
        Scale::Tiny => 1,
    };
    let mut groups: Vec<std::vec::IntoIter<Triple>> = designs(scale)
        .into_iter()
        .map(|group| {
            let mut group: Vec<Triple> = std::iter::repeat_n(group, replicas)
                .flatten()
                .map(|(mut topo, estimator)| {
                    if let Topo::Random { seed, .. } = &mut topo {
                        // JSON numbers are doubles: keep seeds below 2^53.
                        *seed = rng.next_u64() >> 11;
                    }
                    Triple {
                        topo,
                        tm_seed: rng.next_u64() >> 11,
                        estimator,
                    }
                })
                .collect();
            group.shuffle(&mut rng);
            group.into_iter()
        })
        .collect();
    let mut triples: Vec<Triple> = Vec::new();
    while groups.iter().any(|g| g.len() > 0) {
        triples.extend(groups.iter_mut().filter_map(Iterator::next));
    }
    let mut lines = Vec::with_capacity(2 * triples.len());
    let mut asked = 0;
    for first in (0..triples.len()).step_by(BATCH / 2) {
        let fresh = (BATCH / 2).min(triples.len() - first);
        let mut repeat: Vec<bool> = (0..2 * fresh).map(|i| i >= fresh).collect();
        // The very first line cannot be a repeat.
        let from = usize::from(first == 0);
        repeat[from..].shuffle(&mut rng);
        for is_repeat in repeat {
            let (ident, variant) = if is_repeat {
                (rng.gen_range(0..asked), rng.gen_range(0..3u32))
            } else {
                asked += 1;
                (asked - 1, 0)
            };
            let t = &triples[ident];
            let id = lines.len();
            let line = format!(
                r#"{{"id":{id},"topology":{},"tm":{{"kind":"random_permutation","seed":{}}},"estimator":"{}"}}"#,
                t.topo.spell(variant),
                t.tm_seed,
                t.estimator
            );
            lines.push(QueryLine { line, ident });
        }
    }
    lines
}
