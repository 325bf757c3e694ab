//! The exec determinism contract, end to end: a full resilience curve and
//! a near-worst traffic search — both on their incremental delta paths —
//! must be *byte-identical* under `DCN_EXEC_THREADS=1` and
//! `DCN_EXEC_THREADS=4`.
//!
//! Everything lives in one `#[test]` because the thread count is a
//! process-global environment variable: separate tests would race on it.

use dcn_core::nearworst::adversarial_search;
use dcn_core::resilience::failure_sweep;
use dcn_core::MatchingBackend;
use dcn_exec::{task_seed, Pool};
use dcn_guard::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use dcn_cache::prelude::*;

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("DCN_EXEC_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("DCN_EXEC_THREADS");
    out
}

#[test]
fn thread_count_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(99);
    let topo = dcn_topo::jellyfish(36, 8, 4, &mut rng).unwrap();

    // 1. Raw par_map with per-task RNG streams.
    let draw = |threads: usize| {
        with_threads(threads, || {
            let items: Vec<u64> = (0..64).collect();
            Pool::from_env()
                .par_map(&unlimited(), &items, |i, _| {
                    let mut r = StdRng::seed_from_u64(task_seed(7, i as u64));
                    Ok::<_, BudgetError>(r.next_u64())
                })
                .unwrap()
        })
    };
    assert_eq!(draw(1), draw(4), "par_map RNG streams depend on threads");

    // 2. Full resilience curve, compared field-by-field at the bit level.
    // Run uncached, then cold and warm against one shared cache: hits must
    // be bit-identical to recomputation at every thread count.
    let sweep = |threads: usize, cache: &dcn_cache::CacheHandle| {
        with_threads(threads, || {
            failure_sweep(
                &topo,
                &[0.0, 0.05, 0.1, 0.2],
                3,
                MatchingBackend::Exact,
                11,
                &SolveCtx::unlimited(cache),
            )
            .unwrap()
        })
    };
    let cache = dcn_cache::CacheHandle::in_memory(1 << 24);
    let runs = [
        sweep(1, &nocache()),
        sweep(4, &nocache()),
        sweep(1, &cache), // cold
        sweep(4, &cache), // warm
        sweep(1, &cache), // warm
    ];
    for pair in runs.windows(2) {
        let (s1, s4) = (&pair[0], &pair[1]);
        assert_eq!(s1.len(), s4.len());
        for (a, b) in s1.iter().zip(s4.iter()) {
            assert_eq!(a.fraction.to_bits(), b.fraction.to_bits());
            assert_eq!(a.nominal.to_bits(), b.nominal.to_bits());
            assert_eq!(a.actual.map(f64::to_bits), b.actual.map(f64::to_bits));
            assert_eq!(a.trials, b.trials);
        }
    }

    // 3. Near-worst search: the accepted swap sequence (and thus the final
    // θ and improvement count) must not depend on the pool width.
    let search = |threads: usize| {
        with_threads(threads, || {
            adversarial_search(&topo, 12, 6, 0.1, 3, &unlimited_ctx()).unwrap()
        })
    };
    let (n1, n4) = (search(1), search(4));
    assert_eq!(n1.theta.to_bits(), n4.theta.to_bits());
    assert_eq!(n1.theta_start.to_bits(), n4.theta_start.to_bits());
    assert_eq!(n1.improvements, n4.improvements);
}
